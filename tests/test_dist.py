from fractions import Fraction

import numpy as np
import pytest

from djunta import BitFeed, BitString, FiniteDistribution
from djunta.boolfn import rows_of, scale_draws
from djunta.errors import ContractError, DimensionError, EmptyDomainError


def test_uniform_cube_mass():
    D = FiniteDistribution.uniform_cube(3)
    assert D.kind == "uniform_cube"
    for b in range(8):
        assert D.mass(BitString(3, b)) == Fraction(1, 8)


def test_support_uniform_mass():
    D = FiniteDistribution.support(4, (0b0001, 0b1010, 0b1111))
    assert D.is_uniform_support
    assert D.support_size() == 3
    assert D.mass(BitString(4, 0b1010)) == Fraction(1, 3)
    assert D.mass(BitString(4, 0b0000)) == Fraction(0)


def test_weighted_support_mass():
    D = FiniteDistribution.support(2, (0, 3), weights=(0.25, 0.75))
    assert not D.is_uniform_support
    assert D.mass(BitString(2, 3)) == pytest.approx(0.75)
    assert D.mass(BitString(2, 1)) == 0.0


def test_int_mass_checks_width():
    # An int point is read as n bits, like a BitString: anything outside
    # 0 .. 2**n - 1 is refused, not given a mass.
    cube = FiniteDistribution.uniform_cube(3)
    supp = FiniteDistribution.support(3, (0b001, 0b111))
    weighted = FiniteDistribution.support(3, (0b001, 0b111), weights=(0.5, 0.5))
    for D in (cube, supp, weighted):
        assert sum(D.mass(b) for b in range(8)) == pytest.approx(1)
        for bad in (8, -1, 1 << 64):
            with pytest.raises(DimensionError):
                D.mass(bad)
        with pytest.raises(DimensionError):
            D.mass(BitString(4, 1))
    assert cube.mass(7) == Fraction(1, 8)
    assert supp.mass(0b111) == Fraction(1, 2)
    assert supp.mass(0) == Fraction(0)


def test_support_validation():
    with pytest.raises(EmptyDomainError):
        FiniteDistribution.support(3, ())
    with pytest.raises(EmptyDomainError):
        FiniteDistribution.uniform_cube(0)
    with pytest.raises(ContractError):
        FiniteDistribution.support(3, (1, 1))
    with pytest.raises(DimensionError):
        FiniteDistribution.support(2, (5,))
    with pytest.raises(DimensionError):
        FiniteDistribution.support(2, (-1,))
    with pytest.raises(ContractError):
        FiniteDistribution.support(2, (0, 1), weights=(0.5,))
    with pytest.raises(ContractError):
        FiniteDistribution.support(2, (0, 1), weights=(0.7, 0.7))
    with pytest.raises(ContractError):
        FiniteDistribution.support(2, (0, 1), weights=(-0.1, 1.1))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractError, match="finite"):
            FiniteDistribution.support(2, (0, 1), weights=(bad, 1.0))


def test_sampling_stays_on_support():
    pts = (0b0011, 0b1100, 0b0110)
    D = FiniteDistribution.support(4, pts)
    feed = BitFeed(np.random.default_rng(5))
    seen = {D.sample_bits(feed) for _ in range(200)}
    assert seen == set(pts)


def test_sampling_deterministic():
    D = FiniteDistribution.support(6, tuple(range(10)), weights=tuple([0.1] * 10))
    a = [D.sample_bits(BitFeed(np.random.default_rng(4))) for _ in range(1)]
    b = [D.sample_bits(BitFeed(np.random.default_rng(4))) for _ in range(1)]
    assert a == b
    x = D.sample(np.random.default_rng(4))
    assert isinstance(x, BitString) and x.n == 6


def test_weighted_sampling_frequencies():
    D = FiniteDistribution.support(1, (0, 1), weights=(0.9, 0.1))
    feed = BitFeed(np.random.default_rng(0))
    ones = sum(D.sample_bits(feed) for _ in range(2000))
    assert 100 <= ones <= 320


class _Words(BitFeed):
    """A feed whose take(64) hands out the given 64-bit words in order."""

    def __init__(self, words):
        super().__init__(None)
        self.words = list(words)

    def take(self, nbits):
        assert nbits == 64
        return self.words.pop(0)


def _boundary_draws(m, rng, js):
    """For each j, the first draw that picks index j, ceil(j * 2**64 / m),
    and the one before it; plus the ends of the range and random draws."""
    firsts = [-(-j * 2**64 // m) for j in js]
    us = {0, 2**64 - 1, *firsts, *(u - 1 for u in firsts)}
    us |= set(rng.integers(0, 2**64, size=20, dtype=np.uint64).tolist())
    return sorted(u for u in us if 0 <= u < 2**64)


def test_index_maps_agree_exactly():
    # floor(u * m / 2**64) in Python ints against scale_draws' 32-bit
    # halves, at every index boundary, for every m in 1..300 and for the
    # largest m it takes.
    rng = np.random.default_rng(0)
    for m in [*range(1, 301), 2**32 - 1]:
        js = range(1, m) if m <= 300 else [*range(1, 300), *range(m - 300, m), 1 << 31]
        us = _boundary_draws(m, rng, js)
        assert scale_draws(np.array(us, dtype=np.uint64), m).tolist() == [u * m >> 64 for u in us]
    with pytest.raises(ContractError):
        scale_draws(np.zeros(1, dtype=np.uint64), 2**32)


def test_sample_bits_and_sample_rows_agree():
    # A support's scalar draw from a feed and its batched draw from the
    # same 64-bit words pick the same points, uniform or weighted.
    rng = np.random.default_rng(1)
    for m in [1, 2, 3, 7, 64, 100, 255, 300]:
        pts = list(range(m))
        w = rng.random(m) + 0.01
        for D in (FiniteDistribution.support(9, pts),
                  FiniteDistribution.support(9, pts, [float(v) for v in w / w.sum()])):
            us = _boundary_draws(m, rng, range(1, m))
            want = [D.sample_bits(_Words([u])) for u in us]
            rows = D.sample_rows(np.array(us, dtype=np.uint64)[:, None])
            assert (rows == rows_of(want, 9)).all()
            if D.weights is None:
                assert want == [u * m >> 64 for u in us]
    cube = FiniteDistribution.uniform_cube(70)
    feed = BitFeed(np.random.default_rng(2))
    feed.take(3)  # fills the buffer
    block = feed.peek_block(70, 5)
    assert (cube.sample_rows(block) == rows_of([cube.sample_bits(feed) for _ in range(5)], 70)).all()


def test_feed_draws_never_return_zero_mass():
    # Ten weights of 0.1 sum to 0.9999999999999999 in floats, so a draw
    # whose top 53 bits read 1 - 2**-53 overshoots the cumulative sum:
    # both the scalar and the batched draw must land on the last point
    # with mass, not on the trailing zero-weight one.  Draws that do not
    # overshoot are unchanged.
    D = FiniteDistribution.support(4, tuple(range(11)), weights=[0.1] * 10 + [0.0])
    top = (2**53 - 1) << 11
    ts = [top, top | 2**11 - 1, *(int(t * 2**53) << 11 for t in (0.0, 0.05, 0.15, 0.95))]
    want = [9, 9, 0, 0, 1, 9]
    assert [D.sample_bits(_Words([u])) for u in ts] == want
    assert D.sample_rows(np.array(ts, dtype=np.uint64)[:, None])[:, 0].tolist() == want


def test_json_round_trip():
    for D in (
        FiniteDistribution.uniform_cube(5),
        FiniteDistribution.support(4, (1, 9, 12)),
        FiniteDistribution.support(3, (0, 7), weights=(0.3, 0.7)),
    ):
        back = FiniteDistribution.from_json(D.to_json())
        assert back.n == D.n and back.kind == D.kind
        assert back.points == D.points
        if D.weights is not None:
            assert back.weights == pytest.approx(D.weights)
