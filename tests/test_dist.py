from fractions import Fraction

import numpy as np
import pytest

from djunta import BitString, FiniteDistribution
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


def test_support_validation():
    with pytest.raises(EmptyDomainError):
        FiniteDistribution.support(3, ())
    with pytest.raises(EmptyDomainError):
        FiniteDistribution.uniform_cube(0)
    with pytest.raises(ContractError):
        FiniteDistribution.support(3, (1, 1))
    with pytest.raises(DimensionError):
        FiniteDistribution.support(2, (5,))
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
    rng = np.random.default_rng(5)
    seen = {D.sample_bits(rng) for _ in range(200)}
    assert seen == set(pts)


def test_sampling_deterministic():
    D = FiniteDistribution.support(6, tuple(range(10)), weights=tuple([0.1] * 10))
    a = [D.sample_bits(np.random.default_rng(4)) for _ in range(1)]
    b = [D.sample_bits(np.random.default_rng(4)) for _ in range(1)]
    assert a == b
    x = D.sample(np.random.default_rng(4))
    assert isinstance(x, BitString) and x.n == 6


def test_weighted_sampling_frequencies():
    D = FiniteDistribution.support(1, (0, 1), weights=(0.9, 0.1))
    rng = np.random.default_rng(0)
    ones = sum(D.sample_bits(rng) for _ in range(2000))
    assert 100 <= ones <= 320


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
