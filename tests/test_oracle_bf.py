import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djunta import (
    BitString,
    DistanceReport,
    DistinguishingPair,
    FiniteDistribution,
    FunctionOracle,
    exact_distance_to_kjuntas,
    influence_lemma_estimate,
    is_kjunta,
    verify_witness,
)
from djunta.boolfn import gather_bits
from djunta.errors import BudgetError, ContractError, DimensionError, SizeError


def _parity(k):
    return sum((z.bit_count() & 1) << z for z in range(1 << k))


def _maj3():
    return FunctionOracle.from_truth_table(
        3, sum((1 if bin(z).count("1") >= 2 else 0) << z for z in range(8))
    )


class TestExactDistance:
    def test_majority_to_one_juntas(self):
        rep = exact_distance_to_kjuntas(_maj3(), FiniteDistribution.uniform_cube(3), 1)
        assert rep.distance == Fraction(1, 4)

    def test_parity_two_to_one_juntas(self):
        f = FunctionOracle.from_truth_table(2, _parity(2))
        rep = exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(2), 1)
        assert rep.distance == Fraction(1, 2)

    def test_and_two_to_one_juntas(self):
        f = FunctionOracle.from_truth_table(2, 0b1000)
        rep = exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(2), 1)
        assert rep.distance == Fraction(1, 4)

    def test_and_on_small_support(self):
        # AND disagrees with any 1-junta on exactly one of the three points
        f = FunctionOracle.from_truth_table(2, 0b1000)
        D = FiniteDistribution.support(2, (0b11, 0b10, 0b01))
        rep = exact_distance_to_kjuntas(f, D, 1)
        assert rep.distance == Fraction(1, 3)

    def test_parity_four_to_three_juntas(self):
        f = FunctionOracle.from_junta(10, (1, 2, 3, 4), _parity(4))
        rep = exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(10), 3)
        assert rep.distance == Fraction(1, 2)

    def test_junta_itself_has_distance_zero(self):
        f = FunctionOracle.from_junta(6, (2, 5), 0b0110)
        rep = exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(6), 2)
        assert rep.distance == 0
        # the reported fit reproduces f exactly
        g = FunctionOracle.from_junta(6, sorted(rep.best_junta_vars), rep.best_table)
        for x in range(64):
            assert g.peek_bits(x) == f.peek_bits(x)

    def test_k_at_least_n_is_zero(self):
        f = FunctionOracle.from_truth_table(3, 0b10110010)
        rep = exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(3), 5)
        assert rep.distance == 0

    def test_weighted_support(self):
        # AND with weight 0.8 on the disagreeing point (1,1)
        f = FunctionOracle.from_truth_table(2, 0b1000)
        D = FiniteDistribution.support(2, (0b11, 0b00), weights=(0.8, 0.2))
        rep = exact_distance_to_kjuntas(f, D, 0)
        # best constant is 1: pays only the (0,0) point
        assert rep.distance == pytest.approx(0.2)

    def test_counter_untouched(self):
        f = _maj3()
        exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(3), 1)
        assert f.counter.snapshot() == (0, 0)

    def test_validation(self):
        f = _maj3()
        with pytest.raises(ContractError):
            exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(3), -1)
        with pytest.raises(DimensionError):
            exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(4), 1)

    def test_step_guard(self):
        f = FunctionOracle.from_junta(40, (1,), 0b10)
        D = FiniteDistribution.support(40, tuple(range(1000)))
        with pytest.raises(BudgetError):
            exact_distance_to_kjuntas(f, D, 20)

    def test_arity_cap(self):
        # The best junta's table would have 2**25 bits.
        f = FunctionOracle.from_junta(30, (1,), 0b10)
        D = FiniteDistribution.support(30, (0, 1))
        with pytest.raises(SizeError, match="cap"):
            exact_distance_to_kjuntas(f, D, 25)

    def test_memory_stays_linear_in_points(self):
        # Peak stays near the word array, the tag array and one temporary;
        # an n x points int64 matrix alone would be 16 of these arrays.
        n = 16
        f = FunctionOracle.from_junta(n, (3, 11), 0b0110)
        tracemalloc.start()
        try:
            rep = exact_distance_to_kjuntas(f, FiniteDistribution.uniform_cube(n), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.distance == Fraction(1, 2)
        assert peak < 4 * (1 << n) * 8


def _reference_distance(f, D, k):
    """The per-point dict loop the vectorized search replaced, verbatim."""
    n = f.n
    kk = min(k, n)
    if D.kind == D.KIND_CUBE:
        pts = range(1 << n)
    else:
        pts = D.points
    npts = len(pts)
    value = f.backend.value
    vals = [value(p) for p in pts]
    exact = D.is_uniform_support
    if not exact:
        masses = D.weights

    best = None  # (distance, J, sections)
    for J in combinations(range(1, n + 1), kk):
        sections: dict[int, list] = {}
        if exact:
            for p, v in zip(pts, vals):
                key = gather_bits(p, J)
                c = sections.get(key)
                if c is None:
                    c = sections[key] = [0, 0]
                c[v] += 1
            miss = sum(min(c0, c1) for c0, c1 in sections.values())
            d = Fraction(miss, npts)
        else:
            for p, v, w in zip(pts, vals, masses):
                key = gather_bits(p, J)
                c = sections.get(key)
                if c is None:
                    c = sections[key] = [0.0, 0.0]
                c[v] += w
            d = sum(min(c0, c1) for c0, c1 in sections.values())
        if best is None or d < best[0]:
            best = (d, J, sections)
            if d == 0:
                break

    d, J, sections = best
    table = 0
    for key, (c0, c1) in sections.items():
        if c1 > c0:
            table |= 1 << key
    return DistanceReport(d, frozenset(J), table)


@st.composite
def _distance_cases(draw):
    # Shapes come from hypothesis, contents from a seeded generator: typical
    # random masses make float sums depend on the order of addition, which
    # the comparison must then match bit for bit.
    n = draw(st.integers(1, 9))
    k = draw(st.integers(0, n + 1))
    kind = draw(st.sampled_from(("cube", "uniform", "weighted")))
    m = draw(st.integers(1, 1 << n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = int.from_bytes(rng.bytes(64), "little") & ((1 << (1 << n)) - 1)
    if rng.random() < 0.5:  # a biased function, so majorities are lopsided
        table &= int.from_bytes(rng.bytes(64), "little")
    f = FunctionOracle.from_truth_table(n, table)
    if kind == "cube":
        return f, FiniteDistribution.uniform_cube(n), k
    pts = rng.permutation(1 << n)[:m].tolist()
    if kind == "uniform":
        return f, FiniteDistribution.support(n, pts), k
    raw = rng.random(m) * (rng.random(m) < 0.8)  # some points carry no mass
    raw[0] += 0.5
    return f, FiniteDistribution.support(n, pts, (raw / raw.sum()).tolist()), k


@settings(max_examples=300, deadline=None)
@given(_distance_cases())
def test_distance_matches_reference_loop(case):
    f, D, k = case
    got = exact_distance_to_kjuntas(f, D, k)
    want = _reference_distance(f, D, k)
    assert got == want
    assert type(got.distance) is type(want.distance)


class TestIsKJunta:
    def test_positive(self):
        f = FunctionOracle.from_junta(12, (3, 8, 11), 0b10010110)
        assert is_kjunta(f, 3)
        assert is_kjunta(f, 5)

    def test_degenerate_table_needs_fewer(self):
        # table ignores its second input
        f = FunctionOracle.from_junta(8, (2, 6), 0b1010)
        assert is_kjunta(f, 1)

    def test_negative(self):
        f = FunctionOracle.from_junta(8, (1, 2, 3), _parity(3))
        assert not is_kjunta(f, 2)
        assert is_kjunta(f, 3)

    def test_size_guard(self):
        f = FunctionOracle.from_junta(21, (1,), 0b10)
        with pytest.raises(BudgetError):
            is_kjunta(f, 1)


class TestVerifyWitness:
    def _literal(self):
        return FunctionOracle.from_junta(4, (2,), 0b10)

    def _pair(self, xs, ys, block):
        return DistinguishingPair(BitString.from_str(xs), BitString.from_str(ys), frozenset(block))

    def test_valid(self):
        f = self._literal()
        w = (self._pair("0100", "0000", {1, 2}),)
        assert verify_witness(f, w)

    def test_empty_witness_vacuous(self):
        assert verify_witness(self._literal(), ())

    def test_rejects_overlapping_blocks(self):
        f = FunctionOracle.from_junta(4, (1, 2), _parity(2))
        w = (
            self._pair("1000", "0000", {1, 2}),
            self._pair("0100", "0000", {2, 3}),
        )
        assert not verify_witness(f, w)

    def test_rejects_agreeing_pair(self):
        f = self._literal()
        w = (self._pair("1000", "0000", {1}),)  # coordinate 1 is irrelevant
        assert not verify_witness(f, w)

    def test_rejects_leak_outside_block(self):
        f = self._literal()
        w = (self._pair("0110", "0000", {2}),)  # differs at 3, block says {2}
        assert not verify_witness(f, w)

    def test_rejects_empty_block(self):
        f = self._literal()
        w = (DistinguishingPair(BitString(4, 2), BitString(4, 0), frozenset()),)
        assert not verify_witness(f, w)

    def test_rejects_out_of_range_block(self):
        f = self._literal()
        w = (self._pair("0100", "0000", {2, 9}),)
        assert not verify_witness(f, w)

    def test_rejects_dim_mismatch(self):
        f = self._literal()
        w = (DistinguishingPair(BitString(3, 2), BitString(3, 0), frozenset({2})),)
        assert not verify_witness(f, w)


class TestInfluenceEstimate:
    def test_containing_set_kills_influence(self):
        # rerandomizing only irrelevant coordinates never flips a literal
        f = FunctionOracle.from_junta(8, (3,), 0b10)
        D = FiniteDistribution.uniform_cube(8)
        est = influence_lemma_estimate(f, D, frozenset({3}), 500, np.random.default_rng(0))
        assert est == 0.0

    def test_empty_set_sees_full_variation(self):
        f = FunctionOracle.from_junta(8, (3,), 0b10)
        D = FiniteDistribution.uniform_cube(8)
        est = influence_lemma_estimate(f, D, frozenset(), 4000, np.random.default_rng(1))
        assert 0.45 <= est <= 0.55

    def test_counter_untouched(self):
        f = FunctionOracle.from_junta(5, (1,), 0b10)
        D = FiniteDistribution.uniform_cube(5)
        influence_lemma_estimate(f, D, frozenset({1}), 50, np.random.default_rng(2))
        assert f.counter.snapshot() == (0, 0)

    def test_deterministic_under_seed(self):
        f = FunctionOracle.from_junta(6, (2, 4), 0b0110)
        D = FiniteDistribution.uniform_cube(6)
        a = influence_lemma_estimate(f, D, frozenset({2}), 300, np.random.default_rng(9))
        b = influence_lemma_estimate(f, D, frozenset({2}), 300, np.random.default_rng(9))
        assert a == b

    def test_validation(self):
        f = FunctionOracle.from_junta(4, (1,), 0b10)
        D = FiniteDistribution.uniform_cube(4)
        with pytest.raises(ContractError):
            influence_lemma_estimate(f, D, frozenset(), 0, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            influence_lemma_estimate(
                f, FiniteDistribution.uniform_cube(5), frozenset(), 10, np.random.default_rng(0)
            )
