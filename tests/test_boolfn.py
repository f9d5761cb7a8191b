import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djunta import (
    BitFeed,
    BitString,
    DistinguishingPair,
    FiniteDistribution,
    FunctionOracle,
    Verdict,
    bits_to_hex,
    block_of,
    ceil_log2,
    coords_of,
    full_truth_table,
    gather_bits,
    hex_to_bits,
    mask_of,
    oracle_from_json,
    oracle_to_json,
    rand_bits,
    scatter_bits,
    verdict_from_json,
    verdict_to_json,
)
from djunta.boolfn import MAX_WIDTH
from djunta.errors import (
    ContractError,
    DimensionError,
    EmptyDomainError,
    SizeError,
)


def test_mask_coords_round_trip():
    assert mask_of([1, 3, 4]) == 0b1101
    assert coords_of(0b1101) == (1, 3, 4)
    assert mask_of([]) == 0
    assert coords_of(0) == ()
    assert block_of(0b1101) == frozenset({1, 3, 4})


def test_mask_of_range_check():
    with pytest.raises(DimensionError):
        mask_of([5], n=4)
    with pytest.raises(DimensionError):
        mask_of([0], n=4)


@given(st.sets(st.integers(min_value=1, max_value=80)))
def test_mask_coords_inverse(coords):
    assert set(coords_of(mask_of(coords))) == coords


@given(st.data())
def test_gather_scatter_inverse(data):
    coords = sorted(data.draw(st.sets(st.integers(1, 40), max_size=12)))
    bits = data.draw(st.integers(0, (1 << len(coords)) - 1))
    assert gather_bits(scatter_bits(bits, coords), coords) == bits


def test_gather_bits_example():
    # coordinate 2 and 5 of 0b10010 are 1 and 1
    assert gather_bits(0b10010, (2, 5)) == 0b11
    assert gather_bits(0b10010, (1, 3)) == 0


def test_ceil_log2():
    assert [ceil_log2(m) for m in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ContractError):
        ceil_log2(0)


@given(st.integers(min_value=1, max_value=300))
def test_hex_round_trip(nbits):
    rng = np.random.default_rng(nbits)
    b = rand_bits(rng, nbits)
    assert hex_to_bits(bits_to_hex(b, nbits), nbits) == b


def test_hex_width_fixed():
    # 10 bits always pad to 3 hex digits
    assert bits_to_hex(0, 10) == "000"
    assert bits_to_hex(1, 10) == "001"


def test_bitstring_str_convention():
    # leftmost character is coordinate 1
    x = BitString.from_str("0011")
    assert x.bits == 0b1100
    assert str(x) == "0011"
    assert x.bit(3) == 1 and x.bit(1) == 0


def test_bitstring_validation():
    with pytest.raises(ContractError):
        BitString(3, 8)
    with pytest.raises(DimensionError):
        BitString(-1, 0)


# ---------------------------------------------------------------------------
# oracles and counting


def _parity2_table():
    return sum((z.bit_count() & 1) << z for z in range(4))


def test_counter_semantics():
    f = FunctionOracle.from_truth_table(2, _parity2_table())
    assert f.counter.snapshot() == (0, 0)
    f.eval_bits(0b01)
    f.eval_bits(0b01)
    assert f.counter.snapshot() == (2, 0)
    f.sample_eval_bits(0b11)
    assert f.counter.snapshot() == (2, 1)
    f.peek_bits(0b00)
    f.peek(BitString(2, 3))
    assert f.counter.snapshot() == (2, 1)
    assert f.counter.total == 3


def test_fork_resets_counter():
    f = FunctionOracle.from_truth_table(2, _parity2_table())
    f.eval_bits(0)
    g = f.fork()
    assert g.counter.snapshot() == (0, 0)
    assert f.counter.snapshot() == (1, 0)
    assert g.peek_bits(3) == f.peek_bits(3)


@given(st.integers(2, 10), st.data())
def test_junta_matches_truth_table(n, data):
    k = data.draw(st.integers(1, min(n, 4)))
    vars = sorted(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k)))
    table = data.draw(st.integers(0, (1 << (1 << k)) - 1))
    g = FunctionOracle.from_junta(n, vars, table)
    tt = full_truth_table(g)
    h = FunctionOracle.from_truth_table(n, tt)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rand_bits(rng, n)
        assert g.peek_bits(x) == h.peek_bits(x)


def test_full_truth_table_guard():
    f = FunctionOracle.from_junta(30, (1,), 0b10)
    with pytest.raises(SizeError):
        full_truth_table(f)


def test_width_cap():
    # Oracles and distributions refuse a wider domain when they are built.
    assert FunctionOracle.from_junta(MAX_WIDTH, (1,), 0b10).n == MAX_WIDTH
    assert FiniteDistribution.uniform_cube(MAX_WIDTH).n == MAX_WIDTH
    for make in (
        lambda n: FunctionOracle.from_junta(n, (1,), 0b10),
        FiniteDistribution.uniform_cube,
        lambda n: FiniteDistribution.support(n, (0,)),
    ):
        with pytest.raises(SizeError, match="cap"):
            make(MAX_WIDTH + 1)


def test_junta_arity_cap():
    # The table of a 25-variable junta would be a truth table over 25 inputs.
    assert len(FunctionOracle.from_junta(30, range(1, 25), 0).backend.vars) == 24
    with pytest.raises(SizeError, match="cap"):
        FunctionOracle.from_junta(30, range(1, 26), 0)


class TestRestriction:
    def test_matches_manual_substitution(self):
        # f = x1 AND x3 on n=3; fix x1=1 -> restriction is x2 of the 2-var view? no:
        # free coords are (2, 3), so the view's coordinate 2 is original 3.
        table = sum(((z & 1) & ((z >> 2) & 1)) << z for z in range(8))
        f = FunctionOracle.from_truth_table(3, table)
        g = f.restrict([1], BitString(1, 1))
        assert g.n == 2
        for v in range(4):
            orig = 1 | ((v & 1) << 1) | ((v >> 1) << 2)
            assert g.peek_bits(v) == f.peek_bits(orig)

    def test_view_of_a_view(self):
        # a restriction of a restriction pins both sets of coordinates
        table = rand_bits(np.random.default_rng(4), 1 << 5)
        f = FunctionOracle.from_truth_table(5, table)
        g = f.restrict([2, 4], BitString(2, 0b01))  # x2 = 1, x4 = 0; view = (x1, x3, x5)
        h = g.restrict([2], BitString(1, 1))  # x3 = 1; view = (x1, x5)
        assert h.counter is f.counter
        for v in range(4):
            orig = (v & 1) | 0b00110 | ((v >> 1) << 4)
            assert h.peek_bits(v) == f.peek_bits(orig)

    def test_counter_shared(self):
        f = FunctionOracle.from_junta(4, (1, 2), 0b1000)
        g = f.restrict([4], BitString(1, 0))
        g.eval_bits(0)
        assert f.counter.snapshot() == (1, 0)

    def test_errors(self):
        f = FunctionOracle.from_junta(3, (1,), 0b10)
        with pytest.raises(ContractError):
            f.restrict([], BitString(1, 0))
        with pytest.raises(EmptyDomainError):
            f.restrict([1, 2, 3], BitString(3, 0))
        with pytest.raises(DimensionError):
            f.restrict([1, 2], BitString(1, 0))
        with pytest.raises(DimensionError):
            f.restrict([1, 5], BitString(2, 0))

    @given(st.data())
    @settings(max_examples=40)
    def test_junta_specialization_agrees(self, data):
        n = data.draw(st.integers(3, 9))
        k = data.draw(st.integers(1, 3))
        vars = sorted(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k)))
        table = data.draw(st.integers(0, (1 << (1 << k)) - 1))
        f = FunctionOracle.from_junta(n, vars, table)
        fixed = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1)))
        w = data.draw(st.integers(0, (1 << len(fixed)) - 1))
        g = f.restrict(fixed, BitString(len(fixed), w))
        free = [c for c in range(1, n + 1) if c not in fixed]
        for v in range(1 << g.n):
            orig = scatter_bits(w, fixed) | scatter_bits(v, free)
            assert g.peek_bits(v) == f.peek_bits(orig)


# ---------------------------------------------------------------------------
# rng plumbing


def test_rand_bits_range_and_determinism():
    a = rand_bits(np.random.default_rng(3), 129)
    b = rand_bits(np.random.default_rng(3), 129)
    assert a == b
    assert 0 <= a < (1 << 129)


def test_bitfeed_deterministic_and_bounded():
    f1 = BitFeed(np.random.default_rng(9))
    f2 = BitFeed(np.random.default_rng(9))
    widths = [1, 64, 63, 200, 5, 0, 64]
    seq1 = [f1.take(w) for w in widths]
    seq2 = [f2.take(w) for w in widths]
    assert seq1 == seq2
    for v, w in zip(seq1, widths):
        assert 0 <= v < (1 << w) if w else v == 0


def test_bitfeed_of_passthrough():
    feed = BitFeed(np.random.default_rng(0))
    assert BitFeed.of(feed) is feed
    assert isinstance(BitFeed.of(np.random.default_rng(0)), BitFeed)


# ---------------------------------------------------------------------------
# serialization


def test_oracle_json_round_trip():
    f = FunctionOracle.from_junta(6, (2, 5), 0b0110)
    doc = oracle_to_json(f)
    assert doc["kind"] == "junta"
    g = oracle_from_json(doc)
    assert full_truth_table(g) == full_truth_table(f)

    t = FunctionOracle.from_truth_table(3, 0b10110100)
    doc2 = oracle_to_json(t)
    assert doc2["kind"] == "truth_table"
    assert full_truth_table(oracle_from_json(doc2)) == 0b10110100


def test_verdict_json_round_trip():
    pair = DistinguishingPair(BitString(4, 0b1100), BitString(4, 0b1000), frozenset({3}))
    v = Verdict("reject", (pair,), 17, 4)
    doc = verdict_to_json(v, 4)
    back = verdict_from_json(doc, 4)
    assert back == v
    assert back.is_reject


def test_accept_verdict():
    v = Verdict("accept", (), 3, 1)
    assert not v.is_reject
    assert verdict_from_json(verdict_to_json(v, 5), 5) == v
