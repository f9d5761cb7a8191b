import numpy as np
import pytest

from djunta import (
    BitString,
    DFTesterConfig,
    DistinguishingPair,
    FiniteDistribution,
    FunctionOracle,
    ceil_log2,
    literal,
    main_djunta,
    rand_bits,
    simple_djunta,
    verify_witness,
    where_is_the_literal,
)
from djunta.errors import BudgetError, ContractError, DimensionError


def _parity(k):
    return sum((z.bit_count() & 1) << z for z in range(1 << k))


def _random_junta(rng, n, k):
    vars = sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False))
    return FunctionOracle.from_junta(n, vars, rand_bits(rng, 1 << k))


class TestConfig:
    def test_defaults(self):
        cfg = DFTesterConfig(k=3, epsilon=0.25)
        assert cfg.simple_rounds == 128  # 8 * 4 / (1/4)
        assert cfg.search_rounds == 768  # 64 * 3 / (1/4)
        assert cfg.verify_rounds == 12
        assert cfg.gamma == pytest.approx(1 / 24)
        for k in range(1, 9):
            # 32 / gamma exactly; a float gamma would give 769 at k = 3
            inner = DFTesterConfig(k=k, epsilon=0.25).inner_uniform_cfg()
            assert (inner.k, inner.num_blocks, inner.rounds) == (1, 10, 256 * k)

    def test_ceilings(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        assert cfg.simple_query_ceiling(16) == 2 * cfg.simple_rounds + 3 * 4
        inner = cfg.inner_uniform_cfg()
        assert inner.k == 1
        lit = cfg.literal_query_ceiling()
        assert lit == (ceil_log2(2) + 6) * inner.query_ceiling() + 2 + (ceil_log2(2) + 3) * 4
        assert cfg.main_query_ceiling() == cfg.search_rounds * (
            4 * 2 + 2 + ceil_log2(3)
        ) + cfg.verify_rounds * lit

    def test_validation(self):
        with pytest.raises(ContractError):
            DFTesterConfig(k=0, epsilon=0.5)
        with pytest.raises(ContractError):
            DFTesterConfig(k=2, epsilon=0.0)
        with pytest.raises(ContractError):
            DFTesterConfig(k=2, epsilon=2.0)
        with pytest.raises(TypeError):
            DFTesterConfig(k=2, epsilon=0.5, simple_rounds=5)  # budgets are derived


class TestWhere:
    def test_literal_on_left(self):
        g = FunctionOracle.from_junta(4, (2,), 0b10)
        res = where_is_the_literal(g, frozenset({1, 2}), frozenset({3, 4}), np.random.default_rng(0))
        assert res.outcome == "left"
        assert g.counter.snapshot() == (2, 0)
        d = res.pair.x.bits ^ res.pair.y.bits
        assert d and d & ~0b0011 == 0
        assert g.peek(res.pair.x) != g.peek(res.pair.y)

    def test_literal_on_right(self):
        g = FunctionOracle.from_junta(4, (4,), 0b01)
        res = where_is_the_literal(g, frozenset({1, 2}), frozenset({3, 4}), np.random.default_rng(0))
        assert res.outcome == "right"
        assert g.counter.snapshot() == (4, 0)
        assert (res.pair.x.bits ^ res.pair.y.bits) & ~0b1100 == 0

    def test_constant_fails(self):
        g = FunctionOracle.from_truth_table(3, 0)
        res = where_is_the_literal(g, frozenset({1}), frozenset({2, 3}), np.random.default_rng(1))
        assert res.outcome == "fail"
        assert res.pair is None

    def test_empty_side_skipped(self):
        g = FunctionOracle.from_junta(3, (3,), 0b10)
        res = where_is_the_literal(g, frozenset(), frozenset({1, 2, 3}), np.random.default_rng(2))
        assert res.outcome == "right"
        assert g.counter.snapshot() == (2, 0)

    def test_partition_validation(self):
        g = FunctionOracle.from_junta(3, (1,), 0b10)
        with pytest.raises(ContractError):
            where_is_the_literal(g, frozenset({1}), frozenset({1, 2, 3}), np.random.default_rng(0))
        with pytest.raises(ContractError):
            where_is_the_literal(g, frozenset({1}), frozenset({2}), np.random.default_rng(0))


class TestLiteral:
    def test_exact_literal_passes(self):
        cfg = DFTesterConfig(k=4, epsilon=0.5)
        g = FunctionOracle.from_junta(5, (3,), 0b10)
        pair = DistinguishingPair(
            BitString.from_str("00100"), BitString.from_str("00000"), frozenset(range(1, 6))
        )
        res = literal(g, pair, cfg, np.random.default_rng(4))
        assert res.is_literal
        assert res.parts is None
        assert g.counter.total <= cfg.literal_query_ceiling()

    def test_negated_literal_passes(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        g = FunctionOracle.from_junta(4, (2,), 0b01)
        pair = DistinguishingPair(
            BitString.from_str("0100"), BitString.from_str("0000"), frozenset(range(1, 5))
        )
        assert literal(g, pair, cfg, np.random.default_rng(9)).is_literal

    def test_two_variable_function_splits(self):
        # parity of two variables is as far from every 1-junta as it gets
        cfg = DFTesterConfig(k=4, epsilon=0.5)
        g = FunctionOracle.from_truth_table(2, _parity(2))
        pair = DistinguishingPair(
            BitString.from_str("10"), BitString.from_str("00"), frozenset({1, 2})
        )
        res = literal(g, pair, cfg, np.random.default_rng(1))
        assert not res.is_literal
        a, b = res.parts
        assert a.block and b.block
        assert not a.block & b.block
        for part in (a, b):
            d = part.pair.x.bits ^ part.pair.y.bits
            assert d
            for c in range(1, 3):
                if d >> (c - 1) & 1:
                    assert c in part.block
            assert g.peek(part.pair.x) != g.peek(part.pair.y)

    def test_halving_splits_at_a_rare_point(self):
        # One 1 among 2**14 points: the uniform passes find nothing, and then
        # both halves of a random split flip the rare endpoint's label away.
        n = 14
        rare, other = 0b10110011100101, 0b00110011100100
        g = FunctionOracle.from_truth_table(n, 1 << rare)
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        for x, y in ((rare, other), (other, rare)):
            h = g.fork()
            pair = DistinguishingPair(BitString(n, x), BitString(n, y), frozenset(range(1, n + 1)))
            res = literal(h, pair, cfg, np.random.default_rng(0))
            assert not res.is_literal
            # a halving round queries both endpoints' four points before judging
            assert h.counter.snapshot() == (7179, 0)
            for part in res.parts:
                assert part.pair.x.bits == rare and (part.fx, part.fy) == (1, 0)
                assert h.peek(part.pair.x) != h.peek(part.pair.y)

    def test_singleton_domain_trivially_true(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        g = FunctionOracle.from_junta(1, (1,), 0b10)
        pair = DistinguishingPair(BitString(1, 1), BitString(1, 0), frozenset({1}))
        res = literal(g, pair, cfg, np.random.default_rng(0))
        assert res.is_literal
        assert g.counter.snapshot() == (0, 0)

    def test_pair_validation(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        g = FunctionOracle.from_junta(2, (1,), 0b10)
        same = DistinguishingPair(BitString(2, 1), BitString(2, 1), frozenset({1, 2}))
        with pytest.raises(ContractError):
            literal(g, same, cfg, np.random.default_rng(0))
        off = DistinguishingPair(BitString(3, 1), BitString(3, 0), frozenset({1}))
        with pytest.raises(DimensionError):
            literal(g, off, cfg, np.random.default_rng(0))


class TestSimple:
    def test_accepts_juntas(self):
        cfg = DFTesterConfig(k=3, epsilon=0.5)
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(5, 32))
            f = _random_junta(rng, n, 3)
            D = FiniteDistribution.uniform_cube(n)
            v = simple_djunta(f, D, cfg, np.random.default_rng(int(rng.integers(2**32))))
            assert v.outcome == "accept"
            assert v.witness == ()

    def test_rejects_far_with_witness(self):
        k = 2
        cfg = DFTesterConfig(k=k, epsilon=0.25)
        f = FunctionOracle.from_junta(20, (3, 9, 17), _parity(3))
        D = FiniteDistribution.uniform_cube(20)
        rejections = 0
        for s in range(20):
            g = f.fork()
            v = simple_djunta(g, D, cfg, np.random.default_rng(s))
            if v.is_reject:
                rejections += 1
                assert len(v.witness) == k + 1
                assert verify_witness(g, v.witness)
                for p in v.witness:
                    assert len(p.block) == 1  # always lands on single coordinates
        assert rejections >= 18

    def test_budget_and_sample_accounting(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        f = _random_junta(np.random.default_rng(3), 18, 2)
        D = FiniteDistribution.uniform_cube(18)
        v = simple_djunta(f, D, cfg, np.random.default_rng(0))
        assert v.queries + v.samples <= cfg.simple_query_ceiling(18)
        assert v.samples <= cfg.simple_rounds
        assert f.counter.snapshot() == (v.queries, v.samples)

    def test_seeded_determinism(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        f = FunctionOracle.from_junta(10, (2, 8), 0b0110)
        D = FiniteDistribution.uniform_cube(10)
        a = simple_djunta(f.fork(), D, cfg, np.random.default_rng(42))
        assert a == simple_djunta(f.fork(), D, cfg, np.random.default_rng(42))

    def test_dim_mismatch(self):
        cfg = DFTesterConfig(k=1, epsilon=0.5)
        f = FunctionOracle.from_junta(4, (1,), 0b10)
        with pytest.raises(DimensionError):
            simple_djunta(f, FiniteDistribution.uniform_cube(5), cfg, np.random.default_rng(0))

    def test_support_distribution(self):
        # sampling restricted to a small support still produces sound accepts
        cfg = DFTesterConfig(k=1, epsilon=0.5)
        f = FunctionOracle.from_junta(8, (5,), 0b10)
        rng = np.random.default_rng(12)
        pts = tuple({rand_bits(rng, 8) for _ in range(40)})
        D = FiniteDistribution.support(8, pts)
        for s in range(10):
            assert simple_djunta(f.fork(), D, cfg, np.random.default_rng(s)).outcome == "accept"


class TestMain:
    def test_accepts_juntas(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(5, 24))
            f = _random_junta(rng, n, 2)
            D = FiniteDistribution.uniform_cube(n)
            v = main_djunta(f, D, cfg, np.random.default_rng(int(rng.integers(2**32))))
            assert v.outcome == "accept"

    def test_rejects_far_with_verified_witness(self):
        k = 2
        cfg = DFTesterConfig(k=k, epsilon=0.25)
        f = FunctionOracle.from_junta(16, (2, 7, 13), _parity(3))
        D = FiniteDistribution.uniform_cube(16)
        rejections = 0
        for s in range(15):
            g = f.fork()
            v = main_djunta(g, D, cfg, np.random.default_rng(s))
            if v.is_reject:
                rejections += 1
                assert len(v.witness) >= k + 1
                assert verify_witness(g, v.witness)
        assert rejections >= 13

    def test_debug_asserts_clean(self):
        # the potential/goodness invariants hold along honest runs
        cfg = DFTesterConfig(k=2, epsilon=0.25, debug=True)
        f = FunctionOracle.from_junta(12, (1, 6, 11), _parity(3))
        D = FiniteDistribution.uniform_cube(12)
        for s in range(5):
            main_djunta(f.fork(), D, cfg, np.random.default_rng(s))

    def test_budget_accounting(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        f = _random_junta(np.random.default_rng(5), 20, 2)
        D = FiniteDistribution.uniform_cube(20)
        v = main_djunta(f, D, cfg, np.random.default_rng(1))
        assert v.queries + v.samples <= cfg.main_query_ceiling()
        assert f.counter.snapshot() == (v.queries, v.samples)

    def test_seeded_determinism(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        f = FunctionOracle.from_junta(9, (4, 9), 0b0110)
        D = FiniteDistribution.uniform_cube(9)
        a = main_djunta(f.fork(), D, cfg, np.random.default_rng(7))
        assert a == main_djunta(f.fork(), D, cfg, np.random.default_rng(7))

    def test_support_distribution_far_function(self):
        # far under a 60-point support; main must still reject often
        rng = np.random.default_rng(77)
        pts = tuple({rand_bits(rng, 10) for _ in range(60)})
        D = FiniteDistribution.support(10, pts)
        f = FunctionOracle.from_junta(10, (1, 2, 3), _parity(3))
        cfg = DFTesterConfig(k=2, epsilon=0.25)
        rejections = 0
        for s in range(10):
            g = f.fork()
            v = main_djunta(g, D, cfg, np.random.default_rng(s))
            if v.is_reject:
                rejections += 1
                assert verify_witness(g, v.witness)
        assert rejections >= 7
