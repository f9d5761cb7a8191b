from collections import Counter

import numpy as np
import pytest

from djunta import (
    BitFeed,
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
    uniform_junta,
    verify_witness,
    where_is_the_literal,
)
from djunta.boolfn import mask_of, scatter_bits
from djunta.errors import BudgetError, ContractError, DimensionError
from djunta import tester
from djunta.tester import _Entry


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


class _NoSimpleBudget(DFTesterConfig):
    def simple_query_ceiling(self, n):
        return 0


class _NoMainBudget(DFTesterConfig):
    def main_query_ceiling(self):
        return 0


class _NoUniformBudget(DFTesterConfig):
    def query_ceiling(self):
        return 0


@pytest.mark.parametrize(
    "run, cfg_class, name",
    [
        (simple_djunta, _NoSimpleBudget, "simple_djunta"),
        (main_djunta, _NoMainBudget, "main_djunta"),
        (lambda f, D, cfg, rng: uniform_junta(f, cfg, rng), _NoUniformBudget, "uniform_junta"),
    ],
    ids=["simple", "main", "uniform"],
)
def test_each_tester_enforces_its_own_ceiling(run, cfg_class, name):
    # Any spend overruns a zero ceiling; the error names the tester.
    f = FunctionOracle.from_junta(8, (1, 2), 0b0110)
    D = FiniteDistribution.uniform_cube(8)
    with pytest.raises(BudgetError, match=name):
        run(f, D, cfg_class(k=1, epsilon=0.5), np.random.default_rng(0))


class TestWhere:
    def test_literal_on_left(self):
        g = FunctionOracle.from_junta(4, (2,), 0b10)
        res = where_is_the_literal(g, frozenset({1, 2}), frozenset({3, 4}), np.random.default_rng(0))
        assert res.outcome == "left"
        assert g.counter.snapshot() == (2, 0)
        assert res.mask and res.mask & ~0b0011 == 0
        assert res.fx == g.peek_bits(res.x) != g.peek_bits(res.x ^ res.mask) == res.fy

    def test_literal_on_right(self):
        g = FunctionOracle.from_junta(4, (4,), 0b01)
        res = where_is_the_literal(g, frozenset({1, 2}), frozenset({3, 4}), np.random.default_rng(0))
        assert res.outcome == "right"
        assert g.counter.snapshot() == (4, 0)
        assert res.mask and res.mask & ~0b1100 == 0
        assert res.fx == g.peek_bits(res.x) != g.peek_bits(res.x ^ res.mask) == res.fy

    def test_constant_fails(self):
        g = FunctionOracle.from_truth_table(3, 0)
        res = where_is_the_literal(g, frozenset({1}), frozenset({2, 3}), np.random.default_rng(1))
        assert res.outcome == "fail"
        assert res.x is None and res.mask is None

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
        assert g.counter.queries + g.counter.samples <= cfg.literal_query_ceiling()

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
        assert a.mask and b.mask
        assert not a.mask & b.mask
        for part in (a, b):
            d = part.x ^ part.y
            assert d and d & ~part.mask == 0
            assert g.peek_bits(part.x) != g.peek_bits(part.y)

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
            assert h.counter.snapshot() == (7176, 0)
            masks = [part.mask for part in res.parts]
            assert masks[0] ^ masks[1] == (1 << n) - 1  # the two halves of one split
            for part in res.parts:
                assert part.x == rare and part.x ^ part.y == part.mask
                assert (part.fx, part.fy) == (1, 0) == (h.peek_bits(part.x), h.peek_bits(part.y))

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

    def test_entry_lift_matches_scatter_bits(self):
        # Every block size 1..70, so blocks of one word and of two;
        # coordinates up to 300.  The entry's pair carries a random context
        # outside the block, which `lift` must keep around the scattered
        # block-local pair.
        n = 300
        f = FunctionOracle.from_junta(n, [], 0)
        full = (1 << n) - 1
        rng = np.random.default_rng(12)
        for size in range(1, 71):
            for _ in range(3):
                coords = sorted(int(c) + 1 for c in rng.choice(n, size=size, replace=False))
                mask = mask_of(coords)
                ctx = rand_bits(rng, n) & (full ^ mask)
                assert ctx
                e = _Entry(f, full, mask, ctx, ctx ^ mask, None, None)
                x, y = rand_bits(rng, size), rand_bits(rng, size)
                part = rand_bits(rng, size) | 1
                child = e.lift(f, full, x, y, part, 0, 1)
                assert child.mask == scatter_bits(part, coords)
                assert child.xb == ctx | scatter_bits(x, coords)
                assert child.yb == ctx | scatter_bits(y, coords)
                assert (child.fx, child.fy) == (0, 1)


# ---------------------------------------------------------------------------
# main_djunta's batched search rounds against the round-by-round loop


def _affine_table(n, r):
    """x1 xor [A x' = 0] for x' = (x2..xn) and a fixed random r x (n-1)
    matrix A over GF(2): a block view that leaves A at rank r is exactly
    2**-r-close to x1, so it passes as a literal and its side probes
    fail now and then."""
    rng = np.random.default_rng(0)
    rest = np.arange(1 << n, dtype=np.int64) >> 1
    on = np.ones(1 << n, dtype=bool)
    for _ in range(r):
        on &= (np.bitwise_count(rest & int(rng.integers(1, 1 << (n - 1)))) & 1) == 0
    bits = ((np.arange(1 << n) & 1) ^ on).astype(np.uint8)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _main_batch_cases():
    """(name, oracle factory, distribution, config, seeds)."""
    rng = np.random.default_rng(23)
    weighted = sorted({rand_bits(rng, 40) for _ in range(50)})
    w = rng.random(len(weighted)) + 0.01
    affine = FunctionOracle.from_truth_table(22, _affine_table(22, 11))
    wide = sorted({rand_bits(rng, 150) for _ in range(80)})
    return [
        # Nothing is ever found: V stays empty and every round batches.
        ("constant n64", FunctionOracle.from_junta(64, (1,), 0).fork,
         FiniteDistribution.uniform_cube(64), DFTesterConfig(k=2, epsilon=0.5), (0, 1)),
        # A side probe of the vetted x1 block fails inside a batch.
        ("affine22", affine.fork, FiniteDistribution.uniform_cube(22),
         DFTesterConfig(k=1, epsilon=1 / 8), (38,)),
        ("junta weighted", FunctionOracle.from_junta(40, (3, 9, 31), 0b10010110).fork,
         FiniteDistribution.support(40, weighted, [float(v) for v in w / w.sum()]),
         DFTesterConfig(k=3, epsilon=1 / 3), (0, 1, 2)),
        # Points of three words, on the cube and on a support.
        ("junta n150", FunctionOracle.from_junta(150, (2, 70, 140), 0b01101001).fork,
         FiniteDistribution.uniform_cube(150), DFTesterConfig(k=3, epsilon=1 / 3), (0, 1)),
        ("junta n150 support", FunctionOracle.from_junta(150, (2, 70, 140), 0b01101001).fork,
         FiniteDistribution.support(150, wide), DFTesterConfig(k=3, epsilon=1 / 3), (0, 1)),
        # One 1 among 2**7 points: disagreements are rare, and on seed 7
        # one lands on a batch's first row.
        ("sparse7 n24", FunctionOracle.from_junta(24, range(1, 8), 1 << 5).fork,
         FiniteDistribution.uniform_cube(24), DFTesterConfig(k=4, epsilon=0.5), (7,)),
    ]


def test_batched_search_rounds_match_scalar_rounds(monkeypatch):
    """Verdicts, witnesses, counts and the feed's state after the call are
    those of the round-by-round loop, which runs when batching is off.  A
    spy on the batches checks that every case reaches one, and tallies
    the shapes a fast-forwarding batch has to get right: an empty V, a
    disagreement on the first row, a batch cut short by the buffer (the
    next round straddles a chunk).  A side probe that fails inside a
    batch shows as a fail in the scalar run that `_where` never sees in
    the batched one."""
    seen = Counter()

    def spy(f, D, V, feed, asked, _batch=tester._quiet_search_rounds):
        want = min(asked, tester._BATCH_ROWS)
        got = min(want, feed.buffered() // (3 * sum(len(e.coords) for e in V) + D.draw_bits + f.n))
        quiet, hit = _batch(f, D, V, feed, asked)
        seen["batch"] += got > 0
        seen["empty V"] += got > 0 and not V
        seen["first row"] += hit and quiet == 0
        seen["cut"] += 0 < got < want and not hit
        return quiet, hit

    def where(g, lmask, rmask, feed, _where=tester._where):
        w = _where(g, lmask, rmask, feed)
        seen["where fail"] += w.outcome == "fail"
        return w

    monkeypatch.setattr(tester, "_quiet_search_rounds", spy)
    monkeypatch.setattr(tester, "_where", where)

    def run(make, D, cfg, seed):
        feed = BitFeed(np.random.default_rng(seed))
        f = make()
        v = main_djunta(f, D, cfg, feed)
        return (v.outcome, v.witness, v.queries, v.samples), f.counter.snapshot(), feed.take(100)

    cases = _main_batch_cases()
    batched_runs, batched_seen = [], Counter()
    for name, make, D, cfg, seeds in cases:
        seen.clear()
        batched_runs += [run(make, D, cfg, s) for s in seeds]
        assert seen["batch"], f"{name} never reached a batch"
        batched_seen[name] = seen.copy()
    monkeypatch.setattr(tester, "_SCALAR_ROUNDS", 10**9)
    seen.clear()
    scalar_runs = []
    for name, make, D, cfg, seeds in cases:
        before = seen["where fail"]
        scalar_runs += [run(make, D, cfg, s) for s in seeds]
        batched_seen[name]["scalar where fail"] = seen["where fail"] - before
    assert not seen["batch"]
    assert batched_runs == scalar_runs
    assert batched_seen["constant n64"]["empty V"]
    assert batched_seen["sparse7 n24"]["first row"]
    assert sum(c["cut"] for c in batched_seen.values())
    fails = batched_seen["affine22"]
    assert fails["scalar where fail"] > fails["where fail"], dict(fails)
