"""main_djunta against a reference that carries pairs, not ints.

The reference below is `_where`, `_literal`, `_Entry`, `_make_entry`,
`_embed_entry`, `_assert_good` and `main_djunta` as they were while every
probe and split built a `DistinguishingPair` with `BitString` endpoints
and a frozenset block, kept line for line but for the random-stream
layout, which is the library's: a side probe draws both of its points
before it checks either side, a sample is read from the feed by
`reference_sample`, and a search round whose side probe fails still
reads all of its fields.  Two things are added: it checks the pool's invariants (disjoint nonempty
blocks, every stored pair still distinguishing, the potential 3|V| + 2|U|
never falling) after every round, and it counts the rare branches in
EVENTS, so the fixed cases can show that they reach each one.  The
library must give the same verdict, witness, query and sample counts, and
leave its BitFeed and generator where the reference leaves them.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djunta import (
    BitFeed,
    BitString,
    Block,
    DFTesterConfig,
    DistinguishingPair,
    FiniteDistribution,
    FunctionOracle,
    LiteralResult,
    Verdict,
    block_of,
    coords_of,
    gather_bits,
    gen_no,
    mask_of,
    rand_bits,
    scatter_bits,
)
from djunta import tester
from djunta.search import block_binary_search
from djunta.tester import _check_dims
from djunta.uniform import close_run, uniform_junta

#: Branch tallies of the reference: where_fail, halving_split, dissolve.
EVENTS: Counter = Counter()


# ---------------------------------------------------------------------------
# the reference

@dataclass(frozen=True)
class WhereResult:
    outcome: str  # "left", "right", or "fail"
    pair: DistinguishingPair | None = None
    fx: int | None = None
    fy: int | None = None


def _where(g: FunctionOracle, lmask: int, rmask: int, feed: BitFeed) -> WhereResult:
    # Both points are drawn before either side is checked.  Each side
    # check flips the whole side at its own uniform point; an empty side
    # can never pass and is skipped without spending queries.
    n = g.n
    points = {"left": feed.take(n), "right": feed.take(n)}
    for side, mask in (("left", lmask), ("right", rmask)):
        if mask:
            a = points[side]
            fa = g.eval_bits(a)
            fb = g.eval_bits(a ^ mask)
            if fa != fb:
                pair = DistinguishingPair(BitString(n, a), BitString(n, a ^ mask), block_of(mask))
                return WhereResult(side, pair, fa, fb)
    EVENTS["where_fail"] += 1
    return WhereResult("fail")


def reference_sample(D: FiniteDistribution, feed: BitFeed) -> int:
    """One point of D: the cube's n-bit field is the point itself; on a
    support of m points, a 64-bit draw u picks point floor(u * m / 2**64),
    or, with weights, the first point whose running weight total passes
    u's top 53 bits as a fraction, the last point with mass if none does."""
    if D.kind == D.KIND_CUBE:
        return feed.take(D.n)
    u = feed.take(64)
    if D.weights is None:
        return D.points[u * len(D.points) >> 64]
    t = (u >> 11) / 2**53
    total = 0.0
    for p, w in zip(D.points, D.weights):
        total += w
        if t < total:
            return p
    return [p for p, w in zip(D.points, D.weights) if w > 0][-1]


@dataclass(frozen=True)
class SplitPart:
    """Half of a failed literal check: a sub-block with its own pair."""

    pair: DistinguishingPair
    fx: int | None = None
    fy: int | None = None

    @property
    def block(self) -> Block:
        return self.pair.block


def _literal(
    g: FunctionOracle,
    xb: int,
    yb: int,
    labels: tuple[int, int] | None,
    cfg: DFTesterConfig,
    inner: DFTesterConfig,
    feed: BitFeed,
) -> LiteralResult:
    # `inner` is cfg.inner_uniform_cfg(), built once by the caller.
    n = g.n
    if n == 1:
        # A one-coordinate domain with a disagreeing pair is a literal.
        return LiteralResult(True)
    for _ in range(cfg.literal_passes):
        verdict = uniform_junta(g, inner, feed)
        if verdict.is_reject:
            p0, p1 = verdict.witness
            return LiteralResult(False, (SplitPart(p0), SplitPart(p1)))
    if labels is None:
        fx = g.eval_bits(xb)
        fy = g.eval_bits(yb)
    else:
        fx, fy = labels
    full = (1 << n) - 1
    for _ in range(cfg.literal_halvings):
        c1 = feed.take(n)
        c2 = c1 ^ full
        if c1 == 0 or c2 == 0:
            # One side empty: neither condition below can hold.
            continue
        # All four points are queried before either endpoint is judged.
        ends = [
            (b, fb, g.eval_bits(b ^ c1), g.eval_bits(b ^ c2)) for b, fb in ((xb, fx), (yb, fy))
        ]
        for b, fb, v1, v2 in ends:
            if v1 == v2 != fb:
                EVENTS["halving_split"] += 1
                bs = BitString(n, b)
                return LiteralResult(
                    False,
                    tuple(
                        SplitPart(DistinguishingPair(bs, BitString(n, b ^ c), block_of(c)), fb, v)
                        for c, v in ((c1, v1), (c2, v2))
                    ),
                )
    return LiteralResult(True)

# the main tester


class _Entry:
    """One tracked block with a full-length pair and a cached restriction.

    xb and yb agree everywhere outside the block's mask; fx/fy are f's
    values there when known (entries built from a uniform-tester witness
    arrive without labels, and `literal` re-queries them).  `view` is f
    with everything outside the block pinned to the pair's shared context.
    """

    __slots__ = ("mask", "coords", "xb", "yb", "fx", "fy", "view")


def _make_entry(f: FunctionOracle, full: int, mask: int, xb, yb, fx, fy) -> _Entry:
    e = _Entry()
    e.mask = mask
    e.coords = coords_of(mask)
    e.xb = xb
    e.yb = yb
    e.fx = fx
    e.fy = fy
    if mask == full:
        e.view = f
    else:
        fixed = coords_of(full ^ mask)
        w = BitString(len(fixed), gather_bits(xb, fixed))
        e.view = f.restrict(fixed, w)
    return e


def _embed_entry(
    f: FunctionOracle,
    full: int,
    parent: _Entry,
    pos_pair: DistinguishingPair,
    fx,
    fy,
) -> _Entry:
    """Lift a pair found on a parent block's restriction to full length."""
    ctx = parent.xb & (full ^ parent.mask)
    cmask = scatter_bits(mask_of(pos_pair.block), parent.coords)
    xb = ctx | scatter_bits(pos_pair.x.bits, parent.coords)
    yb = ctx | scatter_bits(pos_pair.y.bits, parent.coords)
    return _make_entry(f, full, cmask, xb, yb, fx, fy)


def _assert_good(f: FunctionOracle, V, U, full: int) -> None:
    # Debug-only structural invariants: disjoint nonempty blocks, every
    # stored pair still distinguishes (checked via uncounted peeks).
    seen = 0
    for e in chain(V, U):
        assert e.mask != 0
        assert e.mask & seen == 0
        seen |= e.mask
        assert (e.xb ^ e.yb) & (full ^ e.mask) == 0
        assert f.peek_bits(e.xb) != f.peek_bits(e.yb)


def main_djunta(
    f: FunctionOracle, D: FiniteDistribution, cfg: DFTesterConfig, rng
) -> Verdict:
    """Test f against k-juntas w.r.t. D with n-independent query count.

    State is a pool of disjoint blocks: V holds blocks whose restriction
    has been vetted as near-literal, U holds blocks found relevant but not
    yet vetted.  While U is empty, a search round samples x from D and
    flips, per vetted block, the half that where_is_the_literal judged
    free of the controlling variable, plus a random set of untracked
    coordinates; any disagreement yields (by block binary search) either a
    brand-new block for U or evidence that dissolves a vetted block into
    two U blocks.  Otherwise a verify round runs `literal` on the oldest U
    block, promoting it to V or splitting it.  k+1 blocks total force
    rejection, with all pairs reported at full length.

    Budgets come from cfg (search_rounds, verify_rounds); the total spend
    is capped by cfg.main_query_ceiling(), which does not involve n.
    `rng`, a numpy Generator, is the run's only source of randomness.
    """
    _check_dims(f, D)
    feed = BitFeed.of(rng)
    n = f.n
    full = (1 << n) - 1
    start = f.counter.snapshot()
    inner = cfg.inner_uniform_cfg()

    V: list[_Entry] = []
    U: deque[_Entry] = deque()
    r1 = cfg.search_rounds
    r2 = cfg.verify_rounds
    potential = 0

    while r1 > 0 and r2 > 0:
        if not U:
            # Search round: try to grow the pool by one block.
            r1 -= 1
            sides = []
            failed = False
            for i, e in enumerate(V):
                bsz = len(e.coords)
                pmask = feed.take(bsz)
                qmask = pmask ^ ((1 << bsz) - 1)
                res = _where(e.view, pmask, qmask, feed)
                if res.outcome == "fail":
                    failed = True
                    # Every field of the round is read all the same: the
                    # later blocks' split masks and points, the sample, the
                    # fresh flip bits.
                    for d in V[i + 1 :]:
                        for _ in range(3):
                            feed.take(len(d.coords))
                    reference_sample(D, feed)
                    feed.take(n)
                    break
                if res.outcome == "left":
                    smask, tmask = pmask, qmask
                else:
                    smask, tmask = qmask, pmask
                sides.append((e, tmask, res))
            if not failed:
                vmask = 0
                for e in V:
                    vmask |= e.mask
                xb = reference_sample(D, feed)
                fx = f.sample_eval_bits(xb)
                tfull = feed.take(n) & (full ^ vmask)
                rmask = tfull
                tcoord = []
                for e, tmask, _res in sides:
                    tc = scatter_bits(tmask, e.coords)
                    tcoord.append(tc)
                    rmask |= tc
                if rmask:
                    yb = xb ^ rmask
                    fy = f.eval_bits(yb)
                    if fx != fy:
                        blocks = []
                        origin = []
                        if tfull:
                            blocks.append(block_of(tfull))
                            origin.append(-1)
                        for idx, tc in enumerate(tcoord):
                            if tc:
                                blocks.append(block_of(tc))
                                origin.append(idx)
                        res = block_binary_search(
                            f, BitString(n, xb), BitString(n, yb), blocks, fx=fx
                        )
                        o = origin[res.index]
                        if o < 0:
                            U.append(
                                _make_entry(
                                    f, full, tfull,
                                    res.pair.x.bits, res.pair.y.bits,
                                    res.fx, res.fy,
                                )
                            )
                        else:
                            EVENTS["dissolve"] += 1
                            e, _tmask, wres = sides[o]
                            U.append(_embed_entry(f, full, e, wres.pair, wres.fx, wres.fy))
                            U.append(
                                _make_entry(
                                    f, full, tcoord[o],
                                    res.pair.x.bits, res.pair.y.bits,
                                    res.fx, res.fy,
                                )
                            )
                            V.remove(e)
        else:
            # Verify round: settle the oldest doubtful block.
            r2 -= 1
            e = U.popleft()
            if len(e.coords) == 1:
                res = LiteralResult(True)
            else:
                xpos = gather_bits(e.xb, e.coords)
                ypos = gather_bits(e.yb, e.coords)
                labels = None if e.fx is None else (e.fx, e.fy)
                res = _literal(e.view, xpos, ypos, labels, cfg, inner, feed)
            if res.is_literal:
                V.append(e)
            else:
                p0, p1 = res.parts
                U.append(_embed_entry(f, full, e, p0.pair, p0.fx, p0.fy))
                U.append(_embed_entry(f, full, e, p1.pair, p1.fx, p1.fy))
        _assert_good(f, V, U, full)
        now = 3 * len(V) + 2 * len(U)
        assert now >= potential
        potential = now
        if len(V) + len(U) >= cfg.k + 1:
            witness = tuple(
                DistinguishingPair(BitString(n, e.xb), BitString(n, e.yb), block_of(e.mask))
                for e in chain(V, U)
            )
            return close_run(f, start, cfg.main_query_ceiling(), "main_djunta", witness)
    return close_run(f, start, cfg.main_query_ceiling(), "main_djunta")


# ---------------------------------------------------------------------------
# the library against the reference


def _run(run, make, D, cfg, seed):
    EVENTS.clear()
    feed = BitFeed(np.random.default_rng(seed))
    f = make()
    v = run(f, D, cfg, feed)
    return (
        (v.outcome, v.witness, v.queries, v.samples),
        f.counter.snapshot(),
        feed.take(100),
        feed.rng.bit_generator.state,
    ), Counter(EVENTS)


def _same_as_reference(make, D, cfg, seed) -> Counter:
    """Run both on one seed, require equal results; return the reference's tallies."""
    got, _ = _run(tester.main_djunta, make, D, cfg, seed)
    want, events = _run(main_djunta, make, D, cfg, seed)
    assert got == want
    return events


def _parity(k):
    return sum((z.bit_count() & 1) << z for z in range(1 << k))


def _xor_and_table(width):
    """x1 xor (x2 and ... and x_width): near x1 once width is large."""
    ones = (1 << (width - 1)) - 1
    return sum(((z & 1) ^ (z >> 1 == ones)) << z for z in range(1 << width))


def _affine_table(n, r):
    """x1 xor [A x' = 0] as a truth table, for x' = (x2..xn) and a fixed
    random r x (n-1) matrix A over GF(2): every view whose free
    coordinates leave A at rank r is exactly 2**-r-close to x1."""
    rng = np.random.default_rng(0)
    rest = np.arange(1 << n, dtype=np.int64) >> 1
    on = np.ones(1 << n, dtype=bool)
    for _ in range(r):
        on &= (np.bitwise_count(rest & int(rng.integers(1, 1 << (n - 1)))) & 1) == 0
    bits = ((np.arange(1 << n) & 1) ^ on).astype(np.uint8)
    table = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    return lambda: FunctionOracle.from_truth_table(n, table)


def _cube(n):
    return FiniteDistribution.uniform_cube(n)


def _junta(n, vars, table):
    return lambda: FunctionOracle.from_junta(n, vars, table)


_GEN_NO_20 = gen_no(20, 2, np.random.default_rng(20))

#: (name, oracle factory, distribution, config, seeds, branch it must reach)
_FIXED = [
    # Honest rejecting runs: the invariants hold on five seeds.
    ("parity3 n12", _junta(12, (1, 6, 11), _parity(3)), _cube(12),
     DFTesterConfig(k=2, epsilon=0.25), range(5), None),
    # A vetted block's free side turns out relevant elsewhere.
    ("xor_and4 n8", _junta(8, range(1, 5), _xor_and_table(4)), _cube(8),
     DFTesterConfig(k=2, epsilon=0.5), range(3), "dissolve"),
    # Near-constant blocks of a hard instance fail the halving check.
    ("gen_no n20", _GEN_NO_20.oracle, _GEN_NO_20.D,
     DFTesterConfig(k=1, epsilon=0.5), range(3), "halving_split"),
    # x1 xor [A x' = 0]: a block view with enough free coordinates is
    # 2**-11-close to x1, passes as a literal, and a side probe then lands
    # where the affine term flips with x1.
    ("affine22 table", _affine_table(22, 11), _cube(22),
     DFTesterConfig(k=1, epsilon=Fraction(1, 8)), (38, 66), "where_fail"),
]


@pytest.mark.parametrize("name, make, D, cfg, seeds, branch", _FIXED, ids=[c[0] for c in _FIXED])
def test_fixed_cases(name, make, D, cfg, seeds, branch):
    seen = Counter()
    for seed in seeds:
        seen += _same_as_reference(make, D, cfg, seed)
    if branch is not None:
        assert seen[branch], f"{name} never reached {branch}: {dict(seen)}"


def test_halving_with_both_endpoints_split():
    """A halving where x and y both qualify: the split must be made at x.

    g is 1 on x and on y's two flips under the first halving on seed 2
    (as seen by running with g = [z == x]), so both ends pass the check in
    the same round and only the order of judging decides the parts.
    """
    n = 14
    x, y = 0b10110011100101, 0b00110011100100
    g = FunctionOracle.from_truth_table(n, (1 << x) | (1 << 378) | (1 << 16005))
    cfg = DFTesterConfig(k=2, epsilon=0.5)
    inner = cfg.inner_uniform_cfg()

    def run(lit):
        feed = BitFeed(np.random.default_rng(2))
        h = g.fork()
        res = lit(h, x, y, None, cfg, inner, feed)
        return res, h.counter.snapshot(), feed.take(100), feed.rng.bit_generator.state

    got, *rest = run(tester._literal)
    want, *want_rest = run(_literal)
    assert rest == want_rest
    assert not got.is_literal and not want.is_literal
    assert [tuple(p) for p in got.parts] == [
        (p.pair.x.bits, p.pair.y.bits, mask_of(p.block), p.fx, p.fy) for p in want.parts
    ]
    c1, c2 = got.parts[0].mask, got.parts[1].mask
    assert got.parts[0].x == x
    assert g.peek_bits(y ^ c1) == g.peek_bits(y ^ c2) != g.peek_bits(y)


@st.composite
def _instances(draw):
    """(oracle factory, distribution), weighted toward near-constant and
    near-literal functions, whose blocks split, dissolve and fail probes."""
    kind = draw(st.sampled_from(["junta", "xor_and", "truth_table", "gen_no"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "gen_no":
        inst = gen_no(draw(st.integers(14, 40)), draw(st.integers(1, 3)), rng)
        return inst.oracle, inst.D
    if kind == "truth_table":
        n = draw(st.integers(1, 12))
        table = rand_bits(rng, 1 << n)
        make = lambda: FunctionOracle.from_truth_table(n, table)
    else:
        n = draw(st.integers(2, 48))
        width = draw(st.integers(1, min(n, 10)))
        vars = sorted(int(v) + 1 for v in rng.choice(n, size=width, replace=False))
        table = _xor_and_table(width) if kind == "xor_and" else rand_bits(rng, 1 << width)
        make = _junta(n, vars, table)
    if draw(st.booleans()):
        size = draw(st.integers(1, min(64, 1 << n)))
        pts = {rand_bits(rng, n) for _ in range(size)}
        return make, FiniteDistribution.support(n, sorted(pts))
    return make, _cube(n)


@given(
    inst=_instances(),
    k=st.integers(1, 3),
    epsilon=st.sampled_from([0.5, Fraction(1, 3), Fraction(1, 4)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_matches_reference(inst, k, epsilon, seed):
    make, D = inst
    _same_as_reference(make, D, DFTesterConfig(k=k, epsilon=epsilon), seed)
