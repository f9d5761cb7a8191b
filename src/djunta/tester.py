"""Distribution-free junta testers and their block-probing subroutines.

Two testers share the same contract: accept every k-junta on every seed,
reject an epsilon-far function (distance measured against the caller's
distribution) with probability at least 2/3, and never reject without a
certificate of k+1 pairwise disjoint blocks, each carrying a distinguishing
pair.  `simple_djunta` isolates single coordinates by binary search, so its
query count grows with log n.  `main_djunta` keeps whole blocks and only
ever verifies that a block's restriction behaves like one variable, which
makes its query count independent of n: blocks it has vetted live in V,
blocks still in doubt wait in U, and every round either grows this pool or
retires a doubt.  Both take k and epsilon through a DFTesterConfig, which
derives every budget from them, and all their randomness from an `rng`.

The subroutines: `where_is_the_literal` spends at most four queries to tell
which half of a partitioned block controls a near-literal restriction, and
`literal` decides whether a block's restriction is close to a single
variable at all, splitting the block in two when it is not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import ceil

from .boolfn import (
    BitFeed,
    BitString,
    Block,
    DistinguishingPair,
    FunctionOracle,
    Verdict,
    block_of,
    ceil_log2,
    coords_of,
    gather_bits,
    mask_of,
    scatter_bits,
)
from .dist import FiniteDistribution
from .errors import BudgetError, ContractError, DimensionError
from .search import binary_search, block_binary_search
from .uniform import UniformTesterConfig, uniform_junta


@dataclass(frozen=True)
class DFTesterConfig:
    """Settings of the two distribution-free testers: k, epsilon and debug.

    Every budget is derived from k and epsilon at construction and is
    read-only: simple_rounds = ceil(8(k+1)/eps) for the log-n tester,
    search_rounds = ceil(64k/eps) and verify_rounds = 3(k+1) for the main
    tester, and gamma = 1/(8k), the closeness level at which a block counts
    as settled.  Round counts are computed on the exact rational value of
    epsilon, so a given (k, epsilon) always yields the same budgets.
    `debug` makes main_djunta assert its pool invariants after every round.
    """

    k: int
    epsilon: float
    debug: bool = False
    simple_rounds: int = field(init=False)
    search_rounds: int = field(init=False)
    verify_rounds: int = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"need k >= 1, got {self.k}")
        if not 0 < self.epsilon <= 1:
            raise ContractError(f"need 0 < epsilon <= 1, got {self.epsilon}")
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "simple_rounds", ceil(8 * (self.k + 1) / eps))
        object.__setattr__(self, "search_rounds", ceil(64 * self.k / eps))
        object.__setattr__(self, "verify_rounds", 3 * (self.k + 1))
        object.__setattr__(self, "gamma", 1 / (8 * self.k))

    def inner_uniform_cfg(self) -> UniformTesterConfig:
        """Config of the arity-1 uniform tester run on block restrictions.

        Its epsilon is gamma as an exact rational, so its rounds come out
        at exactly 256k (a float gamma would give 769 at k = 3).
        """
        return UniformTesterConfig(k=1, epsilon=Fraction(1, 8 * self.k))

    def literal_query_ceiling(self) -> int:
        """Worst case of one `literal` call, label re-queries included."""
        reps = ceil_log2(self.k) + 6
        splits = ceil_log2(self.k) + 3
        return reps * self.inner_uniform_cfg().query_ceiling() + 2 + splits * 4

    def simple_query_ceiling(self, n: int) -> int:
        """Per-run cap for simple_djunta on n coordinates."""
        return 2 * self.simple_rounds + (self.k + 1) * ceil_log2(max(1, n))

    def main_query_ceiling(self) -> int:
        """Per-run cap for main_djunta; no dependence on n."""
        per_search = 4 * self.k + 2 + ceil_log2(self.k + 1)
        return (
            self.search_rounds * per_search
            + self.verify_rounds * self.literal_query_ceiling()
        )


def _check_dims(f: FunctionOracle, D: FiniteDistribution) -> None:
    if f.n != D.n:
        raise DimensionError(f"oracle over {f.n} coordinates, distribution over {D.n}")


# ---------------------------------------------------------------------------
# side probing: which half of a block controls a near-literal restriction


@dataclass(frozen=True)
class WhereResult:
    outcome: str  # "left", "right", or "fail"
    pair: DistinguishingPair | None = None
    fx: int | None = None
    fy: int | None = None


def _where(g: FunctionOracle, lmask: int, rmask: int, feed: BitFeed) -> WhereResult:
    # Each side check flips the whole side at a fresh uniform point; an
    # empty side can never pass and is skipped without spending queries.
    n = g.n
    for side, mask in (("left", lmask), ("right", rmask)):
        if mask:
            a = feed.take(n)
            fa = g.eval_bits(a)
            fb = g.eval_bits(a ^ mask)
            if fa != fb:
                pair = DistinguishingPair(BitString(n, a), BitString(n, a ^ mask), block_of(mask))
                return WhereResult(side, pair, fa, fb)
    return WhereResult("fail")


def where_is_the_literal(
    g: FunctionOracle, left: Block, right: Block, rng
) -> WhereResult:
    """Probe which of two halves of g's domain holds the controlling variable.

    `left` and `right` must partition coordinates 1..g.n; either may be
    empty.  Makes at most 4 queries.  If g is gamma-close to a literal
    under the uniform distribution, the side containing that variable is
    returned with probability at least 1 - 4*gamma; any returned pair is a
    valid distinguishing pair for the named side.  "fail" is an ordinary
    outcome (always, for instance, when g is constant).
    """
    lmask = mask_of(left, g.n)
    rmask = mask_of(right, g.n)
    if lmask & rmask:
        raise ContractError("sides must be disjoint")
    if lmask | rmask != (1 << g.n) - 1:
        raise ContractError("sides must cover every coordinate of g")
    return _where(g, lmask, rmask, BitFeed.of(rng))


# ---------------------------------------------------------------------------
# literal check: is a block's restriction essentially one variable?


@dataclass(frozen=True)
class SplitPart:
    """Half of a failed literal check: a sub-block with its own pair."""

    pair: DistinguishingPair
    fx: int | None = None
    fy: int | None = None

    @property
    def block(self) -> Block:
        return self.pair.block


@dataclass(frozen=True)
class LiteralResult:
    is_literal: bool
    parts: tuple[SplitPart, SplitPart] | None = None


def _literal(
    g: FunctionOracle,
    xb: int,
    yb: int,
    labels: tuple[int, int] | None,
    cfg: DFTesterConfig,
    feed: BitFeed,
) -> LiteralResult:
    n = g.n
    if n == 1:
        # A one-coordinate domain with a disagreeing pair is a literal.
        return LiteralResult(True)
    ucfg = cfg.inner_uniform_cfg()
    for _ in range(ceil_log2(cfg.k) + 6):
        verdict = uniform_junta(g, ucfg, feed)
        if verdict.is_reject:
            p0, p1 = verdict.witness
            return LiteralResult(False, (SplitPart(p0), SplitPart(p1)))
    if labels is None:
        fx = g.eval_bits(xb)
        fy = g.eval_bits(yb)
    else:
        fx, fy = labels
    full = (1 << n) - 1
    for _ in range(ceil_log2(cfg.k) + 3):
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
                bs = BitString(n, b)
                return LiteralResult(
                    False,
                    tuple(
                        SplitPart(DistinguishingPair(bs, BitString(n, b ^ c), block_of(c)), fb, v)
                        for c, v in ((c1, v1), (c2, v2))
                    ),
                )
    return LiteralResult(True)


def literal(
    g: FunctionOracle, pair: DistinguishingPair, cfg: DFTesterConfig, rng
) -> LiteralResult:
    """Decide whether g is close to a single variable, or split its domain.

    `pair` must be a distinguishing pair for g's whole domain.  First the
    arity-1 uniform tester gets ceil(log2 k)+6 chances to refute closeness
    to any 1-junta; a rejection hands back its two disjoint blocks as the
    split.  Then ceil(log2 k)+3 random halvings of the domain look for a
    point whose value flips under both halves but not under the whole,
    which is impossible for a literal but likely for a near-constant.
    Survives both phases: answer True.  Split parts always carry valid
    pairs, so a True verdict is the only unverified claim.
    """
    if pair.x.n != g.n or pair.y.n != g.n:
        raise DimensionError(f"pair must live on {g.n} coordinates")
    if pair.x.bits == pair.y.bits:
        raise ContractError("pair endpoints must differ")
    return _literal(g, pair.x.bits, pair.y.bits, None, cfg, BitFeed.of(rng))


# ---------------------------------------------------------------------------
# the log-n tester


def simple_djunta(
    f: FunctionOracle, D: FiniteDistribution, cfg: DFTesterConfig, rng
) -> Verdict:
    """Test f against k-juntas w.r.t. D by collecting single coordinates.

    Each round draws a labeled sample x from D, flips a uniform subset of
    the coordinates not yet known relevant, and binary-searches any
    disagreement down to one new relevant coordinate.  k+1 distinct
    coordinates force rejection; the witness is their k+1 singleton
    blocks.  Query count is capped by cfg.simple_query_ceiling(n).  `rng`,
    a numpy Generator, is the run's only source of randomness: it draws
    the samples from D and feeds the flip sets.
    """
    _check_dims(f, D)
    feed = BitFeed.of(rng)
    raw = feed.rng
    n = f.n
    full = (1 << n) - 1
    q0, s0 = f.counter.snapshot()
    ceiling = cfg.simple_query_ceiling(n)
    imask = 0
    found: list[DistinguishingPair] = []

    def finish(outcome: str) -> Verdict:
        q1, s1 = f.counter.snapshot()
        if (q1 - q0) + (s1 - s0) > ceiling:
            raise BudgetError(
                f"simple tester spent {(q1 - q0) + (s1 - s0)}, ceiling {ceiling}"
            )
        witness = tuple(found) if outcome == "reject" else ()
        return Verdict(outcome, witness, q1 - q0, s1 - s0)

    for _ in range(cfg.simple_rounds):
        xb = D.sample_bits(raw)
        fx = f.sample_eval_bits(xb)
        rmask = feed.take(n) & (full ^ imask)
        if rmask == 0:
            continue
        yb = xb ^ rmask
        fy = f.eval_bits(yb)
        if fx == fy:
            continue
        res = binary_search(f, BitString(n, xb), BitString(n, yb), fx=fx)
        assert not imask >> (res.coord - 1) & 1
        imask |= 1 << (res.coord - 1)
        found.append(res.pair)
        if len(found) > cfg.k:
            return finish("reject")
    return finish("accept")


# ---------------------------------------------------------------------------
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
    raw = feed.rng
    n = f.n
    full = (1 << n) - 1
    q0, s0 = f.counter.snapshot()
    ceiling = cfg.main_query_ceiling()

    V: list[_Entry] = []
    U: deque[_Entry] = deque()
    r1 = cfg.search_rounds
    r2 = cfg.verify_rounds
    potential = 0

    def finish(outcome: str) -> Verdict:
        q1, s1 = f.counter.snapshot()
        if (q1 - q0) + (s1 - s0) > ceiling:
            raise BudgetError(
                f"main tester spent {(q1 - q0) + (s1 - s0)}, ceiling {ceiling}"
            )
        witness = ()
        if outcome == "reject":
            witness = tuple(
                DistinguishingPair(BitString(n, e.xb), BitString(n, e.yb), block_of(e.mask))
                for e in chain(V, U)
            )
        return Verdict(outcome, witness, q1 - q0, s1 - s0)

    while r1 > 0 and r2 > 0:
        if not U:
            # Search round: try to grow the pool by one block.
            r1 -= 1
            sides = []
            failed = False
            for e in V:
                bsz = len(e.coords)
                pmask = feed.take(bsz)
                qmask = pmask ^ ((1 << bsz) - 1)
                res = _where(e.view, pmask, qmask, feed)
                if res.outcome == "fail":
                    failed = True
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
                xb = D.sample_bits(raw)
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
                res = _literal(e.view, xpos, ypos, labels, cfg, feed)
            if res.is_literal:
                V.append(e)
            else:
                p0, p1 = res.parts
                U.append(_embed_entry(f, full, e, p0.pair, p0.fx, p0.fy))
                U.append(_embed_entry(f, full, e, p1.pair, p1.fx, p1.fy))
        if cfg.debug:
            _assert_good(f, V, U, full)
            now = 3 * len(V) + 2 * len(U)
            assert now >= potential
            potential = now
        if len(V) + len(U) >= cfg.k + 1:
            return finish("reject")
    return finish("accept")
