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
retires a doubt.  Both take k and epsilon through the one tester config,
DFTesterConfig (defined in uniform.py, shared with the uniform tester),
which derives every budget from them, and all their randomness from an
`rng`.

The subroutines: `where_is_the_literal` spends at most four queries to tell
which half of a partitioned block controls a near-literal restriction, and
`literal` decides whether a block's restriction is close to a single
variable at all, splitting the block in two when it is not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .boolfn import (
    BitFeed,
    BitString,
    Block,
    DistinguishingPair,
    FunctionOracle,
    Verdict,
    block_of,
    coords_of,
    gather_bits,
    make_restriction_backend,
    mask_of,
    pack_rows,
    scatter_bits,
)
from .dist import FiniteDistribution
from .errors import ContractError, DimensionError
from .search import binary_search, block_binary_search
from .uniform import DFTesterConfig, close_run, uniform_junta


def _check_dims(f: FunctionOracle, D: FiniteDistribution) -> None:
    if f.n != D.n:
        raise DimensionError(f"oracle over {f.n} coordinates, distribution over {D.n}")


# ---------------------------------------------------------------------------
# side probing: which half of a block controls a near-literal restriction


class WhereResult(NamedTuple):
    """A side probe's answer.  Unless it is "fail", g(x) = fx and
    g(x ^ mask) = fy differ, and `mask` is the named side."""

    outcome: str  # "left", "right", or "fail"
    x: int | None = None
    mask: int | None = None
    fx: int | None = None
    fy: int | None = None


_FAIL = WhereResult("fail")


def _where(g: FunctionOracle, lmask: int, rmask: int, feed: BitFeed) -> WhereResult:
    # Each side check flips the whole side at its own point, both drawn
    # first; an empty side can never pass and is skipped without queries.
    n = g.n
    ab = feed.take(2 * n)
    value = g.backend.value
    for side, mask, a in (("left", lmask, ab & ((1 << n) - 1)), ("right", rmask, ab >> n)):
        if mask:
            fa = value(a)
            fb = value(a ^ mask)
            g.counter.queries += 2
            if fa != fb:
                return WhereResult(side, a, mask, fa, fb)
    return _FAIL


def where_is_the_literal(
    g: FunctionOracle, left: Block, right: Block, rng
) -> WhereResult:
    """Probe which of two halves of g's domain holds the controlling variable.

    `left` and `right` must partition coordinates 1..g.n; either may be
    empty.  Always draws two uniform points, the left then the right
    one, before it checks either side: at most 4 queries.  If g is
    gamma-close to a literal under the uniform distribution, the side
    containing that variable is returned with probability at least
    1 - 4*gamma (the points are independent, so drawing both changes no
    bound).  Any other outcome than "fail" comes with a point x and the
    named side's mask, with g(x) = fx != fy = g(x ^ mask): a
    distinguishing pair for that side.
    "fail" is an ordinary outcome (always, for instance, when g is
    constant).
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


class SplitPart(NamedTuple):
    """Half of a failed literal check, as points and a mask of g's domain:
    x and y differ only inside `mask`, and g(x) != g(y).  fx and fy are
    those values when the split queried them, None when it did not."""

    x: int
    y: int
    mask: int
    fx: int | None = None
    fy: int | None = None


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
            return LiteralResult(
                False, tuple(SplitPart(p.x.bits, p.y.bits, mask_of(p.block)) for p in verdict.witness)
            )
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
                return LiteralResult(
                    False, (SplitPart(b, b ^ c1, c1, fb, v1), SplitPart(b, b ^ c2, c2, fb, v2))
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
    Survives both phases: answer True.  Split parts are SplitPart points
    and masks on g's domain and always form valid pairs, so a True verdict
    is the only unverified claim.  Both counts come from cfg
    (literal_passes, literal_halvings).
    """
    if pair.x.n != g.n or pair.y.n != g.n:
        raise DimensionError(f"pair must live on {g.n} coordinates")
    if pair.x.bits == pair.y.bits:
        raise ContractError("pair endpoints must differ")
    return _literal(
        g, pair.x.bits, pair.y.bits, None, cfg, cfg.inner_uniform_cfg(), BitFeed.of(rng)
    )


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
    a numpy Generator or a BitFeed over one, is the run's only source of
    randomness: a round reads its sample of D, then its n flip bits.
    """
    _check_dims(f, D)
    feed = BitFeed.of(rng)
    n = f.n
    full = (1 << n) - 1
    start = f.counter.snapshot()
    imask = 0
    found: list[DistinguishingPair] = []

    for _ in range(cfg.simple_rounds):
        xb = D.sample_bits(feed)
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
            return close_run(f, start, cfg.simple_query_ceiling(n), "simple_djunta", tuple(found))
    return close_run(f, start, cfg.simple_query_ceiling(n), "simple_djunta")


# ---------------------------------------------------------------------------
# the main tester


class _Entry:
    """One tracked block: its mask, a full-length pair and a cached view.

    xb and yb agree everywhere outside the block's mask; fx/fy are f's
    values there when known (entries built from a uniform-tester witness
    arrive without labels, and `literal` re-queries them).  `view` is f
    with everything outside the block pinned to the pair's shared context,
    as `f.restrict` would build it.  `lift` tracks a pair found on the view
    as a new block of f.
    """

    __slots__ = ("mask", "coords", "xb", "yb", "fx", "fy", "view")

    def __init__(self, f: FunctionOracle, full: int, mask: int, xb, yb, fx, fy):
        self.mask = mask
        self.coords = coords_of(mask)
        self.xb = xb
        self.yb = yb
        self.fx = fx
        self.fy = fy
        if mask == full:
            self.view = f
        else:
            backend = make_restriction_backend(f.backend, self.coords, xb & (full ^ mask))
            self.view = FunctionOracle(backend, f.counter)

    def lift(self, f: FunctionOracle, full: int, x: int, y: int, mask: int, fx, fy) -> _Entry:
        """Track the pair (x, y), found on this block's view, at full length."""
        ctx = self.xb & (full ^ self.mask)
        coords = self.coords
        return _Entry(
            f, full, scatter_bits(mask, coords),
            ctx | scatter_bits(x, coords), ctx | scatter_bits(y, coords), fx, fy,
        )


#: A search round's layout depends on V, so after V changes main_djunta
#: runs this many search rounds one at a time before it batches, as
#: uniform_junta does after its first rounds.
_SCALAR_ROUNDS = 32

#: Most rounds one batch reads.  A block's probe points take 256 bytes a
#: round while they are packed, so this keeps each of a batch's arrays
#: near 32 KiB, however many rounds the feed holds.
_BATCH_ROWS = 128


def _quiet_search_rounds(
    f: FunctionOracle, D: FiniteDistribution, V: list[_Entry], feed: BitFeed, asked: int
) -> tuple[int, bool]:
    """Charge and skip the quiet search rounds the feed holds, up to
    min(asked, _BATCH_ROWS), and say whether a disagreeing round follows.

    Per block of V, one `values` call takes its view's left and right
    points, flipped and unflipped; then one takes f's x and y rows.  A
    round whose side probe fails is charged the probes up to that block
    and no sample.  The disagreeing round stays in the feed for the
    scalar search round.
    """
    n = f.n
    width = 3 * sum(len(e.coords) for e in V) + D.draw_bits + n
    B = feed.peek_bits(width, min(asked, _BATCH_ROWS))
    rows = len(B)
    if not rows:
        return 0, False
    passed = np.ones(rows, dtype=bool)  # every block so far named a side
    probes = np.zeros(rows, dtype=np.int64)
    flips = B[:, width - n :].copy()  # V's coordinates are overwritten below
    at = 0
    for e in V:
        b = len(e.coords)
        P, A, C = B[:, at : at + b], B[:, at + b : at + 2 * b], B[:, at + 2 * b : at + 3 * b]
        at += 3 * b
        v = e.view.backend.values(pack_rows(np.concatenate((A, A ^ P, C, C ^ P ^ 1)))).reshape(4, rows)
        lprobe = P.any(axis=1)
        left = lprobe & (v[0] != v[1])
        rprobe = ~left & ~P.all(axis=1)
        probes += passed * (2 * lprobe + 2 * rprobe)
        passed &= left | (rprobe & (v[2] != v[3]))
        # Flip the half judged free of the controlling variable.
        flips[:, np.subtract(e.coords, 1)] = P ^ left[:, None]
    X = D.sample_rows(pack_rows(B[:, at : width - n]))
    live = passed & flips.any(axis=1)
    v = f.backend.values(np.concatenate((X, X ^ pack_rows(flips))))
    hit = np.flatnonzero(live & (v[:rows] != v[rows:]))
    quiet = int(hit[0]) if len(hit) else rows
    f.counter.queries += int(probes[:quiet].sum()) + int(np.count_nonzero(live[:quiet]))
    f.counter.samples += int(np.count_nonzero(passed[:quiet]))
    feed.skip(quiet * width)
    return quiet, quiet < rows


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
    `rng`, a numpy Generator or a BitFeed over one, is the run's only
    source of randomness.  A search round reads the same fields whatever
    happens in it: per block of V a split mask and two points, then D's
    sample field and n flip bits.  So once V has been steady for
    _SCALAR_ROUNDS rounds, batches can fast-forward through the quiet
    rounds, and verdicts, counts and the stream stay those of a
    round-by-round run.
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
    steady = 0  # search rounds run since V last changed

    while r1 > 0 and r2 > 0:
        if not U:
            if steady >= _SCALAR_ROUNDS:
                quiet, hit = _quiet_search_rounds(f, D, V, feed, min(steady, r1))
                r1 -= quiet
                steady += quiet
                if quiet and not hit:
                    continue
                # The next round disagrees, or the buffer ends inside it:
                # either way it runs below.
            # Search round: try to grow the pool by one block.  Candidates
            # are (flip mask, (entry, side probe) or None) in search order.
            r1 -= 1
            steady += 1
            cands = []
            vmask = rmask = 0
            for i, e in enumerate(V):
                bsz = len(e.coords)
                bfull = (1 << bsz) - 1
                pmask = feed.take(bsz)
                w = _where(e.view, pmask, pmask ^ bfull, feed)
                if w.outcome == "fail":
                    # The round's remaining fields are read all the same.
                    feed.take(3 * sum(len(d.coords) for d in V[i + 1 :]) + D.draw_bits + n)
                    break
                # Flip the half judged free of the controlling variable.
                tmask = scatter_bits(w.mask ^ bfull, e.coords)
                vmask |= e.mask
                rmask |= tmask
                if tmask:
                    cands.append((tmask, (e, w)))
            else:
                xb = D.sample_bits(feed)
                fx = f.sample_eval_bits(xb)
                fresh = feed.take(n) & (full ^ vmask)
                if fresh:
                    cands.insert(0, (fresh, None))
                    rmask |= fresh
                yb = xb ^ rmask
                if rmask and f.eval_bits(yb) != fx:
                    res = block_binary_search(
                        f, BitString(n, xb), BitString(n, yb),
                        [block_of(m) for m, _ in cands], fx=fx,
                    )
                    mask, side = cands[res.index]
                    if side is not None:
                        # A vetted block's free half is relevant: dissolve it.
                        e, w = side
                        U.append(e.lift(f, full, w.x, w.x ^ w.mask, w.mask, w.fx, w.fy))
                        V.remove(e)
                        steady = 0
                    U.append(_Entry(f, full, mask, res.pair.x.bits, res.pair.y.bits, res.fx, res.fy))
        else:
            # Verify round: settle the oldest doubtful block.
            r2 -= 1
            e = U.popleft()
            xpos = gather_bits(e.xb, e.coords)
            ypos = gather_bits(e.yb, e.coords)
            labels = None if e.fx is None else (e.fx, e.fy)
            res = _literal(e.view, xpos, ypos, labels, cfg, inner, feed)
            if res.is_literal:
                V.append(e)
                steady = 0
            else:
                for part in res.parts:
                    U.append(e.lift(f, full, *part))
        if len(V) + len(U) >= cfg.k + 1:
            witness = tuple(
                DistinguishingPair(BitString(n, e.xb), BitString(n, e.yb), block_of(e.mask))
                for e in chain(V, U)
            )
            return close_run(f, start, cfg.main_query_ceiling(), "main_djunta", witness)
    return close_run(f, start, cfg.main_query_ceiling(), "main_djunta")
