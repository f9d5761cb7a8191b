"""One-sided junta tester for the uniform distribution.

This is the workhorse the distribution-free testers call with k=1 to vet a
block, and it is useful standalone.  The scheme: partition the coordinates
into random blocks once, then repeatedly draw a uniform x and a uniform y
agreeing with x on every block already known relevant; a disagreement
f(x) != f(y) lets block binary search pin one new relevant block.  Finding
k+1 disjoint relevant blocks, each holding a distinguishing pair, is proof
that f is no k-junta, so rejection is always certified and a true k-junta
is accepted on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

import numpy as np

from .boolfn import (
    BitFeed,
    BitString,
    DistinguishingPair,
    FunctionOracle,
    RestrictionBackend,
    Verdict,
    block_of,
    ceil_log2,
    full_truth_table,
    int_of_words,
    words_of,
)
from .errors import BudgetError, ContractError, SizeError
from .search import block_binary_search


@dataclass(frozen=True)
class UniformTesterConfig:
    """Parameters of the uniform-distribution tester: k and epsilon.

    The budgets are derived from them at construction and read-only:
    num_blocks = 10k², enough for a random partition to separate the
    relevant variables of a nearby junta with decent probability, and
    rounds = ceil(16(k+1)/epsilon), computed on the exact rational value
    of epsilon so a given (k, epsilon) always yields the same count.
    """

    k: int
    epsilon: float
    num_blocks: int = field(init=False)
    rounds: int = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"need k >= 1, got {self.k}")
        if not 0 < self.epsilon <= 1:
            raise ContractError(f"need 0 < epsilon <= 1, got {self.epsilon}")
        object.__setattr__(self, "num_blocks", 10 * self.k * self.k)
        object.__setattr__(self, "rounds", ceil(16 * (self.k + 1) / Fraction(self.epsilon)))

    def query_ceiling(self) -> int:
        """Hard per-run cap: two queries a round plus k+1 block searches."""
        return 2 * self.rounds + (self.k + 1) * ceil_log2(self.num_blocks)


#: Each call runs its first max(_SCALAR_ROUNDS, _SCALAR_BITS // w) rounds
#: through the scalar `value`, for points w bits wide (a restriction's
#: points are its parent's).  A batch pays a fixed numpy overhead (a few
#: hundred µs) and evaluates rounds past the one that stops the call, so
#: it pays off only on calls that live long after it starts.  Most
#: rejecting calls stop inside the scalar rounds.  A scalar round's cost
#: grows with w: about 60 µs at w = 300, where batching repays its
#: overhead within tens of rounds, but 5 µs at w = 14, where a batched row
#: costs about as much as a scalar one.
_SCALAR_ROUNDS = 32
_SCALAR_BITS = 8192
#: Rounds in the first batch; each later batch doubles, up to the cap.
_FIRST_BATCH = 64
_MAX_BATCH = 256


def uniform_junta(f: FunctionOracle, cfg: UniformTesterConfig, rng) -> Verdict:
    """Test whether f is a k-junta under the uniform distribution.

    Accepts every k-junta outright; rejects an epsilon-far f with
    probability at least 2/3, and any rejection carries k+1 pairwise
    disjoint blocks with a distinguishing pair each.  Query count is
    capped by cfg.query_ceiling(), independent of n.  `rng`, a numpy
    Generator or a BitFeed over one, is the run's only source of
    randomness.

    A round draws x and a flip set, n bits each, from the feed and costs
    two queries when the flip set is nonempty.  The first rounds go one at
    a time through the backend's `value`, more of them on narrow points;
    later ones go in batches through its `values`, never more than the
    feed has buffered.  A batch evaluates rounds past the one that stops
    the run, charges none of them, and hands their bits back to the feed,
    so verdicts, counts and the feed's stream come out exactly as in a
    round-by-round run.
    """
    n = f.n
    feed = BitFeed.of(rng)
    raw = feed.rng
    q0, s0 = f.counter.snapshot()

    # One random partition for the whole run: coordinate -> block id.
    assignment = raw.integers(0, cfg.num_blocks, size=n)
    by_id: dict[int, int] = {}
    for c, bid in enumerate(assignment, start=1):
        by_id[int(bid)] = by_id.get(int(bid), 0) | (1 << (c - 1))
    open_masks = list(by_id.values())
    open_union = 0
    for m in open_masks:
        open_union |= m

    found: list[DistinguishingPair] = []
    relevant_union = 0
    backend = f.backend
    counter = f.counter
    nwords = (n + 63) >> 6

    def finish(outcome: str) -> Verdict:
        q1, s1 = f.counter.snapshot()
        spent = (q1 - q0) + (s1 - s0)
        if spent > cfg.query_ceiling():
            raise BudgetError(
                f"uniform tester spent {spent} queries, ceiling {cfg.query_ceiling()}"
            )
        witness = tuple(found) if outcome == "reject" else ()
        return Verdict(outcome, witness, q1 - q0, s1 - s0)

    def split(xb: int, yb: int, fx: int) -> int:
        """Pin one relevant block behind a disagreeing round; return its mask."""
        nonlocal open_union, relevant_union
        rmask = xb ^ yb
        assert rmask & relevant_union == 0
        probe_blocks = []
        probe_at = []
        for t, m in enumerate(open_masks):
            mm = m & rmask
            if mm:
                probe_blocks.append(block_of(mm))
                probe_at.append(t)
        res = block_binary_search(
            f, BitString(n, xb), BitString(n, yb), probe_blocks, fx=fx
        )
        full = open_masks.pop(probe_at[res.index])
        open_union ^= full
        relevant_union |= full
        found.append(DistinguishingPair(res.pair.x, res.pair.y, block_of(full)))
        return full

    def batch_rounds(xs: np.ndarray, flips: np.ndarray) -> int:
        """Run the rounds (x, flip set) row by row; return how many ran."""
        R = flips & words_of(open_union, nwords)
        Y = xs ^ R
        live = R.any(axis=1)
        fx = backend.values(xs)
        fy = backend.values(Y)
        hit = live & (fx != fy)
        j = 0
        while True:
            ahead = np.flatnonzero(hit[j:])
            if len(ahead) == 0:
                counter.queries += 2 * int(np.count_nonzero(live[j:]))
                return len(xs)
            h = j + int(ahead[0])
            counter.queries += 2 * int(np.count_nonzero(live[j : h + 1]))
            gone = words_of(split(int_of_words(xs[h]), int_of_words(Y[h]), int(fx[h])), nwords)
            j = h + 1
            if len(found) > cfg.k or open_union == 0:
                return j
            # Later rounds that flipped the block just found now flip less.
            moved = j + np.flatnonzero((R[j:] & gone).any(axis=1))
            if len(moved):
                R[moved] &= ~gone
                Y[moved] = xs[moved] ^ R[moved]
                live[moved] = R[moved].any(axis=1)
                fy[moved] = backend.values(Y[moved])
                hit[moved] = live[moved] & (fx[moved] != fy[moved])

    # A restriction evaluates its parent's points.
    root = backend
    while isinstance(root, RestrictionBackend):
        root = root.parent
    scalar_rounds = max(_SCALAR_ROUNDS, _SCALAR_BITS // root.n)
    value = backend.value
    done = 0
    batch = _FIRST_BATCH
    # Once open_union is 0, everything sits in relevant blocks: y would
    # equal x in every later round, so no evidence can turn up.
    while done < cfg.rounds and open_union:
        if done >= scalar_rounds:
            block = feed.peek_block(n, 2 * min(batch, cfg.rounds - done))
            rows = len(block) // 2
            if rows:
                used = batch_rounds(block[0 : 2 * rows : 2], block[1 : 2 * rows : 2])
                feed.skip(2 * n * used)
                done += used
                batch = min(2 * batch, _MAX_BATCH)
                if len(found) > cfg.k:
                    return finish("reject")
                continue
            # The buffer ends inside this round: it pulls the next chunk
            # from the generator, one round at a time as always.
        done += 1
        xb = feed.take(n)
        rmask = feed.take(n) & open_union
        if rmask == 0:
            continue
        yb = xb ^ rmask
        fx = value(xb)
        fy = value(yb)
        counter.queries += 2
        if fx != fy:
            split(xb, yb, fx)
            if len(found) > cfg.k:
                return finish("reject")
    return finish("accept")


@dataclass(frozen=True)
class OneJuntaFit:
    """Exhaustive uniform-distance fit of a small function to one variable.

    `literal` is (coordinate, polarity) with polarity 1 for the plain
    variable and 0 for its negation; `junta` adds the two constants to the
    candidate set and is ("const", b) or ("literal", i, polarity).
    """

    literal_distance: Fraction
    literal: tuple[int, int]
    junta_distance: Fraction
    junta: tuple


def literal_distance_uniform(f: FunctionOracle) -> OneJuntaFit:
    """Exact uniform distance from f to the nearest literal and 1-junta.

    Enumerates the whole domain (capped at 2**20 points), so it never
    touches f's query counter; meant for verification, not testing.
    """
    if f.n > 20:
        raise SizeError(f"exhaustive 1-junta fit capped at n = 20, got {f.n}")
    size = 1 << f.n
    raw = full_truth_table(f).to_bytes((size + 7) // 8, "little")
    vals = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]
    points = np.arange(size, dtype=np.uint32)

    ones = int(np.count_nonzero(vals))
    best_lit = None
    for i in range(1, f.n + 1):
        xi = (points >> np.uint32(i - 1)) & np.uint32(1)
        mism = int(np.count_nonzero(vals != xi))
        for pol, cnt in ((1, mism), (0, size - mism)):
            d = Fraction(cnt, size)
            cand = (d, (i, pol))
            if best_lit is None or cand < best_lit:
                best_lit = cand
    lit_d, lit = best_lit

    best_j = min(
        (Fraction(ones, size), ("const", 0)),
        (Fraction(size - ones, size), ("const", 1)),
        (lit_d, ("literal",) + lit),
    )
    return OneJuntaFit(lit_d, lit, best_j[0], best_j[1])
