"""One-sided junta tester for the uniform distribution.

This is the workhorse the distribution-free testers call with k=1 to vet a
block, and it is useful standalone.  The scheme: partition the coordinates
into random blocks once, then repeatedly draw a uniform x and a uniform y
agreeing with x on every block already known relevant; a disagreement
f(x) != f(y) lets block binary search pin one new relevant block.  Finding
k+1 disjoint relevant blocks, each holding a distinguishing pair, is proof
that f is no k-junta, so rejection is always certified and a true k-junta
is accepted on every seed.

The module also holds what all three testers share: their one config,
DFTesterConfig, and `close_run`, which checks a run's spend against its
ceiling and builds the Verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .boolfn import (
    BitFeed,
    BitString,
    DistinguishingPair,
    FunctionOracle,
    Verdict,
    ceil_log2,
    coords_of,
    mask_of,
    rows_of,
    scale_draws,
)
from .errors import BudgetError, ContractError
from .search import block_binary_search


@dataclass(frozen=True)
class DFTesterConfig:
    """Settings of all three testers: k and epsilon.

    Every budget is derived from k and epsilon at construction and is
    read-only.  Round counts are computed on the exact rational value of
    epsilon, so a given (k, epsilon) always yields the same budgets.

    - uniform_junta: num_blocks = 10k², enough for a random partition to
      separate the relevant variables of a nearby junta with decent
      probability, and rounds = ceil(16(k+1)/eps).
    - simple_djunta: simple_rounds = ceil(8(k+1)/eps).
    - main_djunta: search_rounds = ceil(64k/eps), verify_rounds = 3(k+1),
      and gamma = 1/(8k), the closeness level at which a block counts as
      settled.  Its `literal` check runs the arity-1 uniform tester
      literal_passes = ceil(log2 k)+6 times, then tries
      literal_halvings = ceil(log2 k)+3 random halvings.
    """

    k: int
    epsilon: float
    num_blocks: int = field(init=False)
    rounds: int = field(init=False)
    simple_rounds: int = field(init=False)
    search_rounds: int = field(init=False)
    verify_rounds: int = field(init=False)
    gamma: float = field(init=False)
    literal_passes: int = field(init=False)
    literal_halvings: int = field(init=False)

    def __post_init__(self):
        k = self.k
        if k < 1:
            raise ContractError(f"need k >= 1, got {k}")
        if not 0 < self.epsilon <= 1:
            raise ContractError(f"need 0 < epsilon <= 1, got {self.epsilon}")
        p, q = self.epsilon.as_integer_ratio()

        def over_eps(c: int) -> int:
            # ceil(c / epsilon) on epsilon's exact ratio, in integers.
            return -(-c * q // p)

        object.__setattr__(self, "num_blocks", 10 * k * k)
        object.__setattr__(self, "rounds", over_eps(16 * (k + 1)))
        object.__setattr__(self, "simple_rounds", over_eps(8 * (k + 1)))
        object.__setattr__(self, "search_rounds", over_eps(64 * k))
        object.__setattr__(self, "verify_rounds", 3 * (k + 1))
        object.__setattr__(self, "gamma", 1 / (8 * k))
        object.__setattr__(self, "literal_passes", ceil_log2(k) + 6)
        object.__setattr__(self, "literal_halvings", ceil_log2(k) + 3)

    def query_ceiling(self) -> int:
        """Per-run cap for uniform_junta: two queries a round, k+1 searches."""
        return 2 * self.rounds + (self.k + 1) * ceil_log2(self.num_blocks)

    def simple_query_ceiling(self, n: int) -> int:
        """Per-run cap for simple_djunta on n coordinates."""
        return 2 * self.simple_rounds + (self.k + 1) * ceil_log2(max(1, n))

    def inner_uniform_cfg(self) -> DFTesterConfig:
        """Config of the arity-1 uniform tester run on block restrictions.

        Its epsilon is gamma as an exact rational, so its rounds come out
        at exactly 256k (a float gamma would give 769 at k = 3).
        """
        return DFTesterConfig(k=1, epsilon=Fraction(1, 8 * self.k))

    def literal_query_ceiling(self) -> int:
        """Worst case of one `literal` call, label re-queries included."""
        inner = self.inner_uniform_cfg().query_ceiling()
        return self.literal_passes * inner + 2 + self.literal_halvings * 4

    def main_query_ceiling(self) -> int:
        """Per-run cap for main_djunta; no dependence on n."""
        per_search = 4 * self.k + 2 + ceil_log2(self.k + 1)
        return (
            self.search_rounds * per_search
            + self.verify_rounds * self.literal_query_ceiling()
        )


#: The uniform tester's name for the one config.
UniformTesterConfig = DFTesterConfig


def close_run(
    f: FunctionOracle, start: tuple[int, int], ceiling: int, tester: str, witness: tuple = ()
) -> Verdict:
    """End a tester run: charge f's spend since `start` against `ceiling`.

    Raises BudgetError naming `tester` when queries plus samples exceed the
    ceiling.  Otherwise returns the Verdict: a rejection when `witness`
    (k+1 blocks, never empty) is given, an acceptance when it is not.
    """
    q0, s0 = start
    q1, s1 = f.counter.snapshot()
    spent = (q1 - q0) + (s1 - s0)
    if spent > ceiling:
        raise BudgetError(f"{tester} spent {spent} queries and samples, ceiling {ceiling}")
    return Verdict("reject" if witness else "accept", witness, q1 - q0, s1 - s0)


#: Each call runs its first _SCALAR_ROUNDS rounds through the scalar
#: `value`, then batches.  A batch pays a fixed numpy overhead, and most
#: rejecting `literal` passes end within these rounds: in main_djunta runs,
#: 42 of 42 on planted juntas at n = 64, 72 of 86 on gen_no(300, 3) and
#: 54 of 91 on gen_no(14, 2).
_SCALAR_ROUNDS = 32


def uniform_junta(f: FunctionOracle, cfg: DFTesterConfig, rng) -> Verdict:
    """Test whether f is a k-junta under the uniform distribution.

    Accepts every k-junta outright; rejects an epsilon-far f with
    probability at least 2/3, and any rejection carries k+1 pairwise
    disjoint blocks with a distinguishing pair each.  Query count is
    capped by cfg.query_ceiling(), independent of n.  `rng`, a numpy
    Generator or a BitFeed over one, is the run's only source of
    randomness.

    The call first draws its partition, 64 bits a coordinate.  A round
    then draws x and a flip set, n bits each, from the feed and costs two
    queries when the flip set, cut down to the open blocks, is nonempty.
    Every round that finds a disagreement runs one at a time through the
    backend's `value`, and every split happens there.  After the first
    rounds, a batch reads at
    most as many of the feed's buffered rounds ahead as the call has
    already run, and evaluates them, x rows and y rows together, in one
    `values` call; so the rows it evaluates past its first disagreeing
    round never outnumber the rounds run before it.  It only
    fast-forwards: it charges and skips the quiet rounds before the first
    disagreeing one, and leaves that round in the feed for `value`.  So
    verdicts, counts and the feed's stream come out exactly as in a
    round-by-round run.
    """
    n = f.n
    feed = BitFeed.of(rng)
    start = f.counter.snapshot()

    # One random partition for the whole run: coordinate c + 1 goes to
    # block ids[c], scale_draws of the c-th 64-bit draw.
    u = np.frombuffer(feed.take(64 * n).to_bytes(8 * n, "little"), dtype="<u8")
    ids = scale_draws(u, cfg.num_blocks)
    full = (1 << n) - 1
    open_union = full
    open_row = rows_of((open_union,), n)

    found: list[DistinguishingPair] = []
    backend = f.backend
    value = backend.value
    counter = f.counter
    done = 0
    # Once open_union is 0, everything sits in relevant blocks: y would
    # equal x in every later round, so no evidence can turn up.
    while done < cfg.rounds and open_union:
        if done >= _SCALAR_ROUNDS:
            block = feed.peek_block(n, 2 * min(done, cfg.rounds - done))
            rows = len(block) // 2
            if rows:
                xs = block[0 : 2 * rows : 2]
                R = block[1 : 2 * rows : 2] & open_row
                v = backend.values(np.concatenate((xs, xs ^ R)))
                # A round with no flip has y = x, so it never disagrees.
                hit = (v[:rows] != v[rows:]).nonzero()[0]
                quiet = int(hit[0]) if len(hit) else rows
                counter.queries += 2 * int(np.count_nonzero(R[:quiet].any(axis=1)))
                feed.skip(2 * n * quiet)
                done += quiet
                if quiet == rows:
                    continue
            # The next round disagrees, or the buffer ends inside it and
            # it pulls the next chunk from the generator: either way it
            # runs below, one round at a time.
        done += 1
        xr = feed.take(2 * n)
        xb = xr & full
        rmask = (xr >> n) & open_union
        if rmask == 0:
            continue
        yb = xb ^ rmask
        fx = value(xb)
        fy = value(yb)
        counter.queries += 2
        if fx == fy:
            continue
        # Pin one relevant block behind the disagreement: the candidates
        # are the open blocks rmask touches, by id, cut down to rmask.
        flipped = coords_of(rmask)
        parts: dict[int, list[int]] = {}
        for c, t in zip(flipped, ids[np.subtract(flipped, 1)].tolist()):
            parts.setdefault(t, []).append(c)
        touched = sorted(parts)
        res = block_binary_search(
            f,
            BitString(n, xb),
            BitString(n, yb),
            [frozenset(parts[t]) for t in touched],
            fx=fx,
        )
        block = frozenset((np.flatnonzero(ids == touched[res.index]) + 1).tolist())
        open_union ^= mask_of(block)
        open_row = rows_of((open_union,), n)
        found.append(DistinguishingPair(res.pair.x, res.pair.y, block))
        if len(found) > cfg.k:
            return close_run(f, start, cfg.query_ceiling(), "uniform_junta", tuple(found))
    return close_run(f, start, cfg.query_ceiling(), "uniform_junta")
