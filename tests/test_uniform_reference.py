"""uniform_junta against a straight-line reference of the paper's rounds.

The reference below runs every round one at a time through the scalar
`eval_bits`: it keeps the open blocks as coordinate sets, draws the
partition (64 bits a coordinate) and then each round's x and flip bits
from the BitFeed, flips the open coordinates the flip bits
select, and block-binary-searches each disagreement down to one open
block.  It never reads ahead, so it has no batches, no `values` and no
`peek_block`.  The library must give the same verdict, witness, query and
sample counts, and leave its BitFeed and generator where the reference
leaves them.

The library's feed is a `_SpyFeed`, which tallies in EVENTS the batch
shapes that a fast-forwarding batch has to get right: a disagreement on
the first or the last row, a batch cut short by the buffer, and a batch
that starts on an 8 KiB chunk boundary.  The reference tallies a run that
ends with no open block left.  The fixed cases show that they reach each.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djunta import (
    BitFeed,
    BitString,
    DistinguishingPair,
    FunctionOracle,
    UniformTesterConfig,
    gen_no,
    rand_bits,
    uniform_junta,
)
from djunta.search import block_binary_search
from djunta.uniform import close_run

#: Tallies: hit, first_row, last_row, cut, chunk_start (library); exhausted
#: (reference).
EVENTS: Counter = Counter()

#: Bits in one BitFeed chunk.
CHUNK_BITS = 64 * BitFeed._CHUNK_WORDS


# ---------------------------------------------------------------------------
# the reference


def reference_uniform_junta(f: FunctionOracle, cfg: UniformTesterConfig, rng):
    n = f.n
    feed = BitFeed.of(rng)
    start = f.counter.snapshot()

    # Partition 1..n into random blocks, listed by block id: coordinate c
    # takes id floor(u * num_blocks / 2**64) of its own 64-bit draw u.
    members: dict[int, list[int]] = {}
    for c in range(1, n + 1):
        members.setdefault(feed.take(64) * cfg.num_blocks >> 64, []).append(c)
    open_blocks = [frozenset(members[b]) for b in sorted(members)]
    relevant: set[int] = set()
    found = []

    for _ in range(cfg.rounds):
        if not open_blocks:
            # Every coordinate is in a relevant block: y would equal x.
            EVENTS["exhausted"] += 1
            break
        x = feed.take(n)
        z = feed.take(n)
        # y agrees with x on the relevant blocks and is uniform elsewhere.
        flipped = {c for b in open_blocks for c in b if z >> (c - 1) & 1}
        if not flipped:
            continue
        y = x ^ sum(1 << (c - 1) for c in flipped)
        fx = f.eval_bits(x)
        if f.eval_bits(y) == fx:
            continue
        assert not flipped & relevant
        probes = [b & flipped for b in open_blocks if b & flipped]
        res = block_binary_search(f, BitString(n, x), BitString(n, y), probes, fx=fx)
        block = next(b for b in open_blocks if b >= probes[res.index])
        open_blocks.remove(block)
        relevant |= block
        found.append(DistinguishingPair(res.pair.x, res.pair.y, block))
        if len(found) > cfg.k:
            return close_run(f, start, cfg.query_ceiling(), "uniform_junta", tuple(found))
    return close_run(f, start, cfg.query_ceiling(), "uniform_junta")


# ---------------------------------------------------------------------------
# the library against the reference


class _SpyFeed(BitFeed):
    """A BitFeed that tallies the shape of each batch read through it."""

    def peek_block(self, width, rows):
        if self.buffered() == 0:
            EVENTS["chunk_start"] += 1
        block = super().peek_block(width, rows)
        self._peeked = (width, rows // 2, len(block) // 2)
        return block

    def skip(self, nbits):
        width, asked, got = self._peeked
        quiet = nbits // (2 * width)
        if quiet < got:
            EVENTS["hit"] += 1
        if quiet == 0:
            EVENTS["first_row"] += 1
        if got > 1 and quiet == got - 1:
            EVENTS["last_row"] += 1
        if got < asked:
            EVENTS["cut"] += 1
        super().skip(nbits)


def _run(run, feed_cls, make, cfg, seed, offset):
    feed = feed_cls(np.random.default_rng(seed))
    feed.take(offset)
    f = make()
    v = run(f, cfg, feed)
    return v, f.counter.snapshot(), feed.take(100), feed.rng.bit_generator.state


def _same_as_reference(make, cfg, seed, offset=0) -> Counter:
    """Run both on one seed, require equal results; return the tallies."""
    EVENTS.clear()
    got = _run(uniform_junta, _SpyFeed, make, cfg, seed, offset)
    want = _run(reference_uniform_junta, BitFeed, make, cfg, seed, offset)
    assert got == want
    return Counter(EVENTS)


def _aligned(n, r):
    """Feed bits to pre-consume so that round r starts on a chunk boundary."""
    return -(64 * n + 2 * n * r) % CHUNK_BITS


def _parity(k):
    odd = np.bitwise_count(np.arange(1 << k, dtype=np.uint32)) & 1
    return int.from_bytes(np.packbits(odd, bitorder="little").tobytes(), "little")


def _sparse_table(ones):
    """A table with its 1s at `ones`: two points disagree only rarely."""
    return sum(1 << z for z in ones)


def _junta(n, vars, table):
    return lambda: FunctionOracle.from_junta(n, vars, table)


def _view(make, n, free, seed):
    """make()'s function with every coordinate outside `free` pinned."""
    rng = np.random.default_rng(seed)
    pinned = [c for c in range(1, n + 1) if c not in free]
    w = BitString(len(pinned), rand_bits(rng, len(pinned)))
    return lambda: make().restrict(pinned, w)


_GEN_NO_14 = gen_no(14, 2, np.random.default_rng(1))
_GEN_NO_40 = gen_no(40, 3, np.random.default_rng(40))

#: (name, oracle factory, config, seeds, feed offset, events it must reach)
_FIXED = [
    # Parity of all 16 coordinates, with k above 16: half of all rounds
    # disagree, so a batch is cut on its first row, and the run ends once
    # no block is open.
    ("parity16 n16", _junta(16, range(1, 17), _parity(16)), UniformTesterConfig(k=20, epsilon=0.5),
     (0,), 0, ("first_row", "exhausted")),
    # One point in 128 is 1: disagreements are rare and land anywhere in
    # a batch, also on its last row.
    ("sparse7 n20", _junta(20, range(1, 8), _sparse_table((5,))),
     UniformTesterConfig(k=1, epsilon=Fraction(1, 8)), (4, 48), 0, ("last_row",)),
    # A constant at n = 64: no round ever disagrees.  Rounds 88 and 600
    # start on a chunk boundary, so the batch before each is cut short by
    # the buffer and the next one starts on the boundary; 5 bits later,
    # a round straddles the boundary instead.
    ("constant n64", _junta(64, (1,), 0), UniformTesterConfig(k=1, epsilon=Fraction(1, 24)),
     (0,), _aligned(64, 600), ("cut", "chunk_start")),
    ("constant n64 straddle", _junta(64, (1,), 0),
     UniformTesterConfig(k=1, epsilon=Fraction(1, 24)), (0,), _aligned(64, 600) + 5, ("cut",)),
    # Views as `literal` vets blocks of a hard instance.
    ("gen_no n14 view", _view(_GEN_NO_14.oracle, 14, (2, 5, 9), 0),
     UniformTesterConfig(k=1, epsilon=Fraction(1, 16)), range(3), 0, ()),
    ("gen_no n40", _GEN_NO_40.oracle, UniformTesterConfig(k=3, epsilon=Fraction(1, 4)),
     range(3), _aligned(40, 40), ()),
]


@pytest.mark.parametrize(
    "name, make, cfg, seeds, offset, events", _FIXED, ids=[c[0] for c in _FIXED]
)
def test_fixed_cases(name, make, cfg, seeds, offset, events):
    seen = Counter()
    for seed in seeds:
        seen += _same_as_reference(make, cfg, seed, offset)
    for event in events:
        assert seen[event], f"{name} never reached {event}: {dict(seen)}"


@st.composite
def _cases(draw):
    """(n, oracle factory, k), weighted toward runs that go on past the
    scalar rounds and still find blocks there: parities of every
    coordinate with k at or above n (which also end with no open block),
    functions that are 1 on a point or two, and views of hard instances."""
    kind = draw(st.sampled_from(["junta", "all_relevant", "sparse", "truth_table", "gen_no"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    if kind == "gen_no":
        n = draw(st.integers(14, 40))
        inst = gen_no(n, draw(st.integers(1, 3)), rng)
        if draw(st.booleans()):
            return n, inst.oracle, k
        free = {int(c) + 1 for c in rng.choice(n, size=draw(st.integers(1, 8)), replace=False)}
        return n, _view(inst.oracle, n, free, int(rng.integers(2**32))), k
    if kind == "truth_table":
        n = draw(st.integers(1, 10))
        table = rand_bits(rng, 1 << n)
        return n, lambda: FunctionOracle.from_truth_table(n, table), k
    if kind == "all_relevant":
        n = draw(st.integers(1, 20))
        return n, _junta(n, range(1, n + 1), _parity(n)), draw(st.integers(n - 2, n + 4))
    n = draw(st.integers(1, 130))
    width = draw(st.integers(min(n, 5) if kind == "sparse" else 1, min(n, 9)))
    vars = sorted(int(v) + 1 for v in rng.choice(n, size=width, replace=False))
    if kind == "sparse":
        ones = rng.choice(1 << width, size=min(1 << width, draw(st.integers(1, 2))), replace=False)
        return n, _junta(n, vars, _sparse_table(int(z) for z in ones)), k
    table = _parity(width) if draw(st.booleans()) else rand_bits(rng, 1 << width)
    return n, _junta(n, vars, table), k


@given(
    case=_cases(),
    epsilon=st.sampled_from([0.5, Fraction(1, 3), Fraction(1, 8)]),
    seed=st.integers(0, 2**32 - 1),
    align=st.booleans(),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_matches_reference(case, epsilon, seed, align, data):
    n, make, k = case
    cfg = UniformTesterConfig(k=max(1, k), epsilon=epsilon)
    offset = 0
    if align:
        # Some round past the scalar ones starts on a chunk boundary.
        offset = _aligned(n, data.draw(st.integers(33, cfg.rounds)))
    _same_as_reference(make, cfg, seed, offset)
