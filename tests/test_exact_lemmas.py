"""The paper's small lemmas checked exactly, by enumeration at small n.

The side probe: `_where` draws both of its uniform n-bit points, the left
one first, as one 2n-bit field, before it probes either side.  At small n
every such draw can be enumerated: a scripted feed hands `_where` the
values of one path through its draws, and a path that asks for a draw not
yet scripted is extended by every value that draw can take.  Each finished
path then carries its exact probability, so the lemma's bound is checked
as an exact inequality, not estimated from samples.

The searches have no randomness: `binary_search` and `block_binary_search`
are run on every function, every distinguishing pair and, for the block
search, every ordered partition of the differing coordinates into blocks.
"""

from itertools import permutations

import numpy as np
import pytest

from djunta import BitString, FunctionOracle, binary_search, block_binary_search, ceil_log2
from djunta.boolfn import BitFeed, coords_of, mask_of
from djunta.tester import _where


class _Unscripted(Exception):
    def __init__(self, nbits):
        self.nbits = nbits


class _ScriptedFeed(BitFeed):
    """A feed whose take() returns scripted values, in order, and raises
    _Unscripted when the script runs out."""

    def __init__(self):
        super().__init__(None)
        self.script = ()
        self.used = 0

    def take(self, nbits):
        if self.used == len(self.script):
            raise _Unscripted(nbits)
        v = self.script[self.used]
        assert 0 <= v < 1 << nbits
        self.used += 1
        return v


def _paths(g, lmask, rmask, feed, total):
    """Yield (weight, result, queries) for every path through the draws of
    `_where(g, lmask, rmask, feed)`.

    A path's probability is weight / total; `total` must be a multiple of
    2**b for every path of b drawn bits."""
    stack = [((), total)]
    while stack:
        script, weight = stack.pop()
        feed.script = script
        feed.used = 0
        before = g.counter.queries
        try:
            res = _where(g, lmask, rmask, feed)
        except _Unscripted as u:
            assert weight % (1 << u.nbits) == 0
            w = weight >> u.nbits
            stack.extend((script + (v,), w) for v in range(1 << u.nbits))
            continue
        yield weight, res, g.counter.queries - before


def _literal(n, i):
    """Truth table of the literal x_i (0-based) on n coordinates."""
    return sum(1 << x for x in range(1 << n) if x >> i & 1)


def _literal_distances(n, table):
    """Per coordinate i (0-based), the Hamming distance from the truth table
    to the nearer of the literals x_i and not x_i."""
    size = 1 << n
    ds = [(table ^ _literal(n, i)).bit_count() for i in range(n)]
    return [min(d, size - d) for d in ds]


def _near_literals(n):
    """Every truth table on n coordinates within Hamming distance 1 of a
    literal."""
    size = 1 << n
    out = set()
    for i in range(n):
        for base in (_literal(n, i), _literal(n, i) ^ (1 << size) - 1):
            out.add(base)
            out.update(base ^ 1 << x for x in range(size))
    return sorted(out)


def _check_where(n, table, feed):
    size = 1 << n
    full = size - 1
    g = FunctionOracle.from_truth_table(n, table)
    dists = _literal_distances(n, table)
    total = 1 << (2 * n)  # one draw of 2n bits
    for lmask in range(size):
        rmask = full ^ lmask
        hits = [0] * n
        seen = 0
        for weight, res, queries in _paths(g, lmask, rmask, feed, total):
            seen += weight
            # No call makes more than two queries per side.
            assert queries <= 4
            if res.outcome == "fail":
                continue
            # A named side comes with a distinguishing pair for that whole side.
            side = {"left": lmask, "right": rmask}[res.outcome]
            assert res.mask == side
            fx = table >> res.x & 1
            fy = table >> (res.x ^ res.mask) & 1
            assert fx != fy
            assert (res.fx, res.fy) == (fx, fy)
            for i in range(n):
                if side >> i & 1:
                    hits[i] += weight
        assert seen == total
        # The side holding x_i is named with probability at least 1 - 4*gamma,
        # gamma = d/size the distance to the nearer literal on x_i.  The left
        # side is probed first, so there the bound is 1 - 2*gamma: only a left
        # point where g and the literal differ can lose the variable.
        for i, d in enumerate(dists):
            c = 2 if lmask >> i & 1 else 4
            assert hits[i] * size >= total * (size - c * d), (n, hex(table), lmask, i)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_where_exact_every_function(n):
    feed = _ScriptedFeed()
    for table in range(1 << (1 << n)):
        _check_where(n, table, feed)


def test_where_exact_near_literals_n4():
    # Every g on four coordinates within uniform distance 1/16 of a literal:
    # 8 literals, each with the 1 + 16 tables around it.  Distance 2/16
    # (1 + 16 + 120 each) takes 2.26M calls, several seconds.
    n = 4
    feed = _ScriptedFeed()
    near = _near_literals(n)
    assert len(near) == 8 * (1 + 16)
    assert all(min(_literal_distances(n, t)) <= 1 for t in near)
    for table in near:
        _check_where(n, table, feed)


# ---------------------------------------------------------------------------
# the two searches


def _set_partitions(items):
    """Every partition of the list `items` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1 :]]


def _ordered_partitions(items):
    for part in _set_partitions(items):
        yield from permutations(part)


def _check_result(g, table, xb, yb, res, block, budget, before):
    """res certifies `block` with a pair inside diff(x, y), within
    `budget` queries."""
    diff = xb ^ yb
    bmask = mask_of(block, g.n)
    px, py = res.pair.x.bits, res.pair.y.bits
    assert res.pair.block == frozenset(block)
    # The pair lies between x and y and differs only where the block
    # meets diff(x, y).
    assert (px ^ xb) & ~diff == 0 and (py ^ xb) & ~diff == 0
    assert px != py and (px ^ py) & ~(bmask & diff) == 0
    # A distinguishing pair, x's side keeping g(x), with its labels.
    assert (res.fx, res.fy) == (table >> px & 1, table >> py & 1)
    assert res.fx == table >> xb & 1 != res.fy
    assert res.queries == g.counter.queries - before <= budget


def _check_searches(n, table):
    size = 1 << n
    g = FunctionOracle.from_truth_table(n, table)
    everything = list(range(1, n + 1))
    for xb in range(size):
        for yb in range(size):
            if table >> xb & 1 == table >> yb & 1:
                continue
            x, y = BitString(n, xb), BitString(n, yb)
            diff = coords_of(xb ^ yb)
            before = g.counter.queries
            res = binary_search(g, x, y)
            assert res.pair.block == {res.coord}
            _check_result(g, table, xb, yb, res, (res.coord,), ceil_log2(len(diff)), before)
            # Blocks that cover diff(x, y) exactly, and blocks over every
            # coordinate, some of which a probe may not touch.
            partitions = list(_ordered_partitions(diff))
            if len(diff) < n:
                partitions += _ordered_partitions(everything)
            for blocks in partitions:
                before = g.counter.queries
                res = block_binary_search(g, x, y, blocks)
                budget = ceil_log2(len(blocks))
                _check_result(g, table, xb, yb, res, blocks[res.index], budget, before)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_searches_exact_every_function(n):
    for table in range(1 << (1 << n)):
        _check_searches(n, table)


def test_searches_exact_n4_sample():
    # Four candidates are the fewest on which a search that does not
    # halve its window exceeds ceil(log2 r); every g on n = 4 would take
    # minutes, so a seeded sample of tables stands in.
    rng = np.random.default_rng(4)
    for table in rng.integers(1, 2**16 - 1, size=6).tolist():
        _check_searches(4, table)
