"""simple_djunta against a straight-line reference of the paper's rounds.

The reference below keeps the coordinates found relevant as a set.  Each
round draws a labeled sample x from D, draws flip bits from the BitFeed,
flips the coordinates they select that are not yet relevant, and, when
f(x) != f(y), binary-searches the pair down to one new relevant
coordinate.  k+1 of them reject.  The library must give the same verdict,
witness, query and sample counts, and leave its BitFeed and generator
where the reference leaves them.

Samples come from the feed too: one n-bit field on the cube, one 64-bit
draw u on a support, read by `reference_sample`.

The reference tallies in EVENTS a round whose flip bits select a
coordinate already found (it is left unflipped), a round with nothing
left to flip, and a round after the first whose flip bits start a new
8 KiB chunk of the feed, right after its sample was drawn from the old
one.  The fixed cases show that they reach each.
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
    DFTesterConfig,
    FiniteDistribution,
    FunctionOracle,
    gen_no,
    rand_bits,
    simple_djunta,
)
from djunta.search import binary_search
from djunta.uniform import close_run

#: Tallies of the reference: masked, empty, chunk_start.
EVENTS: Counter = Counter()

#: Bits in one BitFeed chunk.
CHUNK_BITS = 64 * BitFeed._CHUNK_WORDS


# ---------------------------------------------------------------------------
# the reference


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


def reference_simple_djunta(f: FunctionOracle, D: FiniteDistribution, cfg: DFTesterConfig, rng):
    n = f.n
    assert D.n == n
    feed = BitFeed.of(rng)
    start = f.counter.snapshot()
    ceiling = cfg.simple_query_ceiling(n)
    relevant: set[int] = set()
    found = []

    for r in range(cfg.simple_rounds):
        x = reference_sample(D, feed)
        fx = f.sample_eval_bits(x)
        if r and feed.buffered() < n:
            EVENTS["chunk_start"] += 1
        z = feed.take(n)
        chosen = {c for c in range(1, n + 1) if z >> (c - 1) & 1}
        if chosen & relevant:
            EVENTS["masked"] += 1
        # y is x with a uniform subset of the coordinates not yet found flipped.
        flipped = chosen - relevant
        if not flipped:
            EVENTS["empty"] += 1
            continue
        y = x ^ sum(1 << (c - 1) for c in flipped)
        if f.eval_bits(y) == fx:
            continue
        res = binary_search(f, BitString(n, x), BitString(n, y), fx=fx)
        assert res.coord in flipped
        relevant.add(res.coord)
        found.append(res.pair)
        if len(found) > cfg.k:
            return close_run(f, start, ceiling, "simple_djunta", tuple(found))
    return close_run(f, start, ceiling, "simple_djunta")


# ---------------------------------------------------------------------------
# the library against the reference


def _run(run, make, D, cfg, seed, offset):
    feed = BitFeed(np.random.default_rng(seed))
    feed.take(offset)
    f = make()
    v = run(f, D, cfg, feed)
    return v, f.counter.snapshot(), feed.take(100), feed.rng.bit_generator.state


def _same_as_reference(make, D, cfg, seed, offset=0) -> Counter:
    """Run both on one seed, require equal results; return the tallies."""
    got = _run(simple_djunta, make, D, cfg, seed, offset)
    EVENTS.clear()
    want = _run(reference_simple_djunta, make, D, cfg, seed, offset)
    assert got == want
    return Counter(EVENTS)


def _parity(k):
    return sum((z.bit_count() & 1) << z for z in range(1 << k))


def _junta(n, vars, table):
    return lambda: FunctionOracle.from_junta(n, vars, table)


def _cube(n):
    return FiniteDistribution.uniform_cube(n)


_GEN_NO_30 = gen_no(30, 2, np.random.default_rng(30))

#: (name, oracle factory, distribution, config, seeds, feed offset, events it must reach)
_FIXED = [
    # Parity of k+1 variables: rejects, and after the first coordinate
    # later flip bits keep selecting found ones.
    ("parity4 n12", _junta(12, (2, 5, 7, 11), _parity(4)), _cube(12),
     DFTesterConfig(k=3, epsilon=0.5), range(3), 0, ("masked",)),
    # Parity of all 3 coordinates with k = 3: every coordinate is found,
    # and the remaining rounds have nothing left to flip.
    ("parity3 n3", _junta(3, (1, 2, 3), _parity(3)), _cube(3),
     DFTesterConfig(k=3, epsilon=0.5), range(3), 0, ("masked", "empty")),
    # Round 2's flip bits start a new chunk, drawn after its sample.
    ("gen_no n30", _GEN_NO_30.oracle, _GEN_NO_30.D,
     DFTesterConfig(k=2, epsilon=Fraction(1, 3)), range(3), -(94 * 2 + 64) % CHUNK_BITS,
     ("masked", "chunk_start")),
    # A weighted support.
    ("junta weighted", _junta(10, (3, 8), 0b0110),
     FiniteDistribution.support(10, [0, 5, 300, 1023], [0.5, 0.25, 0.125, 0.125]),
     DFTesterConfig(k=1, epsilon=0.5), range(3), 0, ()),
]


@pytest.mark.parametrize(
    "name, make, D, cfg, seeds, offset, events", _FIXED, ids=[c[0] for c in _FIXED]
)
def test_fixed_cases(name, make, D, cfg, seeds, offset, events):
    seen = Counter()
    for seed in seeds:
        seen += _same_as_reference(make, D, cfg, seed, offset)
    for event in events:
        assert seen[event], f"{name} never reached {event}: {dict(seen)}"


@st.composite
def _instances(draw):
    """(n, oracle factory, distribution): random juntas and parities, truth
    tables and small hard instances, on the cube or on random supports."""
    kind = draw(st.sampled_from(["junta", "parity", "truth_table", "gen_no"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gen_no":
        n = draw(st.integers(14, 40))
        inst = gen_no(n, draw(st.integers(1, 3)), rng)
        return n, inst.oracle, inst.D
    if kind == "truth_table":
        n = draw(st.integers(1, 10))
        table = rand_bits(rng, 1 << n)
        make = lambda: FunctionOracle.from_truth_table(n, table)
    else:
        n = draw(st.integers(1, 130))
        width = draw(st.integers(1, min(n, 8)))
        vars = sorted(int(v) + 1 for v in rng.choice(n, size=width, replace=False))
        make = _junta(n, vars, _parity(width) if kind == "parity" else rand_bits(rng, 1 << width))
    support = draw(st.sampled_from(["cube", "uniform", "weighted"]))
    if support == "cube":
        return n, make, _cube(n)
    pts = sorted({rand_bits(rng, n) for _ in range(draw(st.integers(1, 64)))})
    weights = None
    if support == "weighted":
        w = rng.random(len(pts)) + 0.01
        weights = [float(v) for v in w / w.sum()]
    return n, make, FiniteDistribution.support(n, pts, weights)


@given(
    inst=_instances(),
    k=st.integers(1, 4),
    epsilon=st.sampled_from([0.5, Fraction(1, 3), Fraction(1, 4)]),
    seed=st.integers(0, 2**32 - 1),
    align=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_matches_reference(inst, k, epsilon, seed, align, data):
    n, make, D = inst
    cfg = DFTesterConfig(k=k, epsilon=epsilon)
    offset = 0
    if align:
        # Some round's flip bits start a new chunk of the feed.
        r = data.draw(st.integers(0, cfg.simple_rounds - 1))
        offset = -((D.draw_bits + n) * r + D.draw_bits) % CHUNK_BITS
    _same_as_reference(make, D, cfg, seed, offset)
