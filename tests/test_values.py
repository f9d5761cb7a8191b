"""Batched backend evaluation: every `values` agrees with its scalar `value`,
and the BitFeed read-ahead pair leaves the stream where plain takes do."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from djunta import BitFeed, BitString, FiniteDistribution, FunctionOracle, gen_no, rand_bits
from djunta.boolfn import (
    RestrictionBackend,
    TruthTableBackend,
    gather_bits,
    make_restriction_backend,
    rows_of,
    scatter_bits,
)
from djunta.errors import ContractError
from djunta.lbgen import NoInstance, _HardLabelView, neighbor_radius

WIDTHS = st.sampled_from([1, 2, 63, 64, 65, 128, 300])


def _check(backend, points):
    # Twice, the second time in reverse order, so that state a backend
    # builds on its first batched call is used again on other rows.
    for pts in (points, points[::-1]):
        got = backend.values(rows_of(pts, backend.n))
        assert got.dtype == np.uint8
        assert got.tolist() == [backend.value(p) for p in pts]


def _near(rng, p, n, flips):
    """p with `flips` distinct coordinates flipped."""
    for c in rng.choice(n, size=min(flips, n), replace=False):
        p ^= 1 << int(c)
    return p


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_junta_values(data):
    n = data.draw(WIDTHS)
    k = data.draw(st.integers(0, min(n, 7)))
    vars = sorted(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k)))
    table = data.draw(st.integers(0, (1 << (1 << k)) - 1))
    points = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    _check(FunctionOracle.from_junta(n, vars, table).backend, points)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_truth_table_values(data):
    n = data.draw(st.integers(1, 12))
    table = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    points = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    _check(TruthTableBackend(n, table), points)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_restriction_values(data):
    # Restrictions of a truth table stay generic; of a junta they collapse
    # into a junta; a restriction built over another one is nested.
    n = data.draw(st.integers(2, 10))
    base = data.draw(st.sampled_from(["truth_table", "junta"]))
    if base == "junta":
        vars = range(1, n + 1, 2)
        table = data.draw(st.integers(0, (1 << (1 << len(vars))) - 1))
        f = FunctionOracle.from_junta(n, vars, table)
    else:
        f = FunctionOracle.from_truth_table(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    fixed = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1)))
    g = f.restrict(fixed, BitString(len(fixed), data.draw(st.integers(0, (1 << len(fixed)) - 1))))
    points = data.draw(st.lists(st.integers(0, (1 << g.n) - 1), min_size=1, max_size=20))
    _check(g.backend, points)
    if g.n > 1:
        free = tuple(data.draw(st.sets(st.integers(1, g.n), min_size=1, max_size=g.n - 1)))
        pinned = [c for c in range(1, g.n + 1) if c not in free]
        w = sum(1 << (c - 1) for c in pinned if data.draw(st.booleans()))
        nested = RestrictionBackend(g.backend, sorted(free), w)
        inner = data.draw(st.lists(st.integers(0, (1 << nested.n) - 1), min_size=1, max_size=10))
        _check(nested, inner)


@pytest.mark.parametrize("var", [1, 64, 65, 260, 300])
def test_one_variable_and_constant_junta_values(var):
    # One variable in every word of a 300-bit point (260 and 300 lie in
    # word 4), under each of its four tables, and the two constants.
    rng = np.random.default_rng(var)
    points = [rand_bits(rng, 300) for _ in range(40)]
    for table in range(4):
        _check(FunctionOracle.from_junta(300, [var], table).backend, points)
    for table in range(2):
        _check(FunctionOracle.from_junta(300, [], table).backend, points)


def test_junta_collapsed_restriction_values():
    f = FunctionOracle.from_junta(70, (3, 64, 65, 70), 0b0110_1001_1001_0110)
    g = f.restrict([3, 65], BitString(2, 0b10))
    assert g.backend.kind == "junta"
    rng = np.random.default_rng(0)
    _check(g.backend, [rand_bits(rng, g.n) for _ in range(50)])


def _instance(n, k, S, labels, junta_table):
    D = FiniteDistribution.support(n, S)
    J = frozenset(range(1, k + 1))
    return NoInstance(n, k, J, junta_table, tuple(labels), neighbor_radius(n), D)


def _partial_view(parent, free, w, points):
    """A `_HardLabelView` of the parent on `free` (pinned to w), checked
    against the generic restriction row for row: on `points` through the
    parent before its first batched call; then, built, on `points` and on
    points of its own: kept support points, and each of the first 30 with
    as many coordinates flipped as its slack, and one more (the edge of
    its ball)."""
    view = _HardLabelView(parent, free, w)
    ref = RestrictionBackend(parent, free, w)
    want = [ref.value(p) for p in points]
    assert [view.value(p) for p in points] == want and view.exact is None
    assert view.values(rows_of(points, len(free))).tolist() == want
    kept = [(p, s) for bucket in view.buckets.values() for p, s, _ in zip(*bucket)]
    rng = np.random.default_rng(len(free))
    points = list(points) + [p for p, _ in kept[:30]]
    points += [_near(rng, p, len(free), s + d) for p, s in kept[:30] for d in (0, 1)]
    _check(view, points)
    assert [view.value(p) for p in points] == [ref.value(p) for p in points]
    return view


def _random_view(rng, inst, size, near):
    """A block of `size` coordinates and a context: a support point's
    bits off the block when `near`, else random bits."""
    n = inst.n
    free = tuple(sorted(int(c) + 1 for c in rng.choice(n, size=size, replace=False)))
    base = inst.D.points[int(rng.integers(len(inst.D.points)))] if near else rand_bits(rng, n)
    return free, base & ~scatter_bits((1 << size) - 1, free), base


def test_hard_label_rule_cases():
    # n = 10, radius 4, J = {1}: section = coordinate 1.  Section 0 holds
    # a 0-labelled point and a 1-labelled point at distance 2; section 1
    # holds nothing, so it always falls back to the background junta.
    n = 10
    a, b = 0b0000000000, 0b0000001100
    f = _instance(n, 1, [a, b], [0, 1], junta_table=0b10).oracle().backend
    cases = {
        a: 0,  # exact hit labelled 0 wins over its in-ball neighbour b (label 1)
        b: 1,  # exact hit labelled 1
        0b0000000100: 1,  # in the ball of both: the OR tie-break gives 1
        0b1111000000: 0,  # in a's ball only (distance 4): a's label
        0b1111001100: 1,  # in b's ball only (distance 4 from b, 6 from a): b's label
        0b1111111110: 0,  # off both balls: background junta at x1 = 0 gives 0
        0b0000000001: 1,  # empty section x1 = 1: background gives 1
        0b1111111111: 1,
    }
    for x, want in cases.items():
        assert f.value(x) == want
    _check(f, list(cases))
    # Every view on these blocks, under every context: J = {1} inside the
    # block or pinned, exact hits on a and b, and contexts that reach
    # neither point (a bare background junta).
    kinds = set()
    for free in ((1, 3, 4), (3, 4, 7, 8), (1, 2, 3, 4, 5, 6, 7)):
        pinned = [c for c in range(1, n + 1) if c not in free]
        for bits in range(1 << len(pinned)):
            w = scatter_bits(bits, pinned)
            view = _partial_view(f, free, w, list(range(1 << len(free))))
            kinds.add((bool(view.buckets), bool(view.exact)))
    assert kinds == {(False, False), (True, False), (True, True)}


def test_hard_label_values_n300_and_n64():
    rng = np.random.default_rng(5)
    for n, k in ((300, 3), (64, 2)):
        inst = gen_no(n, k, rng)
        f = inst.oracle().backend
        radius = inst.radius
        support = list(inst.D.points[:40])
        points = support + [rand_bits(rng, n) for _ in range(40)]
        points += [_near(rng, p, n, int(rng.integers(1, 2 * radius))) for p in support]
        # points nearer than the radius hit the ball rule; farther ones the background
        _check(f, points)


@pytest.mark.parametrize("n, k", [(300, 3), (64, 2)])
def test_hard_label_views_match_restrictions(n, k):
    # Random blocks of gen_no(n, k), under a support point's context (many
    # points kept, exact hits) or a random one (few or none kept), against
    # the generic restriction; and once with every J coordinate in the block.
    rng = np.random.default_rng(n)
    inst = gen_no(n, k, rng)
    f = inst.oracle().backend
    seen = {"J inside": 0, "none kept": 0, "exact hit": 0}
    for trial in range(40):
        # a random context reaches no point when it pins most coordinates
        size = int(rng.integers(1, n if trial % 2 else n // 8))
        free, w, base = _random_view(rng, inst, size, near=trial % 2)
        if trial == 0:
            free = tuple(sorted(set(free) | inst.J))
            w = base & ~scatter_bits((1 << len(free)) - 1, free)
        z = gather_bits(base, free)
        near = [_near(rng, z, len(free), int(rng.integers(0, inst.radius))) for _ in range(10)]
        view = _partial_view(f, free, w, [rand_bits(rng, len(free)) for _ in range(20)] + near)
        if not view.buckets:
            seen["none kept"] += 1
            continue
        seen["J inside"] += bool(view.jmask)
        seen["exact hit"] += z in view.exact and view.value(z) == inst.labels[inst.D.points.index(base)]
    if n == 64:
        del seen["none kept"]  # a point is nearly always in reach; the n = 10 cases have none
    assert all(seen.values()), seen


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_hard_label_values_random(data):
    n = data.draw(st.sampled_from([1, 2, 5, 12, 64, 65]))
    k = data.draw(st.integers(1, min(n, 3)))
    m = data.draw(st.integers(1, min(30, 1 << n)))
    S = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=m, max_size=m)))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    f = _instance(n, k, S, labels, data.draw(st.integers(0, (1 << (1 << k)) - 1))).oracle()
    points = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    _check(f.backend, points + S[:5])
    if n > 1:
        fixed = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1)))
        g = f.restrict(fixed, BitString(len(fixed), data.draw(st.integers(0, (1 << len(fixed)) - 1))))
        inner = data.draw(st.lists(st.integers(0, (1 << g.n) - 1), min_size=1, max_size=20))
        _check(g.backend, inner)
        free = [c for c in range(1, n + 1) if c not in fixed]
        w = scatter_bits(data.draw(st.integers(0, (1 << len(fixed)) - 1)), fixed)
        _partial_view(f.backend, free, w, inner)


def test_restricted_hard_label_n1200():
    # 500 free coordinates, eight words a view point; then a view of that
    # view, which stays a generic restriction over it.
    inst = gen_no(1200, 1, np.random.default_rng(1))
    f = inst.oracle()
    rng = np.random.default_rng(2)
    fixed = sorted(int(c) + 1 for c in rng.choice(1200, size=700, replace=False))
    wfix = rand_bits(rng, 700)
    g = f.restrict(fixed, BitString(700, wfix))
    assert isinstance(g.backend, _HardLabelView)
    points = [rand_bits(rng, g.n) for _ in range(30)]
    _check(g.backend, points)
    free = [c for c in range(1, 1201) if c not in fixed]
    ctx = scatter_bits(wfix, fixed)
    _partial_view(f.backend, free, ctx, points)
    inner = sorted(int(c) + 1 for c in rng.choice(500, size=200, replace=False))
    pinned = [t for t in range(1, 501) if t not in inner]
    w2 = scatter_bits(rand_bits(rng, 300), pinned)
    nested = make_restriction_backend(g.backend, inner, w2)
    assert type(nested) is RestrictionBackend
    flat = RestrictionBackend(f.backend, [free[t - 1] for t in inner], ctx | scatter_bits(w2, free))
    pts = [rand_bits(rng, 200) for _ in range(20)]
    _check(nested, pts)
    assert [nested.value(p) for p in pts] == [flat.value(p) for p in pts]


def test_hard_label_view_dispatch():
    # A wide parent's block views are `_HardLabelView`s; a one-word
    # parent keeps the generic restriction, which is cheaper there.
    for n, k, want in ((300, 3, _HardLabelView), (65, 2, _HardLabelView), (64, 2, RestrictionBackend)):
        inst = gen_no(n, k, np.random.default_rng(0))
        fixed = range(1, n // 2)
        w = BitString(len(fixed), gather_bits(inst.D.points[0], fixed))
        assert type(inst.oracle().restrict(fixed, w).backend) is want


# ---------------------------------------------------------------------------
# BitFeed read-ahead


def _state(feed):
    return feed.take(200), feed.rng.bit_generator.state


CHUNK_BITS = 64 * BitFeed._CHUNK_WORDS


def _check_remainder(feed):
    # peek_block relies on this: the buffered remainder is the top
    # _rembits bits of the last word read from the chunk.
    if feed._rembits:
        assert feed._rem == int(feed._arr[feed._i - 1]) >> (64 - feed._rembits)


@pytest.mark.parametrize(
    "width", [1, 7, 63, 64, 65, 128, 150, 300, 400, pytest.param(None, id="any")]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(st.tuples(st.booleans(), st.integers(0, 700)), min_size=1, max_size=5),
    where=st.sampled_from(["anywhere", "word edge", "chunk end"]),
    tail=st.tuples(st.integers(1, 3), st.integers(0, 63)),
    rows=st.one_of(st.integers(0, 40), st.just(CHUNK_BITS)),
    data=st.data(),
)
@example(seed=3, moves=[(False, 37)], where="word edge", tail=(1, 0), rows=40, data=None)
@example(seed=4, moves=[(False, 37)], where="word edge", tail=(3, 0), rows=40, data=None)
@example(seed=5, moves=[(False, 64)], where="anywhere", tail=(1, 0), rows=40, data=None)
@example(seed=6, moves=[(False, 5)], where="chunk end", tail=(2, 9), rows=CHUNK_BITS, data=None)
@settings(max_examples=50, deadline=None)
def test_peek_block_skip_matches_take(width, seed, moves, where, tail, rows, data):
    # `ahead` reaches its starting state by takes and skips (a skip with
    # nothing buffered becomes a take), `plain` and `ref` by takes alone.
    # "word edge" then skips to the end of the remainder or tail[0] - 1
    # words past it, leaving no remainder; "chunk end" skips to leave
    # tail[0] fields plus tail[1] bits buffered, so reading every
    # buffered field reaches the chunk's last word.
    if width is None:
        width = data.draw(st.integers(1, 400)) if data is not None else 97
    feeds = [BitFeed(np.random.default_rng(seed)) for _ in range(3)]
    ahead, plain, ref = feeds

    def move(skip, nbits):
        if skip and nbits <= ahead.buffered():
            ahead.skip(nbits)
        else:
            ahead.take(nbits)
        for feed in (plain, ref):
            feed.take(nbits)
        for feed in feeds:
            _check_remainder(feed)

    for skip, nbits in moves:
        move(skip, nbits)
    if where == "word edge":
        move(True, ahead._rembits + 64 * (tail[0] - 1))
        assert ahead._rembits == 0
    elif where == "chunk end":
        move(True, max(0, ahead.buffered() - (tail[0] * width + tail[1])))

    block = ahead.peek_block(width, rows)
    got = min(rows, ahead.buffered() // width)
    assert block.shape == (got, (width + 63) >> 6)
    big = ref.take(got * width)
    fmask = (1 << width) - 1
    for j in {*range(min(got, 64)), got // 2, got - 1} & set(range(got)):
        assert int.from_bytes(block[j].tobytes(), "little") == big >> (j * width) & fmask
    used = got // 2 + (got > 0)
    ahead.skip(used * width)
    plain.take(used * width)
    _check_remainder(ahead)
    more = (3, 64, 129)
    assert [plain.take(w) for w in more] == [ahead.take(w) for w in more]
    assert _state(plain) == _state(ahead)


def test_peek_block_reads_only_buffered_bits():
    feed = BitFeed(np.random.default_rng(8))
    before = feed.rng.bit_generator.state
    assert feed.peek_block(10, 5).shape == (0, 1)  # nothing buffered yet
    assert feed.rng.bit_generator.state == before
    feed.take(1)
    left = feed.buffered()
    block = feed.peek_block(100, 10_000)
    assert len(block) == left // 100
    assert feed.buffered() == left
    feed.skip(left)
    assert feed.buffered() == 0
    with pytest.raises(ContractError):
        feed.skip(1)
    with pytest.raises(ContractError):
        feed.peek_block(0, 1)
