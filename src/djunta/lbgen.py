"""Hard-instance generators: planted-junta pairs over a shared random support.

Both families draw a hidden variable set J and a support S of uniform random
strings, then put the uniform distribution on S.  The easy family labels
everything by a random junta over J, so any tester must accept it.  The hard
family labels the support points by independent fair coins instead, and
extends those labels off-support by a ball rule: a point inherits the label
of same-section support points within Hamming distance 2n/5, with a fixed
OR-style tie-break, and falls back to a background junta when no such
neighbor exists.  The support size m is tuned so that, with high
probability, no junta can explain the coin labels: the instance lands at
distance >= 1/3 from every k-junta under its own distribution, while
distinguishing it from the easy family by queries stays hard because
leaving a section unknowingly requires flipping many bits.

An instance keeps its support once, as the point list `D.points` of its
distribution, and the hard function is evaluated lazily through a
per-section index, so n in the hundreds is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, log

import numpy as np

from .boolfn import (
    Block,
    FunctionOracle,
    JuntaBackend,
    QueryCounter,
    RestrictionBackend,
    bits_to_hex,
    check_junta_arity,
    check_width,
    gather_bits,
    gather_rows,
    hex_to_bits,
    json_int,
    json_list,
    pack_rows,
    rand_bits,
    rows_of,
    scatter_bits,
    table_lookup,
)
from .dist import FiniteDistribution
from .errors import ContractError, DimensionError, SizeError


#: Most support points a generator will draw.  A point costs 130-200
#: bytes (n = 64 to 1200) in an instance, so the cap keeps an instance
#: under about 50 MiB; the largest size in use, 16,336 at n = 1200,
#: k = 6, is far below it.  Checked before any draw.
MAX_SUPPORT_POINTS = 1 << 18


def num_support_points(n: int, k: int) -> int:
    """Support size m = ceil(36 * 2^k * ln n)."""
    return ceil(36 * (1 << k) * log(n))


def neighbor_radius(n: int) -> int:
    """Hamming radius of the label-spreading ball: floor(2n/5)."""
    return (2 * n) // 5


def _check_shape(n: int, k: int) -> None:
    check_width(n)
    if not 1 <= k <= n:
        raise DimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
    check_junta_arity(k)  # the background junta's table has 2**k bits


#: Bytes of support one transient block holds at most, whether drawn from
#: the generator or packed into words to take section keys, so a block's
#: temporaries stay small whatever m is (431 rows at n = 1200).
_BLOCK_BYTES = 1 << 16


def _draw_j_s(n: int, k: int, rng):
    """J, then m distinct support points in order of first draw.

    The points come in blocks, each one `rng.integers` call over 32-bit
    words, which emits the same stream as one `rand_bits(rng, n)` call per
    row.  A block never holds more rows than are still missing, so the
    generator ends where a point-at-a-time loop would leave it.
    """
    _check_shape(n, k)
    m = num_support_points(n, k)
    if m > MAX_SUPPORT_POINTS:
        raise SizeError(f"support of {m} points exceeds the cap of {MAX_SUPPORT_POINTS}")
    if m > (1 << n):
        raise SizeError(f"support of {m} distinct strings does not fit in 2**{n}")
    J = frozenset(int(c) + 1 for c in rng.choice(n, size=k, replace=False))
    nb = (n + 7) // 8
    words = (nb + 3) // 4
    top = (1 << (n - 8 * (nb - 1))) - 1  # the last byte's share of the n bits
    cap = max(1, _BLOCK_BYTES // (4 * words))
    pts: dict[int, None] = {}  # insertion-ordered; a repeat keeps its first place
    while len(pts) < m:
        raw = rng.integers(0, 1 << 32, size=(min(m - len(pts), cap), words), dtype=np.uint32)
        rows = raw.view(np.uint8)[:, :nb]
        rows[:, -1] &= top
        buf = rows.tobytes()
        fresh = (int.from_bytes(buf[i : i + nb], "little") for i in range(0, len(buf), nb))
        pts.update(dict.fromkeys(fresh))
    return J, tuple(pts)


def _unpack_labels(packed: int, m: int) -> tuple[int, ...]:
    """Bit i of `packed` as label i, for i < m."""
    raw = np.frombuffer(packed.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    return tuple(np.unpackbits(raw, count=m, bitorder="little").tolist())


def _pack_labels(labels) -> int:
    """Inverse of _unpack_labels."""
    raw = np.packbits(np.asarray(labels, dtype=np.uint8), bitorder="little")
    return int.from_bytes(raw.tobytes(), "little")


@dataclass(frozen=True)
class YesInstance:
    """A planted k-junta with a random support distribution."""

    n: int
    k: int
    J: Block
    junta_table: int
    D: FiniteDistribution

    def oracle(self) -> FunctionOracle:
        return FunctionOracle.from_junta(self.n, sorted(self.J), self.junta_table)


@dataclass(frozen=True)
class NoInstance:
    """Coin-labeled support over the same (J, S) marginal as YesInstance.

    The support S is `D.points`, and `labels` is aligned with it;
    `junta_table` is the background junta used off-support when no ball
    neighbor exists; `radius` the ball threshold.
    """

    n: int
    k: int
    J: Block
    junta_table: int
    labels: tuple[int, ...]
    radius: int
    D: FiniteDistribution

    @cached_property
    def _backend(self) -> "_HardLabelBackend":
        return _HardLabelBackend(self)

    def oracle(self) -> FunctionOracle:
        """The hard function, with a fresh query counter.

        Every oracle of one instance shares a single backend, built on the
        first call: it regroups the support by section, which at n = 1200
        costs tens of milliseconds, and keeps the batched section matrices.
        """
        return FunctionOracle(self._backend, QueryCounter())


def gen_yes(n: int, k: int, rng) -> YesInstance:
    """Draw (J, S) and label everything by a fresh random junta over J."""
    J, pts = _draw_j_s(n, k, rng)
    table = rand_bits(rng, 1 << k)
    return YesInstance(n, k, J, table, FiniteDistribution.support(n, pts))


def gen_no(n: int, k: int, rng) -> NoInstance:
    """Draw (J, S) exactly as gen_yes, then coin-label the support.

    Same rng draw order as gen_yes through the background junta table, so
    a shared seed yields the identical (J, S, table) prefix.
    """
    J, pts = _draw_j_s(n, k, rng)
    table = rand_bits(rng, 1 << k)
    m = len(pts)
    labels = _unpack_labels(rand_bits(rng, m), m)
    D = FiniteDistribution.support(n, pts)
    return NoInstance(n, k, J, table, labels, neighbor_radius(n), D)


#: Widest domain whose block views stay generic RestrictionBackends.  With
#: a point in one word, a restriction's scatter and section scan are a few
#: small-int operations, and a partial view saves little: a batch of 128
#: rows took 53 us against 69 us at n = 14, where a view's build takes
#: about 55 us and most views batch at most twice.  With partial views,
#: main_djunta took 1.07x as long on gen_no(14, 2).
_GENERIC_VIEW_WIDTH = 64

#: Bound on the words one batched distance step holds per section, so the
#: xor temporaries of a hard-label `values` stay near 256 KiB whatever the
#: batch.
_STEP_WORDS = 1 << 15


def _ball_rule(X: np.ndarray, keys: np.ndarray, background: np.ndarray, sections: dict) -> np.ndarray:
    """Row-wise value of a hard-label function or block view, by the
    exact-hit, ball and background rule.

    Row i lies in section keys[i].  `sections` maps a key to its support
    points as a (words, size) matrix, one column a point, with their
    slacks (the distance from a row to a point at which the point's ball
    ends), uint8 codes 2 + label, and a bonus of 2 for a point an equal
    row hits exactly.  Against each point of its section a row scores 0
    off the ball, the code in it and code + bonus on equality.  The best
    score, if any, carries the value in its low bit: the exact hit wins,
    then an in-ball 1, then an in-ball 0.  Rows without a score, empty
    sections' rows among them, keep bit keys[i] of the packed
    `background` table.
    """
    out = table_lookup(background, keys)
    for key in set(keys.tolist()):
        sec = sections.get(key)
        if sec is None:
            continue
        pts, slack, codes, bonus = sec
        rows = np.flatnonzero(keys == key)
        step = max(1, _STEP_WORDS // pts.size)
        for a in range(0, len(rows), step):
            r = rows[a : a + step]
            dist = np.bitwise_count(X[r, :, None] ^ pts).sum(axis=1, dtype=np.uint16)
            best = ((dist <= slack) * codes + (dist == 0) * bonus).max(axis=1)
            out[r] = np.where(best > 0, best & 1, out[r])
    return out


def _packed_table(junta: JuntaBackend) -> np.ndarray:
    """A junta's table as little-endian packed bytes, for table_lookup."""
    nbytes = ((1 << len(junta.vars)) + 7) // 8
    return np.frombuffer(junta.table.to_bytes(nbytes, "little"), np.uint8)


class _HardLabelBackend:
    """Lazy point evaluation of a NoInstance's function."""

    kind = "no_construction"
    __slots__ = ("n", "table", "jcoords", "radius", "exact", "sections", "_support")

    def __init__(self, inst: NoInstance):
        self.n = inst.n
        self.table = inst.junta_table
        self.jcoords = tuple(sorted(inst.J))
        self.radius = inst.radius
        points = inst.D.points
        self.exact = dict(zip(points, inst.labels))
        self.sections = {}
        step = max(1, _BLOCK_BYTES // (8 * ((self.n + 63) >> 6)))
        for a in range(0, len(points), step):
            pts = points[a : a + step]
            keys = gather_rows(rows_of(pts, self.n), self.jcoords).tolist()
            for b, lab, key in zip(pts, inst.labels[a : a + step], keys):
                self.sections.setdefault(key, []).append((b, lab))
        self._support = None

    def value(self, xbits: int) -> int:
        lab = self.exact.get(xbits)
        if lab is not None:
            return lab
        key = gather_bits(xbits, self.jcoords)
        bucket = self.sections.get(key)
        if bucket is not None:
            hit = False
            for yb, ylab in bucket:
                if (xbits ^ yb).bit_count() <= self.radius:
                    if ylab:
                        return 1
                    hit = True
            if hit:
                return 0
        # No in-ball neighbor shares the section: background junta decides.
        return (self.table >> key) & 1

    def _support_arrays(self):
        """The support in section order: a (ceil(n/64), m) word matrix, one
        column a point, its section keys, each section's first column (and
        m), its uint8 labels, `_ball_rule`'s sections, and the background
        junta with its packed table.  Built on the first batched call, to
        this backend or to a block view, so runs that never batch
        (simple_djunta's) never hold them."""
        if self._support is None:
            order = sorted(self.sections)
            secs = [self.sections[key] for key in order]
            points, labs = zip(*[pair for sec in secs for pair in sec])
            pts = np.ascontiguousarray(rows_of(points, self.n).T)
            labels = np.array(labs, dtype=np.uint8)
            sizes = [len(sec) for sec in secs]
            keys = np.repeat(np.array(order, dtype=np.uint64), sizes)
            starts = np.cumsum([0] + sizes)
            sections = {
                key: (pts[:, a:b], self.radius, 2 + labels[a:b], np.uint8(2))
                for key, a, b in zip(order, starts.tolist(), starts[1:].tolist())
            }
            junta = JuntaBackend(self.n, self.jcoords, self.table)
            self._support = (pts, keys, starts, labels, sections, junta, _packed_table(junta))
        return self._support

    def values(self, X: np.ndarray) -> np.ndarray:
        """Row-wise `value`, by `_ball_rule` over the sections."""
        *_, sections, _, background = self._support_arrays()
        return _ball_rule(X, gather_rows(X, self.jcoords), background, sections)

    def view(self, free_coords, wbits: int):
        """The block view on `free_coords` (ascending), every other
        coordinate pinned to `wbits` (zero on the block): a generic
        RestrictionBackend while a point fits in one word, else a
        `_HardLabelView`."""
        if self.n <= _GENERIC_VIEW_WIDTH:
            return RestrictionBackend(self, free_coords, wbits)
        return _HardLabelView(self, free_coords, wbits)


class _HardLabelView:
    """A block view of a NoInstance's function.

    Until its first batched call the view evaluates a point through its
    parent, scattered to full width, as a RestrictionBackend does.  The
    first batched call evaluates it partially, keeping only the support
    points it can reach: a point p whose distance d0 to the context off
    the block is at most the radius, and whose section key agrees with
    the context on the J coordinates off the block.  Each kept point
    carries its projection on the block, in the view's own words, and its
    slack, the radius minus d0.  A view point z shares p's section when it
    matches p on the J coordinates inside the block (`jmask`, the
    variables of the background junta pinned to the context), and lies
    in p's ball when popcount(z ^ p) <= slack; it is p itself when also
    d0 = 0.  The rule of `_HardLabelBackend.value` then applies, the
    background junta deciding when no point scores, and alone when no
    point is kept.

    A batched call is the testers' sign of a view in heavy use: they
    batch only after 32 one-at-a-time rounds.  Most views never get one:
    in ten main_djunta runs on gen_no(300, 3), 31 of 68 views were never
    evaluated and half answered at most 11 calls.  Building every view at
    once made main_djunta 1.41x as slow on fresh gen_no(128, 3) instances,
    against 1.00x this way.
    """

    kind = "no_construction_view"
    __slots__ = (
        "n", "parent", "free_coords", "wbits",
        "background", "jmask", "exact", "buckets", "_sections", "_table",
    )

    def __init__(self, parent: _HardLabelBackend, free_coords, wbits: int):
        self.n = len(free_coords)
        self.parent = parent
        self.free_coords = free_coords
        self.wbits = wbits
        self.exact = None  # set by _build

    def _build(self) -> None:
        parent, free_coords, wbits = self.parent, self.free_coords, self.wbits
        P, keys, starts, labels, _, junta, _ = parent._support_arrays()
        self.background = junta.view(free_coords, wbits)
        self.jmask = sum(1 << (v - 1) for v in self.background.vars)
        block = 0
        for c in free_coords:
            block |= 1 << (c - 1)
        off = ctxkey = 0  # section key bits off the block, and wbits' values there
        for t, c in enumerate(parent.jcoords):
            if not block >> (c - 1) & 1:
                off |= 1 << t
                ctxkey |= (wbits >> (c - 1) & 1) << t
        ctx, pinned = rows_of((wbits, block ^ ((1 << parent.n) - 1)), parent.n)[:, :, None]
        d0 = np.bitwise_count((P ^ ctx) & pinned).sum(axis=0, dtype=np.int64)
        kept = ((d0 <= parent.radius) & (keys & np.uint64(off) == ctxkey)).nonzero()[0]
        # Project the kept points on the block, a few at a time, so that
        # their unpacked bits take at most _BLOCK_BYTES.
        cols = np.subtract(free_coords, 1)
        step = max(1, _BLOCK_BYTES // (64 * len(P)))
        pts = np.empty((len(kept), (self.n + 63) >> 6), dtype=np.uint64)
        for a in range(0, len(kept), step):
            rows = np.ascontiguousarray(P[:, kept[a : a + step]].T).view(np.uint8)
            pts[a : a + step] = pack_rows(np.unpackbits(rows, axis=1, bitorder="little")[:, cols])
        # Kept points stay in section order; cut them where sections end.
        ends = kept.searchsorted(starts).tolist()
        runs = [(a, b) for a, b in zip(ends, ends[1:]) if a < b]
        slack, labels = parent.radius - d0[kept], labels[kept]
        ints = pts[:, 0].tolist()
        for i in range(1, pts.shape[1]):
            ints = [p | w << (64 * i) for p, w in zip(ints, pts[:, i].tolist())]
        slacks, labs = slack.tolist(), labels.tolist()
        # A section's points, slacks and labels as three lists: a list of
        # tuples would give the garbage collector a tuple a point to track.
        self.buckets = {ints[a] & self.jmask: (ints[a:b], slacks[a:b], labs[a:b]) for a, b in runs}
        pts, codes = np.ascontiguousarray(pts.T), 2 + labels
        bonus = np.where(slack == parent.radius, np.uint8(2), np.uint8(0))
        slack = slack.astype(np.uint16)
        self._sections = {
            gather_bits(ints[a], self.background.vars): (
                pts[:, a:b], slack[a:b], codes[a:b], bonus[a:b]
            )
            for a, b in runs
        }
        self._table = _packed_table(self.background)
        self.exact = {ints[i]: labs[i] for i in (d0[kept] == 0).nonzero()[0].tolist()}

    def value(self, z: int) -> int:
        if self.exact is None:
            return self.parent.value(self.wbits | scatter_bits(z, self.free_coords))
        lab = self.exact.get(z)
        if lab is not None:
            return lab
        bucket = self.buckets.get(z & self.jmask)
        if bucket is not None:
            hit = False
            for p, slack, plab in zip(*bucket):
                if (z ^ p).bit_count() <= slack:
                    if plab:
                        return 1
                    hit = True
            if hit:
                return 0
        return self.background.value(z)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Row-wise `value`, by `_ball_rule` over the kept points."""
        if self.exact is None:
            self._build()
        keys = gather_rows(X, self.background.vars)
        return _ball_rule(X, keys, self._table, self._sections)


def is_scattered(Y, J: Block) -> bool:
    """True iff the projections of the strings in Y onto J are all distinct."""
    jcoords = tuple(sorted(J))
    seen = set()
    for y in Y:
        key = gather_bits(y.bits, jcoords)
        if key in seen:
            return False
        seen.add(key)
    return True


# ---------------------------------------------------------------------------
# files


def instance_to_json(inst: YesInstance | NoInstance) -> dict:
    doc = {
        "kind": "yes_instance" if isinstance(inst, YesInstance) else "no_instance",
        "n": inst.n,
        "k": inst.k,
        "J": sorted(inst.J),
        "junta_table": bits_to_hex(inst.junta_table, 1 << inst.k),
        "S": [bits_to_hex(p, inst.n) for p in inst.D.points],
    }
    if isinstance(inst, NoInstance):
        doc["labels"] = bits_to_hex(_pack_labels(inst.labels), len(inst.labels))
        doc["radius"] = inst.radius
    return doc


def instance_from_json(doc: dict) -> YesInstance | NoInstance:
    """Rebuild an instance, from either full form or {kind, n, k, seed}."""
    kind = doc["kind"]
    if kind not in ("yes_instance", "no_instance"):
        raise ContractError(f"unknown instance kind {kind!r}")
    n = json_int(doc["n"], "n")
    k = json_int(doc["k"], "k")
    if "S" not in doc:
        rng = np.random.default_rng(json_int(doc["seed"], "seed"))
        return gen_yes(n, k, rng) if kind == "yes_instance" else gen_no(n, k, rng)
    _check_shape(n, k)
    coords = [json_int(c, "J entry") for c in json_list(doc["J"], "J")]
    J = frozenset(coords)
    if len(coords) != k or len(J) != k or not all(1 <= c <= n for c in J):
        raise ContractError(f"J must list {k} distinct coordinates in 1..{n}")
    table = hex_to_bits(doc["junta_table"], 1 << k)
    pts = tuple(hex_to_bits(s, n) for s in json_list(doc["S"], "S"))
    D = FiniteDistribution.support(n, pts)
    if kind == "yes_instance":
        return YesInstance(n, k, J, table, D)
    labels = _unpack_labels(hex_to_bits(doc["labels"], len(pts)), len(pts))
    radius = json_int(doc["radius"], "radius")
    if not 0 <= radius <= n:
        raise ContractError(f"radius must be in 0..{n}")
    return NoInstance(n, k, J, table, labels, radius, D)
