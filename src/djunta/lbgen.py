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
    QueryCounter,
    bits_to_hex,
    check_junta_arity,
    check_width,
    gather_bits,
    gather_rows,
    hex_to_bits,
    json_int,
    json_list,
    rand_bits,
    rows_of,
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


class _HardLabelBackend:
    """Lazy point evaluation of a NoInstance's function."""

    kind = "no_construction"
    __slots__ = ("n", "table", "jcoords", "radius", "exact", "sections", "_matrices")

    #: Bound on the words one batched distance step holds per section, so
    #: the xor temporaries of `values` stay near 256 KiB whatever the batch.
    _STEP_WORDS = 1 << 15

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
        self._matrices = None

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

    def _section_matrices(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Section key -> (its support points as a (ceil(n/64), size) word
        matrix, one column a point; their uint8 codes 2 + label)."""
        if self._matrices is None:
            self._matrices = {}
            for key, bucket in self.sections.items():
                pts = rows_of([b for b, _ in bucket], self.n)
                codes = np.array([2 + lab for _, lab in bucket], dtype=np.uint8)
                self._matrices[key] = (np.ascontiguousarray(pts.T), codes)
        return self._matrices

    def values(self, X: np.ndarray) -> np.ndarray:
        """Row-wise `value`, by the same exact-hit, ball and background rule.

        Against each support point of its section a row scores 0 off the
        ball, 2 + label in it and 4 + label on an exact hit.  The best
        score, if any, carries the value in its low bit: the exact hit
        wins, then an in-ball 1, then an in-ball 0.  Rows without a score,
        empty sections' rows among them, keep the background junta's value.
        """
        keys = gather_rows(X, self.jcoords)
        nbytes = ((1 << len(self.jcoords)) + 7) // 8
        background = np.frombuffer(self.table.to_bytes(nbytes, "little"), np.uint8)
        out = table_lookup(background, keys)
        matrices = self._section_matrices()
        for key in set(keys.tolist()):
            sec = matrices.get(key)
            if sec is None:
                continue
            pts, codes = sec
            rows = np.flatnonzero(keys == key)
            step = max(1, self._STEP_WORDS // pts.size)
            for a in range(0, len(rows), step):
                r = rows[a : a + step]
                dist = np.bitwise_count(X[r, :, None] ^ pts).sum(axis=1, dtype=np.uint16)
                score = (dist <= self.radius) * codes + (dist == 0) * np.uint8(2)
                best = score.max(axis=1)
                out[r] = np.where(best > 0, best & 1, out[r])
        return out


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
