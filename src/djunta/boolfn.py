"""Bit strings, coordinate blocks, and query-counted Boolean function oracles.

Conventions used everywhere in this package:

* Coordinates are numbered 1..n.  Coordinate i of a string is stored in bit
  (i - 1) of a plain Python int, so the string written "1010" (coordinate 1
  first) is the integer 0b0101.
* A block is a nonempty frozenset of coordinates.
* Truth tables index point x by its integer value: bit 0 of a table is the
  value at the all-zeros input.
* Every oracle evaluation ticks a shared counter, repeated points included.
  Restriction views delegate to the parent function and share the parent's
  counter, so one tally covers all access paths to the same f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, EmptyDomainError, SizeError

#: Blocks are plain frozensets of 1-based coordinates.
Block = frozenset

#: Hard cap for explicit truth tables (2**24 bits = 2 MiB).
TRUTH_TABLE_MAX_N = 24

#: Widest domain, in coordinates, that an oracle, a distribution or an
#: instance generator accepts.  Points are n-bit ints and rows of
#: ceil(n/64) words, and the testers draw n fresh bits per round, so a far
#: wider domain could only exhaust memory or time.  The widest domain in
#: the tests and the benchmark has 1200 coordinates.
MAX_WIDTH = 1 << 16


def check_width(n: int) -> None:
    """Refuse a domain wider than MAX_WIDTH, before anything is sized by it."""
    if n > MAX_WIDTH:
        raise SizeError(f"{n} coordinates exceed the cap of {MAX_WIDTH}")


def check_junta_arity(k: int) -> None:
    """Refuse a junta over more than TRUTH_TABLE_MAX_N variables, whose
    table is a truth table over them, before anything is sized by it."""
    if k > TRUTH_TABLE_MAX_N:
        raise SizeError(f"junta over {k} variables exceeds the cap of {TRUTH_TABLE_MAX_N}")


# ---------------------------------------------------------------------------
# mask and coordinate helpers


def mask_of(coords: Iterable[int], n: int | None = None) -> int:
    """Pack 1-based coordinates into an int mask (coordinate i -> bit i-1)."""
    m = 0
    for c in coords:
        c = int(c)
        if c < 1 or (n is not None and c > n):
            raise DimensionError(f"coordinate {c} out of range 1..{n}")
        m |= 1 << (c - 1)
    return m


def coords_of(mask: int) -> tuple[int, ...]:
    """Unpack a mask into ascending 1-based coordinates."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def block_of(mask: int) -> Block:
    return frozenset(coords_of(mask))


def gather_bits(bits: int, coords: Sequence[int]) -> int:
    """Project onto `coords` (ascending): t-th listed coordinate -> bit t."""
    out = 0
    for t, c in enumerate(coords):
        if bits >> (c - 1) & 1:
            out |= 1 << t
    return out


def scatter_bits(bits: int, coords: Sequence[int]) -> int:
    """Inverse of gather_bits: bit t -> coordinate coords[t]."""
    out = 0
    t = 0
    while bits:
        if bits & 1:
            out |= 1 << (coords[t] - 1)
        bits >>= 1
        t += 1
    return out


def rand_bits(rng, nbits: int) -> int:
    """nbits uniform random bits from a numpy Generator, as an int."""
    if nbits <= 0:
        return 0
    raw = int.from_bytes(rng.bytes((nbits + 7) // 8), "little")
    return raw & ((1 << nbits) - 1)


class BitFeed:
    """Buffered uniform bits pulled from a numpy Generator in big chunks.

    The testers draw random subsets in tight loops; one generator call per
    draw is the dominant cost there, so the feed pre-draws 8 KiB at a time
    and hands out slices.  take(nb) returns the next nb bits as an int,
    consuming the stream in order; for a fixed seed the stream, and hence
    the whole run, is reproducible.

    Batched loops read ahead with peek_block(), which returns already
    buffered bits as a word array without consuming them, and then skip()
    exactly the bits they used.  Neither touches the generator, so a
    peek_block/skip pair leaves the feed, and `rng` for callers that draw
    from it directly, where the same bits taken by take() would.
    """

    __slots__ = ("rng", "_words", "_arr", "_i", "_rem", "_rembits")

    _CHUNK_WORDS = 1024

    def __init__(self, rng):
        self.rng = rng
        self._words = ()
        self._arr = np.zeros(0, dtype="<u8")
        self._i = 0
        self._rem = 0
        self._rembits = 0

    @classmethod
    def of(cls, source) -> "BitFeed":
        """Wrap a Generator; an existing feed passes through unchanged."""
        return source if isinstance(source, BitFeed) else cls(source)

    def take(self, nbits: int) -> int:
        v = self._rem
        have = self._rembits
        while have < nbits:
            if self._i >= len(self._words):
                raw = self.rng.bytes(self._CHUNK_WORDS * 8)
                self._arr = np.frombuffer(raw, dtype="<u8")
                self._words = self._arr.tolist()
                self._i = 0
            v |= self._words[self._i] << have
            self._i += 1
            have += 64
        self._rem = v >> nbits
        self._rembits = have - nbits
        return v & ((1 << nbits) - 1)

    def buffered(self) -> int:
        """Bits that take() can hand out before it next calls the generator."""
        return self._rembits + 64 * (len(self._words) - self._i)

    def peek_block(self, width: int, rows: int) -> np.ndarray:
        """The next `rows` fields of `width` bits each, left unconsumed.

        Row j holds stream bits [j*width, (j+1)*width) as little-endian
        uint64 words, shape (rows', ceil(width/64)), with the unused high
        bits of the last word zero: the value take(width) would return for
        that field.  Only buffered bits are read, so rows' is
        min(rows, buffered() // width) and may be 0.
        """
        if width < 1:
            raise ContractError(f"need width >= 1, got {width}")
        rows = max(0, min(rows, self.buffered() // width))
        wc = (width + 63) >> 6
        nbits = rows * width
        need = max(0, nbits - self._rembits)
        bits = np.unpackbits(
            self._arr[self._i : self._i + ((need + 63) >> 6)].view(np.uint8),
            bitorder="little",
        )
        if self._rembits:
            head = np.array([self._rem], dtype="<u8").view(np.uint8)
            head = np.unpackbits(head, count=self._rembits, bitorder="little")
            bits = np.concatenate((head, bits))
        fields = np.zeros((rows, 64 * wc), dtype=np.uint8)
        fields[:, :width] = bits[:nbits].reshape(rows, width)
        return np.packbits(fields, axis=1, bitorder="little").view("<u8")

    def skip(self, nbits: int) -> None:
        """Consume nbits buffered bits, as take(nbits) would, unread."""
        if not 0 <= nbits <= self.buffered():
            raise ContractError(f"cannot skip {nbits} bits, {self.buffered()} buffered")
        if nbits <= self._rembits:
            self._rem >>= nbits
            self._rembits -= nbits
            return
        q, r = divmod(nbits - self._rembits, 64)
        self._i += q
        if r:
            self._rem = self._words[self._i] >> r
            self._rembits = 64 - r
            self._i += 1
        else:
            self._rem = 0
            self._rembits = 0


def ceil_log2(m: int) -> int:
    """Smallest t with 2**t >= m, for m >= 1."""
    if m < 1:
        raise ContractError(f"ceil_log2 needs m >= 1, got {m}")
    return (m - 1).bit_length()


def bits_to_hex(bits: int, nbits: int) -> str:
    """Fixed-width lowercase hex of an nbits-wide value (for stable files)."""
    width = max(1, (nbits + 3) // 4)
    return format(bits, f"0{width}x")


def hex_to_bits(text: str, nbits: int) -> int:
    v = int(text, 16)
    if v < 0 or v >> nbits:
        raise ContractError(f"hex value does not fit in {nbits} bits")
    return v


# ---------------------------------------------------------------------------
# bit strings


@dataclass(frozen=True, slots=True)
class BitString:
    """Fixed-length bit string over coordinates 1..n.

    Immutable and hashable.  `bits` holds coordinate i in bit (i - 1).
    """

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise DimensionError(f"negative length {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ContractError(f"value does not fit in {self.n} bits")

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        """Parse "1010" with coordinate 1 written first."""
        bits = 0
        for t, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << t
            elif ch != "0":
                raise ContractError(f"bad bit character {ch!r}")
        return cls(len(s), bits)

    @classmethod
    def from_hex(cls, n: int, s: str) -> "BitString":
        return cls(n, hex_to_bits(s, n))

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    def bit(self, i: int) -> int:
        """Value of coordinate i (1-based)."""
        if not 1 <= i <= self.n:
            raise DimensionError(f"coordinate {i} out of range 1..{self.n}")
        return self.bits >> (i - 1) & 1

    def to_hex(self) -> str:
        return bits_to_hex(self.bits, self.n)

    def __str__(self) -> str:
        return "".join("1" if self.bits >> t & 1 else "0" for t in range(self.n))

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"


# ---------------------------------------------------------------------------
# query accounting


class QueryCounter:
    """Running tally of oracle accesses.

    `queries` counts black-box evaluations, `samples` counts labeled draws
    from the input distribution.  One labeled draw costs exactly one unit, so
    total cost is the plain sum.
    """

    __slots__ = ("queries", "samples")

    def __init__(self):
        self.queries = 0
        self.samples = 0

    @property
    def total(self) -> int:
        return self.queries + self.samples

    def snapshot(self) -> tuple[int, int]:
        return (self.queries, self.samples)

    def __repr__(self):
        return f"QueryCounter(queries={self.queries}, samples={self.samples})"


# ---------------------------------------------------------------------------
# function backends
#
# Each backend has a scalar `value(x)` on an int point and a batched
# `values(X)` on a (rows, ceil(n/64)) array of little-endian uint64 words,
# one point per row with the bits above n zero; `values` returns the rows'
# values as uint8 and agrees with `value` row by row.


def words_of(bits: int, nwords: int) -> np.ndarray:
    """An int as `nwords` little-endian uint64 words."""
    return np.frombuffer(bits.to_bytes(8 * nwords, "little"), dtype="<u8")


def int_of_words(row: np.ndarray) -> int:
    """Inverse of words_of for one row of a word array."""
    return int.from_bytes(row.tobytes(), "little")


def gather_rows(X: np.ndarray, coords: Sequence[int]) -> np.ndarray:
    """gather_bits applied to every row of a word array, as uint64."""
    c = np.asarray(coords, dtype=np.int64) - 1
    bits = (X[:, c >> 6] >> (c & 63).astype(np.uint64)) & np.uint64(1)
    return (bits << np.arange(len(c), dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def table_lookup(packed: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Bit idx[i] of a little-endian packed uint8 table, for every i."""
    return (packed[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1


class TruthTableBackend:
    """Explicit table over all 2**n points, stored as packed bytes."""

    kind = "truth_table"
    __slots__ = ("n", "table")

    def __init__(self, n: int, table: int | bytes):
        if n < 1:
            raise DimensionError("need n >= 1")
        if n > TRUTH_TABLE_MAX_N:
            raise SizeError(f"truth table capped at n <= {TRUTH_TABLE_MAX_N}, got {n}")
        nbytes = ((1 << n) + 7) // 8
        if isinstance(table, bytes):
            if len(table) != nbytes:
                raise ContractError(f"table must be {nbytes} bytes, got {len(table)}")
            self.table = table
        else:
            if not 0 <= table < (1 << (1 << n)):
                raise ContractError(f"table does not fit in {1 << n} bits")
            self.table = int(table).to_bytes(nbytes, "little")
        self.n = n

    def value(self, x: int) -> int:
        return self.table[x >> 3] >> (x & 7) & 1

    def values(self, X: np.ndarray) -> np.ndarray:
        return table_lookup(np.frombuffer(self.table, dtype=np.uint8), X[:, 0])

    def table_bits(self) -> int:
        return int.from_bytes(self.table, "little")


class JuntaBackend:
    """Function depending only on `vars` (ascending 1-based coordinates).

    The table has 2**len(vars) bits; the lowest listed variable is the least
    significant index bit.  Empty `vars` gives a constant function.
    """

    kind = "junta"
    __slots__ = ("n", "vars", "table")

    def __init__(self, n: int, vars: Sequence[int], table: int):
        if n < 1:
            raise DimensionError("need n >= 1")
        vs = tuple(int(v) for v in vars)
        if list(vs) != sorted(set(vs)):
            raise ContractError("junta variables must be strictly ascending")
        if vs and (vs[0] < 1 or vs[-1] > n):
            raise DimensionError(f"junta variables out of range 1..{n}")
        check_junta_arity(len(vs))
        if not 0 <= table < (1 << (1 << len(vs))):
            raise ContractError(f"table does not fit in {1 << len(vs)} bits")
        self.n = n
        self.vars = vs
        self.table = int(table)

    def value(self, x: int) -> int:
        idx = 0
        for t, v in enumerate(self.vars):
            if x >> (v - 1) & 1:
                idx |= 1 << t
        return self.table >> idx & 1

    def values(self, X: np.ndarray) -> np.ndarray:
        nbytes = ((1 << len(self.vars)) + 7) // 8
        packed = np.frombuffer(self.table.to_bytes(nbytes, "little"), dtype=np.uint8)
        return table_lookup(packed, gather_rows(X, self.vars))


class RestrictionBackend:
    """Parent function with the coordinates outside `free_coords` pinned.

    The restricted domain relabels the t-th smallest free coordinate as
    position t+1.  `wbits` is a parent-width int carrying the pinned values;
    its free-coordinate bits must be zero.
    """

    kind = "restriction"
    __slots__ = ("n", "parent", "free_coords", "shifts", "wbits")

    def __init__(self, parent, free_coords: Sequence[int], wbits: int):
        self.n = len(free_coords)
        self.parent = parent
        self.free_coords = tuple(free_coords)
        self.shifts = tuple(c - 1 for c in free_coords)
        self.wbits = wbits

    def value(self, x: int) -> int:
        v = self.wbits
        sh = self.shifts
        t = 0
        while x:
            if x & 1:
                v |= 1 << sh[t]
            x >>= 1
            t += 1
        return self.parent.value(v)

    def values(self, X: np.ndarray) -> np.ndarray:
        # Scatter through a bit matrix: row bits -> parent coordinates.
        nwords = (self.parent.n + 63) >> 6
        free = np.unpackbits(
            np.ascontiguousarray(X).view(np.uint8), axis=1, count=self.n, bitorder="little"
        )
        full = np.zeros((len(X), 64 * nwords), dtype=np.uint8)
        full[:, self.shifts] = free
        P = np.packbits(full, axis=1, bitorder="little").view("<u8")
        P |= words_of(self.wbits, nwords)
        return self.parent.values(P)


def make_restriction_backend(parent, free_coords: Sequence[int], wbits: int):
    """Restriction of `parent` to `free_coords`, with pinned values `wbits`.

    A restricted junta collapses to a junta again (partial evaluation of its
    table), so evaluating it costs no more than evaluating the parent;
    behavior is identical to the generic path.  Any other parent, a
    restriction included, is wrapped as is.
    """
    free_coords = tuple(free_coords)
    if isinstance(parent, JuntaBackend):
        pos_of = {c: t + 1 for t, c in enumerate(free_coords)}
        kept = []  # (position in the restricted domain, index into parent.vars)
        fixed_idx = 0
        for t, v in enumerate(parent.vars):
            p = pos_of.get(v)
            if p is None:
                if wbits >> (v - 1) & 1:
                    fixed_idx |= 1 << t
            else:
                kept.append((p, t))
        kept.sort()
        newtab = 0
        for a in range(1 << len(kept)):
            idx = fixed_idx
            for s, (_, t) in enumerate(kept):
                if a >> s & 1:
                    idx |= 1 << t
            if parent.table >> idx & 1:
                newtab |= 1 << a
        return JuntaBackend(len(free_coords), tuple(p for p, _ in kept), newtab)
    return RestrictionBackend(parent, free_coords, wbits)


# ---------------------------------------------------------------------------
# the oracle wrapper


class FunctionOracle:
    """Black-box access to f: {0,1}^n -> {0,1} with a shared query tally.

    eval_bits ticks the counter by exactly one per call, repeated points
    included; there is no memoization.  peek/peek_bits never tick it and
    exist for verification and analysis code only.  restrict() returns a view
    that shares this oracle's counter, so all queries against any view of f
    land in one tally.
    """

    __slots__ = ("n", "backend", "counter")

    def __init__(self, backend, counter: QueryCounter | None = None):
        check_width(backend.n)
        self.n = backend.n
        self.backend = backend
        self.counter = counter if counter is not None else QueryCounter()

    # -- constructors

    @classmethod
    def from_truth_table(cls, n: int, table: int | bytes) -> "FunctionOracle":
        return cls(TruthTableBackend(n, table))

    @classmethod
    def from_junta(cls, n: int, vars: Sequence[int], table: int) -> "FunctionOracle":
        return cls(JuntaBackend(n, vars, table))

    # -- counted access

    def eval_bits(self, xbits: int) -> int:
        """Counted evaluation on a raw int; no dimension check (hot path)."""
        self.counter.queries += 1
        return self.backend.value(xbits)

    def sample_eval_bits(self, xbits: int) -> int:
        """Evaluation paid for by a labeled-sample draw: one sample unit total."""
        self.counter.samples += 1
        return self.backend.value(xbits)

    # -- uncounted access (verification only)

    def peek(self, x: BitString) -> int:
        if x.n != self.n:
            raise DimensionError(f"input has {x.n} coordinates, oracle has {self.n}")
        return self.backend.value(x.bits)

    def peek_bits(self, xbits: int) -> int:
        return self.backend.value(xbits)

    # -- views and clones

    def restrict(self, fixed: Iterable[int], w: BitString) -> "FunctionOracle":
        """Pin the coordinates in `fixed` to the bits of w.

        w is indexed over `fixed` in ascending coordinate order.  The view
        shares this oracle's counter.
        """
        fixed_coords = tuple(sorted(set(int(c) for c in fixed)))
        if not fixed_coords:
            raise ContractError("fixed set must be a nonempty block")
        if fixed_coords[0] < 1 or fixed_coords[-1] > self.n:
            raise DimensionError(f"fixed coordinates out of range 1..{self.n}")
        if len(fixed_coords) == self.n:
            raise EmptyDomainError("cannot fix every coordinate")
        if w.n != len(fixed_coords):
            raise DimensionError(
                f"w has {w.n} bits but {len(fixed_coords)} coordinates are fixed"
            )
        fixed_mask = mask_of(fixed_coords)
        free_coords = coords_of(((1 << self.n) - 1) ^ fixed_mask)
        wbits = scatter_bits(w.bits, fixed_coords)
        backend = make_restriction_backend(self.backend, free_coords, wbits)
        return FunctionOracle(backend, self.counter)

    def fork(self) -> "FunctionOracle":
        """Same function, fresh counter.  Use one fork per independent trial."""
        return FunctionOracle(self.backend, QueryCounter())


def full_truth_table(f: FunctionOracle, max_n: int = TRUTH_TABLE_MAX_N) -> int:
    """Materialize f as a table int (uncounted).  Guarded by max_n."""
    if f.n > max_n:
        raise SizeError(f"refusing to materialize 2**{f.n} entries (cap {max_n})")
    b = f.backend
    if isinstance(b, TruthTableBackend):
        return b.table_bits()
    t = 0
    value = b.value
    for p in range(1 << f.n):
        if value(p):
            t |= 1 << p
    return t


# ---------------------------------------------------------------------------
# certificates and verdicts


@dataclass(frozen=True)
class DistinguishingPair:
    """Two inputs that agree outside `block` yet receive different labels."""

    x: BitString
    y: BitString
    block: Block


@dataclass(frozen=True)
class Verdict:
    """Tester output.  Rejections carry a witness of disjoint blocks with pairs."""

    outcome: str  # "accept" | "reject"
    witness: tuple = ()
    queries: int = 0
    samples: int = 0

    @property
    def is_reject(self) -> bool:
        return self.outcome == "reject"


def verdict_to_json(v: Verdict, n: int) -> dict:
    return {
        "outcome": v.outcome,
        "queries": v.queries,
        "samples": v.samples,
        "witness": [
            {
                "block": sorted(p.block),
                "x": p.x.to_hex(),
                "y": p.y.to_hex(),
            }
            for p in v.witness
        ],
    }


def verdict_from_json(doc: dict, n: int) -> Verdict:
    witness = tuple(
        DistinguishingPair(
            BitString.from_hex(n, e["x"]),
            BitString.from_hex(n, e["y"]),
            frozenset(int(c) for c in e["block"]),
        )
        for e in doc.get("witness", [])
    )
    return Verdict(doc["outcome"], witness, int(doc["queries"]), int(doc["samples"]))


# ---------------------------------------------------------------------------
# instance files


def oracle_to_json(f: FunctionOracle) -> dict:
    """Serialize a truth-table or junta oracle.  Other backends have their
    own writers (see the generator module)."""
    b = f.backend
    if isinstance(b, TruthTableBackend):
        return {
            "n": f.n,
            "kind": "truth_table",
            "table": bits_to_hex(b.table_bits(), 1 << f.n),
        }
    if isinstance(b, JuntaBackend):
        return {
            "n": f.n,
            "kind": "junta",
            "junta_vars": list(b.vars),
            "table": bits_to_hex(b.table, 1 << len(b.vars)),
        }
    raise ContractError(f"cannot serialize backend kind {b.kind!r}")


def oracle_from_json(doc: dict) -> FunctionOracle:
    n = int(doc["n"])
    check_width(n)
    kind = doc["kind"]
    if kind == "truth_table":
        return FunctionOracle.from_truth_table(n, hex_to_bits(doc["table"], 1 << n))
    if kind == "junta":
        vs = tuple(int(v) for v in doc["junta_vars"])
        return FunctionOracle.from_junta(n, vs, hex_to_bits(doc["table"], 1 << len(vs)))
    raise ContractError(f"unknown instance kind {kind!r}")
