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

    Every random draw of the testers goes through one feed: D's samples,
    the uniform tester's partition, the side probes' points and every flip
    set.  D.sample_bits reads nothing else, so D.sample and the influence
    estimator read a feed too.  take(nb) returns the next nb bits as an
    int, consuming the stream in order, so a fixed seed fixes the whole
    run.  Nothing else reads the generator, so the 8 KiB chunk the feed
    pre-draws is a pure speed knob: any chunk size hands out the same
    stream.

    Batched loops read ahead with peek_bits() or peek_block(), which return
    already buffered bits without consuming them, and then skip() exactly
    the bits they used.  Neither touches the generator, so a peek/skip
    pair leaves the feed where the same bits taken by take() would.

    Invariant: the `_rembits` bits held in `_rem` are the top `_rembits`
    bits of `_arr[_i - 1]`, so the next unread bit of the stream is bit
    64*_i - _rembits of the chunk, and peek_bits reads from there.
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
            i = self._i
            if nbits - have <= 64:
                v |= self._words[i] << have
                self._i = i + 1
                have += 64
            else:
                # Many words at once: one int from the chunk's bytes.
                j = min(len(self._words), i + ((nbits - have + 63) >> 6))
                v |= int.from_bytes(self._arr[i:j].tobytes(), "little") << have
                self._i = j
                have += 64 * (j - i)
        self._rem = v >> nbits
        self._rembits = have - nbits
        return v & ((1 << nbits) - 1)

    def buffered(self) -> int:
        """Bits that take() can hand out before it next calls the generator."""
        return self._rembits + 64 * (len(self._words) - self._i)

    def peek_bits(self, width: int, rows: int) -> np.ndarray:
        """The next `rows` fields of `width` bits each, left unconsumed, one
        bit per uint8: entry [j, t] is stream bit j*width + t.

        Only buffered bits are read, so the shape is (rows', width) with
        rows' = min(rows, buffered() // width), which may be 0.
        """
        if width < 1:
            raise ContractError(f"need width >= 1, got {width}")
        rows = max(0, min(rows, self.buffered() // width))
        nbits = rows * width
        p = 64 * self._i - self._rembits
        bits = np.unpackbits(
            self._arr.view(np.uint8)[p >> 3 : (p + nbits + 7) >> 3], bitorder="little"
        )
        return bits[p & 7 : (p & 7) + nbits].reshape(rows, width)

    def peek_block(self, width: int, rows: int) -> np.ndarray:
        """peek_bits(width, rows) packed by pack_rows: row j holds field j
        as little-endian uint64 words, shape (rows', ceil(width/64)), the
        value take(width) would return for it."""
        return pack_rows(self.peek_bits(width, rows))

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


def scale_draws(u: np.ndarray, m: int) -> np.ndarray:
    """floor(u * m / 2**64), the index in range(m) that a 64-bit draw picks,
    for every u of a uint64 array and 1 <= m < 2**32.  Exact: with
    u = hi * 2**32 + lo it is (hi*m + (lo*m >> 32)) >> 32, no term past 2**64."""
    if not 1 <= m < 1 << 32:
        raise ContractError(f"need 1 <= m < 2**32, got {m}")
    m, s = np.uint64(m), np.uint64(32)
    return ((u >> s) * m + (((u & np.uint64(0xFFFFFFFF)) * m) >> s)) >> s


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
    """A hex field of an input file: one or more ASCII hex digits, either
    case, with no sign, prefix, space or underscore."""
    if type(text) is not str or not text or text.strip("0123456789abcdefABCDEF"):
        raise ContractError(f"hex field must be ASCII hex digits, got {text!r:.40}")
    v = int(text, 16)
    if v >> nbits:
        raise ContractError(f"hex value does not fit in {nbits} bits")
    return v


def json_int(value, what: str) -> int:
    """An integer field of an input file, as given: a JSON float, string or
    boolean is refused, not truncated or converted."""
    if type(value) is not int:
        raise ContractError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def json_list(value, what: str) -> list:
    """An array field of an input file, as given: a string or object is refused."""
    if type(value) is not list:
        raise ContractError(f"{what} must be an array, got {type(value).__name__}")
    return value


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


def rows_of(points: Sequence[int], n: int) -> np.ndarray:
    """Points of n bits as a word array, one row a point: ceil(n/64)
    little-endian uint64 words each."""
    nwords = (n + 63) >> 6
    raw = b"".join(p.to_bytes(8 * nwords, "little") for p in points)
    return np.frombuffer(raw, dtype="<u8").reshape(len(points), nwords)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 uint8 entries as a word array: entry [j, t] becomes bit
    t of row j, in ceil(width/64) little-endian uint64 words per row."""
    rows, width = bits.shape
    nwords = (width + 63) >> 6
    fields = np.zeros((rows, 64 * nwords), dtype=np.uint8)
    fields[:, :width] = bits
    # Packed flat: numpy packs one long run much faster than row by row.
    return np.packbits(fields, bitorder="little").view("<u8").reshape(rows, nwords)


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

    def __init__(self, n: int, table: int):
        if n < 1:
            raise DimensionError("need n >= 1")
        if n > TRUTH_TABLE_MAX_N:
            raise SizeError(f"truth table capped at n <= {TRUTH_TABLE_MAX_N}, got {n}")
        if not 0 <= table < (1 << (1 << n)):
            raise ContractError(f"table does not fit in {1 << n} bits")
        self.table = int(table).to_bytes(((1 << n) + 7) // 8, "little")
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
    __slots__ = ("n", "vars", "table", "_cols")

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
        self._cols = None

    def value(self, x: int) -> int:
        idx = 0
        for t, v in enumerate(self.vars):
            if x >> (v - 1) & 1:
                idx |= 1 << t
        return self.table >> idx & 1

    def values(self, X: np.ndarray) -> np.ndarray:
        # The variables' word indices and shifts, and the table as packed
        # bytes (unpacked when it has 2 bits), are built on the first call.
        if self._cols is None:
            c = np.asarray(self.vars, dtype=np.int64) - 1
            nbytes = ((1 << len(c)) + 7) // 8
            table = np.frombuffer(self.table.to_bytes(nbytes, "little"), dtype=np.uint8)
            if len(c) == 1:
                table = np.unpackbits(table, count=2, bitorder="little")
            self._cols = (c >> 6, (c & 63).astype(np.uint64), table)
        w, s, table = self._cols
        if len(w) == 1:
            return table[(X[:, w[0]] >> s[0]) & np.uint64(1)]
        bits = (X[:, w] >> s) & np.uint64(1)
        idx = (bits << np.arange(len(w), dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
        return table_lookup(table, idx)

    def view(self, free_coords: Sequence[int], wbits: int) -> "JuntaBackend":
        """Partial evaluation: with the coordinates outside `free_coords`
        pinned to `wbits`, a junta is a junta over its free variables, no
        dearer to evaluate."""
        pos_of = {c: t + 1 for t, c in enumerate(free_coords)}
        kept = [v for v in self.vars if v in pos_of]
        newtab = 0
        for a in range(1 << len(kept)):
            newtab |= self.value(wbits | scatter_bits(a, kept)) << a
        return JuntaBackend(len(free_coords), [pos_of[v] for v in kept], newtab)


class RestrictionBackend:
    """Parent function with the coordinates outside `free_coords` pinned.

    The restricted domain relabels the t-th smallest free coordinate as
    position t+1.  `wbits` is a parent-width int carrying the pinned values;
    its free-coordinate bits must be zero.
    """

    kind = "restriction"
    __slots__ = ("n", "parent", "shifts", "wbits")

    def __init__(self, parent, free_coords: Sequence[int], wbits: int):
        self.n = len(free_coords)
        self.parent = parent
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
        P |= rows_of((self.wbits,), self.parent.n)
        return self.parent.values(P)


def make_restriction_backend(parent, free_coords: Sequence[int], wbits: int):
    """Restriction of `parent` to `free_coords`, with pinned values `wbits`.

    A parent with a `view(free_coords, wbits)` method builds the view
    itself: a junta collapses to a junta again, and a `gen_no` function
    wider than one word keeps only the support points the view can reach.
    A parent without one, a truth table or a restriction, is wrapped in
    `RestrictionBackend`.  Called by `FunctionOracle.restrict` and by
    `main_djunta`'s block views, which hold `wbits` already.
    """
    view = getattr(parent, "view", None)
    if view is not None:
        return view(free_coords, wbits)
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
    def from_truth_table(cls, n: int, table: int) -> "FunctionOracle":
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
        shares this oracle's counter.  Its backend comes from
        `make_restriction_backend`: the parent's own view when it has
        one, else a generic `RestrictionBackend`.
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


def full_truth_table(f: FunctionOracle) -> int:
    """Materialize f as a table int (uncounted).  Guarded by TRUTH_TABLE_MAX_N."""
    if f.n > TRUTH_TABLE_MAX_N:
        raise SizeError(f"refusing to materialize 2**{f.n} entries (cap {TRUTH_TABLE_MAX_N})")
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


def verdict_to_json(v: Verdict) -> dict:
    return {
        "outcome": v.outcome,
        "queries": v.queries,
        "samples": v.samples,
        "witness": [
            {
                "block": sorted(p.block),
                "x": bits_to_hex(p.x.bits, p.x.n),
                "y": bits_to_hex(p.y.bits, p.y.n),
            }
            for p in v.witness
        ],
    }


def verdict_from_json(doc: dict, n: int) -> Verdict:
    outcome = doc["outcome"]
    if outcome not in ("accept", "reject"):
        raise ContractError(f"outcome must be 'accept' or 'reject', got {outcome!r}")
    entries = json_list(doc.get("witness", []), "witness")
    if any(type(e) is not dict for e in entries):
        raise ContractError("witness entry must be an object")
    witness = tuple(
        DistinguishingPair(
            BitString(n, hex_to_bits(e["x"], n)),
            BitString(n, hex_to_bits(e["y"], n)),
            frozenset(json_int(c, "block entry") for c in json_list(e["block"], "block")),
        )
        for e in entries
    )
    return Verdict(
        outcome, witness, json_int(doc["queries"], "queries"), json_int(doc["samples"], "samples")
    )


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
    n = json_int(doc["n"], "n")
    if n < 1:
        raise ContractError(f"n must be at least 1, got {n}")
    check_width(n)
    kind = doc["kind"]
    if kind == "truth_table":
        return FunctionOracle.from_truth_table(n, hex_to_bits(doc["table"], 1 << n))
    if kind == "junta":
        vs = tuple(
            json_int(v, "junta_vars entry") for v in json_list(doc["junta_vars"], "junta_vars")
        )
        return FunctionOracle.from_junta(n, vs, hex_to_bits(doc["table"], 1 << len(vs)))
    raise ContractError(f"unknown instance kind {kind!r}")
