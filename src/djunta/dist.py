"""Finite input distributions with exact point masses and seeded sampling.

Distance between functions is always measured against one of these, so they
stay deliberately small: either the uniform distribution over the whole cube
or an explicit weighted support.  Every sample reads one fixed-width field
of a BitFeed and maps it to a point, inverting the cumulative weights on a
weighted support; a run is reproducible from its seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .boolfn import (
    BitFeed, BitString, bits_to_hex, check_width, hex_to_bits, json_int, json_list, rows_of,
    scale_draws,
)
from .errors import ContractError, DimensionError, EmptyDomainError

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True, slots=True, repr=False)
class FiniteDistribution:
    """Immutable distribution over {0,1}^n.

    Two kinds: `uniform_cube` (every point mass 2**-n) and `support` (an
    explicit point list, uniform over it unless weights are given).  Point
    masses are exact Fractions whenever the distribution is uniform over its
    support; explicitly weighted supports report the stored float weight.
    """

    KIND_CUBE = "uniform_cube"
    KIND_SUPPORT = "support"

    n: int
    kind: str
    points: tuple[int, ...] | None = None
    weights: tuple[float, ...] | None = None
    _cum: np.ndarray | None = field(default=None, compare=False)
    #: The support points as rows_of words, built by the first sample_rows.
    _rows: list = field(default_factory=list, compare=False)

    def __repr__(self):
        if self.kind == self.KIND_CUBE:
            return f"FiniteDistribution.uniform_cube({self.n})"
        return f"FiniteDistribution.support(n={self.n}, m={len(self.points)})"

    @classmethod
    def uniform_cube(cls, n: int) -> "FiniteDistribution":
        if n < 1:
            raise EmptyDomainError("need n >= 1")
        check_width(n)
        return cls(n, cls.KIND_CUBE)

    @classmethod
    def support(
        cls,
        n: int,
        points: Sequence[int],
        weights: Sequence[float] | None = None,
    ) -> "FiniteDistribution":
        if n < 1:
            raise EmptyDomainError("need n >= 1")
        check_width(n)
        pts = tuple(map(int, points))
        if not pts:
            raise EmptyDomainError("support must be nonempty")
        if min(pts) < 0 or max(pts) >> n:
            raise DimensionError(f"point does not fit in {n} bits")
        if len(set(pts)) != len(pts):
            raise ContractError("support points must be distinct")
        ws = None
        cum = None
        if weights is not None:
            if len(weights) != len(pts):
                raise ContractError("one weight per support point required")
            ws = tuple(float(w) for w in weights)
            if not all(math.isfinite(w) and w >= 0 for w in ws):
                raise ContractError("weights must be finite and nonnegative")
            total = float(sum(ws))
            if abs(total - 1.0) > _WEIGHT_TOL:
                raise ContractError(f"weights must sum to 1, got {total!r}")
            cum = np.cumsum(np.asarray(ws, dtype=np.float64))
            # Round-off can leave the sum just below a draw: the last point
            # with mass takes everything above it, never a zero-weight one.
            cum[max(j for j, w in enumerate(ws) if w > 0) :] = np.inf
        return cls(n, cls.KIND_SUPPORT, pts, ws, cum)

    # -- queries

    @property
    def is_uniform_support(self) -> bool:
        """True when every support point carries identical exact mass."""
        return self.kind == self.KIND_CUBE or self.weights is None

    def support_size(self) -> int:
        if self.kind == self.KIND_CUBE:
            return 1 << self.n
        return len(self.points)

    def mass(self, x: BitString | int) -> Fraction | float:
        if isinstance(x, BitString):
            if x.n != self.n:
                raise DimensionError(f"point has {x.n} coordinates, expected {self.n}")
            xb = x.bits
        else:
            xb = int(x)
            if xb < 0 or xb >> self.n:
                raise DimensionError(f"point {xb} does not fit in {self.n} bits")
        if self.kind == self.KIND_CUBE:
            return Fraction(1, 1 << self.n)
        if xb not in self.points:
            return Fraction(0) if self.weights is None else 0.0
        if self.weights is None:
            return Fraction(1, len(self.points))
        return self.weights[self.points.index(xb)]

    # -- sampling

    @property
    def draw_bits(self) -> int:
        """Width of the BitFeed field one sample reads: n on the cube, 64 on
        a support."""
        return self.n if self.kind == self.KIND_CUBE else 64

    def sample_bits(self, feed: BitFeed) -> int:
        """One point drawn from D, read from one field of `draw_bits` bits.

        On the cube the field is the point itself; on a support it is a
        64-bit draw u.  A uniform support of m points takes point
        floor(u * m / 2**64), whose probability is within 2**-64 of 1/m, so
        the bias summed over the support stays below m / 2**64.  A weighted
        support inverts the cumulative weights at (u >> 11) / 2**53, a
        float in [0, 1).
        """
        u = feed.take(self.draw_bits)
        if self.kind == self.KIND_CUBE:
            return u
        if self.weights is None:
            return self.points[(u * len(self.points)) >> 64]
        return self.points[int(np.searchsorted(self._cum, (u >> 11) * 2.0**-53, side="right"))]

    def sample_rows(self, fields: np.ndarray) -> np.ndarray:
        """sample_bits on a batch of feed fields: row j of `fields` holds
        one `draw_bits`-wide field as words (as BitFeed.peek_block gives
        it), row j of the result the point it picks, as rows_of words."""
        if self.kind == self.KIND_CUBE:
            return fields
        u = fields[:, 0]
        if self.weights is None:
            idx = scale_draws(u, len(self.points))
        else:
            idx = np.searchsorted(self._cum, (u >> np.uint64(11)) * 2.0**-53, side="right")
        if not self._rows:
            self._rows.append(rows_of(self.points, self.n))
        return self._rows[0][idx]

    def sample(self, rng) -> BitString:
        """One point drawn from D.  A Generator is wrapped in a fresh BitFeed
        per call, so repeated calls on one Generator depend on the feed's
        chunk size: to draw many points, pass one BitFeed."""
        return BitString(self.n, self.sample_bits(BitFeed.of(rng)))

    # -- files

    def to_json(self) -> dict:
        doc = {"n": self.n, "kind": self.kind}
        if self.kind == self.KIND_SUPPORT:
            doc["points"] = [bits_to_hex(p, self.n) for p in self.points]
            if self.weights is not None:
                doc["weights"] = list(self.weights)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteDistribution":
        n = json_int(doc["n"], "n")
        if doc["kind"] == cls.KIND_CUBE:
            return cls.uniform_cube(n)
        if doc["kind"] == cls.KIND_SUPPORT:
            pts = [hex_to_bits(s, n) for s in json_list(doc["points"], "points")]
            ws = doc.get("weights")
            if ws is not None and {type(w) for w in json_list(ws, "weights")} - {int, float}:
                raise ContractError("weights must be JSON numbers")
            return cls.support(n, pts, ws)
        raise ContractError(f"unknown distribution kind {doc['kind']!r}")
