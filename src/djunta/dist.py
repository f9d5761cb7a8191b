"""Finite input distributions with exact point masses and seeded sampling.

Distance between functions is always measured against one of these, so they
stay deliberately small: either the uniform distribution over the whole cube
or an explicit weighted support.  Sampling uses cumulative-weight inversion
on a seeded generator; a run is reproducible from its seed alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .boolfn import BitString, bits_to_hex, check_width, hex_to_bits, rand_bits
from .errors import ContractError, DimensionError, EmptyDomainError

_WEIGHT_TOL = 1e-9


class FiniteDistribution:
    """Immutable distribution over {0,1}^n.

    Two kinds: `uniform_cube` (every point mass 2**-n) and `support` (an
    explicit point list, uniform over it unless weights are given).  Point
    masses are exact Fractions whenever the distribution is uniform over its
    support; explicitly weighted supports report the stored float weight.
    """

    KIND_CUBE = "uniform_cube"
    KIND_SUPPORT = "support"

    __slots__ = ("n", "kind", "points", "weights", "_index", "_cum")

    def __init__(self, n, kind, points=None, weights=None, _index=None, _cum=None):
        self.n = n
        self.kind = kind
        self.points = points
        self.weights = weights
        self._index = _index
        self._cum = _cum

    def __eq__(self, other):
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return (
            self.n == other.n
            and self.kind == other.kind
            and self.points == other.points
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.n, self.kind, self.points, self.weights))

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
        points: Sequence[BitString | int],
        weights: Sequence[float] | None = None,
    ) -> "FiniteDistribution":
        if n < 1:
            raise EmptyDomainError("need n >= 1")
        check_width(n)
        pts = []
        for p in points:
            if isinstance(p, BitString):
                if p.n != n:
                    raise DimensionError(f"point has {p.n} coordinates, expected {n}")
                pts.append(p.bits)
            else:
                p = int(p)
                if not 0 <= p < (1 << n):
                    raise DimensionError(f"point does not fit in {n} bits")
                pts.append(p)
        if not pts:
            raise EmptyDomainError("support must be nonempty")
        index = {}
        for i, p in enumerate(pts):
            if p in index:
                raise ContractError("support points must be distinct")
            index[p] = i
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
        return cls(n, cls.KIND_SUPPORT, tuple(pts), ws, index, cum)

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
        xb = x.bits if isinstance(x, BitString) else int(x)
        if isinstance(x, BitString) and x.n != self.n:
            raise DimensionError(f"point has {x.n} coordinates, expected {self.n}")
        if self.kind == self.KIND_CUBE:
            return Fraction(1, 1 << self.n)
        i = self._index.get(xb)
        if i is None:
            return Fraction(0) if self.weights is None else 0.0
        if self.weights is None:
            return Fraction(1, len(self.points))
        return self.weights[i]

    # -- sampling

    def sample_bits(self, rng) -> int:
        if self.kind == self.KIND_CUBE:
            return rand_bits(rng, self.n)
        if self.weights is None:
            return self.points[int(rng.integers(0, len(self.points)))]
        i = int(np.searchsorted(self._cum, rng.random(), side="right"))
        if i >= len(self.points):
            i = len(self.points) - 1
        return self.points[i]

    def sample(self, rng) -> BitString:
        return BitString(self.n, self.sample_bits(rng))

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
        n = int(doc["n"])
        if doc["kind"] == cls.KIND_CUBE:
            return cls.uniform_cube(n)
        if doc["kind"] == cls.KIND_SUPPORT:
            pts = [hex_to_bits(s, n) for s in doc["points"]]
            return cls.support(n, pts, doc.get("weights"))
        raise ContractError(f"unknown distribution kind {doc['kind']!r}")
