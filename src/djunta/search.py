"""Binary-search routines that turn one disagreeing pair into a certificate.

Both take a pair x, y with g(x) != g(y) and close in on where the
disagreement lives: `binary_search` isolates a single coordinate,
`block_binary_search` isolates one block out of a given partition.  Each
query halves the candidate set, so the costs are ceil(log2 |diff|) and
ceil(log2 r) queries.  Endpoint labels are the caller's responsibility:
the caller has already queried (or sampled) both ends, so re-reading them
here is free and never re-charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .boolfn import (
    BitString,
    Block,
    DistinguishingPair,
    FunctionOracle,
    ceil_log2,
    coords_of,
    mask_of,
)
from .errors import ContractError, DimensionError


@dataclass(frozen=True)
class SearchResult:
    pair: DistinguishingPair
    coord: int
    queries: int
    fx: int
    fy: int


@dataclass(frozen=True)
class BlockSearchResult:
    pair: DistinguishingPair
    index: int
    queries: int
    fx: int
    fy: int


def _endpoint_checks(g: FunctionOracle, x: BitString, y: BitString) -> None:
    if x.n != g.n or y.n != g.n:
        raise DimensionError(f"points must have {g.n} coordinates")
    if x.bits == y.bits:
        raise ContractError("endpoints must disagree, so they cannot be equal")


def _halve(g: FunctionOracle, xb: int, yb: int, masks: list[int], fx: int | None):
    """The halving loop both searches share, over disjoint int masks.

    Halves the window of candidate masks per step, flipping x on the lower
    half's part of diff(x, y); a probe that touches no difference would
    give z == x and is skipped without a query.  Returns (xb, yb, index,
    fx, fy, queries): the final pair differs only inside masks[index].
    """
    if fx is None:
        fx = g.peek_bits(xb)
    fy = fx ^ 1
    budget = ceil_log2(len(masks))
    queries = 0
    lo, hi = 0, len(masks)
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        probe = 0
        for m in masks[lo:mid]:
            probe |= m
        probe &= xb ^ yb
        if probe == 0:
            lo = mid
            continue
        zb = xb ^ probe
        fz = g.eval_bits(zb)
        queries += 1
        if fz != fx:
            # x and z disagree; the culprit is in the flipped half.
            yb, fy, hi = zb, fz, mid
        else:
            xb, lo = zb, mid
    assert queries <= budget
    return xb, yb, lo, fx, fy, queries


def binary_search(
    g: FunctionOracle,
    x: BitString,
    y: BitString,
    fx: int | None = None,
) -> SearchResult:
    """Shrink a disagreeing pair until it differs in exactly one coordinate.

    Contract: g(x) != g(y).  The result pair keeps the x side at the original
    g(x) value and differs from its partner only on `coord`, which is
    therefore a relevant coordinate of g.  Spends at most
    ceil(log2 |diff(x, y)|) queries.
    """
    _endpoint_checks(g, x, y)
    coords = coords_of(x.bits ^ y.bits)
    masks = [1 << (c - 1) for c in coords]
    xb, yb, j, fx, fy, queries = _halve(g, x.bits, y.bits, masks, fx)
    i = coords[j]
    pair = DistinguishingPair(BitString(g.n, xb), BitString(g.n, yb), frozenset((i,)))
    return SearchResult(pair, i, queries, fx, fy)


def block_binary_search(
    g: FunctionOracle,
    x: BitString,
    y: BitString,
    blocks: Sequence[Block],
    fx: int | None = None,
) -> BlockSearchResult:
    """Find one block of a disjoint family that contains a disagreement.

    Contract: g(x) != g(y), the blocks are pairwise disjoint, and diff(x, y)
    is covered by their union.  Halves the window of candidate blocks per
    step; when the probe half does not touch diff(x, y) the flipped point
    equals x and the query is skipped outright.  The result pair agrees
    outside the returned block (index is 0-based into `blocks`), so it
    certifies that block.  Spends at most ceil(log2 len(blocks)) queries.
    """
    _endpoint_checks(g, x, y)
    masks = []
    seen = 0
    for b in blocks:
        m = mask_of(b, g.n)
        if m == 0:
            raise ContractError("blocks must be nonempty")
        if m & seen:
            raise ContractError("blocks must be pairwise disjoint")
        seen |= m
        masks.append(m)
    if (x.bits ^ y.bits) & ~seen:
        raise ContractError("diff(x, y) must be covered by the blocks")
    xb, yb, j, fx, fy, queries = _halve(g, x.bits, y.bits, masks, fx)
    pair = DistinguishingPair(BitString(g.n, xb), BitString(g.n, yb), frozenset(blocks[j]))
    return BlockSearchResult(pair, j, queries, fx, fy)
