"""Exact ground truth for small instances, plus witness re-verification.

Everything here is reference machinery: it reads functions through uncounted
peeks, so using it never perturbs a query tally.  The exact distance routine
is the authority the statistical suites calibrate against, and
verify_witness is the final word on every rejection any tester emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .boolfn import (
    Block,
    DistinguishingPair,
    FunctionOracle,
    check_junta_arity,
    full_truth_table,
    gather_bits,  # unused here; bench/tracing.py wraps djunta.oracle_bf:gather_bits
    mask_of,
    rand_bits,
)
from .dist import FiniteDistribution
from .errors import BudgetError, ContractError, DimensionError

#: Elementary-step budget for the exhaustive distance search.
STEP_GUARD = 10**8


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of the exhaustive search: the distance and a witness junta.

    `best_table` has one bit per section of `best_junta_vars` (ascending
    order, lowest variable in the least significant index bit); sections
    carrying no probability mass default to label 0.
    """

    distance: Fraction | float
    best_junta_vars: Block
    best_table: int


def exact_distance_to_kjuntas(
    f: FunctionOracle, D: FiniteDistribution, k: int
) -> DistanceReport:
    """Minimum weighted disagreement between f and any k-junta, exactly.

    For a fixed variable set J the optimal junta is forced: each section
    (assignment to J) takes the D-majority label of f over the support,
    and the distance contribution is the minority mass.  So the search
    enumerates variable sets of size min(k, n) in lexicographic order,
    keeps the first minimizer, and stops early on a perfect fit.  Ties
    inside a section break toward label 0 (the value is unaffected).

    The labels are read once, through uncounted scalar evaluations, and
    the points once into a word array.  Each candidate J then costs one
    `np.bincount` over 2 * section + label, which gives every section's
    label-0 and label-1 tallies at once.  Uniform-support distributions
    (the whole cube included) are scored in exact rationals; explicitly
    weighted supports in floats, with the masses accumulated in point
    order and the section minima summed in order of each section's first
    point, which is the order of a per-point loop, so the float is the
    same to the last bit.  Raises BudgetError when candidate-sets times
    support size exceeds STEP_GUARD.
    """
    if k < 0:
        raise ContractError(f"need k >= 0, got {k}")
    n = f.n
    if D.n != n:
        raise DimensionError(f"distribution over {D.n} coordinates, oracle over {n}")
    kk = min(k, n)
    check_junta_arity(kk)

    cube = D.kind == D.KIND_CUBE
    pts = range(1 << n) if cube else D.points
    npts = len(pts)
    if comb(n, kk) * npts > STEP_GUARD:
        raise BudgetError(
            f"distance search needs ~{comb(n, kk) * npts:.2e} steps, guard {STEP_GUARD:.0e}"
        )

    value = f.backend.value
    labels = np.fromiter((value(p) for p in pts), dtype=np.uint8, count=npts)
    if cube:
        words = np.arange(npts, dtype=np.uint64)[None, :]
    else:
        nbytes = 8 * ((n + 63) >> 6)
        raw = b"".join(p.to_bytes(nbytes, "little") for p in pts)
        words = np.frombuffer(raw, dtype="<u8").reshape(npts, -1).T.copy()
    masses = None if D.is_uniform_support else np.asarray(D.weights, dtype=np.float64)

    tagged = np.empty(npts, dtype=np.int64)  # 2 * (bits on J) + label
    bit = np.empty(npts, dtype=np.uint64)
    best = None  # (distance, J, tallies, J-bits of each tally row or None)
    for J in combinations(range(1, n + 1), kk):
        np.copyto(tagged, labels)
        for t, c in enumerate(J):
            np.right_shift(words[(c - 1) >> 6], np.uint64((c - 1) & 63), out=bit)
            bit &= np.uint64(1)
            bit <<= np.uint64(t + 1)
            tagged |= bit.view(np.int64)
        bins, keys = tagged, None
        if 1 << kk > 2 * npts:  # most sections are empty: number the rest densely
            keys, ids = np.unique(tagged >> 1, return_inverse=True)
            bins = 2 * ids + labels
        nsec = 1 << kk if keys is None else len(keys)
        tally = np.bincount(bins, masses, minlength=2 * nsec).reshape(nsec, 2)
        low = tally.min(axis=1)
        if masses is None:
            d = Fraction(int(low.sum()), npts)
        else:
            present, first = np.unique(bins >> 1, return_index=True)
            d = sum(low[present[np.argsort(first)]].tolist())
        if best is None or d < best[0]:
            best = (d, J, tally, keys)
            if d == 0:
                break

    d, J, tally, keys = best
    win = np.flatnonzero(tally[:, 1] > tally[:, 0])
    if keys is not None:
        win = keys[win]
    packed = np.zeros(((1 << kk) + 7) >> 3, dtype=np.uint8)
    np.bitwise_or.at(packed, win >> 3, np.left_shift(1, win & 7).astype(np.uint8))
    return DistanceReport(d, frozenset(J), int.from_bytes(packed.tobytes(), "little"))


def _replicated_low_mask(n: int, i: int) -> int:
    # Positions of {0,1}^n whose i-th coordinate is 0, as an index mask.
    unit = (1 << (1 << (i - 1))) - 1
    width = 1 << i
    pattern = unit
    total = 1 << n
    while width < total:
        pattern |= pattern << width
        width <<= 1
    return pattern


def is_kjunta(f: FunctionOracle, k: int) -> bool:
    """True iff at most k coordinates can ever flip f's value.

    Materializes the truth table, so it is gated at n <= 20.
    """
    if f.n > 20:
        raise BudgetError(f"junta check enumerates 2**{f.n} points (cap n = 20)")
    table = full_truth_table(f, max_n=20)
    relevant = 0
    for i in range(1, f.n + 1):
        shifted = table >> (1 << (i - 1))
        if (shifted ^ table) & _replicated_low_mask(f.n, i):
            relevant += 1
            if relevant > k:
                return False
    return True


def verify_witness(f: FunctionOracle, witness) -> bool:
    """Re-check a rejection certificate against f, without spending queries.

    Valid means: blocks pairwise disjoint and nonempty, every pair differs
    only inside its block, and f really disagrees on the two endpoints.
    Malformed input (wrong length, out-of-range coordinates) counts as
    invalid rather than raising: verification is a total judgment.
    """
    seen = 0
    for p in witness:
        if not isinstance(p, DistinguishingPair):
            return False
        if p.x.n != f.n or p.y.n != f.n:
            return False
        try:
            bm = mask_of(p.block, f.n)
        except DimensionError:
            return False
        if bm == 0 or bm & seen:
            return False
        seen |= bm
        d = p.x.bits ^ p.y.bits
        if d == 0 or d & ~bm:
            return False
        if f.peek_bits(p.x.bits) == f.peek_bits(p.y.bits):
            return False
    return True


def influence_lemma_estimate(
    f: FunctionOracle, D: FiniteDistribution, I, trials: int, rng
) -> float:
    """Empirical probability that re-randomizing the coordinates outside I
    changes f, with the base point drawn from D.

    This is the quantity whose lower bound (half the distance to k-juntas,
    for any candidate relevant set I of size at most k) powers both
    testers' soundness; the estimator exists to let tests check that bound
    on instances whose exact distance is known.  Uses uncounted peeks.
    """
    if trials < 1:
        raise ContractError(f"need trials >= 1, got {trials}")
    n = f.n
    if D.n != n:
        raise DimensionError(f"distribution over {D.n} coordinates, oracle over {n}")
    imask = mask_of(I, n)
    omask = ((1 << n) - 1) ^ imask
    value = f.backend.value
    hits = 0
    for _ in range(trials):
        xb = D.sample_bits(rng)
        zb = (xb & imask) | (rand_bits(rng, n) & omask)
        if value(xb) != value(zb):
            hits += 1
    return hits / trials
