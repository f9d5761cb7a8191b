"""Trial runner: rejection-rate estimates and query-count profiles.

Each trial gets its own rng stream, derived from the master seed by a
counter split (SeedSequence([seed, i])), and its own query counter via
fork(), so reports are reproducible bit for bit regardless of execution
order.  Every rejection is re-verified against the oracle before it is
counted; a failed re-verification is an implementation bug and raises
immediately rather than skewing the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .boolfn import FunctionOracle, check_junta_arity
from .dist import FiniteDistribution
from .errors import ContractError, WitnessError
from .oracle_bf import verify_witness
from .tester import DFTesterConfig, main_djunta, simple_djunta
from .uniform import UniformTesterConfig, uniform_junta

# 95% two-sided normal quantile.
_WILSON_Z = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays sane at the extremes: (0, t) gives a zero lower bound and
    (t, t) an upper bound of one, which is what one-sidedness checks need.
    """
    if trials < 1:
        raise ContractError(f"need trials >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ContractError(f"successes {successes} outside 0..{trials}")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def _stats(values: list[int]) -> dict:
    vals = sorted(values)
    t = len(vals)
    p95 = vals[min(t - 1, max(0, math.ceil(0.95 * t) - 1))]
    return {
        "min": vals[0],
        "max": vals[-1],
        "mean": sum(vals) / t,
        "p95": p95,
    }


@dataclass(frozen=True)
class TrialReport:
    trials: int
    rejections: int
    rate: float
    wilson_ci: tuple[float, float]
    query_stats: dict
    sample_stats: dict

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "rejections": self.rejections,
            "rate": self.rate,
            "wilson_ci": list(self.wilson_ci),
            "query_stats": dict(self.query_stats),
            "sample_stats": dict(self.sample_stats),
        }


def _uniform(f: FunctionOracle, D, cfg, rng):
    # The uniform tester ignores D and tests the same k and epsilon.
    return uniform_junta(f, UniformTesterConfig(k=cfg.k, epsilon=cfg.epsilon), rng)


_TESTERS: dict[str, Callable] = {
    "simple": simple_djunta,
    "main": main_djunta,
    "uniform": _uniform,
}


def _materialize(source, rng) -> tuple[FunctionOracle, FiniteDistribution]:
    inst = source(rng) if callable(source) else source
    if isinstance(inst, tuple):
        f, D = inst
    else:
        f, D = inst.oracle(), inst.D
    return f, D


def run_trials(instance_source, tester, cfg, trials: int, seed: int) -> TrialReport:
    """Run `tester` on fresh instances `trials` times and aggregate.

    instance_source: either a fixed (oracle, distribution) pair, a fixed
    generated instance (anything with .oracle() and .D), or a callable
    taking an rng and returning one of those.  tester: "simple", "main",
    "uniform", or a callable (f, D, cfg, rng) -> Verdict.  cfg is a
    DFTesterConfig, or for "uniform" either that or a UniformTesterConfig;
    only its k and epsilon reach the uniform tester.
    """
    if trials < 1:
        raise ContractError(f"need trials >= 1, got {trials}")
    run = _TESTERS.get(tester, tester)
    if not callable(run):
        raise ContractError(f"unknown tester {tester!r}")
    rejections = 0
    qs: list[int] = []
    ss: list[int] = []
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        f, D = _materialize(instance_source, rng)
        f = f.fork()
        verdict = run(f, D, cfg, rng)
        q, s = f.counter.snapshot()
        qs.append(q)
        ss.append(s)
        if verdict.is_reject:
            rejections += 1
            if len(verdict.witness) < cfg.k + 1:
                raise WitnessError(
                    f"trial {i}: rejection carries {len(verdict.witness)} blocks, "
                    f"needs {cfg.k + 1}"
                )
            if not verify_witness(f, verdict.witness):
                raise WitnessError(f"trial {i}: rejection witness failed re-verification")
    rate = rejections / trials
    return TrialReport(trials, rejections, rate, wilson_interval(rejections, trials), _stats(qs), _stats(ss))


class ProfileRow(NamedTuple):
    n: int
    tester: str
    max_queries: int
    mean_queries: float


def parity_far_instance(n: int, k: int) -> tuple[FunctionOracle, FiniteDistribution]:
    """Benchmark family: parity of the first k+1 coordinates, uniform cube.

    Every k-junta must ignore one of those coordinates, so the distance is
    exactly 1/2 regardless of n.
    """
    check_junta_arity(k + 1)
    table = 0
    for z in range(1 << (k + 1)):
        table |= (z.bit_count() & 1) << z
    f = FunctionOracle.from_junta(n, range(1, k + 2), table)
    return f, FiniteDistribution.uniform_cube(n)


def query_scaling_profile(
    k: int, epsilon: float, n_list, trials: int, seed: int
) -> list[ProfileRow]:
    """Query counts of both distribution-free testers on a fixed far family.

    The family is the (k+1)-variable parity under the uniform cube, eps-far
    for any eps <= 1/2, so both testers reject often and their search
    machinery is exercised.  Rows come out in (n, tester) order.
    """
    if not n_list:
        raise ContractError("n_list must be nonempty")
    cfg = DFTesterConfig(k=k, epsilon=epsilon)
    rows = []
    for n in n_list:
        pair = parity_far_instance(n, k)
        for name in ("simple", "main"):
            report = run_trials(pair, name, cfg, trials, seed)
            rows.append(ProfileRow(n, name, report.query_stats["max"], report.query_stats["mean"]))
    return rows


# ---------------------------------------------------------------------------
# CSV emission, one row per (tester, n, k, epsilon) cell

CSV_COLUMNS = (
    "tester",
    "n",
    "k",
    "epsilon",
    "trials",
    "reject_rate",
    "ci_lo",
    "ci_hi",
    "q_max",
    "q_mean",
    "s_max",
    "s_mean",
)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def report_csv_row(tester: str, n: int, k: int, epsilon: float, report: TrialReport) -> str:
    lo, hi = report.wilson_ci
    return ",".join(
        (
            tester,
            str(n),
            str(k),
            f"{epsilon:g}",
            str(report.trials),
            f"{report.rate:.6f}",
            f"{lo:.6f}",
            f"{hi:.6f}",
            str(report.query_stats["max"]),
            f"{report.query_stats['mean']:.3f}",
            str(report.sample_stats["max"]),
            f"{report.sample_stats['mean']:.3f}",
        )
    )
