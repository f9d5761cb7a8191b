"""The benchmark's three workloads: accept-junta, reject-hard and certify-cli.

A workload turns a seed into a pool of inputs (its set-up) and a seeded,
endless stream of operations over that pool.  Operation j depends only on
the seed and on j, so the first `counted_ops` operations, whose verdicts
and query counts are reported exactly, are the same on every machine;
timing goes on over later operations until the measuring window closes.

The load generator is a closed loop with one client in one thread:
operation j+1 starts only after operation j has returned.

Every call into djunta goes through a module attribute (`tester.main_djunta`,
`lbgen.gen_no`, `cli.main`, ...), looked up when the call is made, so the
wrappers of a traced run see the same calls the program makes.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from djunta import cli, harness, lbgen, tester, uniform
from djunta.boolfn import FunctionOracle, rand_bits
from djunta.dist import FiniteDistribution
from djunta.tester import DFTesterConfig
from djunta.uniform import UniformTesterConfig

TESTERS = ("main", "simple", "uniform")


@dataclass
class OpResult:
    """What one operation did.  `seconds` is None when it failed;
    `test_seconds` is the part spent in the tester call whose queries and
    samples are charged (all of `seconds` on the tester workloads)."""

    tester: str
    seconds: float | None = None
    test_seconds: float | None = None
    outcome: str | None = None
    queries: int = 0
    samples: int = 0
    ceiling_use: float = 0.0
    error: str | None = None


@dataclass
class Cell:
    """One (instance, tester) pairing of a tester workload's pool.

    `source` is what `harness.run_trials` materializes: an (oracle,
    distribution) pair or a generated instance.  `run` has run_trials'
    tester signature (f, D, cfg, rng) -> Verdict.
    """

    source: object
    cfg: DFTesterConfig
    tester: str
    run: Callable
    ceiling: int


def _trial_seed(seed: int, j: int) -> int:
    return (seed << 32) | j


def _tester_cell(source, n: int, cfg: DFTesterConfig, name: str) -> Cell:
    if name == "main":
        return Cell(
            source, cfg, name,
            lambda f, D, c, rng: tester.main_djunta(f, D, c, rng),
            cfg.main_query_ceiling(),
        )
    if name == "simple":
        return Cell(
            source, cfg, name,
            lambda f, D, c, rng: tester.simple_djunta(f, D, c, rng),
            cfg.simple_query_ceiling(n),
        )
    # The harness's built-in "uniform" entry would hand uniform_junta a
    # DFTesterConfig; pass it its own config through a callable instead.
    ucfg = UniformTesterConfig(k=cfg.k, epsilon=cfg.epsilon)
    return Cell(
        source, cfg, name,
        lambda f, D, c, rng: uniform.uniform_junta(f, ucfg, rng),
        ucfg.query_ceiling(),
    )


def _random_support(rng, n: int, size: int) -> FiniteDistribution:
    seen: set[int] = set()
    pts: list[int] = []
    while len(pts) < size:
        b = rand_bits(rng, n)
        if b not in seen:
            seen.add(b)
            pts.append(b)
    return FiniteDistribution.support(n, pts)


class _TesterWorkload:
    """Shared op loop of the two tester workloads: one tester run inside
    `harness.run_trials` per operation, timed around the tester call."""

    name = ""
    expect_accept = False

    def __init__(self, instances: int, counted_ops: int):
        self.instances = instances
        self.counted_ops = counted_ops

    def close(self, pool) -> None:
        pass

    def run_op(self, pool: list[Cell], seed: int, j: int) -> OpResult:
        cell = pool[j % len(pool)]
        res = OpResult(cell.tester)
        took = []

        def timed(f, D, cfg, rng):
            t0 = perf_counter()
            v = cell.run(f, D, cfg, rng)
            took.append(perf_counter() - t0)
            return v

        try:
            # run_trials re-verifies every rejection (k+1 blocks, each pair
            # checked by verify_witness) and raises WitnessError otherwise;
            # the testers raise BudgetError past their own ceilings.
            rep = harness.run_trials(cell.source, timed, cell.cfg, 1, _trial_seed(seed, j))
        except Exception:  # a failed op is counted, never fatal to the run
            res.error = traceback.format_exc()
            return res
        res.outcome = "reject" if rep.rejections else "accept"
        res.queries = rep.query_stats["max"]
        res.samples = rep.sample_stats["max"]
        res.ceiling_use = (res.queries + res.samples) / cell.ceiling
        if self.expect_accept and rep.rejections:
            res.error = f"{cell.tester} rejected a true {cell.cfg.k}-junta"
            return res
        res.seconds = res.test_seconds = took[0]
        return res


class AcceptJunta(_TesterWorkload):
    """Planted k-juntas at n = 64, k cycling 1..6, eps = 1/2.

    Half the instances use the uniform cube and half a 100-point random
    support, for every k.  Each instance gets main_djunta, simple_djunta
    and uniform_junta.  An accept spends its whole round budget, so this
    is the tester loop's worst case: junta evaluation, BitFeed.take and
    uniform_junta dominate, and the hard-label and restriction backends
    are never called.
    """

    name = "accept-junta"
    expect_accept = True
    N = 64
    EPSILON = 0.5

    def __init__(self, quick: bool = False):
        super().__init__(instances=6 if quick else 60, counted_ops=6 if quick else 720)

    def setup(self, seed: int) -> list[Cell]:
        rng = np.random.default_rng(seed)
        pool = []
        for i in range(self.instances):
            k = 1 + i % 6
            vars = sorted(int(v) + 1 for v in rng.choice(self.N, size=k, replace=False))
            f = FunctionOracle.from_junta(self.N, vars, rand_bits(rng, 1 << k))
            if (i // 6) % 2:
                D = _random_support(rng, self.N, 100)
            else:
                D = FiniteDistribution.uniform_cube(self.N)
            cfg = DFTesterConfig(k=k, epsilon=self.EPSILON)
            pool += [_tester_cell((f, D), self.N, cfg, name) for name in TESTERS]
        return pool


class RejectHard(_TesterWorkload):
    """Coin-labeled hard instances that are far from every k-junta.

    gen_no(300, 3) instances run under main_djunta and simple_djunta, and
    two gen_no(1200, 6) instances under simple_djunta only (main_djunta
    takes seconds per run there), all at eps = 1/3.  The hard-label ball
    scan and the restriction backend dominate.  Each group of seven ops is
    one simple run at n = 1200, then main once and simple twice on each of
    two n = 300 instances.

    The mix is set by main's run times, which are heavy-tailed: a run that
    promotes no block takes a few ms, one promotion costs about 12,400
    queries, and further promotions add more.  With main at 2/7 of the
    ops, op_ms_p90 is main's 65th percentile, which lies inside the
    one-promotion cluster on every seed tried; at 3/7 it would be the 77th,
    on the jump to two promotions, and flip from seed to seed.  op_ms_p50
    lies among the n = 300 simple runs.  At n = 1200 the oracle rebuild
    that run_trials does per trial costs more than the tester run, which
    moves ops_per_s but not the op times.
    """

    name = "reject-hard"
    EPSILON = 1 / 3

    def __init__(self, quick: bool = False):
        super().__init__(instances=2 if quick else 20, counted_ops=4 if quick else 420)

    def setup(self, seed: int) -> list[Cell]:
        rng = np.random.default_rng(seed)
        wide = [lbgen.gen_no(1200, 6, rng) for _ in range(2)]
        cfg3 = DFTesterConfig(k=3, epsilon=self.EPSILON)
        cfg6 = DFTesterConfig(k=6, epsilon=self.EPSILON)
        pool = []
        for i in range(self.instances):
            if i % 2 == 0:
                pool.append(_tester_cell(wide[i // 2 % 2], 1200, cfg6, "simple"))
            inst = lbgen.gen_no(300, 3, rng)
            pool += [_tester_cell(inst, 300, cfg3, name) for name in ("main", "simple", "simple")]
        return pool


@dataclass
class _CliState:
    tmp: Path
    hard: str
    dist: str
    verdict: str
    report: str


class CertifyCli:
    """The README's pipeline, in-process through djunta.cli.main(argv).

    One operation is gen-no (n = 14, k = 2), dist, test --tester main, and
    verify whenever the test rejects, with files in a scratch directory
    inside the checkout.  Here boolfn is reached through bulk uncounted
    peeks: exact_distance_to_kjuntas and gather_bits dominate, then parser
    construction, gen_no and JSON loading; the tester is a small share.
    Set-up runs one warm-up pipeline, so one-time costs of the first CLI
    call are charged to set-up rather than to the first timed op.
    """

    name = "certify-cli"
    N = 14
    K = 2
    EPSILON = "0.333"
    WARMUP = (1 << 32) - 1  # an op index the timed stream never reaches

    def __init__(self, scratch_root: Path, quick: bool = False):
        self.counted_ops = 2 if quick else 600
        self.scratch_root = scratch_root
        cfg = DFTesterConfig(k=self.K, epsilon=float(self.EPSILON))
        self.ceiling = cfg.main_query_ceiling()

    def setup(self, seed: int) -> _CliState:
        self.scratch_root.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="certify-", dir=self.scratch_root))
        state = _CliState(
            tmp, str(tmp / "hard.json"), str(tmp / "dist.json"),
            str(tmp / "verdict.json"), str(tmp / "verify.json"),
        )
        warm = self.run_op(state, seed, self.WARMUP)
        if warm.error is not None:
            self.close(state)
            raise RuntimeError(f"warm-up pipeline failed: {warm.error}")
        return state

    def close(self, state: _CliState) -> None:
        shutil.rmtree(state.tmp, ignore_errors=True)
        try:
            self.scratch_root.rmdir()
        except OSError:
            pass  # not empty: another set-up's directory is still live

    def run_op(self, state: _CliState, seed: int, j: int) -> OpResult:
        res = OpResult("main")
        s = str(_trial_seed(seed, j))
        steps = (
            ("gen-no", ["gen-no", "--n", str(self.N), "--k", str(self.K),
                        "--seed", s, "--out", state.hard], (0,)),
            ("dist", ["dist", "--in", state.hard, "--k", str(self.K),
                      "--out", state.dist], (0,)),
            ("test", ["test", "--tester", "main", "--epsilon", self.EPSILON,
                      "--k", str(self.K), "--seed", s, "--in", state.hard,
                      "--out", state.verdict], (0, 3)),
        )
        took = {}
        try:
            t0 = perf_counter()
            for step, argv, ok in steps:
                t1 = perf_counter()
                code = cli.main(argv)
                took[step] = perf_counter() - t1
                if code not in ok:
                    res.error = f"{step} exited {code}, expected one of {ok}"
                    return res
            rejected = code == 3
            if rejected:
                code = cli.main(["verify", "--in", state.hard, "--witness",
                                 state.verdict, "--out", state.report])
                if code != 0:
                    res.error = f"verify exited {code} after a rejection"
                    return res
            elapsed = perf_counter() - t0
            with open(state.verdict) as fh:
                verdict = json.load(fh)
            with open(state.dist) as fh:
                distance = json.load(fh)["distance_float"]
            if (verdict["outcome"] == "reject") != rejected:
                res.error = f"test exit code disagrees with verdict {verdict['outcome']!r}"
                return res
            if rejected:
                with open(state.report) as fh:
                    report = json.load(fh)
                if not report["ok"] or report["blocks"] < self.K + 1:
                    res.error = f"verify report {report} does not certify the rejection"
                    return res
        except Exception:  # a failed op is counted, never fatal to the run
            res.error = traceback.format_exc()
            return res
        if not 0 <= distance <= 0.5:
            res.error = f"distance {distance} outside [0, 1/2]"
            return res
        res.outcome = verdict["outcome"]
        res.queries = verdict["queries"]
        res.samples = verdict["samples"]
        res.ceiling_use = (res.queries + res.samples) / self.ceiling
        res.seconds = elapsed
        res.test_seconds = took["test"]
        return res


WORKLOADS = {w.name: w for w in (AcceptJunta, RejectHard, CertifyCli)}
