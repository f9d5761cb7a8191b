"""djunta benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload accept-junta --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all     # every workload, one after another

With --trace 0 one workload is measured with tracing off: set-up is done
SETUP_REPEATS times (setup_s is the median), then operations run in a
closed loop with one client until the window closes and at least the
workload's counted prefix is done.  Every operation's outcome is checked,
and a failed one is counted in error_rate without stopping the run.

With --trace 1 the first quarter of the counted prefix (TRACE_SHARE) runs
once untraced and once under the outside-in tracer of tracing.py, after a
traced set-up; the report gives per-layer metrics, the tracing overhead,
and whether the two runs' verdict digests agree.  The quarter covers every
kind of op of each workload and keeps a traced run near the length of an
untraced one, although tracing makes the hot leaves several times slower.

For one workload, the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The lines before it
are the human-readable report, including the run stamp, the exact-count
digest and the informational ceiling rows.  With --workload all each
workload prints its report and JSON line in turn, in this one process, so
peak_rss_mb is then the process's peak so far.

Seeds: DEFAULT_SEED is the one to tune on.  A performance claim must also
hold on HELDOUT_SEED, which the claiming change must not have tuned on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

DEFAULT_SEED = 1
HELDOUT_SEED = 9001
SETUP_REPEATS = 7
TRACE_SHARE = 4
WORKLOAD_NAMES = ("accept-junta", "reject-hard", "certify-cli")

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("us_per_query", "us"),
    ("queries_per_op", "count"),
    ("samples_per_op", "count"),
    ("peak_rss_mb", "MiB"),
)
# Printed with the others but left out of BENCHMARK.json: both read 0 on
# some workload (reject_rate on accept-junta, error_rate on correct code),
# so their spread relative to the median is undefined.
REPORT_ONLY = (("reject_rate", "ratio"), ("error_rate", "ratio"))


def use_checkout_sources() -> None:
    """Import djunta from this checkout's src/, never from anywhere else."""
    if not (SRC / "djunta" / "__init__.py").is_file():
        sys.exit(f"error: no djunta sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import djunta

    if not Path(djunta.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: djunta imported from {djunta.__file__}, not from {SRC}")


def make_workload(name: str, quick: bool = False):
    from workloads import WORKLOADS, CertifyCli

    cls = WORKLOADS[name]
    return cls(SCRATCH, quick) if cls is CertifyCli else cls(quick)


def timed_setup(wl, seed: int):
    """Set up SETUP_REPEATS times; keep the last state and the median time."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            wl.close(state)
        t0 = perf_counter()
        state = wl.setup(seed)
        times.append(perf_counter() - t0)
    return state, statistics.median(times)


def run_ops(wl, state, seed: int, count: int, deadline: float = 0.0):
    """Run ops 0, 1, ... until `count` are done and the deadline has passed."""
    results = []
    t0 = perf_counter()
    while len(results) < count or perf_counter() < deadline:
        results.append(wl.run_op(state, seed, len(results)))
    return results, perf_counter() - t0


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.outcome},{r.queries},{r.samples};".encode())
    return h.hexdigest()


def end_to_end(results, counted: int, wall: float, setup_s: float) -> dict[str, float]:
    ok = [r for r in results if r.error is None]
    prefix = [r for r in results[:counted] if r.error is None]
    times = [r.seconds for r in ok] or [0.0]
    # Per-op cost per charged unit, then the median: a mean would be ruled
    # by the few main_djunta runs that promote blocks.  The time is that of
    # the tester call alone, which on certify-cli is the test step.
    per_query = [r.test_seconds / (r.queries + r.samples) for r in ok if r.queries + r.samples]
    return {
        "setup_s": setup_s,
        "op_ms_p50": 1e3 * np.percentile(times, 50),
        "op_ms_p90": 1e3 * np.percentile(times, 90),
        "ops_per_s": len(results) / wall,
        "us_per_query": 1e6 * np.median(per_query or [0.0]),
        "queries_per_op": sum(r.queries for r in prefix) / max(1, len(prefix)),
        "samples_per_op": sum(r.samples for r in prefix) / max(1, len(prefix)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reject_rate": sum(r.outcome == "reject" for r in prefix) / max(1, len(prefix)),
        "error_rate": (len(results) - len(ok)) / len(results),
    }


def ceiling_rows(results) -> dict[str, float]:
    peak: dict[str, float] = {}
    for r in results:
        if r.error is None:
            peak[r.tester] = max(peak.get(r.tester, 0.0), r.ceiling_use)
    return peak


def crossover_rows() -> list[str]:
    """ROADMAP's analytic crossover: main's n-free ceiling against simple's
    log-n one at k = 4, eps = 1/4.  Informational, never gated."""
    from djunta.tester import DFTesterConfig

    cfg = DFTesterConfig(k=4, epsilon=0.25)
    main = cfg.main_query_ceiling()
    base = 2 * cfg.simple_rounds
    t = (main - base) // (cfg.k + 1) + 1
    return [
        f"crossover  k=4 eps=1/4: main_query_ceiling = {main}, "
        f"simple_query_ceiling(1024) = {cfg.simple_query_ceiling(1024)}",
        f"crossover  simple's ceiling passes main's only once ceil(log2 n) >= {t}",
    ]


def stamp(wl, seed: int, attempted: int) -> str:
    return (
        f"stamp  python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, workload {wl.name}, seed {seed} "
        f"(default {DEFAULT_SEED}, held-out {HELDOUT_SEED}), ops {attempted} "
        f"(counted prefix {wl.counted_ops}), closed loop, 1 client, 1 thread"
    )


def report_failures(results, limit: int = 3) -> list[str]:
    bad = [(j, r) for j, r in enumerate(results) if r.error is not None]
    lines = [f"failure  op {j} ({r.tester}): {r.error.strip()}" for j, r in bad[:limit]]
    if len(bad) > limit:
        lines.append(f"failure  ... and {len(bad) - limit} more")
    return lines


def measure(wl, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Untraced run: end-to-end metrics and report lines."""
    state, setup_s = timed_setup(wl, seed)
    try:
        results, wall = run_ops(wl, state, seed, wl.counted_ops, perf_counter() + seconds)
    finally:
        wl.close(state)
    m = end_to_end(results, wl.counted_ops, wall, setup_s)
    units = dict(END_TO_END + REPORT_ONLY)
    ok = sum(r.error is None for r in results)
    lines = [stamp(wl, seed, len(results))]
    for name, unit in END_TO_END + REPORT_ONLY:
        note = ""
        if name == "setup_s":
            note = f"median of {SETUP_REPEATS} set-ups"
        elif name.startswith("op_ms_"):
            note = f"over {ok} ops"
        elif name in ("queries_per_op", "samples_per_op", "reject_rate"):
            note = f"exact, over the {wl.counted_ops}-op counted prefix"
        lines.append(f"{name:<16} {m[name]:>14.6g} {units[name]:<6} {note}")
    peaks = ceiling_rows(results)
    lines.append("ceiling_use  " + ", ".join(f"{t} {u:.4f}" for t, u in sorted(peaks.items())))
    lines += crossover_rows()
    lines.append(f"digest  sha256 {digest(results[: wl.counted_ops])} over the counted prefix")
    lines += report_failures(results)
    doc = {
        "correct": ok == len(results),
        "attempted": len(results),
        "failed": len(results) - ok,
        "metrics": {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END},
    }
    return doc, lines


def measure_traced(wl, seed: int) -> tuple[dict, list[str]]:
    """Traced run over the start of the counted prefix, checked against an
    untraced run of the same ops."""
    from tracing import LAYERS, Tracer, metric_specs

    count = -(-wl.counted_ops // TRACE_SHARE)
    state = wl.setup(seed)
    try:
        plain, wall_plain = run_ops(wl, state, seed, count)
    finally:
        wl.close(state)
    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(seed)
        try:
            traced, wall_traced = run_ops(wl, state, seed, count)
        finally:
            wl.close(state)
    finally:
        tracer.uninstall()

    d_plain, d_traced = digest(plain), digest(traced)
    values = tracer.metrics()
    specs = metric_specs()
    lines = [stamp(wl, seed, len(traced))]
    lines.append(
        f"tracing  untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s, "
        f"overhead {wall_traced - wall_plain:.3f} s over {len(traced)} ops"
    )
    lines.append(f"digest  untraced sha256 {d_plain} over the first {count} ops")
    lines.append(f"digest  traced   sha256 {d_traced} ({'match' if d_plain == d_traced else 'MISMATCH'})")
    for site in tracer.missing:
        lines.append(f"not traced  {site} (site not found)")
    # share: the layer's self time over the traced ops' wall time, the most
    # a faster layer could save on this single-threaded closed loop.
    lines.append(f"{'layer':<40} {'calls':>10} {'self_s':>10} {'share':>7} {'us/call':>10} {'queries':>10}")
    names = sorted((layer.name for layer in LAYERS), key=lambda n: -values[f"{n}.self_s"])
    for name in names:
        q = values.get(f"{name}.queries", "")
        lines.append(
            f"{name:<40} {values[f'{name}.calls']:>10} {values[f'{name}.self_s']:>10.4f} "
            f"{values[f'{name}.self_s'] / wall_traced:>7.1%} {values[f'{name}.us_per_call']:>10.3f} "
            f"{q:>10}"
        )
    lines.append(f"largest self_s  {names[0]}")
    for name, _, _ in specs[-6:]:
        lines.append(f"{name:<48} {values[name]:.6g}")
    paths = sorted(tracer.span_paths().items(), key=lambda kv: -kv[1][2])
    lines.append(f"span paths  {len(tracer.spans) - 1} spans; top by self time, "
                 "with the hot leaves called directly under each:")
    for path, (count, total, own, leaves) in paths[:12]:
        lines.append(f"  {own:9.4f} s self {total:9.4f} s total {count:>8} x {path}")
        for leaf, (calls, secs) in sorted(leaves.items(), key=lambda kv: -kv[1][1])[:3]:
            lines.append(f"  {'':>9}   leaf {secs:9.4f} s in {calls:>8} x {leaf}")
    lines += report_failures(plain + traced)
    failed = sum(r.error is not None for r in plain + traced)
    doc = {
        "correct": failed == 0 and d_plain == d_traced,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    return doc, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        p.error("--seed must be in 0 .. 2**31 - 1")
    use_checkout_sources()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        wl = make_workload(name)
        if args.trace:
            doc, lines = measure_traced(wl, args.seed)
        else:
            doc, lines = measure(wl, args.seed, args.seconds)
        for line in lines:
            print(line)
        print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
