"""Self-test of the benchmark: every workload at minimum size, plus planted faults.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run as bench

bench.use_checkout_sources()

from djunta import tester  # noqa: E402  (needs the checkout's src/ on sys.path)
from djunta.boolfn import BitString, DistinguishingPair, Verdict  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_workload_names_agree():
    from workloads import WORKLOADS as classes

    assert WORKLOADS == list(bench.WORKLOAD_NAMES) == list(classes)


def _names_units(entries) -> list[tuple[str, str]]:
    return [(e["name"], e["unit"]) for e in entries]


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_metrics_match_benchmark_json(name):
    doc, lines = bench.measure(bench.make_workload(name, quick=True), seed=3, seconds=0)
    json.dumps(doc)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 2
    got = [(k, v["unit"]) for k, v in doc["metrics"].items()]
    assert got == _names_units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    report = "\n".join(lines)
    for metric in ("reject_rate", "error_rate", "ceiling_use", "crossover", "digest", "stamp"):
        assert metric in report


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_metrics_match_benchmark_json(name):
    original = tester.main_djunta
    doc, lines = bench.measure_traced(bench.make_workload(name, quick=True), seed=3)
    assert tester.main_djunta is original, "tracer left a wrapper installed"
    assert doc["correct"], "\n".join(lines)
    got = [(k, v["unit"]) for k, v in doc["metrics"].items()]
    assert got == _names_units(SPEC["per_layer"])
    assert not any(line.startswith("not traced") for line in lines)
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    if name == "accept-junta":
        assert m["lbgen.hard_label.value.calls"] == 0
        assert m["boolfn.RestrictionBackend.value.calls"] == 0
    if name == "reject-hard":
        assert m["lbgen.hard_label.value.us_per_call_n1200"] > 0
    if name == "certify-cli":
        assert m["cli.main.calls"] > 0 and m["oracle_bf.exact_distance_to_kjuntas.calls"] > 0


def _bogus_rejection(f, D, cfg, rng):
    # k+1 copies of one block: not disjoint, so verify_witness refuses it.
    pair = DistinguishingPair(BitString(f.n, 0), BitString(f.n, 1), frozenset({1}))
    return Verdict("reject", (pair,) * (cfg.k + 1))


def _raises(f, D, cfg, rng):
    raise RuntimeError("planted tester fault")


def test_planted_faults_count_in_error_rate():
    wl = bench.make_workload("accept-junta", quick=True)
    setup = wl.setup

    def faulty_setup(seed):
        pool = setup(seed)
        for cell in pool:
            if cell.tester == "simple":
                cell.run = _bogus_rejection
            elif cell.tester == "uniform":
                cell.run = _raises
        return pool

    wl.setup = faulty_setup
    doc, lines = bench.measure(wl, seed=3, seconds=0)
    assert doc["attempted"] == wl.counted_ops == 6
    assert doc["failed"] == 4 and not doc["correct"]
    report = "\n".join(lines)
    assert "WitnessError" in report and "planted tester fault" in report
    error_rate = next(line for line in lines if line.startswith("error_rate"))
    assert float(error_rate.split()[1]) == pytest.approx(4 / 6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
