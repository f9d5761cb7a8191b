"""Golden grid: seeded (instance, tester, seed) -> (outcome, queries, samples).

The committed grid pins the testers' exact behaviour on fixed seeds, so a
refactor or speed-up that claims to change nothing can prove it: every
cell must come out bit for bit as recorded.  A change that moves a cell
on purpose regenerates the grid and says why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from djunta import (
    BitString,
    DFTesterConfig,
    FiniteDistribution,
    FunctionOracle,
    UniformTesterConfig,
    full_truth_table,
    gen_no,
    main_djunta,
    rand_bits,
    simple_djunta,
    uniform_junta,
)

GOLDEN = Path(__file__).with_name("golden_verdicts.json")
SEEDS = (0, 1, 2, 3)


def _random_junta(n: int, k: int, seed: int) -> FunctionOracle:
    rng = np.random.default_rng(seed)
    vars = sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False))
    return FunctionOracle.from_junta(n, vars, rand_bits(rng, 1 << k))


def _xor_and(n: int) -> FunctionOracle:
    """x1 xor (x2 and ... and x8): x1 is found at once, the rest late."""
    table = sum(((z & 1) ^ (z >> 1 == 127)) << z for z in range(256))
    return FunctionOracle.from_junta(n, range(1, 9), table)


def _random_support(n: int, size: int, seed: int) -> FiniteDistribution:
    rng = np.random.default_rng(seed)
    return FiniteDistribution.support(n, sorted({rand_bits(rng, n) for _ in range(size)}))


def _restricted(f: FunctionOracle, seed: int) -> FunctionOracle:
    """f with a random half of its coordinates pinned to random values."""
    rng = np.random.default_rng(seed)
    fixed = sorted(int(c) + 1 for c in rng.choice(f.n, size=f.n // 2, replace=False))
    return f.restrict(fixed, BitString(len(fixed), rand_bits(rng, len(fixed))))


def _cases():
    """(name, fresh oracle factory, distribution or None, tester, cfg)."""
    hard = gen_no(300, 3, np.random.default_rng(300))
    j64 = _random_junta(64, 3, 64)
    j40 = _random_junta(40, 3, 40)
    tt = FunctionOracle.from_truth_table(10, rand_bits(np.random.default_rng(10), 1 << 10))
    tt_junta = FunctionOracle.from_truth_table(10, full_truth_table(_random_junta(10, 3, 11)))
    cube64 = FiniteDistribution.uniform_cube(64)
    supp64 = _random_support(64, 100, 65)
    u3 = UniformTesterConfig(k=3, epsilon=1 / 3)
    inner = DFTesterConfig(k=3, epsilon=1 / 3).inner_uniform_cfg()
    df3 = DFTesterConfig(k=3, epsilon=1 / 3)
    return [
        ("uniform/junta40_k3", j40.fork, None, "uniform", u3),
        ("uniform/junta40_k2", j40.fork, None, "uniform", UniformTesterConfig(k=2, epsilon=0.5)),
        ("uniform/truth_table10_k2", tt.fork, None, "uniform", UniformTesterConfig(k=2, epsilon=0.5)),
        ("uniform/truth_table10_junta_k3", tt_junta.fork, None, "uniform", u3),
        ("uniform/junta300_k3", _random_junta(300, 3, 300).fork, None, "uniform", u3),
        ("uniform/xor_and64_k1", _xor_and(64).fork, None, "uniform", UniformTesterConfig(k=1, epsilon=1 / 8)),
        ("uniform/xor_and8_k10", _xor_and(8).fork, None, "uniform", UniformTesterConfig(k=10, epsilon=1.0)),
        ("uniform/gen_no300_k3", hard.oracle, None, "uniform", u3),
        ("uniform/gen_no300_restricted_k1", lambda: _restricted(hard.oracle(), 7), None, "uniform", inner),
        ("uniform/junta64_restricted_k1", lambda: _restricted(j64.fork(), 8), None, "uniform", inner),
        ("main/junta64_cube", j64.fork, cube64, "main", df3),
        ("main/junta64_support", j64.fork, supp64, "main", df3),
        ("main/gen_no300", hard.oracle, hard.D, "main", df3),
        ("simple/junta64_cube", j64.fork, cube64, "simple", df3),
        ("simple/junta64_support", j64.fork, supp64, "simple", df3),
        ("simple/gen_no300", hard.oracle, hard.D, "simple", df3),
    ]


def _run(make, D, tester, cfg, seed):
    rng = np.random.default_rng(seed)
    f = make()
    if tester == "uniform":
        v = uniform_junta(f, cfg, rng)
    else:
        v = (main_djunta if tester == "main" else simple_djunta)(f, D, cfg, rng)
    return [v.outcome, v.queries, v.samples]


def compute_grid() -> dict[str, list]:
    grid = {}
    for name, make, D, tester, cfg in _cases():
        for seed in SEEDS:
            grid[f"{name}/seed{seed}"] = _run(make, D, tester, cfg, seed)
    # The README's library quick start.
    quick = FunctionOracle.from_junta(64, (3, 17, 40), 0b10010110)
    grid["readme/quick_start"] = _run(
        lambda: quick, FiniteDistribution.uniform_cube(64), "main",
        DFTesterConfig(k=3, epsilon=0.25), 0,
    )
    return grid


def test_golden_grid():
    want = json.loads(GOLDEN.read_text())
    got = compute_grid()
    moved = [
        f"{cell}: recorded {want.get(cell)}, now {got.get(cell)}"
        for cell in sorted(set(want) | set(got))
        if want.get(cell) != got.get(cell)
    ]
    assert not moved, "golden cells moved:\n" + "\n".join(moved)


def test_readme_quick_start_counts():
    assert json.loads(GOLDEN.read_text())["readme/quick_start"] == ["accept", 43996, 768]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute_grid(), indent=1, sort_keys=True) + "\n")
