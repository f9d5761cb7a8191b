import numpy as np
import pytest

from djunta import (
    DFTesterConfig,
    FiniteDistribution,
    FunctionOracle,
    TrialReport,
    UniformTesterConfig,
    Verdict,
    gen_no,
    gen_yes,
    parity_far_instance,
    query_scaling_profile,
    rand_bits,
    run_trials,
    wilson_interval,
)
from djunta.errors import ContractError, WitnessError
from djunta.harness import csv_header, report_csv_row


class TestWilson:
    def test_frozen_values(self):
        lo, hi = wilson_interval(75, 100)
        assert lo == pytest.approx(0.656955364519384, abs=1e-12)
        assert hi == pytest.approx(0.8245478863771232, abs=1e-12)

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert hi == pytest.approx(0.07134759913335872, abs=1e-12)

    def test_all_successes(self):
        lo, hi = wilson_interval(30, 30)
        assert hi == pytest.approx(1.0, abs=1e-9)
        assert lo > 0.85

    def test_contains_point_estimate(self):
        for s, t in ((1, 10), (5, 10), (9, 10), (50, 200)):
            lo, hi = wilson_interval(s, t)
            assert lo <= s / t <= hi

    def test_validation(self):
        with pytest.raises(ContractError):
            wilson_interval(1, 0)
        with pytest.raises(ContractError):
            wilson_interval(5, 3)


def _junta_source(n, k):
    def draw(rng):
        vars = sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False))
        f = FunctionOracle.from_junta(n, vars, rand_bits(rng, 1 << k))
        return f, FiniteDistribution.uniform_cube(n)

    return draw


class TestRunTrials:
    def test_junta_family_never_rejects(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        rep = run_trials(_junta_source(12, 2), "simple", cfg, 40, seed=5)
        assert rep.rejections == 0
        assert rep.rate == 0.0
        assert rep.wilson_ci[0] == 0.0
        assert rep.query_stats["max"] <= cfg.simple_query_ceiling(12)

    def test_far_family_rejects(self):
        cfg = DFTesterConfig(k=1, epsilon=1 / 3)
        rep = run_trials(parity_far_instance(10, 1), "main", cfg, 60, seed=2)
        assert rep.rate >= 2 / 3
        assert rep.wilson_ci[0] > 0.6

    def test_fixed_seed_reproducible(self):
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        a = run_trials(parity_far_instance(9, 2), "simple", cfg, 25, seed=3)
        b = run_trials(parity_far_instance(9, 2), "simple", cfg, 25, seed=3)
        assert a == b

    def test_generated_instance_as_source(self):
        inst = gen_yes(14, 2, np.random.default_rng(1))
        cfg = DFTesterConfig(k=2, epsilon=0.5)
        rep = run_trials(inst, "simple", cfg, 15, seed=8)
        assert rep.rejections == 0
        assert rep.sample_stats["max"] <= cfg.simple_rounds

    def test_uniform_tester_path(self):
        cfg = UniformTesterConfig(k=2, epsilon=0.5)
        rep = run_trials(_junta_source(10, 2), "uniform", cfg, 20, seed=4)
        assert rep.rejections == 0
        assert rep.sample_stats["max"] == 0

    def test_uniform_tester_with_shared_config(self):
        # The distribution-free config stands in for UniformTesterConfig(k, eps).
        f, D = parity_far_instance(12, 2)
        a = run_trials((f, D), "uniform", DFTesterConfig(k=2, epsilon=0.5), 5, seed=6)
        b = run_trials((f, D), "uniform", UniformTesterConfig(k=2, epsilon=0.5), 5, seed=6)
        assert a == b
        assert a.rejections > 0

    def test_stats_shape(self):
        cfg = DFTesterConfig(k=1, epsilon=0.5)
        rep = run_trials(_junta_source(8, 1), "simple", cfg, 10, seed=0)
        assert isinstance(rep, TrialReport)
        for stats in (rep.query_stats, rep.sample_stats):
            assert set(stats) == {"min", "max", "mean", "p95"}
            assert stats["min"] <= stats["mean"] <= stats["max"]
            assert stats["min"] <= stats["p95"] <= stats["max"]
        doc = rep.to_json()
        assert doc["trials"] == 10
        assert doc["wilson_ci"][0] <= doc["rate"] <= doc["wilson_ci"][1]

    def test_dishonest_rejection_raises(self):
        # a tester that rejects without enough blocks must be caught
        def bogus(f, D, cfg, rng):
            return Verdict("reject", (), 0, 0)

        cfg = DFTesterConfig(k=2, epsilon=0.5)
        with pytest.raises(WitnessError):
            run_trials(_junta_source(8, 2), bogus, cfg, 3, seed=1)

    def test_validation(self):
        cfg = DFTesterConfig(k=1, epsilon=0.5)
        with pytest.raises(ContractError):
            run_trials(_junta_source(8, 1), "simple", cfg, 0, seed=0)
        with pytest.raises(ContractError):
            run_trials(_junta_source(8, 1), "no_such", cfg, 5, seed=0)


class TestProfile:
    def test_shape_and_order(self):
        rows = query_scaling_profile(1, 0.5, (8, 16), trials=3, seed=6)
        assert [(r.n, r.tester) for r in rows] == [
            (8, "simple"),
            (8, "main"),
            (16, "simple"),
            (16, "main"),
        ]
        for r in rows:
            assert r.max_queries >= 1
            assert r.mean_queries <= r.max_queries

    def test_empty_n_list(self):
        with pytest.raises(ContractError):
            query_scaling_profile(1, 0.5, (), trials=3, seed=0)


def test_csv_round():
    assert csv_header() == (
        "tester,n,k,epsilon,trials,reject_rate,ci_lo,ci_hi,q_max,q_mean,s_max,s_mean"
    )
    cfg = DFTesterConfig(k=1, epsilon=0.5)
    rep = run_trials(_junta_source(8, 1), "simple", cfg, 5, seed=2)
    row = report_csv_row("simple", 8, 1, 0.5, rep)
    fields = row.split(",")
    assert len(fields) == 12
    assert fields[0] == "simple"
    assert fields[1:5] == ["8", "1", "0.5", "5"]
    assert fields[5] == "0.000000"
