import json

import pytest

from djunta.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_junta_then_accept(tmp_path):
    f = tmp_path / "f.json"
    assert run("gen-junta", "--n", 32, "--k", 3, "--seed", 7, "--out", f) == 0
    doc = json.loads(f.read_text())
    assert doc["kind"] == "junta"
    assert len(doc["junta_vars"]) == 3
    v = tmp_path / "v.json"
    code = run(
        "test", "--tester", "main", "--epsilon", 0.33, "--k", 3,
        "--in", f, "--dist", "uniform", "--seed", 1, "--out", v,
    )
    assert code == 0
    assert json.loads(v.read_text())["outcome"] == "accept"


def test_gen_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("gen-yes", "--n", 14, "--k", 2, "--seed", 5, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_instance_reject_and_verify(tmp_path):
    g = tmp_path / "g.json"
    assert run("gen-no", "--n", 14, "--k", 2, "--seed", 1, "--out", g) == 0
    v = tmp_path / "v.json"
    code = run(
        "test", "--tester", "main", "--epsilon", 0.333, "--in", g, "--seed", 0, "--out", v
    )
    assert code == 3
    doc = json.loads(v.read_text())
    assert doc["outcome"] == "reject"
    assert len(doc["witness"]) >= 3
    assert run("verify", "--in", g, "--witness", v) == 0


def test_verify_rejects_tampered_witness(tmp_path, capsys):
    g = tmp_path / "g.json"
    run("gen-no", "--n", 14, "--k", 2, "--seed", 1, "--out", g)
    v = tmp_path / "v.json"
    run("test", "--tester", "main", "--epsilon", 0.333, "--in", g, "--seed", 0, "--out", v)
    doc = json.loads(v.read_text())
    doc["witness"][0]["block"] = doc["witness"][1]["block"]  # break disjointness
    v.write_text(json.dumps(doc))
    assert run("verify", "--in", g, "--witness", v) == 1
    assert "error: witness:" in capsys.readouterr().err


def test_dist_on_instance(tmp_path):
    g = tmp_path / "g.json"
    run("gen-no", "--n", 14, "--k", 2, "--seed", 1, "--out", g)
    out = tmp_path / "d.json"
    assert run("dist", "--k", 2, "--in", g, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["distance"] == "157/381"
    assert doc["distance_float"] == pytest.approx(157 / 381)


def test_dist_on_truth_table(tmp_path):
    f = tmp_path / "p.json"
    # parity of two variables as an explicit table
    f.write_text(json.dumps({"kind": "truth_table", "n": 2, "table": "6"}))
    out = tmp_path / "d.json"
    assert run("dist", "--k", 1, "--in", f, "--out", out) == 0
    assert json.loads(out.read_text())["distance"] == "1/2"


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(
        "bench", "--k", 1, "--epsilon", 0.5, "--n", "8,16", "--trials", 4,
        "--tester", "simple", "--seed", 3, "--out", out,
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("tester,n,k,epsilon")
    assert len(lines) == 3
    assert lines[1].startswith("simple,8,1,0.5,4,")
    # reruns are byte-identical
    out2 = tmp_path / "bench2.csv"
    run(
        "bench", "--k", 1, "--epsilon", 0.5, "--n", "8,16", "--trials", 4,
        "--tester", "simple", "--seed", 3, "--out", out2,
    )
    assert out.read_bytes() == out2.read_bytes()


def test_bench_json_format(tmp_path):
    out = tmp_path / "bench.json"
    code = run(
        "bench", "--k", 1, "--epsilon", 0.5, "--n", "8", "--trials", 3,
        "--tester", "uniform", "--seed", 0, "--format", "json", "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "bench_report"
    assert len(doc["rows"]) == 1


def test_instance_round_trip_through_files(tmp_path):
    y = tmp_path / "y.json"
    run("gen-yes", "--n", 14, "--k", 2, "--seed", 9, "--out", y)
    code = run("test", "--tester", "simple", "--epsilon", 0.5, "--in", y, "--seed", 2)
    assert code == 0  # one-sided: a planted junta can never be rejected


class TestErrors:
    def test_missing_file(self, capsys):
        assert run("dist", "--k", 1, "--in", "/nonexistent/x.json") == 2
        assert "error: io:" in capsys.readouterr().err

    def test_bad_kind(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "mystery"}))
        assert run("dist", "--k", 1, "--in", p) == 2
        assert "error: parse:" in capsys.readouterr().err

    def test_not_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("not json at all")
        assert run("dist", "--k", 1, "--in", str(p)) == 2
        assert "error: parse:" in capsys.readouterr().err

    def test_missing_k_for_plain_function(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        run("gen-junta", "--n", 8, "--k", 2, "--seed", 0, "--out", f)
        assert run("test", "--tester", "simple", "--epsilon", 0.5, "--in", f) == 2
        assert "error: usage:" in capsys.readouterr().err

    def test_size_refusal(self, tmp_path, capsys):
        # 200 support strings cannot be distinct inside a 16-point cube
        assert run("gen-no", "--n", 4, "--k", 2, "--seed", 0) == 4
        assert "error: size:" in capsys.readouterr().err

    def test_support_size_cap(self, capsys):
        assert run("gen-no", "--n", 64, "--k", 20, "--seed", 0) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: size:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "junta", "n": None, "junta_vars": [1], "table": "2"},
            {"kind": "junta", "n": 4, "junta_vars": 3, "table": "2"},
            {"kind": "truth_table", "n": 2, "table": 5},
            {"kind": "junta", "n": 1e999, "junta_vars": [1], "table": "2"},
            {"kind": "no_instance", "n": [14], "k": 2, "seed": 0},
        ],
    )
    def test_mistyped_function_file(self, tmp_path, capsys, doc):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(doc))
        assert run("test", "--tester", "simple", "--epsilon", 0.5, "--k", 1, "--in", p) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and err.count("\n") == 1

    def test_mistyped_distribution_and_witness(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        run("gen-junta", "--n", 8, "--k", 2, "--seed", 0, "--out", f)
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"kind": "uniform_cube", "n": None}))
        assert run("dist", "--k", 1, "--in", f, "--dist", d) == 2
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"outcome": "reject", "queries": 1, "samples": 0, "witness": [7]}))
        assert run("verify", "--in", f, "--witness", w) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("error: parse:") for e in err)

    def test_usage_exit_from_argparse(self, capsys):
        assert run("test", "--tester", "simple") == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_bad_epsilon(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        run("gen-junta", "--n", 8, "--k", 2, "--seed", 0, "--out", f)
        code = run("test", "--tester", "simple", "--epsilon", 7, "--k", 2, "--in", f)
        assert code == 2
        assert "error: usage:" in capsys.readouterr().err
