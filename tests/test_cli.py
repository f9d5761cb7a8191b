import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from djunta import gen_no, instance_to_json
from djunta.boolfn import MAX_WIDTH
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
    # the whole file, byte for byte
    assert out.read_text() == (
        '{\n  "best_table": "6",\n  "best_vars": [\n    3,\n    12\n  ],\n'
        '  "distance": "157/381",\n  "distance_float": 0.4120734908136483,\n'
        '  "k": 2,\n  "kind": "distance_report"\n}\n'
    )


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

    def test_junta_arity_cap(self, capsys):
        # Arity 25 only: its table is 4 MiB, cheap even if a guard were missing.
        assert run("gen-junta", "--n", 30, "--k", 25, "--seed", 0) == 4
        assert run("bench", "--k", 24, "--epsilon", 0.5, "--n", 30, "--trials", 1) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("error: size:") for e in err)

    def test_bad_hidden_set(self, tmp_path, capsys):
        doc = instance_to_json(gen_no(14, 2, np.random.default_rng(1)))
        for J in ([1, 2, 3], [3, 3], [0, 5], [5, 15]):
            p = tmp_path / "f.json"
            p.write_text(json.dumps(dict(doc, J=J)))
            assert run("dist", "--k", 2, "--in", p) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: parse:") and err.count("\n") == 1

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


# ---------------------------------------------------------------------------
# loader fuzzing: arbitrary JSON as the function, distribution and witness

# What a loader may find where a field belongs: small and huge ints,
# non-finite floats, hex-like strings, and nestings of those.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.sampled_from([2**40, 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text("0123456789abcdef-x", max_size=5),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
_JUNTA8 = {"kind": "junta", "n": 8, "junta_vars": [2, 5], "table": "6"}  # x2 xor x5
_FUNCTIONS = (
    _JUNTA8,
    {"kind": "truth_table", "n": 3, "table": "96"},
    {"kind": "no_instance", "n": 10, "k": 1, "seed": 1},
    instance_to_json(gen_no(10, 1, np.random.default_rng(1))),
)
_DISTS = (
    {"kind": "uniform_cube", "n": 8},
    {"kind": "support", "n": 8, "points": ["00", "01"], "weights": [0.5, 0.5]},
)
_WITNESSES = (
    {
        "outcome": "reject", "queries": 0, "samples": 0,
        "witness": [{"block": [2], "x": "00", "y": "02"}, {"block": [5], "x": "00", "y": "10"}],
    },
)


def _near(valid):
    """A valid document, one with a field dropped or replaced by arbitrary
    JSON, or arbitrary JSON outright."""

    def edit(doc, i, drop, value):
        out = dict(doc)
        field = sorted(out)[i % len(out)]
        if drop:
            del out[field]
        else:
            out[field] = value
        return out

    edits = st.builds(edit, st.sampled_from(valid), st.integers(0, 9), st.booleans(), _JSON)
    return st.sampled_from(valid) | edits | _JSON


@given(fn=_near(_FUNCTIONS), dist=_near(_DISTS), wit=_near(_WITNESSES))
@settings(max_examples=150, deadline=None)
@example(fn=_JUNTA8, dist=dict(_DISTS[1], weights=[math.nan, 1]), wit={})
@example(fn={"kind": "junta", "n": 10**30, "junta_vars": [1], "table": "2"}, dist={}, wit={})
@example(fn={"kind": "no_instance", "n": 2**40, "k": 1, "seed": 0}, dist={}, wit={})
@example(fn={"kind": "truth_table", "n": 2**40, "table": "0"}, dist={}, wit={})
def test_loaders_fuzz(tmp_path_factory, fn, dist, wit):
    """Every command ends in a documented exit code with at most one error
    line, and a distance it reports is a number in [0, 1]."""
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, doc in (("f", fn), ("d", dist), ("w", wit)):
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    out = tmp / "out.json"
    commands = {
        "test": ["--tester", "simple", "--epsilon", 0.5, "--k", 1, "--in", paths["f"], "--dist", paths["d"]],
        "dist": ["--k", 1, "--in", paths["f"], "--dist", paths["d"]],
        "verify": ["--in", paths["f"], "--witness", paths["w"]],
    }
    for cmd, argv in commands.items():
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(cmd, *argv, "--out", out)
        allowed = {0, 2, 3, 4} | ({1} if cmd == "verify" else set())
        assert code in allowed, (cmd, code, err.getvalue())
        if code in (0, 3):
            assert err.getvalue() == ""
        else:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        if cmd == "dist" and code == 0:
            assert 0 <= json.loads(out.read_text())["distance_float"] <= 1


def test_width_cap_exits_4(tmp_path, capsys):
    # Nothing is built past the cap: the width is refused first.
    assert MAX_WIDTH >= 1200
    huge = str(10**30)
    for doc in (
        {"kind": "junta", "n": MAX_WIDTH + 1, "junta_vars": [1], "table": "2"},
        {"kind": "no_instance", "n": 10**30, "k": 1, "seed": 0},
    ):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(doc))
        assert run("test", "--tester", "simple", "--epsilon", 0.5, "--k", 1, "--in", p) == 4
    assert run("bench", "--k", 1, "--epsilon", 0.5, "--n", huge, "--trials", 1) == 4
    assert run("gen-no", "--n", huge, "--k", 1) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(e.startswith("error: size:") for e in err)
