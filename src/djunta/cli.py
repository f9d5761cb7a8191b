"""Command-line front end.

Exit codes are a scripting contract: 0 success (and Accept), 3 Reject,
2 usage or unreadable input, 4 budget or size refusal, 1 witness trouble.
Errors go to stderr as a single "error: <code>: <message>" line.  All
output files are produced with sorted keys and fixed indentation so a rerun
with the same flags is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from .boolfn import (
    FunctionOracle,
    bits_to_hex,
    check_junta_arity,
    oracle_from_json,
    oracle_to_json,
    rand_bits,
    verdict_from_json,
    verdict_to_json,
)
from .dist import FiniteDistribution
from .errors import BudgetError, SizeError, WitnessError
from .harness import csv_header, parity_far_instance, report_csv_row, run_trials
from .lbgen import gen_no, gen_yes, instance_from_json, instance_to_json
from .oracle_bf import exact_distance_to_kjuntas, verify_witness
from .tester import DFTesterConfig, main_djunta, simple_djunta
from .uniform import UniformTesterConfig, uniform_junta


class _CliError(Exception):
    def __init__(self, code: str, message: str, status: int = 2):
        super().__init__(message)
        self.code = code
        self.status = status


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_doc(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise _CliError("io", str(e)) from e
    except json.JSONDecodeError as e:
        raise _CliError("parse", f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise _CliError("parse", f"{path}: expected a JSON object")
    return doc


@contextmanager
def _parsing(path: str):
    """Report a malformed document as one parse error; size refusals pass."""
    try:
        yield
    except SizeError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise _CliError("parse", f"{path}: {e}") from e


def _load_function(path: str):
    """Returns (oracle, embedded distribution or None, k hint or None)."""
    doc = _load_doc(path)
    kind = doc.get("kind")
    with _parsing(path):
        if kind in ("truth_table", "junta"):
            return oracle_from_json(doc), None, None
        if kind in ("yes_instance", "no_instance"):
            inst = instance_from_json(doc)
            return inst.oracle(), inst.D, inst.k
    raise _CliError("parse", f"{path}: unknown kind {kind!r}")


def _pick_dist(arg: str | None, embedded, n: int) -> FiniteDistribution:
    if arg is None:
        return embedded if embedded is not None else FiniteDistribution.uniform_cube(n)
    if arg == "uniform":
        return FiniteDistribution.uniform_cube(n)
    doc = _load_doc(arg)
    with _parsing(arg):
        D = FiniteDistribution.from_json(doc)
    if D.n != n:
        raise _CliError("usage", f"distribution over {D.n} coordinates, function over {n}")
    return D


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.command == "gen-yes":
        doc = instance_to_json(gen_yes(args.n, args.k, rng))
    elif args.command == "gen-no":
        doc = instance_to_json(gen_no(args.n, args.k, rng))
    else:
        check_junta_arity(args.k)
        vars = sorted(int(c) + 1 for c in rng.choice(args.n, size=args.k, replace=False))
        table = rand_bits(rng, 1 << args.k)
        doc = oracle_to_json(FunctionOracle.from_junta(args.n, vars, table))
    _emit(_dump(doc), args.out)
    return 0


def _cmd_test(args) -> int:
    f, embedded, k_hint = _load_function(getattr(args, "in"))
    k = args.k if args.k is not None else k_hint
    if k is None:
        raise _CliError("usage", "--k is required for plain function files")
    D = _pick_dist(args.dist, embedded, f.n)
    rng = np.random.default_rng(args.seed)
    if args.tester == "uniform":
        verdict = uniform_junta(f, UniformTesterConfig(k=k, epsilon=args.epsilon), rng)
    else:
        cfg = DFTesterConfig(k=k, epsilon=args.epsilon)
        run = simple_djunta if args.tester == "simple" else main_djunta
        verdict = run(f, D, cfg, rng)
    _emit(_dump(verdict_to_json(verdict, f.n)), args.out)
    return 3 if verdict.is_reject else 0


def _cmd_dist(args) -> int:
    f, embedded, _ = _load_function(getattr(args, "in"))
    D = _pick_dist(args.dist, embedded, f.n)
    rep = exact_distance_to_kjuntas(f, D, args.k)
    d = rep.distance
    vars = sorted(rep.best_junta_vars)
    doc = {
        "kind": "distance_report",
        "k": args.k,
        "distance": str(d),
        "distance_float": float(d),
        "best_vars": vars,
        "best_table": bits_to_hex(rep.best_table, 1 << len(vars)) if vars else "0",
    }
    _emit(_dump(doc), args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = DFTesterConfig(k=args.k, epsilon=args.epsilon)
    rows = []
    for n in args.n_list:
        pair = parity_far_instance(n, args.k)
        report = run_trials(pair, args.tester, cfg, args.trials, args.seed)
        rows.append((n, report))
    if args.format == "csv":
        lines = [csv_header()]
        lines += [report_csv_row(args.tester, n, args.k, args.epsilon, r) for n, r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "kind": "bench_report",
            "tester": args.tester,
            "k": args.k,
            "epsilon": args.epsilon,
            "rows": [{"n": n, "report": r.to_json()} for n, r in rows],
        }
        _emit(_dump(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    f, _, _ = _load_function(getattr(args, "in"))
    doc = _load_doc(args.witness)
    with _parsing(args.witness):
        verdict = verdict_from_json(doc, f.n)
    ok = verify_witness(f, verdict.witness)
    _emit(_dump({"kind": "verify_report", "ok": ok, "blocks": len(verdict.witness)}), args.out)
    if not ok:
        raise _CliError("witness", "witness failed re-verification", status=1)
    return 0


def _int_list(text: str) -> list[int]:
    try:
        vals = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty integer list")
    return vals


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="djunta", description="junta testing toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def gen(name, help_):
        g = sub.add_parser(name, help=help_)
        g.add_argument("--n", type=int, required=True)
        g.add_argument("--k", type=int, required=True)
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("--out", default=None)
        return g

    gen("gen-yes", "planted junta over a random support distribution")
    gen("gen-no", "coin-labeled hard instance over the same support family")
    gen("gen-junta", "random k-junta function file")

    t = sub.add_parser("test", help="run a tester on a function or instance file")
    t.add_argument("--tester", choices=("simple", "main", "uniform"), required=True)
    t.add_argument("--epsilon", type=float, required=True)
    t.add_argument("--in", required=True)
    t.add_argument("--k", type=int, default=None)
    t.add_argument("--dist", default=None, help='"uniform" or a distribution file')
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default=None)

    d = sub.add_parser("dist", help="exact distance to the nearest k-junta")
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--in", required=True)
    d.add_argument("--dist", default=None)
    d.add_argument("--out", default=None)

    b = sub.add_parser("bench", help="query/rate table on a far family")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--epsilon", type=float, required=True)
    b.add_argument("--n", dest="n_list", type=_int_list, required=True)
    b.add_argument("--trials", type=int, default=50)
    b.add_argument("--tester", choices=("simple", "main", "uniform"), default="main")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="re-check a rejection witness against its function")
    v.add_argument("--in", required=True)
    v.add_argument("--witness", required=True)
    v.add_argument("--out", default=None)
    return p


_COMMANDS = {
    "gen-yes": _cmd_gen,
    "gen-no": _cmd_gen,
    "gen-junta": _cmd_gen,
    "test": _cmd_test,
    "dist": _cmd_dist,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return e.status
    except (BudgetError, SizeError) as e:
        code = "size" if isinstance(e, SizeError) else "budget"
        print(f"error: {code}: {e}", file=sys.stderr)
        return 4
    except WitnessError as e:
        print(f"error: witness: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
