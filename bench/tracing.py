"""Outside-in tracing of djunta's layers, for the benchmark's traced run.

Wrappers are installed from here at every name a caller resolves when it
makes the call: module globals that imported a function by name (patching
only `djunta.search` would miss `djunta.tester.block_binary_search`), and
class attributes for methods.  Nothing under src/ changes.

Coarse calls (testers, uniform_junta, _literal, the searches, the exact
verifiers, the generators, run_trials, cli.main) each record a span with
the id of the span that caused it.  Hot leaves (backend `value`s,
BitFeed.take, sample_bits, gather_bits, scatter_bits) and the frequent
`_where` probe keep only a count and a total time per enclosing span.
Every wrapper feeds one running child-time accumulator, so a layer's self
time is its duration minus the traced calls it made.

A site that no longer exists (say, after a refactor deletes a layer) is
skipped and listed in `missing`; that layer then reads 0 calls.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter

SPAN, LEAF = "span", "leaf"


def _reject(st, args, res, dt):
    st.hits += res.is_reject


def _split(st, args, res, dt):
    st.hits += not res.is_literal


def _fail(st, args, res, dt):
    st.hits += res.outcome == "fail"


def _main_ceiling(st, args, res, dt):
    st.peak = max(st.peak, (res.queries + res.samples) / args[2].main_query_ceiling())


def _simple_ceiling(st, args, res, dt):
    st.peak = max(st.peak, (res.queries + res.samples) / args[2].simple_query_ceiling(args[0].n))


def _wide(st, args, res, dt):
    if args[0].n == 1200:
        st.wide_calls += 1
        st.wide_time += dt


@dataclass(frozen=True)
class Layer:
    """One traced callable: metric prefix, kind, index of the oracle
    argument whose counter gives `queries` (None: no oracle), result hook,
    and the "module:attribute.path" sites to install at."""

    name: str
    kind: str
    oracle_at: int | None
    hook: object
    sites: tuple[str, ...]


LAYERS = (
    Layer("boolfn.BitFeed.take", LEAF, None, None, ("djunta.boolfn:BitFeed.take",)),
    Layer("boolfn.JuntaBackend.value", LEAF, None, None, ("djunta.boolfn:JuntaBackend.value",)),
    Layer("boolfn.RestrictionBackend.value", LEAF, None, None,
          ("djunta.boolfn:RestrictionBackend.value",)),
    Layer("boolfn.FunctionOracle.restrict", LEAF, 0, None,
          ("djunta.boolfn:FunctionOracle.restrict",)),
    Layer("boolfn.gather_bits", LEAF, None, None,
          ("djunta.boolfn:gather_bits", "djunta.tester:gather_bits",
           "djunta.lbgen:gather_bits", "djunta.oracle_bf:gather_bits")),
    Layer("boolfn.scatter_bits", LEAF, None, None,
          ("djunta.boolfn:scatter_bits", "djunta.tester:scatter_bits")),
    Layer("dist.FiniteDistribution.sample_bits", LEAF, None, None,
          ("djunta.dist:FiniteDistribution.sample_bits",)),
    Layer("search.binary_search", SPAN, 0, None,
          ("djunta.search:binary_search", "djunta.tester:binary_search")),
    Layer("search.block_binary_search", SPAN, 0, None,
          ("djunta.search:block_binary_search", "djunta.tester:block_binary_search",
           "djunta.uniform:block_binary_search")),
    Layer("uniform.uniform_junta", SPAN, 0, _reject,
          ("djunta.uniform:uniform_junta", "djunta.tester:uniform_junta",
           "djunta.harness:uniform_junta", "djunta.cli:uniform_junta")),
    Layer("tester.main_djunta", SPAN, 0, _main_ceiling,
          ("djunta.tester:main_djunta", "djunta.cli:main_djunta")),
    Layer("tester.simple_djunta", SPAN, 0, _simple_ceiling,
          ("djunta.tester:simple_djunta", "djunta.cli:simple_djunta")),
    Layer("tester.literal", SPAN, 0, _split, ("djunta.tester:_literal",)),
    Layer("tester.where", LEAF, 0, _fail, ("djunta.tester:_where",)),
    Layer("oracle_bf.exact_distance_to_kjuntas", SPAN, 0, None,
          ("djunta.oracle_bf:exact_distance_to_kjuntas", "djunta.cli:exact_distance_to_kjuntas")),
    Layer("oracle_bf.verify_witness", SPAN, 0, None,
          ("djunta.oracle_bf:verify_witness", "djunta.harness:verify_witness",
           "djunta.cli:verify_witness")),
    Layer("lbgen.gen_no", SPAN, None, None, ("djunta.lbgen:gen_no", "djunta.cli:gen_no")),
    Layer("lbgen.NoInstance.oracle", SPAN, None, None, ("djunta.lbgen:NoInstance.oracle",)),
    Layer("lbgen.hard_label.value", LEAF, None, _wide,
          ("djunta.lbgen:_HardLabelBackend.value",)),
    Layer("lbgen.instance_from_json", SPAN, None, None,
          ("djunta.lbgen:instance_from_json", "djunta.cli:instance_from_json")),
    Layer("harness.run_trials", SPAN, None, None, ("djunta.harness:run_trials",)),
    Layer("cli.main", SPAN, None, None, ("djunta.cli:main",)),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer.name}.calls", "count", "lower"),
            (f"{layer.name}.self_s", "s", "lower"),
            (f"{layer.name}.us_per_call", "us", "lower"),
        ]
        if layer.oracle_at is not None:
            out.append((f"{layer.name}.queries", "count", "lower"))
    out += [
        ("uniform.uniform_junta.reject_ratio", "ratio", "higher"),
        ("tester.literal.split_ratio", "ratio", "higher"),
        ("tester.where.fail_ratio", "ratio", "lower"),
        ("tester.main_djunta.ceiling_use", "ratio", "lower"),
        ("tester.simple_djunta.ceiling_use", "ratio", "lower"),
        ("lbgen.hard_label.value.us_per_call_n1200", "us", "lower"),
    ]
    return out


class Stat:
    """Running totals of one layer."""

    __slots__ = ("calls", "total", "self_s", "queries", "hits", "peak", "wide_calls", "wide_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.queries = 0
        self.hits = 0
        self.peak = 0.0
        self.wide_calls = 0
        self.wide_time = 0.0


class Span:
    """One coarse call.  `leaves` maps a leaf layer to [count, seconds]
    spent in it while this span was the innermost open one."""

    __slots__ = ("id", "parent", "name", "start", "end", "self_s", "leaves")

    def __init__(self, id: int, parent: int | None, name: str):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = self.end = self.self_s = 0.0
        self.leaves: dict[str, list] = {}


def _resolve(site: str):
    """'pkg.mod:Cls.attr' -> (owner object, attribute name, current value)."""
    modname, path = site.split(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the wrappers, collects spans and per-layer totals."""

    def __init__(self):
        self.stats = {layer.name: Stat() for layer in LAYERS}
        self.root = Span(0, None, "<root>")
        self.spans: list[Span] = [self.root]
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._acc = [0.0]  # traced time of the children of the innermost open call
        self._cur = [self.root]  # innermost open span

    def install(self) -> None:
        for layer in LAYERS:
            for site in layer.sites:
                try:
                    owner, attr, fn = _resolve(site)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, layer: Layer, fn):
        st = self.stats[layer.name]
        name = layer.name
        acc = self._acc
        cur = self._cur
        hook = layer.hook
        at = layer.oracle_at
        perf = perf_counter
        spans = self.spans
        is_span = layer.kind == SPAN

        def wrapper(*args, **kw):
            counter = args[at].counter if at is not None else None
            q0 = counter.queries if counter is not None else 0
            parent = cur[0]
            if is_span:
                rec = Span(len(spans), parent.id, name)
                spans.append(rec)
                cur[0] = rec
            saved = acc[0]
            acc[0] = 0.0
            t0 = perf()
            try:
                res = fn(*args, **kw)
            finally:
                t1 = perf()
                dt = t1 - t0
                own = dt - acc[0]
                st.calls += 1
                st.total += dt
                st.self_s += own
                acc[0] = saved + dt
                if counter is not None:
                    st.queries += counter.queries - q0
                if is_span:
                    rec.start, rec.end, rec.self_s = t0, t1, own
                    cur[0] = parent
                else:
                    tally = parent.leaves.get(name)
                    if tally is None:
                        parent.leaves[name] = [1, dt]
                    else:
                        tally[0] += 1
                        tally[1] += dt
            if hook is not None:
                hook(st, args, res, dt)
            return res

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values, keyed as in metric_specs()."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            st = self.stats[layer.name]
            out[f"{layer.name}.calls"] = st.calls
            out[f"{layer.name}.self_s"] = st.self_s
            out[f"{layer.name}.us_per_call"] = 1e6 * st.total / st.calls if st.calls else 0.0
            if layer.oracle_at is not None:
                out[f"{layer.name}.queries"] = st.queries
        s = self.stats

        def ratio(name):
            return s[name].hits / s[name].calls if s[name].calls else 0.0

        hard = s["lbgen.hard_label.value"]
        out["uniform.uniform_junta.reject_ratio"] = ratio("uniform.uniform_junta")
        out["tester.literal.split_ratio"] = ratio("tester.literal")
        out["tester.where.fail_ratio"] = ratio("tester.where")
        out["tester.main_djunta.ceiling_use"] = s["tester.main_djunta"].peak
        out["tester.simple_djunta.ceiling_use"] = s["tester.simple_djunta"].peak
        out["lbgen.hard_label.value.us_per_call_n1200"] = (
            1e6 * hard.wide_time / hard.wide_calls if hard.wide_calls else 0.0
        )
        return out

    def span_paths(self) -> dict[str, list]:
        """Spans aggregated by their chain of ancestors: path -> [spans,
        seconds, self seconds, {leaf layer: [calls, seconds]}], the leaf
        tallies being those made while a span of the path was innermost.
        Leaf calls made outside every span fall under the root's path."""
        path_of = {0: self.root.name}
        agg: dict[str, list] = {}
        for sp in self.spans:  # parents are appended before their children
            if sp.id:
                up = path_of[sp.parent]
                path_of[sp.id] = f"{up}/{sp.name}" if sp.parent else sp.name
            a = agg.setdefault(path_of[sp.id], [0, 0.0, 0.0, {}])
            a[0] += 1
            a[1] += sp.end - sp.start
            a[2] += sp.self_s
            for leaf, (calls, secs) in sp.leaves.items():
                tally = a[3].setdefault(leaf, [0, 0.0])
                tally[0] += calls
                tally[1] += secs
        return agg
