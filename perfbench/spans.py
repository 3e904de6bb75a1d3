"""In-process spans around calls into each localcut module.

`Tracer.install()` replaces the public functions of every layer with timing
wrappers.  Modules bind each other's functions with `from .x import f`, so a
wrapper is bound under every name, in every `localcut` module, that refers
to the original function object; methods are patched on their class.
Nothing in `src/` changes.

A span is `[name, start, end, parent, invocation]`: `parent` is the index
of the enclosing span (-1 at the top) and `invocation` the name of the
command line being run.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _localcut_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "localcut"
                                  or name.startswith("localcut."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sizes: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.invocation: str | None = None
        self.on = False
        self._undo: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def open(self, name: str) -> int:
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.invocation]
        self.stack.append(idx)
        self.spans.append(rec)
        rec[1] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(idx, args, result)
            return result

        return traced

    # --------------------------------------------------------- patching

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> None:
        """Bind `replacement` wherever a localcut module names `original`."""
        for module in _localcut_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def function(self, module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)
        self.rebind(original, self.wrap(name, original, on_result))

    def method(self, cls, attr: str, name: str, on_result=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr,
                      staticmethod(self.wrap(name, raw.__func__, on_result)))
        else:
            self._set(cls, attr, self.wrap(name, raw, on_result))

    def install(self) -> None:
        from localcut import (choice, cli, digraph, engine, families,
                              instances, lll, probability, samplers,
                              thresholds)

        tracer = self

        def count(key, value):
            def hook(idx, args, result):
                tracer.counts[key] += value(result)
            return hook

        def sized(key, size_of, also=None):
            def hook(idx, args, result):
                tracer.sizes[key].append((idx, size_of(args)))
                if also is not None:
                    also(idx, args, result)
            return hook

        parse = "cli.parse"
        self.function(cli, "_load_json", parse)
        self.function(cli, "_parse_weights", parse)
        self.function(cli, "_family_terms", parse)
        for module, attr in ((digraph, "digraph_from_json"),
                             (probability, "risk_table_from_json"),
                             (instances, "hypergraph_from_json"),
                             (instances, "graph_from_json"),
                             (instances, "lists_from_json"),
                             (choice, "choice_from_json"),
                             (choice, "marginals_from_json"),
                             (lll, "instance_from_json")):
            self.function(module, attr, parse)
        self.method(probability.RiskTable, "validate", parse)
        self.function(cli, "emit_report", "cli.emit")

        self.function(digraph, "reachable", "digraph.reachable")
        self.function(digraph, "min_product_weights", "digraph.min_product")
        self.function(digraph, "check_weights", "digraph.check_weights")

        for attr in ("validate_cut_model", "risk_table_exact",
                     "vertex_probabilities", "exact_prob", "cond_prob"):
            self.function(probability, attr, "probability.sweep")
        outcomes = probability.ProductSpace.outcomes

        def counted_outcomes(space, *args, **kwargs):
            gen = outcomes(space, *args, **kwargs)
            if not tracer.on:
                return gen
            tracer.counts["probability.sweeps"] += 1
            return self._counted(gen, "probability.outcomes")

        self._set(probability.ProductSpace, "outcomes",
                  functools.wraps(outcomes)(counted_outcomes))
        table_init = probability.RiskTable.__init__

        def counted_init(table, entries):
            table_init(table, entries)
            if tracer.on:
                tracer.counts["probability.risk_entries"] += len(entries)

        self._set(probability.RiskTable, "__init__", counted_init)

        self.function(engine, "apply_risk_operator", "engine.operator")
        self.function(engine, "check_weight_condition", "engine.check")
        self.function(
            engine, "least_weight_solution", "engine.solve",
            sized("engine.solve", lambda args: len(args[0].graph.edges),
                  count("engine.iterations", lambda r: r.iterations)))
        model = engine.CutModel

        def traced_model(digraph_, a_of, f_of):
            return model(digraph_, self.wrap("engine.model", a_of),
                         self.wrap("engine.model", f_of))

        self._set(engine, "CutModel", traced_model)

        self.function(families, "least_tau_solution", "families.solve",
                      count("families.iterations", lambda r: r.iterations))
        self.function(families, "validate_family_instance",
                      "families.validate")
        self.function(lll, "auto_mu", "lll.auto_mu",
                      count("lll.iterations", lambda r: r.iterations))
        self.function(thresholds, "scalar_feasible", "thresholds.scalar",
                      count("thresholds.evaluations", lambda r: r.iterations))
        self.function(thresholds, "greedy_peel", "thresholds.peel")
        self.function(choice, "randomized_choice_search", "choice.search",
                      count("choice.resamples", lambda r: r.resamples))

        self.function(samplers, "nonrep_sequence_build", "samplers.nonrep",
                      sized("samplers.nonrep", lambda args: len(args[0])))
        self.function(samplers, "greedy_acyclic_edge_coloring",
                      "samplers.acyclic",
                      sized("samplers.acyclic",
                            lambda args: len(args[0].edges)))
        self.function(samplers, "moser_tardos_two_coloring",
                      "samplers.twocol")
        for attr in ("is_nonrepetitive", "is_acyclic_edge_coloring",
                     "verify_proper_2coloring"):
            self.function(samplers, attr, "samplers.verify")
        self._set(cli, "ProcessPoolExecutor",
                  _traced_pool(self, cli.ProcessPoolExecutor))

        self.function(instances, "random_regular_uniform_hypergraph",
                      "instances.generate")
        self.function(instances, "random_graph_max_degree",
                      "instances.generate")
        self.method(instances.ListAssignment, "uniform", "instances.generate")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _counted(self, gen, key: str):
        n = 0
        try:
            for item in gen:
                n += 1
                yield item
        finally:
            self.counts[key] += n

    # ---------------------------------------------------------- summary

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive time of the outermost
        spans of that name, and self time (children excluded)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, rec in enumerate(self.spans):
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            calls[name] += 1
            own[name] += (end - start) - child[idx]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total[name] += end - start
        return calls, total, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


def _traced_pool(tracer: Tracer, base):
    """The process pool as one span, from creation to shutdown."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            self._span = tracer.open("samplers.pool") if tracer.on else None
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if self._span is not None:
                    tracer.close(self._span)

    return TracedPool


def loglog_slope(points: list[tuple[float, int]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(s), math.log(t)) for t, s in points if t > 0 and s > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den
