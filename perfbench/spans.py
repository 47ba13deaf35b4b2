"""Spans around the public entry points of helixpq's layers.

`install` swaps each traced name for a wrapper where its callers look
it up: a module attribute, or an operator on `CycValue`.  A span is
`[name, start, end, parent index, op id]`; spans stay in memory and
are written out once the pass ends.  Counts (rows built, points found,
pairs decided) are taken from the wrapped calls' arguments and
results, at the same boundaries.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# name, unit, better; the per-layer metrics of BENCHMARK.json, in order
PER_LAYER = (
    ("cyclo.arith.calls", "count", "lower"),
    ("cyclo.arith.self_s", "s", "lower"),
    ("cyclo.terms_at_level.calls", "count", "lower"),
    ("cyclo.terms_at_level.self_s", "s", "lower"),
    ("psl2.gen_table.calls", "count", "lower"),
    ("psl2.gen_table.self_s", "s", "lower"),
    ("chartab.validate.calls", "count", "lower"),
    ("chartab.validate.self_s", "s", "lower"),
    ("chartab.parse_table.calls", "count", "lower"),
    ("chartab.parse_table.self_s", "s", "lower"),
    ("chartab.render_table.calls", "count", "lower"),
    ("chartab.render_table.self_s", "s", "lower"),
    ("engine.build_system.calls", "count", "lower"),
    ("engine.build_system.self_s", "s", "lower"),
    ("engine.build_system.rows", "count", "lower"),
    ("engine.build_chain_system.calls", "count", "lower"),
    ("engine.build_chain_system.self_s", "s", "lower"),
    ("engine.build_chain_system.rows", "count", "lower"),
    ("engine.verify_chain.calls", "count", "lower"),
    ("engine.verify_chain.self_s", "s", "lower"),
    ("engine.verify_chain.rows_checked", "count", "lower"),
    ("engine.solve.calls", "count", "lower"),
    ("engine.solve.self_s", "s", "lower"),
    ("engine.combos", "count", "lower"),
    ("engine.joint_switches", "count", "lower"),
    ("lattice.enumerate.calls", "count", "lower"),
    ("lattice.enumerate.self_s", "s", "lower"),
    ("lattice.enumerate.vars", "count", "lower"),
    ("lattice.enumerate.rows", "count", "lower"),
    ("lattice.enumerate.points", "count", "higher"),
    ("lattice.enumerate.capped", "count", "lower"),
    ("lattice.enumerate.nonempty_ratio", "1", "higher"),
    ("pq.pq_check.calls", "count", "lower"),
    ("pq.pq_check.self_s", "s", "lower"),
    ("pq.pairs", "count", "higher"),
    ("pq.decided_ratio", "1", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# spans whose .calls and .self_s are reported
SPAN_NAMES = tuple(name[: -len(".calls")] for name, _, _ in PER_LAYER if name.endswith(".calls"))

_ARITH_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count(args, result)` gives
        the counter increments of a call that returned."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.clock(), None, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, float]:
    """Seconds per span name: each span's duration minus the time its
    direct children cover (calls nest strictly in one thread)."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        duration = end - start
        out[name] += duration
        if parent >= 0:
            out[spans[parent][0]] -= duration
    return out


def _lattice_counts(args, result):
    poly = args[0]
    return {
        "lattice.enumerate.vars": poly.dim,
        "lattice.enumerate.rows": len(poly.ineqs) + len(poly.eqs) + len(poly.congruences),
        "lattice.enumerate.points": len(result.points),
        "lattice.enumerate.capped": int(result.status == "capped"),
        "lattice.enumerate.nonempty": int(bool(result.points)),
    }


def _pq_counts(args, report):
    return {
        "pq.pairs": len(report.pairs),
        "pq.ruled_out": sum(r.outcome == "ruled_out" for r in report.pairs),
    }


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; `tracer.uninstall()` undoes it."""
    from helixpq import chartab, cyclo, datasets, engine, pq, psl2

    for attr in _ARITH_OPERATORS:
        tracer.patch(cyclo.CycValue, attr, "cyclo.arith")
    tracer.patch(engine, "terms_at_level", "cyclo.terms_at_level")
    tracer.patch(psl2, "gen_table", "psl2.gen_table")
    tracer.patch(chartab, "validate", "chartab.validate")
    tracer.patch(chartab, "parse_table", "chartab.parse_table")
    tracer.patch(datasets, "parse_table", "chartab.parse_table")
    tracer.patch(chartab, "render_table", "chartab.render_table")
    tracer.patch(engine, "build_system", "engine.build_system",
                 lambda args, system: {"engine.build_system.rows": len(system.rows)})
    tracer.patch(engine, "build_chain_system", "engine.build_chain_system",
                 lambda args, system: {"engine.build_chain_system.rows": len(system.rows)})
    tracer.patch(engine, "verify_chain", "engine.verify_chain",
                 lambda args, report: {"engine.verify_chain.rows_checked": report.rows_checked})
    # engine's own lookups catch the recursion over proper powers and the
    # bench's direct calls; pq holds its own references to both solvers
    for owner in (engine, pq):
        tracer.patch(owner, "solve_order", "engine.solve")
        tracer.patch(owner, "solve_s_constant", "engine.solve")
    tracer.patch(engine, "enumerate_integer_points", "lattice.enumerate", _lattice_counts)
    tracer.patch(pq, "pq_check", "pq.pq_check", _pq_counts)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric but trace.overhead_s, from one traced pass."""
    spans = tracer.spans
    calls = Counter(span[0] for span in spans)
    own = self_times(spans)
    # each combo of solve_order / solve_s_constant builds one flat system,
    # and each switch to the joint solve builds one chain system
    under_solve = Counter(
        span[0] for span in spans
        if span[3] >= 0 and spans[span[3]][0] == "engine.solve"
    )
    values: dict[str, float] = dict(tracer.counts)
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = own[name]
    values["engine.combos"] = under_solve["engine.build_system"]
    values["engine.joint_switches"] = under_solve["engine.build_chain_system"]
    enum_calls = calls["lattice.enumerate"]
    values["lattice.enumerate.nonempty_ratio"] = (
        tracer.counts["lattice.enumerate.nonempty"] / enum_calls if enum_calls else 0.0
    )
    pairs = tracer.counts["pq.pairs"]
    values["pq.decided_ratio"] = tracer.counts["pq.ruled_out"] / pairs if pairs else 0.0
    values["trace.spans"] = len(spans)
    return {
        name: values.get(name, 0)
        for name, _, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
