"""One pass of a workload in a fresh process, as one `helixpq` call runs.

A pass imports the package, sets up the workload's tables and runs
every op in order.  It prints one JSON line: import and set-up times,
each op's time, the failed ops and the peak resident memory.  With
tracing on it also gives the per-layer metrics and writes its spans
as JSON lines.  run.py starts one such process per pass.

Usage: python3 perfbench/passrun.py WORKLOAD SEED [SPANS_PATH]
(with SPANS_PATH the pass is traced)
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a probe runs before the next op once this much op time has passed
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Seconds for a fixed task in stdlib-only Python (exact fractions,
    dicts, tuples: the kind of work the package does).  No package code
    runs in it, so only the speed the host gives this process moves it."""
    t0 = time.perf_counter()
    for _ in range(20):
        total, seen = Fraction(0), {}
        for i in range(1, 400):
            total += Fraction(i % 13 - 6, i % 31 + 1)
            key = (i % 17, i % 5)
            seen[key] = seen.get(key, 0) + i * i
        sorted(seen.items())
    return time.perf_counter() - t0


def cache_clearers() -> list:
    """`cache_clear` of every functools cache in helixpq's modules, and
    sympy's `clear_cache`: the state a fresh `helixpq` process lacks."""
    from sympy.core.cache import clear_cache

    clearers = {clear_cache}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "helixpq":
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clearers.add(clear)
    return list(clearers)


def run_pass(workload, tracer=None) -> dict:
    """Set up and run every op of `workload`; a failed op is recorded
    and the pass goes on.  Set-up and every op start with cold caches,
    as each would in its own `helixpq` call, so an op's time does not
    depend on which ops ran before it.  `probes` holds (index of the next
    op, probe seconds), from before the first op to after the last."""
    clearers = cache_clearers()
    clock = time.perf_counter
    t0 = clock()
    state = workload.setup()
    setup_s = clock() - t0
    op_s, failures = [], []
    probes = [(0, probe())]
    since_probe = 0.0
    for index, op in enumerate(workload.ops):
        if since_probe >= PROBE_EVERY_S:
            probes.append((index, probe()))
            since_probe = 0.0
        for clear in clearers:
            clear()
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            result = op.run(state)
        except Exception as exc:  # counted as a failed op
            result, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        op_s.append(clock() - t0)
        since_probe += op_s[-1]
        problem = problem or _mismatch(op, result)
        if problem:
            failures.append(f"{op.key}: {problem}")
    probes.append((len(op_s), probe()))
    return {"setup_s": setup_s, "op_s": op_s, "failures": failures, "probes": probes}


def _mismatch(op, result):
    if op.expect is None:
        return "no reference output"
    try:
        got = op.summary(result)
    except Exception as exc:  # a malformed result is a failed op
        return f"summary failed: {type(exc).__name__}: {exc}"
    return None if got == op.expect else f"got {got}, expected {op.expect}"


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import helixpq.chartab, helixpq.datasets, helixpq.engine, helixpq.pq, helixpq.psl2  # noqa: E401,F401
    import_s = time.perf_counter() - t0

    import spans
    import workloads

    workload = workloads.build(name, seed, workloads.load_reference())
    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        out = run_pass(workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["import_s"] = import_s
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
        tracer.write(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
