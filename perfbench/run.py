"""helixpq benchmark: run one workload for a seed and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {tables,screen,enumerate} \
        --seed N --seconds S --trace {0,1}

Each pass runs the whole workload in a fresh process (passrun.py),
and every op starts with the package's caches cold, as in its own
`helixpq` call.  Without tracing, passes repeat until `--seconds` have
passed, and the run reports the end-to-end metrics over the passes.
With tracing, one untraced and one traced pass run, and the run
reports the per-layer metrics, including the tracing overhead (traced
minus untraced `wall_s`); the spans are written to perfbench/out/.
Every op's output is checked against reference.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "screen", "enumerate")
# a run must end within this many seconds
DEADLINE_S = 170
TAIL_BEYOND = 10
# probe seconds that define the reference host speed (passrun.probe on a
# 2-vCPU VM in its fast phase); reported times are at this speed
PROBE_REF_S = 0.022


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """(percentile, value) of the highest order statistic that still has
    at least `beyond` values above it; the maximum when there are fewer."""
    xs = sorted(values)
    n = len(xs)
    k = n - 1 - beyond if n > beyond else n - 1
    return 100 * (k + 1) // n, xs[k]


def run_one_pass(workload: str, seed: int, spans_path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "passrun.py"), workload, str(seed)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass of {workload!r} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_times(op_s: list[float], probes: list) -> list[float]:
    """Each op's time at the reference host speed: its measured time
    times PROBE_REF_S over the mean of the probes just before and just
    after it."""
    out, j = [], 0
    for i, seconds in enumerate(op_s):
        while probes[j + 1][0] <= i:
            j += 1
        host_s = (probes[j][1] + probes[j + 1][1]) / 2
        out.append(seconds * PROBE_REF_S / host_s)
    return out


def end_to_end(passes: list[dict]) -> tuple[dict, int]:
    """Metrics over a run's passes, and the tail percentile used.

    Times are at the reference host speed; set-up, which runs before the
    first probe, is scaled by the pass's median probe.  The op
    percentiles are taken over each op's median time across the passes;
    `wall_s`, `setup_s` and `peak_rss_mb` are medians over the passes."""
    median = statistics.median
    ref = [reference_times(p["op_s"], p["probes"]) for p in passes]
    per_op = [median(times) for times in zip(*ref)]
    pct, tail_s = tail(per_op)
    metrics = {
        "wall_s": (median(sum(times) for times in ref), "s"),
        "op_p50_ms": (median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (median((p["import_s"] + p["setup_s"]) * PROBE_REF_S
                           / median(s for _, s in p["probes"]) for p in passes), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, pct


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    passes = [run_one_pass(workload, seed, None, remaining())]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-{seed}.jsonl"
        passes.append(run_one_pass(workload, seed, spans_path, remaining()))
    else:
        while time.perf_counter() - start < seconds:
            passes.append(run_one_pass(workload, seed, None, remaining()))

    n_ops = len(passes[0]["op_s"])
    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    lines = [f"workload {workload}, seed {seed}: {len(passes)} passes of {n_ops} ops"]
    raw = statistics.median(sum(p["op_s"]) for p in passes)
    lines.append(f"measured wall_s {raw:.6g} s (median over passes, at the host's speed)")
    if trace:
        untraced, traced = (sum(reference_times(p["op_s"], p["probes"])) for p in passes)
        metrics = dict(passes[1]["layers"])
        metrics["trace.overhead_s"] = traced - untraced
        lines.append(f"untraced wall_s {untraced:.6g} s, traced wall_s {traced:.6g} s, "
                     f"tracing overhead {traced - untraced:.6g} s")
        units = {name: unit for name, unit, _ in PER_LAYER}
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        e2e, pct = end_to_end(passes)
        for name, (value, unit) in e2e.items():
            note = f"  (p{pct} of n={n_ops} ops)" if name == "op_tail_ms" else ""
            lines.append(f"{name} {value:.6g} {unit}{note}")
        lines.append(f"failed_ratio {len(failures) / attempted:.6g} 1"
                     f"  ({len(failures)} of {attempted} ops)")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print("\n".join(lines))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "helixpq" / "__init__.py").is_file():
        print(f"run.py: no helixpq sources under {ROOT / 'src'}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
