"""Self-test of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
The counter test runs the traced benchmark twice per workload, which
takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from passrun import run_pass  # noqa: E402


def test_self_time_of_a_synthetic_nested_call():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def mid():
        now[0] += 1.0
        api["leaf"]()
        now[0] += 0.5
        api["leaf"]()

    def top():
        now[0] += 3.0
        api["mid"]()

    api = {name: tracer.wrap(name, fn) for name, fn in
           (("leaf", leaf), ("mid", mid), ("top", top))}
    tracer.op = 7
    api["top"]()

    assert spans.self_times(tracer.spans) == {"top": 3.0, "mid": 1.5, "leaf": 4.0}
    names = [s[0] for s in tracer.spans]
    assert names == ["top", "mid", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert {s[4] for s in tracer.spans} == {7}
    assert tracer.spans[0][1:3] == [0.0, 8.5]


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    for n, pct in ((39, 74), (72, 86), (206, 95)):
        values = list(range(n, 0, -1))
        got_pct, value = run.tail(values)
        assert got_pct == pct
        assert sum(v > value for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_op_times_scale_with_the_probes_around_them():
    ref = run.PROBE_REF_S
    probes = [[0, ref], [2, 2 * ref], [3, 2 * ref]]
    got = run.reference_times([1.0, 1.0, 3.0], probes)
    assert got == pytest.approx([2 / 3, 2 / 3, 1.5])


def test_injected_mismatch_raises_failed_ratio():
    reference = workloads.load_reference()
    workload = workloads.build("tables", 1, reference)
    workload.ops = [op for op in workload.ops if op.key.endswith(("psl2:4", "psl2:5"))]
    assert len(workload.ops) == 6
    clean = run_pass(workload)
    assert clean["failures"] == []

    tampered = workload.ops[2]
    tampered.expect = dict(tampered.expect, sha256="0" * 64)
    out = run_pass(workload)
    assert len(out["failures"]) / len(out["op_s"]) == 1 / 6
    assert out["failures"][0].startswith(tampered.key)


def test_benchmark_json_names_what_the_harness_reports():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER
    ]
    fake = [{"op_s": [0.5, 0.25], "probes": [[0, 0.02], [2, 0.02]],
             "import_s": 0.5, "setup_s": 0.25, "peak_rss_mb": 64.0}]
    metrics, _ = run.end_to_end(fake)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    assert first.keys() == second.keys() == {m[0] for m in spans.PER_LAYER}
    counters = [name for name, m in first.items() if m["unit"] in ("count", "1")]
    assert len(counters) == 25
    assert {n: first[n]["value"] for n in counters} == {n: second[n]["value"] for n in counters}
