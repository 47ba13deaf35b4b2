"""Write reference.json: the expected summary of every benchmark op.

Usage (from the repository root, on the commit whose outputs become
the reference):

    python3 perfbench/record_reference.py --recorded-at COMMIT

Where an acceptance criterion of tests/test_acceptance.py fixes a value,
the recorded value must agree with it and the entry names the
criterion as its source; every other entry names the commit.  The
verify ops of `enumerate` need no entry: every emitted chain must pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from helixpq import pq  # noqa: E402

import workloads  # noqa: E402

# op key -> (source, values the criterion fixes)
ACCEPTANCE = {
    **{
        f"tables/validate/{family}:{q}": ("criterion 02", {"ok": True})
        for family, q in workloads.TABLES
    },
    "enumerate/solve/l3_17_aut_partial@51": ("criterion 09", {"status": "finite", "count": 126}),
    # criterion 06 counts 28 chains on the full PGL(2,243); the fragment
    # holds the rows that decide them
    "enumerate/solve/pgl2_3f_rows@6": ("criterion 06", {"status": "finite", "count": 28}),
    **{
        f"screen/psl2:5/{pair}": ("criterion 10", {"outcome": "ruled_out"})
        for pair in ("2,3", "2,5", "3,5")
    },
    "screen/psl2:16/2,3": ("criterion 10", {"outcome": "undecided"}),
}


def _screen_keys() -> dict:
    """Every missing prime-graph edge of the screen tables, unpinned."""
    return {
        f"screen/{t}/{p},{r}": None
        for t, table in workloads._screen_setup().items()
        for p, r in pq.prime_graph(table).non_edges()
    }


def record(recorded_at: str) -> dict:
    entries = {}
    for name, empty in (("tables", {}), ("screen", _screen_keys()), ("enumerate", {})):
        workload = workloads.build(name, 0, empty)
        workload.ops = [op for op in workload.ops if op.expect is None]
        state = workload.setup()
        for op in workload.ops:
            got = op.summary(op.run(state))
            source, fixed = ACCEPTANCE.get(op.key, (f"recorded at {recorded_at}", {}))
            for k, v in fixed.items():
                if got[k] != v:
                    raise SystemExit(f"{op.key}: {k} is {got[k]!r}, {source} says {v!r}")
            if op.key == "screen/psl2:16/2,3" and got["nontrivial"] < 1:
                raise SystemExit(f"{op.key}: criterion 10 needs a nontrivial chain")
            entries[op.key] = {"expect": got, "source": source}
    return {"ops": dict(sorted(entries.items()))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--recorded-at", required=True,
                        help="the commit whose outputs are recorded")
    args = parser.parse_args()
    reference = record(args.recorded_at)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference['ops'])} entries to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
