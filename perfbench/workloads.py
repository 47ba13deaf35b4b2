"""The benchmark's three workloads, each an op list drawn from a seed.

An op is one CLI-sized request.  Its result is reduced to a small
summary that must equal the op's entry in reference.json; only the
request itself is timed, not the summary.

* tables:    gen_table, validate and a JSON round trip for each of the
             24 acceptance tables, in seed-shuffled table order.
* screen:    one pq_check per missing prime-graph edge of 11 generated
             tables, in seed-shuffled order.
* enumerate: six solve_order calls, then verify_chain on 200 seed-drawn
             chains they emit, in seed-shuffled order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from helixpq import chartab, datasets, engine, pq, psl2

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

QS = (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49)
TABLES = tuple((family, q) for family in ("psl2", "pgl2") for q in QS)
SCREEN_TABLES = tuple(("psl2", q) for q in (5, 7, 8, 9, 11, 16)) + tuple(
    ("pgl2", q) for q in (7, 9, 11, 13, 16)
)
EMBEDDED = ("l3_17_aut_partial", "pgl2_243_rows", "pgl2_3f_rows", "psl2_3f_eta")
GENERATED = (("psl2", 25),)
# table, characters (None: all), unit order, cap, chains to verify.
# Solves on one table with the same characters share a store, so orders
# 39 and 26 of PSL(2,25) solve the order-13 power once, as one `solve`
# call would.  The 200 verify ops draw most from the largest chain set;
# the sample sizes also keep the median op and the p95 op inside a
# group of verify ops of one table, not on a boundary between two.
SOLVES = (
    ("l3_17_aut_partial", ("chi306", "chi4912", "chi9216"), 51, None, 40),
    ("pgl2_243_rows", None, 11, 20000, 100),
    ("pgl2_3f_rows", None, 6, None, 30),
    ("psl2_3f_eta", None, 6, None, 30),
    ("psl2:25", None, 39, None, 0),
    ("psl2:25", None, 26, None, 0),
)
# every emitted chain must pass verify_chain
VERIFY_EXPECT = {"ok": True}


@dataclass
class Op:
    key: str
    run: Callable[[dict], object]
    summary: Callable[[object], dict]
    expect: Optional[dict]


@dataclass
class Workload:
    setup: Callable[[], dict]
    ops: list[Op]


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return {key: entry["expect"] for key, entry in json.load(fh)["ops"].items()}


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _table_key(family: str, q: int) -> str:
    return f"{family}:{q}"


# -- tables -------------------------------------------------------------------


def _tables(rng: random.Random, reference: dict) -> Workload:
    order = list(TABLES)
    rng.shuffle(order)
    ops = []
    for family, q in order:
        t = _table_key(family, q)

        def gen(state, family=family, q=q, t=t):
            state[t] = psl2.gen_table(family, q)
            return state[t]

        def check(state, t=t):
            return chartab.validate(state[t])

        def round_trip(state, t=t):
            # what `helixpq gen` writes, then read back and written again
            text = json.dumps(chartab.render_table(state[t]), indent=1)
            again = json.dumps(chartab.render_table(chartab.parse_table(text)), indent=1)
            return text, again

        ops += [
            Op(f"tables/gen/{t}", gen, lambda table: {
                "group": table.group_name,
                "classes": len(table.classes),
                "characters": len(table.characters),
            }, reference.get(f"tables/gen/{t}")),
            Op(f"tables/validate/{t}", check, lambda report: {
                "ok": report.ok, "problems": len(report.problems),
            }, reference.get(f"tables/validate/{t}")),
            Op(f"tables/round_trip/{t}", round_trip, lambda texts: {
                "identical": texts[0] == texts[1],
                "sha256": hashlib.sha256(texts[0].encode()).hexdigest(),
            }, reference.get(f"tables/round_trip/{t}")),
        ]
    return Workload(lambda: {}, ops)


# -- screen -------------------------------------------------------------------


def _screen_setup() -> dict:
    return {_table_key(f, q): psl2.gen_table(f, q) for f, q in SCREEN_TABLES}


def _screen(rng: random.Random, reference: dict) -> Workload:
    # the reference lists every missing edge of each table's prime graph
    keys = sorted(k for k in reference if k.startswith("screen/"))
    rng.shuffle(keys)
    ops = []
    for key in keys:
        _, t, pair = key.split("/")
        p, q = (int(x) for x in pair.split(","))

        def check_pair(state, t=t, p=p, q=q):
            return pq.pq_check(state[t], pairs=[(p, q)])

        ops.append(Op(key, check_pair, _pair_summary, reference[key]))
    return Workload(_screen_setup, ops)


def _pair_summary(report) -> dict:
    (pair,) = report.pairs
    return {
        "outcome": pair.outcome,
        "count": pair.count,
        "nontrivial": pair.nontrivial,
        "verdict": report.verdict,
    }


# -- enumerate ----------------------------------------------------------------


def _solve_key(table: str, order: int) -> str:
    return f"enumerate/solve/{table}@{order}"


def _enumerate_setup() -> dict:
    state: dict = {"stores": {}, "solved": {}}
    for name in EMBEDDED:
        state[name] = datasets.load_embedded(name)
    for family, q in GENERATED:
        state[_table_key(family, q)] = psl2.gen_table(family, q)
    return state


def _solution_summary(sol) -> dict:
    out = {"status": sol.status, "count": len(sol.chains)}
    # a capped set depends on search order; only a complete one is pinned
    if sol.status == "finite":
        out["sha256"] = _sha256([chartab.render_chain(c) for c in sol.chains])
    return out


def _enumerate(rng: random.Random, reference: dict) -> Workload:
    ops = []
    verify = []
    for t, chars, order, cap, n_verify in SOLVES:
        key = _solve_key(t, order)

        def solve(state, t=t, chars=chars, order=order, cap=cap, key=key):
            table = state[t]
            names = chars or tuple(ch.name for ch in table.characters)
            store = state["stores"].setdefault((t, names), {})
            sol = engine.solve_order(table, names, order, cap=cap, store=store)
            state["solved"][key] = (table, sol)
            return sol

        expect = reference.get(key)
        ops.append(Op(key, solve, _solution_summary, expect))
        if expect and expect["count"]:
            verify += [(key, rng.randrange(expect["count"])) for _ in range(n_verify)]
    rng.shuffle(verify)
    for key, index in verify:

        def check_chain(state, key=key, index=index):
            table, sol = state["solved"][key]
            return engine.verify_chain(table, sol.character_names, sol.chains[index])

        ops.append(Op(f"enumerate/verify/{key.split('/')[-1]}#{index}", check_chain,
                      lambda report: {"ok": report.ok}, VERIFY_EXPECT))
    return Workload(_enumerate_setup, ops)


BUILDERS = {"tables": _tables, "screen": _screen, "enumerate": _enumerate}


def build(name: str, seed: int, reference: dict) -> Workload:
    return BUILDERS[name](random.Random(seed), reference)
