"""Prime-graph screening of mixed-order torsion units.

The prime graph of a group has the primes occurring as element orders
for vertices, with an edge p—q whenever an element of order p*q
exists.  For every *missing* edge one can ask whether the integral
group ring nevertheless has a normalized torsion unit of order p*q;
the constraint systems of `engine` either rule such units out (no
admissible chain of partial augmentations) or leave explicit
candidates.  This module runs that screening over all missing edges
and aggregates the per-pair outcomes into a verdict:

    HeLP_sufficient    every missing edge was ruled out, so the unit
                       prime graph matches the group prime graph;
    HeLP_insufficient  some pair survives with admissible chains (or
                       could not be decided), listed per pair.

Pairs where one prime has many classes are handled with the
aggregated-variable strategy of `engine.solve_s_constant`, restricted
to characters constant on those classes; this weakens the system, so
"ruled out" conclusions remain sound and surviving pairs report the
exact character set used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .chartab import Character, CharacterTable, PAChain, render_chain
from .cyclo import prime_divisors
from .engine import (
    EngineError,
    SolutionSet,
    classify_chain,
    solve_order,
    solve_s_constant,
)

__all__ = [
    "PQError",
    "PrimeGraph",
    "PairReport",
    "PQReport",
    "prime_graph",
    "pq_check",
    "format_report",
    "report_to_dict",
]

# At most this many classes on both sides keeps the plain per-class solve.
PLAIN_CLASS_LIMIT = 6


class PQError(ValueError):
    pass


@dataclass(frozen=True)
class PrimeGraph:
    vertices: frozenset
    edges: frozenset  # of frozenset pairs

    def has_edge(self, p: int, q: int) -> bool:
        return frozenset((p, q)) in self.edges

    def non_edges(self) -> list[tuple[int, int]]:
        out = []
        vs = sorted(self.vertices)
        for i, p in enumerate(vs):
            for q in vs[i + 1:]:
                if not self.has_edge(p, q):
                    out.append((p, q))
        return out


def prime_graph(table: CharacterTable, *, assume_coverage: bool = False) -> PrimeGraph:
    """Vertices: primes occurring as element orders; edge p—q iff some
    class order is divisible by p*q.  Requires a full table unless the
    caller asserts the class list covers all element orders."""
    if table.completeness != "full" and not assume_coverage:
        raise PQError(
            f"table {table.group_name!r} is partial; its class list may miss "
            f"element orders (pass assume_coverage=True to override)"
        )
    vertices = set()
    edges = set()
    orders = {c.element_order for c in table.classes}
    for o in orders:
        ps = prime_divisors(o)
        vertices.update(ps)
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                edges.add(frozenset((p, q)))
    return PrimeGraph(vertices=frozenset(vertices), edges=frozenset(edges))


@dataclass
class PairReport:
    p: int
    q: int
    outcome: str  # "ruled_out" | "undecided" | "infinite" | "error"
    count: int = 0
    nontrivial: int = 0
    sample: tuple[PAChain, ...] = ()
    strategy: str = ""
    character_names: tuple[str, ...] = ()
    congruence_modes: tuple[str, ...] = ()
    detail: Optional[str] = None
    status: Optional[str] = None  # the solve's SolutionSet.status; None on error


@dataclass
class PQReport:
    group_name: str
    graph: PrimeGraph
    pairs: tuple[PairReport, ...]
    verdict: str  # "HeLP_sufficient" | "HeLP_insufficient"

    def pair(self, p: int, q: int) -> PairReport:
        p, q = min(p, q), max(p, q)
        for r in self.pairs:
            if (r.p, r.q) == (p, q):
                return r
        raise PQError(f"no pair report for {{{p},{q}}}")

    def open_pairs(self) -> list[tuple[int, int]]:
        return [(r.p, r.q) for r in self.pairs if r.outcome != "ruled_out"]


def _normalize_plan(char_plan) -> dict[frozenset, dict]:
    plan = {}
    for key, value in (char_plan or {}).items():
        pair = frozenset(int(x) for x in key)
        if len(pair) != 2:
            raise PQError(f"char_plan key {key!r} is not a pair of primes")
        if not isinstance(value, Mapping):
            # bare character list
            value = {"characters": list(value)}
        plan[pair] = dict(value)
    return plan


def _constant_on(table: CharacterTable, ch: Character, order: int) -> bool:
    vals = {ch.values.get(c.name) for c in table.classes if c.element_order == order}
    return None not in vals and len(vals) == 1


def pq_check(
    table: CharacterTable,
    characters: Optional[Sequence[Union[str, Character]]] = None,
    *,
    char_plan: Optional[Mapping] = None,
    cap: Optional[int] = None,
    pairs: Optional[Sequence] = None,
    congruences: str = "power",
    assume_coverage: bool = False,
) -> PQReport:
    """Screen every missing prime-graph edge for order-p*q torsion units.

    `characters` defaults to all characters of the table (per pair,
    those whose characteristic divides p*q are dropped — they carry no
    meaning there).  `char_plan` overrides per pair: a mapping from
    {p,q} to either a character list or {"characters": [...],
    "collapse": s} to force the aggregated strategy on the prime s.
    Without an override, a pair where some side has more than
    `PLAIN_CLASS_LIMIT` classes is solved with that side aggregated,
    using the characters constant there.  `assume_coverage` lets a
    partial table through `prime_graph`, asserting its class list
    covers all element orders relevant to the requested pairs.
    """
    graph = prime_graph(table, assume_coverage=assume_coverage)
    plan = _normalize_plan(char_plan)
    base_chars = list(table.characters) if characters is None else [
        table.character_by_name(c) if isinstance(c, str) else c for c in characters
    ]
    todo = graph.non_edges()
    if pairs is not None:
        wanted = {frozenset(int(x) for x in pr) for pr in pairs}
        unknown = wanted - {frozenset(pr) for pr in todo}
        if unknown:
            raise PQError(
                f"requested pairs {sorted(map(sorted, unknown))} are not "
                f"missing edges of the prime graph of {table.group_name!r}"
            )
        todo = [pr for pr in todo if frozenset(pr) in wanted]

    reports = []
    for p, q in todo:
        reports.append(
            _check_pair(
                table, base_chars, p, q,
                plan.get(frozenset((p, q)), {}),
                cap=cap, congruences=congruences,
            )
        )
    verdict = (
        "HeLP_sufficient"
        if all(r.outcome == "ruled_out" for r in reports)
        else "HeLP_insufficient"
    )
    return PQReport(
        group_name=table.group_name,
        graph=graph,
        pairs=tuple(reports),
        verdict=verdict,
    )


def _check_pair(table, base_chars, p, q, plan, *, cap, congruences) -> PairReport:
    n = p * q
    collapse = plan.get("collapse")
    strategy = "plain" if collapse is None else f"collapse[{collapse}]"
    chars = ()
    try:
        chars = plan.get("characters")
        if chars is not None:
            chars = [
                table.character_by_name(c) if isinstance(c, str) else c
                for c in chars
            ]
        else:
            chars = [ch for ch in base_chars if not (ch.characteristic and
                                                     n % ch.characteristic == 0)]
        if collapse is None and "characters" not in plan:
            np_ = sum(1 for c in table.classes if c.element_order == p)
            nq_ = sum(1 for c in table.classes if c.element_order == q)
            if max(np_, nq_) > PLAIN_CLASS_LIMIT:
                collapse = p if np_ >= nq_ else q
                strategy = f"collapse[{collapse}]"
                chars = [ch for ch in chars if _constant_on(table, ch, collapse)]

        if not chars:
            return PairReport(
                p=p, q=q, outcome="error", strategy=strategy,
                detail="no usable characters for this pair "
                       "(none constant on the aggregated classes)",
            )
        if collapse is None:
            sol: SolutionSet = solve_order(
                table, chars, n, congruences=congruences, cap=cap
            )
        else:
            s = int(collapse)
            t = q if s == p else p
            sol = solve_s_constant(
                table, chars, s, t, congruences=congruences, cap=cap
            )
    except (EngineError, ValueError) as exc:
        return PairReport(
            p=p, q=q, outcome="error", strategy=strategy,
            character_names=tuple(
                ch if isinstance(ch, str) else ch.name for ch in (chars or ())
            ),
            detail=str(exc),
        )

    if sol.status == "infinite":
        outcome, detail = "infinite", sol.detail
    elif sol.status == "capped":
        outcome = "undecided"
        detail = f"enumeration capped; at least {len(sol.chains)} chains"
    elif sol.chains:
        outcome, detail = "undecided", sol.detail
    else:
        outcome, detail = "ruled_out", sol.detail
    return PairReport(
        p=p, q=q, outcome=outcome, status=sol.status,
        count=len(sol.chains),
        nontrivial=sum(1 for c in sol.chains if classify_chain(c) == "nontrivial"),
        sample=sol.chains[:3],
        strategy=sol.strategy,
        character_names=sol.character_names,
        congruence_modes=sol.congruence_modes,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# report rendering


def report_to_dict(report: PQReport) -> dict:
    return {
        "group_name": report.group_name,
        "prime_graph": {
            "vertices": sorted(report.graph.vertices),
            "edges": sorted(sorted(e) for e in report.graph.edges),
        },
        "verdict": report.verdict,
        "pairs": [
            {
                "p": r.p,
                "q": r.q,
                "order": r.p * r.q,
                "outcome": r.outcome,
                "count": r.count,
                "nontrivial": r.nontrivial,
                "strategy": r.strategy,
                "characters": list(r.character_names),
                "congruence_modes": list(r.congruence_modes),
                "detail": r.detail,
                "sample_chains": [render_chain(c) for c in r.sample],
            }
            for r in report.pairs
        ],
    }


def format_report(report: PQReport) -> str:
    lines = [
        f"group: {report.group_name}",
        f"prime graph: vertices {sorted(report.graph.vertices)}, "
        f"edges {sorted(sorted(e) for e in report.graph.edges)}",
        f"verdict: {report.verdict}",
    ]
    if not report.pairs:
        lines.append("(no missing edges to check)")
    for r in report.pairs:
        head = f"  {{{r.p},{r.q}}} order {r.p * r.q}: {r.outcome}"
        if r.outcome == "undecided":
            head += f" ({r.count} chains, {r.nontrivial} nontrivial)"
        head += f" [{r.strategy}; chars: {', '.join(r.character_names)}]"
        lines.append(head)
        if r.detail:
            lines.append(f"      {r.detail}")
    return "\n".join(lines)
