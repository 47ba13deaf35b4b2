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

A pair is solved by `engine.solve_order` as one joint system over the
unit and all its powers (strategy "joint").  Pairs where one prime has
many classes are handled instead by `engine.solve_s_constant`
("collapse[s]"): the same joint system with those classes aggregated
into one unknown, restricted to characters constant on them; this
weakens the system, so "ruled out" conclusions remain sound and
surviving pairs report the exact character set used.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

from .chartab import Character, CharacterTable, PAChain, render_chain
from .cyclo import as_integer, prime_divisors
from .engine import (
    SolutionSet,
    _cap_or_default,
    _constant_value,
    _resolve_chars,
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

# At most this many classes on both sides keeps the joint per-class solve.
JOINT_CLASS_LIMIT = 6


class PQError(ValueError):
    pass


class PrimeGraph(NamedTuple):
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


class PairReport(NamedTuple):
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


class PQReport(NamedTuple):
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


def _as_pair(pair) -> frozenset:
    """`pair` as a frozenset of two distinct integers, else a PQError."""
    try:
        p, q = (as_integer(x, "pair member") for x in pair)
    except (TypeError, ValueError):  # not iterable, not two items, not ints
        p = q = None
    if p is None or p == q:
        raise PQError(f"requested pair {pair!r} is not two distinct integers")
    return frozenset((p, q))


def pq_check(
    table: CharacterTable,
    characters: Optional[Sequence[Union[str, Character]]] = None,
    *,
    cap: Optional[int] = None,
    pairs: Optional[Sequence] = None,
    assume_coverage: bool = False,
) -> PQReport:
    """Screen every missing prime-graph edge for order-p*q torsion units.

    `characters` defaults to all characters of the table (per pair,
    those whose characteristic divides p*q are dropped — they carry no
    meaning there).  Each pair is one joint solve.  Where some side has
    more than `JOINT_CLASS_LIMIT` classes, that side's classes are one
    aggregated unknown of the joint system, and only the characters
    constant on them are used.
    `assume_coverage` lets a partial table through `prime_graph`,
    asserting its class list covers all element orders relevant to the
    requested pairs.
    `pairs` restricts the screening to the given missing edges; each
    pair must be two distinct integers.  An empty selection of
    characters or of pairs is a PQError.
    """
    cap = _cap_or_default(cap)
    graph = prime_graph(table, assume_coverage=assume_coverage)
    base_chars = (list(table.characters) if characters is None
                  else _resolve_chars(table, characters))
    if not base_chars:
        raise PQError("need at least one character")
    todo = graph.non_edges()
    if pairs is not None:
        wanted = {_as_pair(pr) for pr in pairs}
        if not wanted:
            raise PQError("need at least one pair")
        unknown = wanted - {frozenset(pr) for pr in todo}
        if unknown:
            raise PQError(
                f"requested pairs {sorted(map(sorted, unknown))} are not "
                f"missing edges of the prime graph of {table.group_name!r}"
            )
        todo = [pr for pr in todo if frozenset(pr) in wanted]

    reports = [_check_pair(table, base_chars, p, q, cap=cap) for p, q in todo]
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


def _check_pair(table, base_chars, p, q, *, cap) -> PairReport:
    n = p * q
    collapse, strategy = None, "joint"
    np_ = sum(1 for c in table.classes if c.element_order == p)
    nq_ = sum(1 for c in table.classes if c.element_order == q)
    if max(np_, nq_) > JOINT_CLASS_LIMIT:
        collapse = p if np_ >= nq_ else q
        strategy = f"collapse[{collapse}]"
    # the filter that empties the list names the reason
    chars = [ch for ch in base_chars
             if not (ch.characteristic and n % ch.characteristic == 0)]
    why = f"the characteristic of every selected character divides {n}"
    if chars and collapse is not None:
        chars = [ch for ch in chars
                 if _constant_value(table, ch, collapse) is not None]
        why = "none constant on the aggregated classes"
    if not chars:
        return PairReport(
            p=p, q=q, outcome="error", strategy=strategy,
            detail=f"no usable characters for this pair ({why})",
        )
    try:
        if collapse is None:
            sol: SolutionSet = solve_order(table, chars, n, cap=cap)
        else:
            sol = solve_s_constant(table, chars, collapse, n // collapse, cap=cap)
    except ValueError as exc:
        return PairReport(
            p=p, q=q, outcome="error", strategy=strategy,
            character_names=tuple(ch.name for ch in chars),
            detail=str(exc),
        )

    if sol.status == "infinite":
        outcome, detail = "infinite", sol.detail
    elif sol.status == "capped":
        outcome = "undecided"
        detail = (f"enumeration capped; at least {len(sol.chains)} chains; "
                  f"{sol.detail}")
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
