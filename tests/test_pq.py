"""Prime-graph screening: graphs, pair outcomes, verdicts, monotonicity."""

import json

import pytest

from helixpq import datasets
from helixpq.psl2 import gen_table
from helixpq.pq import (
    PQError,
    format_report,
    pq_check,
    prime_graph,
    report_to_dict,
)


@pytest.fixture(scope="module")
def psl2_16():
    return gen_table("psl2", 16)


# --- the graph itself ---------------------------------------------------------

def test_prime_graph_psl2_7():
    g = prime_graph(gen_table("psl2", 7))
    assert g.vertices == {2, 3, 7}
    assert g.edges == frozenset()
    assert g.non_edges() == [(2, 3), (2, 7), (3, 7)]


def test_prime_graph_pgl2_9():
    # element orders of PGL(2,9) are the divisors of 8, 10 and 3:
    # the only composite order joining two primes is 10
    g = prime_graph(gen_table("pgl2", 9))
    assert g.vertices == {2, 3, 5}
    assert g.edges == frozenset({frozenset({2, 5})})
    assert g.has_edge(2, 5) and g.has_edge(5, 2)
    assert not g.has_edge(2, 3)


def test_prime_graph_psl2_16(psl2_16):
    g = prime_graph(psl2_16)
    assert g.vertices == {2, 3, 5, 17}
    assert g.edges == frozenset({frozenset({3, 5})})


def test_partial_tables_need_explicit_coverage_claim():
    table = datasets.load_embedded("psp4_7_partial")
    with pytest.raises(PQError, match="partial"):
        prime_graph(table)
    g = prime_graph(table, assume_coverage=True)
    assert g.vertices == {2, 5}


# --- whole-group screening ------------------------------------------------------

def test_psl2_5_fully_ruled_out():
    report = pq_check(gen_table("psl2", 5))
    assert report.verdict == "HeLP_sufficient"
    assert {(r.p, r.q) for r in report.pairs} == {(2, 3), (2, 5), (3, 5)}
    assert all(r.outcome == "ruled_out" for r in report.pairs)
    assert report.open_pairs() == []


def test_psl2_16_screening(psl2_16):
    report = pq_check(psl2_16)
    assert report.verdict == "HeLP_insufficient"
    r23 = report.pair(2, 3)
    assert r23.outcome == "undecided"
    assert r23.count == 2 and r23.nontrivial == 2
    assert len(r23.sample) == 2
    assert report.pair(2, 5).outcome == "ruled_out"
    # the 17-side has 8 classes: auto-aggregated with the constant subset
    r217 = report.pair(2, 17)
    assert r217.outcome == "ruled_out"
    assert r217.strategy == "collapse[17]"
    assert set(r217.character_names) < {c.name for c in psl2_16.characters}
    assert (2, 3) in report.open_pairs()


def test_edges_are_never_tested(psl2_16):
    report = pq_check(psl2_16)
    assert all(not report.graph.has_edge(r.p, r.q) for r in report.pairs)
    with pytest.raises(PQError, match="not missing"):
        pq_check(psl2_16, pairs=[(3, 5)])


def test_pairs_subset(psl2_16):
    report = pq_check(psl2_16, pairs=[(2, 3)])
    assert [(r.p, r.q) for r in report.pairs] == [(2, 3)]


def test_char_plan_is_honored(psl2_16):
    report = pq_check(
        psl2_16,
        pairs=[(2, 17)],
        char_plan={(2, 17): {"characters": ["triv", "st"], "collapse": 17}},
    )
    r = report.pair(2, 17)
    assert r.strategy == "collapse[17]"
    assert r.character_names == ("triv", "st")
    assert r.outcome == "ruled_out"


def test_pair_errors_are_recorded_not_fatal(psl2_16):
    report = pq_check(
        psl2_16,
        char_plan={(2, 3): {"characters": ["st"], "collapse": 3}},
    )
    r = report.pair(2, 3)
    # collapsing order-3 classes is nonsense here (there is a single class
    # of order 3 but no order-6 elements are excluded by it) OR it errors;
    # either way every other pair must still be present
    assert len(report.pairs) == 5
    assert report.pair(2, 5).outcome == "ruled_out"


def test_unusable_plan_yields_error_outcome(psl2_16):
    report = pq_check(
        psl2_16,
        pairs=[(2, 3)],
        char_plan={(2, 3): {"characters": ["nonexistent"]}},
    )
    r = report.pair(2, 3)
    assert r.outcome == "error"
    assert report.verdict == "HeLP_insufficient"
    assert r.detail


def test_cap_marks_pair_undecided(psl2_16):
    report = pq_check(psl2_16, pairs=[(2, 3)], cap=1)
    r = report.pair(2, 3)
    assert r.outcome == "undecided"
    assert r.detail.startswith("enumeration capped")


def test_pair_carries_the_solve_status_without_rendering_it(psl2_16):
    capped = pq_check(psl2_16, pairs=[(2, 3)], cap=1)
    decided = pq_check(psl2_16, pairs=[(2, 3)])
    assert capped.pair(2, 3).status == "capped"
    assert decided.pair(2, 3).status == "finite"
    # the field only feeds the CLI's exit code; pq output stays as it was
    assert "status" not in report_to_dict(capped)["pairs"][0]


def test_monotonicity_adding_characters_never_grows_solutions():
    # solving with more characters can only remove chains
    from helixpq.engine import solve_order

    for family, q, order in (("psl2", 16, 6), ("psl2", 32, 6), ("pgl2", 9, 6)):
        table = gen_table(family, q)
        chars = list(table.characters)
        half = chars[: max(1, len(chars) // 2)]
        sol_half = solve_order(table, half, order)
        sol_full = solve_order(table, chars, order)
        assert sol_half.status == sol_full.status == "finite"
        tup = lambda s: {
            tuple(sorted((m, tuple(sorted(c.entry(m).items()))) for m in c.levels()))
            for c in s.chains
        }
        assert tup(sol_full) <= tup(sol_half), (family, q)


# --- rendering --------------------------------------------------------------------

def test_report_serialization(psl2_16):
    report = pq_check(psl2_16)
    blob = report_to_dict(report)
    assert json.dumps(blob, sort_keys=True)  # JSON-clean
    assert blob["verdict"] == "HeLP_insufficient"
    assert blob["prime_graph"]["vertices"] == [2, 3, 5, 17]
    assert blob["prime_graph"]["edges"] == [[3, 5]]
    text = format_report(report)
    assert "HeLP_insufficient" in text
    assert "{2,3}" in text and "undecided" in text
