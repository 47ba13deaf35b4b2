"""Prime-graph screening: graphs, pair outcomes, verdicts, monotonicity."""

import hashlib
import json

import pytest
from engine_oracle import screen_differential, sweep_qs

from helixpq import datasets, engine
from helixpq.chartab import parse_table, render_table
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


@pytest.mark.parametrize("pair", [(2,), (2, 2), (2, 3, 5), ("a", "b")],
                         ids=["one", "repeated", "three", "not_integers"])
def test_malformed_pair_rejected(psl2_16, pair):
    with pytest.raises(PQError) as err:
        pq_check(psl2_16, pairs=[(2, 3), pair])
    assert str(err.value) == f"requested pair {pair!r} is not two distinct integers"


def test_empty_pair_selection_is_refused():
    # it was reported as HeLP_sufficient with no missing edges to check,
    # though the full screen of PSL(2,7) leaves {2,3} undecided
    with pytest.raises(PQError, match="need at least one pair"):
        pq_check(gen_table("psl2", 7), pairs=[])


def test_table_without_missing_edges_is_settled():
    # C2: one prime, so no missing edge, and nothing to screen
    c2 = parse_table({
        "group_name": "C2", "order": 2,
        "classes": [{"name": "1a", "element_order": 1, "size": 1},
                    {"name": "2a", "element_order": 2, "size": 1,
                     "power_maps": {"2": "1a"}}],
        "characters": [{"name": "triv", "degree": 1, "values": {"1a": 1, "2a": 1}},
                       {"name": "sign", "degree": 1, "values": {"1a": 1, "2a": -1}}],
    })
    report = pq_check(c2)
    assert (report.pairs, report.verdict) == ((), "HeLP_sufficient")
    assert format_report(report).endswith("(no missing edges to check)")


def test_pairs_subset(psl2_16):
    report = pq_check(psl2_16, pairs=[(2, 3)])
    assert [(r.p, r.q) for r in report.pairs] == [(2, 3)]


def test_pair_errors_are_recorded_not_fatal():
    # a partial A5 table whose only character has no value on class 3a:
    # every pair with 3 fails to build, the pair {2,5} is still decided
    raw = render_table(gen_table("psl2", 5))
    xi = next(ch for ch in raw["characters"] if ch["name"] == "xi_1")
    del xi["values"]["3a"]
    table = parse_table({**raw, "completeness": "partial", "characters": [xi]})
    report = pq_check(table, assume_coverage=True)
    assert [(r.p, r.q, r.outcome) for r in report.pairs] == [
        (2, 3, "error"), (2, 5, "ruled_out"), (3, 5, "error")]
    r = report.pair(2, 3)
    assert r.detail == "character 'xi_1' has no value on class '3a'"
    assert r.strategy == "joint" and r.character_names == ("xi_1",)
    assert r.status is None
    assert report.verdict == "HeLP_insufficient"


def test_no_usable_characters_yields_error_outcome():
    # the 17-side has 8 classes and theta_1 is not constant on them
    report = pq_check(gen_table("psl2", 16), characters=["theta_1"], pairs=[(2, 17)])
    r = report.pair(2, 17)
    assert r.outcome == "error" and r.strategy == "collapse[17]"
    assert r.detail == ("no usable characters for this pair "
                        "(none constant on the aggregated classes)")
    assert r.character_names == ()
    assert report.verdict == "HeLP_insufficient"


def test_pair_without_characters_of_other_characteristic_names_it():
    # brauer3 lives in characteristic 3, so it is dropped for {2,3} and
    # {3,5}; neither pair is aggregated, yet both were reported as having no
    # character constant on the aggregated classes
    table = gen_table("pgl2", 9, include_brauer3=True)
    report = pq_check(table, characters=["brauer3"])
    for p, q in ((2, 3), (3, 5)):
        r = report.pair(p, q)
        assert (r.outcome, r.strategy, r.character_names) == ("error", "joint", ())
        assert r.detail == ("no usable characters for this pair (the characteristic "
                            f"of every selected character divides {p * q})")


def test_empty_character_selection_is_refused():
    with pytest.raises(PQError, match="need at least one character"):
        pq_check(gen_table("psl2", 5), characters=[])


def test_cap_marks_pair_undecided(psl2_16):
    report = pq_check(psl2_16, pairs=[(2, 3)], cap=1)
    r = report.pair(2, 3)
    assert r.outcome == "undecided"
    assert r.detail.startswith("enumeration capped")


def test_capped_pair_names_the_solve_stop_reason(monkeypatch):
    import helixpq.lattice as lat

    monkeypatch.setattr(lat, "_NODE_BUDGET", 3)
    r = pq_check(gen_table("psl2", 32), pairs=[(2, 3)]).pair(2, 3)
    assert r.outcome == "undecided"
    assert r.detail == ("enumeration capped; at least 2 chains; "
                        "enumeration stopped at the search-node budget")


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


# --- the joint solve against the recursive route ------------------------------

# the tables of the benchmark's `screen` workload
SCREEN_TABLES = [("psl2", q) for q in (5, 7, 8, 9, 11, 16)] + [
    ("pgl2", q) for q in (7, 9, 11, 13, 16)]
# those and every other PSL(2,q) and PGL(2,q) with q <= 19
DIFFERENTIAL_TABLES = SCREEN_TABLES + sorted(
    {(f, q) for f in ("psl2", "pgl2") for q in sweep_qs(19)} - set(SCREEN_TABLES))


@pytest.mark.parametrize("family, q", DIFFERENTIAL_TABLES,
                         ids=[f"{f}:{q}" for f, q in DIFFERENTIAL_TABLES])
def test_missing_edges_agree_under_both_strategies(family, q):
    # the joint solve and the recursive sub-order route: the same verdicts,
    # statuses and chains, and every chain of the joint solve verifies
    assert screen_differential(gen_table(family, q), cap=2000) == ([], [])


# sha256 of `helixpq pq --table gen:FAMILY:Q --format json`: a change to the
# LP or the DFS shows here as soon as it moves an output byte.  Re-recorded
# when every order became one joint system: only "strategy" ("plain" to
# "joint") and "detail" (the combination count dropped) moved
SCREEN_JSON_SHA256 = {
    "psl2:5": "e08a2bfd51777f8138fcc6a0b439072fbb880a6d8893409af5a975bd398784ae",
    "psl2:7": "1b2304342f6a6ac84663f18b73a32d17d78f173a36beb4b619fbaca7b49699de",
    "psl2:8": "b990a48a056178c477a392fcf42f146ef253f0eb6b2b412bf765569998fe9b4b",
    "psl2:9": "a4e88162d02a4a29c87302659dfa58e57b67317fae72da52d3c4e2516acffac3",
    "psl2:11": "0ad3a74bb275a587156c5629c20568f2400b2d561593e859131173040d5f80bd",
    "psl2:16": "f5d66e1047f6d155decbee14d97e0663aef22748cd13fbe56ca695180d03d799",
    "pgl2:7": "f0e7d908c786c458994be196ffe9e36981fea887eb572f7420c8366163692ed9",
    "pgl2:9": "2fb51f0bb532ec6c3eb57d8055fa03ddfec9efd4d4798d1e41e4a45897c1db31",
    "pgl2:11": "9dafb8e4b02871af9e0986fffbb23ffe88aba0029500d5cdd7f6e0d664acc225",
    "pgl2:13": "fc3d14514135ba8b371db13402a550523f725aa973753d05637429c153dbcfe7",
    "pgl2:16": "7147c93615e898efbee685c0f205f49b853183db8f7cb2206873e2fee40b813c",
}


@pytest.mark.parametrize("family, q", SCREEN_TABLES,
                         ids=[f"{f}:{q}" for f, q in SCREEN_TABLES])
def test_pq_json_is_pinned(family, q):
    report = pq_check(gen_table(family, q))
    blob = json.dumps(report_to_dict(report), indent=1, sort_keys=True)
    want = SCREEN_JSON_SHA256[f"{family}:{q}"]
    assert hashlib.sha256(blob.encode()).hexdigest() == want


# (systems, sha256 of every system `pq_check` builds on SCREEN_TABLES, in
# build order: variables, congruence modes, and each row's kind, coeffs,
# const, modulus and provenance)
SCREEN_SYSTEMS = (
    39, "e3d4a8bf13afc3d6e82960a024ee4307d05b96c716b0dc4c4aa64d37e19dc8cb")


def test_screen_systems_are_pinned(monkeypatch):
    systems = []
    build = engine._build

    def record(*args, **kwargs):
        systems.append(build(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(engine, "_build", record)
    for family, q in SCREEN_TABLES:
        pq_check(gen_table(family, q))
    blob = json.dumps([
        [list(s.variables), sorted(s.congruence_mode.items()),
         [[r.kind, list(r.coeffs), r.const, r.modulus, r.provenance] for r in s.rows]]
        for s in systems
    ])
    assert (len(systems), hashlib.sha256(blob.encode()).hexdigest()) == SCREEN_SYSTEMS


@pytest.mark.parametrize("q, open_pairs", [
    (23, {}),
    (29, {(2, 3): 2}),
    (41, {(2, 3): 4}),
    (43, {(2, 3): 4}),
], ids=["psl2:23", "psl2:29", "psl2:41", "psl2:43"])
def test_psl2_sweep_regime(q, open_pairs):
    # pairs with up to 3,078 power-chain combinations, which the joint
    # system decides in about a second; values recorded with flat solving
    report = pq_check(gen_table("psl2", q), cap=2000)
    assert report.verdict == ("HeLP_insufficient" if open_pairs else "HeLP_sufficient")
    assert {pr: report.pair(*pr).count for pr in report.open_pairs()} == open_pairs
    assert all(report.pair(*pr).outcome == "undecided" for pr in open_pairs)


@pytest.mark.parametrize("family, q, pair, s", [
    ("psl2", 32, (11, 31), 31),
    ("pgl2", 32, (11, 31), 31),
    ("psl2", 67, (11, 17), 17),
    ("psl2", 103, (13, 17), 17),
    ("psl2", 128, (43, 127), 127),
], ids=["psl2:32", "pgl2:32", "psl2:67", "psl2:103", "psl2:128"])
def test_collapsed_pairs_are_ruled_out(family, q, pair, s):
    # one joint collapsed system settles each at the sweep's cap, below
    # the chain count of the order-t power on its own
    r = pq_check(gen_table(family, q), cap=2000, pairs=[pair]).pair(*pair)
    assert (r.outcome, r.status, r.strategy) == ("ruled_out", "finite", f"collapse[{s}]")
