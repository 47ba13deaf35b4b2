"""Constraint construction and exact enumeration for torsion-unit chains."""

import gc
import hashlib
import json
import math
import re
from fractions import Fraction

import pytest
from engine_oracle import dict_chains, trace_block

from helixpq import datasets, engine
from helixpq.chartab import PAChain, TableError, parse_chain, parse_table, render_chain
from helixpq.cyclo import cyc_rational, prime_divisors, root_of_unity
from helixpq.engine import (
    EngineError,
    Row,
    _prefer_joint,
    build_chain_system,
    build_system,
    classify_chain,
    solve_order,
    solve_s_constant,
    verify_chain,
)
from helixpq.pq import PQError, pq_check
from helixpq.psl2 import gen_table


@pytest.fixture(scope="module")
def psl2_32():
    return gen_table("psl2", 32)


@pytest.fixture(scope="module")
def psl2_16():
    return gen_table("psl2", 16)


@pytest.fixture(scope="module")
def psl2_5():
    return gen_table("psl2", 5)


@pytest.fixture(scope="module")
def psp():
    return datasets.load_embedded("psp4_7_partial")


@pytest.fixture(scope="module")
def psp_aut():
    return datasets.load_embedded("psp4_7_aut_partial")


@pytest.fixture(scope="module")
def l3():
    return datasets.load_embedded("l3_17_aut_partial")


@pytest.fixture(scope="module")
def psl2_3f_eta():
    return datasets.load_embedded("psl2_3f_eta")


@pytest.fixture(scope="module")
def pgl2_3f_rows():
    return datasets.load_embedded("pgl2_3f_rows")


@pytest.fixture(scope="module")
def pgl2_243_rows():
    return datasets.load_embedded("pgl2_243_rows")


@pytest.fixture(scope="module")
def psl2_7():
    return gen_table("psl2", 7)


@pytest.fixture(scope="module")
def psl2_25():
    return gen_table("psl2", 25)


# --- system construction ------------------------------------------------------

def test_system_shape_order_2(psp):
    sys2 = build_system(psp, ["phi"], 2)
    assert sys2.variables == ("2a", "2b")
    kinds = [r.kind for r in sys2.rows]
    assert kinds.count("eq") == 1  # augmentation
    provs = {r.provenance for r in sys2.rows}
    assert "augmentation" in provs
    assert "phi:mult[0]" in provs and "phi:mult[1]" in provs
    assert sys2.congruence_mode == {2: "class"}


POWERS_6 = {2: {"2a": 1}, 3: {"3a": 1}}


def test_fourier_row_sum(psl2_32):
    n = 6
    system = build_system(
        psl2_32, list(psl2_32.characters), n, powers=POWERS_6, dedupe=False
    )
    for name in system.character_names:
        prefix = f"{name}:mult["
        rows = [
            r for r in system.rows
            if r.kind == "ge" and r.provenance.startswith(prefix)
        ]
        assert len(rows) == n
        coeff_sum = [sum(col) for col in zip(*(r.coeffs for r in rows))]
        const_sum = sum(r.const for r in rows)
        degree = psl2_32.character_by_name(name).degree
        assert all(c == 0 for c in coeff_sum), name
        assert const_sum == n * degree, name


def test_dedupe_reduces_rows(psl2_32):
    full = build_system(psl2_32, list(psl2_32.characters), 6,
                        powers=POWERS_6, dedupe=False)
    slim = build_system(psl2_32, list(psl2_32.characters), 6,
                        powers=POWERS_6, dedupe=True)
    assert len(slim.rows) < len(full.rows)


def _first_occurrences(rows):
    seen, out = set(), []
    for r in rows:
        key = (r.kind, r.coeffs, r.const, r.modulus)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


# (table fixture, characters (None: all), unit order, fixed powers (None:
# the joint system), collapsed order)
DEDUPE_CASES = [
    ("psl2_32", None, 6, POWERS_6, None),
    ("psl2_32", None, 6, None, None),
    ("psl2_32", None, 6, {2: {"2a": 1}, 3: {"~3": 1}}, 3),
    ("psl2_32", None, 62, {2: {"2a": 1}, 31: {"31a": 1}}, None),
    ("psl2_32", None, 62, None, None),
    ("psl2_32", ["st"], 62, {2: {"2a": 1}, 31: {"~31": 1}}, 31),
    ("pgl2_3f_rows", None, 6, {2: {"2a": 2, "2b": -1}, 3: {"3a": 1}}, None),
    ("pgl2_3f_rows", None, 6, None, None),
    ("psp", None, 10, {2: {"2a": -1, "2b": 2}, 5: {"5a": 1}}, None),
    ("psp", None, 10, None, None),
    # levels where most (character, k) rows repeat: 311 rows, 29 kept, with
    # the powers of an emitted order-51 chain; 1,664 rows, 124 kept
    ("l3", ["chi306", "chi4912", "chi9216"], 51,
     {3: {"3a": 1}, 17: {"17a": 0, "17b": 1}}, None),
    ("psl2_25", None, 39, None, None),
]


@pytest.mark.parametrize("name, chars, n, powers, collapse", DEDUPE_CASES)
def test_dedupe_keeps_the_first_row_of_each_key(request, name, chars, n, powers,
                                                collapse):
    table = request.getfixturevalue(name)
    chars = chars or list(table.characters)

    def build(dedupe):
        if powers is None:
            return build_chain_system(table, chars, n, dedupe=dedupe)
        return build_system(table, chars, n, powers, collapse_order=collapse,
                            dedupe=dedupe)

    full, slim = build(False), build(True)
    assert slim.rows == _first_occurrences(full.rows)
    assert len(slim.rows) < len(full.rows)
    assert (slim.variables, slim.congruence_mode) == (full.variables,
                                                      full.congruence_mode)


def test_non_integral_term_names_each_character_on_every_call():
    # "a" and "b" share the value 1/2 on the order-3 classes, so their
    # collapsed order-3 column has one cached block for both; each build
    # must still fail, naming its own character
    half = {"1a": 2, "2a": 0, "3a": "1/2", "3b": "1/2"}
    table = parse_table({
        "group_name": "toy",
        "completeness": "partial",
        "classes": [
            {"name": "1a", "element_order": 1},
            {"name": "2a", "element_order": 2},
            {"name": "3a", "element_order": 3},
            {"name": "3b", "element_order": 3},
        ],
        "characters": [
            {"name": "a", "degree": 2, "values": half},
            {"name": "b", "degree": 2, "values": half},
        ],
    })
    powers = {2: {"2a": 1}, 3: {"~3": 1}}
    for name in ("a", "b", "a", "b"):
        with pytest.raises(EngineError,
                           match=f"'{name}' value on '~3' has a non-integral term"):
            build_system(table, [name], 6, powers, collapse_order=3)


def test_missing_value_on_a_fixed_power_class_is_an_engine_error(psl2_5):
    # every class of a well-formed power entry is also a top-level column;
    # a fixed class that is not fails in the constants, with the same error
    with pytest.raises(EngineError, match="'st' has no value on class '3z'"):
        build_system(psl2_5, ["st"], 6, {2: {"2a": 1}, 3: {"3z": 1}})


def test_zero_entry_on_a_missing_fixed_class_is_an_engine_error(psl2_5, monkeypatch):
    # a fixed 0 adds no block to the constants, so the value on '3z' was
    # never read and the system was built; it is now read, and no block of
    # it is computed
    blocks = []
    monkeypatch.setattr(engine, "_trace_block",
                        lambda value, level: blocks.append(value) or (0,) * level)
    with pytest.raises(EngineError, match="^character 'st' has no value on class '3z'$"):
        build_system(psl2_5, ["st"], 6, {2: {"2a": 1}, 3: {"3a": 1, "3z": 0}})
    assert None not in blocks


@pytest.mark.parametrize("order, powers, collapse, message", [
    pytest.param(14, {2: {"2a": 1}, 7: {"~7": 1}}, 7.9,
                 "collapse_order must be an integer, got 7.9", id="collapse-float"),
    pytest.param(6, {2.0: {"2a": 1}, 3: {"3a": 1}}, None,
                 "power level must be an integer, got 2.0", id="level-whole-float"),
    pytest.param(6, {True: {"1a": 1}, 2: {"2a": 1}, 3: {"3a": 1}}, None,
                 "power level must be an integer, got True", id="level-bool"),
    pytest.param(6, {2: {"2a": True}, 3: {"3a": 1}}, None,
                 "partial augmentation of '2a' at power level 2 must be an integer, "
                 "got True", id="augmentation-bool"),
    pytest.param(6, {2: {"2a": 1}, 3: {"3a": 1.5}}, None,
                 "partial augmentation of '3a' at power level 3 must be an integer, "
                 "got 1.5", id="augmentation-float"),
    pytest.param(6, {2: {"3a": 1}, 3: {"3a": 1}}, None,
                 "power level 2: class '3a' has element order 3, which does not "
                 "divide 2", id="class-order"),
    pytest.param(6, {2: {"2a": 1}, 3: {"~2": 1}}, None,
                 "power level 3: class '~2' has element order 2, which does not "
                 "divide 3", id="aggregate-order"),
    pytest.param(6, {2: {"2a": 1}, 3: {"3a": 1}, 5: {"2a": 1}}, None,
                 "power level 5 is not a proper divisor of the unit order 6",
                 id="level-not-a-divisor"),
    pytest.param(6, {2: {"2a": 1}, 3: {"3a": 1}, 6: {"2a": 1}}, None,
                 "power level 6 is not a proper divisor of the unit order 6",
                 id="level-of-the-unit"),
])
def test_build_system_refuses_malformed_power_data(psl2_7, order, powers, collapse,
                                                   message):
    # each was accepted: 7.9 collapsed order 7, 2.0 fixed level 2, True fixed
    # level 1, True counted as 1, 1.5 failed only when lattice solved the
    # system, "3a" and "~2" were fixed where their orders do not divide the
    # level, and levels 5 and 6 were ignored; the characters are the ones
    # constant on the order-7 classes
    with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
        build_system(psl2_7, ["triv", "st", "chi_1", "theta_1"], order, powers,
                     collapse_order=collapse)


def test_missing_power_levels_rejected(psp):
    with pytest.raises(EngineError, match="power"):
        build_system(psp, ["chi", "phi"], 10, powers={})


def test_empty_support_rejected(psl2_5):
    # PSL(2,5) has no elements of order 7
    with pytest.raises(EngineError, match="order dividing 7"):
        build_system(psl2_5, ["st"], 7)


def test_brauer_character_blocked_in_own_characteristic():
    table = gen_table("pgl2", 9, include_brauer3=True)
    brauer = next(ch for ch in table.characters if ch.characteristic == 3)
    with pytest.raises(EngineError, match="characteristic"):
        build_system(table, [brauer], 3)
    # but it is fine away from characteristic 3
    build_system(table, [brauer], 2)


def test_unknown_character_name_rejected(psp):
    with pytest.raises(TableError, match="no character"):
        build_system(psp, ["zeta"], 2)


def test_check_point_flags_violations(psp):
    sys2 = build_system(psp, ["phi"], 2)
    assert sys2.check_point({"2a": 1, "2b": 0}) == []
    bad = sys2.check_point({"2a": 3, "2b": -2})
    assert bad and all(":" in b for b in bad)
    with pytest.raises(EngineError, match="unknown"):
        sys2.check_point({"9z": 1})


# --- frozen solution counts ---------------------------------------------------

def test_involution_solutions(psp):
    sol = solve_order(psp, ["phi"], 2)
    assert sol.status == "finite"
    got = {(c.entry(2)["2a"], c.entry(2)["2b"]) for c in sol.chains}
    assert got == {(1, 0), (0, 1), (-1, 2)}
    assert sol.strategy == "plain"


def test_order_10_ruled_out(psp):
    sol = solve_order(psp, ["chi", "phi"], 10)
    assert sol.status == "finite" and len(sol.chains) == 0


def test_order_15_ruled_out(psp_aut):
    sol = solve_order(psp_aut, ["chi", "phi"], 15)
    assert sol.status == "finite" and len(sol.chains) == 0
    # 3a^5 is ambiguous between the two order-3 classes: p=5 must fall
    # back to order-granularity congruences while p=3 stays class-level
    assert sol.congruence_modes  # recorded per prime


def test_order_6_psl2_32(psl2_32):
    sol = solve_order(psl2_32, list(psl2_32.characters), 6)
    assert sol.status == "finite" and len(sol.chains) == 3
    top = {(c.entry(6)["2a"], c.entry(6)["3a"]) for c in sol.chains}
    assert top == {(-8, 9), (-2, 3), (4, -3)}


def test_order_6_psl2_16(psl2_16):
    sol = solve_order(psl2_16, list(psl2_16.characters), 6)
    assert sol.status == "finite" and len(sol.chains) == 2
    assert all(classify_chain(c) == "nontrivial" for c in sol.chains)


def test_order_6_psl2_5_ruled_out(psl2_5):
    sol = solve_order(psl2_5, list(psl2_5.characters), 6)
    assert sol.status == "finite" and sol.chains == ()


def test_order_17_count(l3):
    sol = solve_order(l3, ["chi306", "chi4912", "chi9216"], 17)
    assert sol.status == "finite" and len(sol.chains) == 19
    eps_a = sorted(c.entry(17)["17a"] for c in sol.chains)
    assert eps_a == list(range(-1, 18))


def test_order_51_count(l3):
    sol = solve_order(l3, ["chi306", "chi4912", "chi9216"], 51)
    assert sol.status == "finite" and len(sol.chains) == 126


def test_cap_interrupts_solve(psl2_32):
    sol = solve_order(psl2_32, list(psl2_32.characters), 6, cap=1)
    assert sol.status == "capped"
    assert sol.detail and "stopped" in sol.detail


def test_capped_combinations_keep_the_first_cap_chains(pgl2_3f_rows):
    # the 28 chains come from several power-chain combinations; the cap
    # passed with the last one, and all 28 were returned
    chars = [ch.name for ch in pgl2_3f_rows.characters]
    full = solve_order(pgl2_3f_rows, chars, 6)
    assert full.status == "finite" and len(full.chains) == 28
    sol = solve_order(pgl2_3f_rows, chars, 6, cap=20)
    assert sol.status == "capped" and sol.strategy == "plain"
    assert sol.chains == full.chains[:20]


def test_node_budget_stop_is_named_in_the_detail(psl2_32, monkeypatch):
    import helixpq.lattice as lat

    monkeypatch.setattr(lat, "_NODE_BUDGET", 3)
    sol = solve_order(psl2_32, list(psl2_32.characters), 6)
    assert sol.status == "capped"
    assert sol.detail == "enumeration stopped at the search-node budget"


def test_store_memoizes_sub_orders(psl2_32):
    store = {}
    solve_order(psl2_32, list(psl2_32.characters), 6, store=store)
    assert 2 in store and 3 in store


# --- joint all-levels solving ---------------------------------------------------

def _entries_shape(entries):
    return tuple(
        (m, tuple(sorted(entries[m].items()))) for m in sorted(entries)
    )


def test_joint_system_matches_recursive_solve(psl2_32):
    chars = list(psl2_32.characters)
    rec = solve_order(psl2_32, chars, 6)
    system = build_chain_system(psl2_32, chars, 6)
    res = system.solve()
    assert res.status == "finite"
    joint = set()
    for pt in res.points:
        entries = {}
        for var, x in zip(system.variables, pt):
            lvl, cname = var.split(":", 1)
            entries.setdefault(int(lvl), {})[cname] = x
        joint.add(_entries_shape(entries))
    assert joint == {_entries_shape(c.entries) for c in rec.chains}


def test_capped_subproblem_switches_to_joint(psl2_32):
    sol = solve_order(psl2_32, list(psl2_32.characters), 6, cap=0)
    assert sol.strategy == "joint"
    assert sol.status == "capped"
    assert "power alone exceeded the cap" in sol.detail


def test_combo_explosion_switches_to_joint(psl2_32, force_strategy):
    force_strategy(True)
    sol = solve_order(psl2_32, list(psl2_32.characters), 6)
    assert sol.strategy == "joint"
    assert sol.status == "finite" and len(sol.chains) == 3
    top = {(c.entry(6)["2a"], c.entry(6)["3a"]) for c in sol.chains}
    assert top == {(-8, 9), (-2, 3), (4, -3)}


@pytest.mark.parametrize("q, order, combos, strategy", [
    # one combination: 1 * 2 flat unknowns against 1 + 1 + 2 joint ones
    (32, 6, 1, "plain"),
    # 15 combinations (order 7 has 15 chains): 15 * 4 against 1 + 3 + 4
    (8, 14, 15, "joint"),
])
def test_counted_cost_picks_the_strategy(q, order, combos, strategy):
    table = gen_table("psl2", q)
    store = {}
    sol = solve_order(table, list(table.characters), order, store=store)
    assert sol.strategy == strategy
    assert sol.detail == (None if strategy == "plain" else
                          f"solved jointly across levels ({combos} power-chain combinations)")
    assert combos == math.prod(
        len(store[order // p].chains) for p in prime_divisors(order))


def test_joint_is_preferred_when_the_combinations_have_more_unknowns():
    # for a product of two primes the joint system has twice the flat
    # system's unknowns, so two combinations stay flat and three go joint
    assert not _prefer_joint(2, 5, 10)
    assert _prefer_joint(3, 5, 10)
    assert not _prefer_joint(0, 5, 10)
    # a prime order has one level: one combination, the same unknowns
    assert not _prefer_joint(1, 4, 4)


def test_joint_fourier_row_sum(psl2_16):
    system = build_chain_system(
        psl2_16, list(psl2_16.characters), 6, dedupe=False
    )
    for name in system.character_names:
        degree = psl2_16.character_by_name(name).degree
        for m in (2, 3, 6):
            rows = [
                r for r in system.rows
                if r.kind == "ge"
                and r.provenance.startswith(f"{name}:mult[")
                and r.provenance.rsplit("@", 1)[1] == str(m)
            ]
            assert len(rows) == m
            coeff_sum = [sum(col) for col in zip(*(r.coeffs for r in rows))]
            assert all(c == 0 for c in coeff_sum), (name, m)
            assert sum(r.const for r in rows) == m * degree, (name, m)


# (table fixture, unit order, fixed powers, sha256 of the flat rows); the
# digests come from the Fraction-based builders, so they pin the integer
# generator to the rows those produced
FLAT_CASES = [
    ("psl2_32", 6, POWERS_6,
     "7f4faaa319bed9c371d17ef34cd28c1fdedbf8bd59b0e1ed737906684fcda887"),
    ("psp", 10, {2: {"2a": -1, "2b": 2}, 5: {"5a": 1}},
     "2bb8cf86c3f3e56d6c41fb72e5df4380eec5c0bf63ab97f31a105bd0e44414e8"),
    ("pgl2_3f_rows", 6, {2: {"2a": 2, "2b": -1}, 3: {"3a": 1}},
     "56942055267658f9f08cc026073b6e2a57d845b18be0ee1f504e813ad9747c39"),
]
COLLAPSE_DIGEST = "86b55be527ee961734cb6e57cd1f0246a1eb42dd4c8067f8a19f16b6b0a3a1e9"


def _rows_digest(rows):
    blob = json.dumps(
        [[list(r.coeffs), r.const, r.kind, r.modulus, r.provenance] for r in rows]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_flat_rows_are_joint_top_level_with_powers_fixed(request, psl2_32):
    for name, n, powers, digest in FLAT_CASES:
        table = request.getfixturevalue(name)
        chars = list(table.characters)
        flat = build_system(table, chars, n, powers, dedupe=False)
        joint = build_chain_system(table, chars, n, dedupe=False)
        col = {v: i for i, v in enumerate(joint.variables)}
        top = [col[f"{n}:{v}"] for v in flat.variables]
        substituted = []
        for r in joint.rows:
            if r.provenance.split("%")[0].rsplit("@", 1)[1] != str(n):
                continue
            const = r.const + sum(
                r.coeffs[col[f"{m}:{c}"]] * eps
                for m, entry in powers.items()
                for c, eps in entry.items()
            )
            substituted.append(Row(
                tuple(r.coeffs[i] for i in top), const, r.kind, r.modulus,
                r.provenance.replace(f"@{n}", ""),
            ))
        assert flat.rows == substituted, name
        assert _rows_digest(flat.rows) == digest, name
    collapsed = build_system(
        psl2_32, ["st"], 62, {2: {"2a": 1}, 31: {"~31": 1}},
        collapse_order=31, dedupe=False,
    )
    assert _rows_digest(collapsed.rows) == COLLAPSE_DIGEST


@pytest.mark.parametrize("load", [
    lambda: gen_table("psl2", 25),
    lambda: gen_table("pgl2", 27),
    lambda: datasets.load_embedded("pgl2_243_rows"),
    lambda: datasets.load_embedded("l3_17_aut_partial"),
], ids=["psl2_25", "pgl2_27", "pgl2_243_rows", "l3_17_aut_partial"])
def test_trace_block_matches_the_per_k_sum(load):
    checked = 0
    for value in {v for ch in load().characters for v in ch.values.values()}:
        for level in range(value.conductor, 103, value.conductor):
            assert engine._trace_block(value, level) == trace_block(value, level)
            checked += 1
    assert checked


def test_trace_block_of_zero_and_of_a_non_integral_value():
    for level in (1, 2, 12, 51):
        assert engine._trace_block(cyc_rational(0), level) == (0,) * level
        assert trace_block(cyc_rational(0), level) == (0,) * level
    half = cyc_rational(Fraction(1, 2)) + root_of_unity(12)
    for level in (12, 24):
        assert engine._trace_block(half, level) is None
        assert trace_block(half, level) is None


def test_build_chain_system_rejects_tiny_order(psl2_16):
    with pytest.raises(EngineError, match="at least 2"):
        build_chain_system(psl2_16, list(psl2_16.characters), 1)


# --- aggregated (collapsed) solving -------------------------------------------

def test_steinberg_collapse_rules_out_62_and_22(psl2_32):
    for s in (31, 11):
        sol = solve_s_constant(psl2_32, ["st"], s, 2)
        assert sol.status == "finite" and sol.chains == ()
        assert sol.strategy == f"collapse[{s}]"
        assert set(sol.congruence_modes) == {"order"}


def test_collapse_rules_out_614(l3):
    sol = solve_s_constant(l3, ["chi1", "chi4912"], 307, 2)
    assert sol.status == "finite" and sol.chains == ()


def test_collapse_requires_constancy(psl2_32):
    # the split-torus characters distinguish the order-31 classes
    with pytest.raises(EngineError, match="constant"):
        solve_s_constant(psl2_32, list(psl2_32.characters), 31, 2)


# --- verification ---------------------------------------------------------------

# (fixture, characters, order, forced strategy or None, strategy)
ROUND_TRIPS = [
    ("psl2_32", None, 6, None, "plain"),
    ("psl2_3f_eta", None, 6, None, "joint"),
    ("pgl2_3f_rows", None, 6, None, "plain"),
    # 126 chains over the levels 3, 17 and 51
    ("l3", ["chi306", "chi4912", "chi9216"], 51, None, "joint"),
    ("psl2_32", None, 6, True, "joint"),
    # chains with the aggregated key "~s" at every level that s divides
    ("psl2_32", None, 6, None, "collapse[3]"),
    ("psl2_16", ["triv", "st", "chi_5", "theta_1", "theta_8"], 10, None, "collapse[5]"),
]
ROUND_TRIP_IDS = ["psl2_32", "psl2_3f_eta", "pgl2_3f_rows", "l3_17_aut_partial-51",
                  "psl2_32-joint", "psl2_32-collapse", "psl2_16-collapse"]


@pytest.mark.parametrize("name, chars, order, force, strategy", ROUND_TRIPS,
                         ids=ROUND_TRIP_IDS)
def test_solutions_round_trip_through_verify(request, force_strategy, name, chars,
                                             order, force, strategy):
    table = request.getfixturevalue(name)
    chars = list(table.characters) if chars is None else chars
    if force is not None:
        force_strategy(force)
    if strategy.startswith("collapse"):
        s = int(strategy[len("collapse["):-1])
        sol = solve_s_constant(table, chars, s, order // s)
    else:
        sol = solve_order(table, chars, order)
    assert sol.status == "finite" and sol.chains
    assert sol.strategy == strategy
    for chain in sol.chains:
        report = verify_chain(table, chars, chain)
        assert report.ok and not report.failures
        assert report.rows_checked > 0


# every round trip above that is not collapsed, each once
@pytest.mark.parametrize("name, chars, order", [
    pytest.param(name, chars, order, id=case_id)
    for (name, chars, order, force, strategy), case_id in zip(ROUND_TRIPS, ROUND_TRIP_IDS)
    if force is None and not strategy.startswith("collapse")
])
def test_forced_strategies_agree(request, force_strategy, name, chars, order):
    # the joint system and the flat system of each combination must give
    # the same chains, in the same order, every one of them verified
    table = request.getfixturevalue(name)
    chars = list(table.characters) if chars is None else chars
    sols = {}
    for joint in (False, True):
        force_strategy(joint)
        sols[joint] = solve_order(table, chars, order)
        assert sols[joint].strategy == ("joint" if joint else "plain")
    plain, joint = sols[False], sols[True]
    assert plain.status == joint.status == "finite"
    assert plain.chains == joint.chains and plain.chains
    assert plain.congruence_modes == joint.congruence_modes
    for chain in plain.chains:
        assert verify_chain(table, chars, chain).ok


def _chain_key(chain):
    """The reference order of a solve's chains: by level, then by the
    entries in class-name order."""
    return tuple(
        (m, tuple(sorted(chain.entries[m].items()))) for m in chain.levels()
    )


@pytest.mark.parametrize("name, chars, order, collapse, force, cap, strategy, count", [
    # 19 power-chain combinations, each a flat system
    pytest.param("l3", ["chi306", "chi4912", "chi9216"], 51, None, False, None,
                 "plain", 126, id="l3_17_aut_partial-51-flat"),
    pytest.param("psl2_3f_eta", None, 6, None, None, None, "joint", 12,
                 id="psl2_3f_eta-6-joint"),
    # "~2" sorts after the class names at levels 2 and 6
    pytest.param("psl2_7", ["chi_1"], 6, 2, None, None, "collapse[2]", 2,
                 id="psl2_7-6-collapse"),
    pytest.param("pgl2_243_rows", None, 11, None, None, 20000, "plain", 20000,
                 id="pgl2_243_rows-11-capped"),
])
def test_chains_come_in_level_and_class_name_order(request, force_strategy, name, chars,
                                                   order, collapse, force, cap,
                                                   strategy, count):
    table = request.getfixturevalue(name)
    chars = [ch.name for ch in table.characters] if chars is None else chars
    if force is not None:
        force_strategy(force)
    if collapse is None:
        sol = solve_order(table, chars, order, cap=cap)
    else:
        sol = solve_s_constant(table, chars, collapse, order // collapse, cap=cap)
    assert (sol.strategy, len(sol.chains)) == (strategy, count)
    assert sol.character_names == tuple(chars)
    assert list(sol.chains) == sorted(sol.chains, key=_chain_key)
    keys = [_chain_key(chain) for chain in sol.chains]
    assert len(set(keys)) == len(keys)


def test_verify_rejects_perturbed_chain(psl2_32):
    sol = solve_order(psl2_32, list(psl2_32.characters), 6)
    chain = sol.chains[0]
    entries = {m: dict(chain.entry(m)) for m in chain.levels()}
    entries[6]["2a"] += 60
    entries[6]["3a"] -= 60  # keeps the augmentation sum intact
    report = verify_chain(psl2_32, list(psl2_32.characters), PAChain(6, entries))
    assert not report.ok
    assert report.failures and all(m == 6 for m, _ in report.failures)


def test_verify_rejects_malformed_chain(psl2_32):
    with pytest.raises(TableError):
        verify_chain(psl2_32, ["st"], PAChain(6, {6: {"2a": 1}}))


def test_verify_refuses_a_unit_order_below_2():
    table = gen_table("psl2", 7)
    with pytest.raises(EngineError, match="^unit order must be at least 2, got 1$"):
        verify_chain(table, ["st"], PAChain(1, {}))


@pytest.mark.parametrize("call, error, message", [
    (lambda t: pq_check(t, pairs=[(2.5, 3)]), PQError, "is not two distinct integers"),
    (lambda t: pq_check(t, pairs=[(True, 3)]), PQError, "is not two distinct integers"),
    (lambda t: solve_order(t, ["st"], 6.5), EngineError, "unit order must be an integer"),
    (lambda t: solve_order(t, ["st"], 6.0), EngineError, "unit order must be an integer"),
    (lambda t: solve_s_constant(t, ["st"], 2.9, 3), EngineError, "s must be an integer"),
    (lambda t: solve_s_constant(t, ["st"], 2, True), EngineError, "t must be an integer"),
    (lambda t: solve_order(t, ["st"], 6, cap=2.5), EngineError, "cap must be an integer"),
    (lambda t: solve_order(t, ["st"], 6, cap=True), EngineError, "cap must be an integer"),
    (lambda t: pq_check(t, cap=10.0), EngineError, "cap must be an integer"),
], ids=["pair-float", "pair-bool", "order-float", "order-whole-float", "s-float",
        "t-bool", "cap-float", "cap-bool", "pq-cap-float"])
def test_integer_arguments_refuse_floats_and_bools(call, error, message):
    # each was truncated by int(): pairs (2.5, 3) screened {2, 3}, order 6.5
    # solved order 6, s = 2.9 ran the collapse on 2
    with pytest.raises(error, match=message):
        call(gen_table("psl2", 7))


def test_verify_checks_aggregated_chains_as_solved(psl2_16):
    # every character constant on the two order-5 classes
    chars = ["triv", "st", "chi_5"] + [f"theta_{i}" for i in range(1, 9)]
    (chain,) = solve_s_constant(psl2_16, chars, 5, 2).chains
    assert chain.entries == {2: {"2a": 1}, 5: {"~5": 1}, 10: {"2a": -4, "~5": 5}}
    entries = {m: dict(chain.entry(m)) for m in chain.levels()}
    entries[10]["2a"] += 10
    entries[10]["~5"] -= 10
    report = verify_chain(psl2_16, chars, PAChain(10, entries))
    assert not report.ok and {m for m, _ in report.failures} == {10}
    # "~s" needs classes of order s that divides the level
    entries[10] = {"2a": 1, "~3": 0}
    with pytest.raises(TableError, match=r"class '~3' absent or has order not dividing 10"):
        verify_chain(psl2_16, chars, PAChain(10, entries))
    # a character that tells the order-5 classes apart cannot check "~5"
    with pytest.raises(EngineError, match="'chi_1' is not constant on the classes of '~5'"):
        verify_chain(psl2_16, ["chi_1"], chain)


def test_classify_chain():
    assert classify_chain(PAChain(2, {2: {"2a": 1}})) == "trivial"
    assert classify_chain(PAChain(2, {2: {"2a": 2, "2b": -1}})) == "nontrivial"


# the six solves of the benchmark's enumerate workload (PSL(2,25) has no
# chain of order 39 or 26), a flat solve with fixed levels and a collapsed
# one: (table, characters or None for all, order, cap, collapse)
PACKED_SOLVES = [
    ("l3", ["chi306", "chi4912", "chi9216"], 51, None, None),
    ("pgl2_243_rows", None, 11, 20000, None),
    ("pgl2_3f_rows", None, 6, None, None),
    ("psl2_3f_eta", None, 6, None, None),
    ("psl2_25", None, 39, None, None),
    ("psl2_25", None, 26, None, None),
    ("psl2_32", None, 6, None, None),
    ("psl2_16", ["triv", "st", "chi_5"] + [f"theta_{i}" for i in range(1, 9)], 10,
     None, 5),
]


@pytest.mark.parametrize("name, chars, order, cap, collapse", PACKED_SOLVES,
                         ids=[f"{c[0]}-{c[2]}" for c in PACKED_SOLVES])
def test_packed_chains_match_per_chain_dicts(request, monkeypatch, name, chars, order,
                                             cap, collapse):
    table = request.getfixturevalue(name)
    chars = [ch.name for ch in table.characters] if chars is None else chars
    # each system the solve enumerates, with the fixed levels it was built on
    fixed_of, solved = {}, []
    real_build, real_solve = engine.build_system, engine.ConstraintSystem.solve

    def build(table, chars, n, powers=None, **kw):
        system = real_build(table, chars, n, powers, **kw)
        fixed_of[id(system)] = powers
        return system

    def solve(system, cap=None):
        res = real_solve(system, cap)
        if system.unit_order == order:
            solved.append((fixed_of.get(id(system)), system.variables, res.points))
        return res

    monkeypatch.setattr(engine, "build_system", build)
    monkeypatch.setattr(engine.ConstraintSystem, "solve", solve)
    if collapse is None:
        sol = solve_order(table, chars, order, cap=cap)
    else:
        sol = solve_s_constant(table, chars, collapse, order // collapse, cap=cap)
    want = dict_chains(order, solved, engine._cap_or_default(cap))
    assert len(sol.chains) == len(want)
    assert len({id(chain.layout) for chain in sol.chains}) <= 1
    for chain, entries in zip(sol.chains, want):
        # before `entries` is read: the packed values alone
        assert chain.is_nonnegative() == all(
            v >= 0 for ent in entries.values() for v in ent.values())
        assert chain == PAChain(order, entries)
        assert parse_chain(render_chain(chain)) == chain
        # the dicts, with their level and class order
        assert chain.entries == entries
        assert [(m, list(ent)) for m, ent in chain.entries.items()] == [
            (m, list(ent)) for m, ent in entries.items()]
        assert repr(chain) == f"PAChain(unit_order={order!r}, entries={entries!r})"


def test_packed_chain_equality_ignores_key_order():
    chain = PAChain(6, {2: {"2a": 1}, 3: {"3a": 1, "3b": 0}, 6: {"2a": -2, "3a": 3}})
    reordered = PAChain(unit_order=6, entries={
        6: {"3a": 3, "2a": -2}, 2: {"2a": 1}, 3: {"3b": 0, "3a": 1}})
    assert chain.layout != reordered.layout and chain == reordered
    assert chain != PAChain(6, {2: {"2a": 1}, 3: {"3a": 1, "3b": 0}, 6: {"2a": -2,
                                                                          "3a": 2}})
    assert chain != PAChain(3, {2: {"2a": 1}, 3: {"3a": 1, "3b": 0}, 6: {"2a": -2,
                                                                          "3a": 3}})
    assert chain.levels() == [2, 3, 6] and chain.entry(3) == {"3a": 1, "3b": 0}
    assert chain.values == (1, 1, 0, -2, 3) and not chain.is_nonnegative()
    with pytest.raises(TypeError, match="unhashable"):
        hash(chain)


# --- degenerate geometry ---------------------------------------------------------

def test_indistinguishable_classes_give_infinite_status():
    table = parse_table({
        "group_name": "toy",
        "completeness": "full",
        "classes": [
            {"name": "1a", "element_order": 1},
            {"name": "3a", "element_order": 3, "power_maps": {"2": "3b"}},
            {"name": "3b", "element_order": 3, "power_maps": {"2": "3a"}},
        ],
        "characters": [
            {"name": "triv", "degree": 1, "values": {"1a": 1, "3a": 1, "3b": 1}},
        ],
    })
    sol = solve_order(table, ["triv"], 3)
    assert sol.status == "infinite"
    assert sol.ray and set(sol.ray) <= {"3a", "3b"}


# --- the cyclic garbage collector ---------------------------------------------

@pytest.fixture
def collector():
    """Restores the collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("solve", [
    lambda t: solve_order(t, ["st"], 6),
    lambda t: solve_s_constant(t, ["st"], 2, 3),
    lambda t: pq_check(t, pairs=[(2, 3)]),
], ids=["solve_order", "solve_s_constant", "pq_check"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_solve_pauses_the_collector_and_restores_it(psl2_7, monkeypatch, collector,
                                                      solve, enabled):
    seen = []
    enumerate_integer_points = engine.enumerate_integer_points

    def spy(poly, cap=None):
        seen.append(gc.isenabled())
        return enumerate_integer_points(poly, cap=cap)

    monkeypatch.setattr(engine, "enumerate_integer_points", spy)
    (gc.enable if enabled else gc.disable)()
    solve(psl2_7)
    assert seen and not any(seen)
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_solve_that_raises_restores_the_collector(psl2_7, collector, enabled):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(TableError, match="no character"):
        solve_order(psl2_7, ["zeta"], 6)
    with pytest.raises(TableError, match="no character"):
        solve_s_constant(psl2_7, ["zeta"], 2, 3)
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("load, solve", [
    (lambda: datasets.load_embedded("pgl2_243_rows"),
     lambda t: solve_order(t, list(t.characters), 11, cap=20000)),
    (lambda: gen_table("psl2", 25), lambda t: solve_order(t, list(t.characters), 39)),
    (lambda: gen_table("psl2", 16), pq_check),
], ids=["pgl2_243_rows-11-capped", "psl2_25-39", "pq-psl2_16"])
def test_a_solve_leaves_no_cyclic_garbage(collector, load, solve):
    # every DFS call left a reference cycle through its recursive closure:
    # 6,038 unreachable objects for PSL(2,25) order 39
    table = load()
    gc.disable()
    gc.collect()
    solve(table)
    assert gc.collect() == 0
