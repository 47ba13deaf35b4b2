"""Character-table data model: parsing, validation, power maps, chains."""

import copy
import hashlib
import json
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from helixpq import chartab, datasets
from helixpq.chartab import (
    Character,
    ConjClass,
    PAChain,
    TableError,
    check_chain_shape,
    parse_chain,
    parse_table,
    render_chain,
    render_table,
    trivial_chain,
    validate,
)
from helixpq.cyclo import (
    PRIME_BOUND,
    CycValue,
    cyc_rational,
    cyc_zero,
    euler_phi,
    galois_apply,
    parse_cyc,
    rational_trace,
    root_of_unity,
)
from helixpq.psl2 import gen_table

from chartab_oracle import orthogonality, parse_table_by_value, power_map_galois

Z3 = {"conductor": 3, "terms": [[1, 1, 1]]}
Z3SQ = {"conductor": 3, "terms": [[2, 1, 1]]}


def cyclic3_table(**overrides):
    data = {
        "group_name": "C3",
        "order": 3,
        "completeness": "full",
        "classes": [
            {"name": "1a", "element_order": 1, "size": 1},
            {"name": "3a", "element_order": 3, "size": 1,
             "power_maps": {"2": "3b"}},
            {"name": "3b", "element_order": 3, "size": 1,
             "power_maps": {"2": "3a"}},
        ],
        "characters": [
            {"name": "triv", "degree": 1, "values": {"1a": 1, "3a": 1, "3b": 1}},
            {"name": "omega", "degree": 1, "values": {"1a": 1, "3a": Z3, "3b": Z3SQ}},
            {"name": "omega2", "degree": 1, "values": {"1a": 1, "3a": Z3SQ, "3b": Z3}},
        ],
    }
    data.update(overrides)
    return data


# --- parsing / rendering ----------------------------------------------------

def test_round_trip_preserves_everything():
    table = parse_table(cyclic3_table())
    again = parse_table(render_table(table))
    assert render_table(again) == render_table(table)
    assert json.dumps(render_table(table))  # JSON-serializable


def test_classes_sorted_by_order_then_name():
    table = parse_table(cyclic3_table(classes=[
        {"name": "3b", "element_order": 3},
        {"name": "1a", "element_order": 1},
        {"name": "3a", "element_order": 3},
    ], characters=[]))
    assert [c.name for c in table.classes] == ["1a", "3a", "3b"]


def test_duplicate_class_names_rejected():
    with pytest.raises(TableError, match="duplicate"):
        parse_table(cyclic3_table(classes=[
            {"name": "1a", "element_order": 1},
            {"name": "1a", "element_order": 1},
        ], characters=[]))


def test_power_map_to_unknown_class_rejected():
    bad = cyclic3_table()
    bad["classes"][1]["power_maps"] = {"2": "9z"}
    with pytest.raises(TableError, match="unknown class"):
        parse_table(bad)


def test_value_on_unknown_class_rejected():
    bad = cyclic3_table()
    bad["characters"][0]["values"]["5x"] = 1
    with pytest.raises(TableError, match="unknown class"):
        parse_table(bad)


def test_nonpositive_degree_rejected():
    bad = cyclic3_table()
    bad["characters"][0]["degree"] = 0
    with pytest.raises(TableError, match="degree"):
        parse_table(bad)


def test_composite_brauer_characteristic_rejected():
    bad = cyclic3_table()
    bad["characters"][0]["characteristic"] = 6
    with pytest.raises(TableError, match="characteristic"):
        parse_table(bad)


def test_primes_beyond_the_primality_bound_rejected():
    # a key or characteristic too large to test is named, not guessed at
    bad = cyclic3_table()
    bad["classes"][1]["power_maps"] = {str(PRIME_BOUND): "3b"}
    with pytest.raises(TableError, match="^class '3a': power-map key: .* too large"):
        parse_table(bad)
    bad = cyclic3_table()
    bad["characters"][1]["characteristic"] = PRIME_BOUND
    with pytest.raises(TableError, match="^character 'omega': characteristic: .* too large"):
        parse_table(bad)


# --- validation -------------------------------------------------------------

def test_validate_accepts_good_table():
    report = validate(parse_table(cyclic3_table()))
    assert report.ok, report.problems
    assert "column-orthogonality" in report.checks_run


def test_validate_flags_degree_mismatch_at_identity():
    bad = cyclic3_table()
    bad["characters"][1]["values"]["1a"] = 7
    report = validate(parse_table(bad))
    assert not report.ok
    assert any("identity" in p or "degree" in p for p in report.problems)


def test_validate_flags_orthogonality_violation():
    bad = cyclic3_table()
    bad["characters"][1]["values"]["3b"] = 1  # no longer a character
    report = validate(parse_table(bad))
    assert not report.ok
    # each relation reports its first failing pair, off the diagonal here
    assert report.problems[-2:] == [
        "row-orthogonality: <triv,omega> = CycValue('1 - z3'), expected 0",
        "column-orthogonality: columns 1a,3b: CycValue('1 - z3'), expected 0",
    ]
    # a wrong class size breaks the column relation on the diagonal
    bad = cyclic3_table(order=4)
    bad["classes"][1]["size"] = 2
    assert validate(parse_table(bad)).problems[-2:] == [
        "row-orthogonality: <triv,omega> = CycValue('-1 - z3'), expected 0",
        "column-orthogonality: columns 1a,1a: CycValue('3'), expected 4",
    ]


def _two_pass_validate(table):
    """The reference: `validate` with both orthogonality relations computed
    pair by pair by the oracle, and the column relation always by its own
    pass, as before it could be derived from the row relation.  Every other
    check is `validate`'s."""
    report = validate(table)
    relations = ("row-orthogonality", "column-orthogonality")
    checks = [c for c in report.checks_run if c not in relations]
    problems = [p for p in report.problems if not p.startswith(relations)]
    if "row-orthogonality" in report.checks_run:
        classes, g = table.classes, table.order
        ordinary = [ch for ch in table.characters if ch.characteristic == 0]
        details = [
            orthogonality(
                [[ch.values[c.name] for c in classes] for ch in ordinary],
                [c.size for c in classes], [g] * len(ordinary),
                lambda i, j: f"<{ordinary[i].name},{ordinary[j].name}> = ",
            ),
            orthogonality(
                [[ch.values[c.name] for ch in ordinary] for c in classes],
                [1] * len(ordinary), [g // c.size for c in classes],
                lambda i, j: f"columns {classes[i].name},{classes[j].name}: ",
            ),
        ]
        for name, detail in zip(relations, details):
            checks.append(name)
            if detail:
                problems.append(f"{name}: {detail}")
    return not problems, checks, problems


def _report(table):
    report = validate(table)
    return report.ok, report.checks_run, report.problems


def _corrupt(table, rng):
    """A copy of `table` with one seeded corruption; sizes stay positive,
    as `parse_table` requires."""
    classes = list(table.classes)
    chars = [Character(ch.name, ch.degree, dict(ch.values), ch.characteristic)
             for ch in table.characters]
    order = table.order
    kind = rng.randrange(7)
    if kind == 0:  # one value perturbed
        ch = rng.choice(chars)
        c = rng.choice(sorted(ch.values))
        ch.values[c] = ch.values[c] + rng.choice([
            cyc_rational(1), cyc_rational(-2), cyc_rational(Fraction(1, 2)),
            root_of_unity(3, 1), root_of_unity(4, 1), root_of_unity(5, 2),
        ])
    elif kind == 1:  # two values of one row swapped
        ch = rng.choice(chars)
        if len(ch.values) > 1:
            a, b = rng.sample(sorted(ch.values), 2)
            ch.values[a], ch.values[b] = ch.values[b], ch.values[a]
    elif kind == 2:  # two columns swapped
        a, b = rng.sample([c.name for c in classes], 2)
        for ch in chars:
            va, vb = ch.values.pop(a, None), ch.values.pop(b, None)
            if va is not None:
                ch.values[b] = va
            if vb is not None:
                ch.values[a] = vb
    elif kind == 3:  # one class size changed
        i = rng.randrange(len(classes))
        size = classes[i].size or 1
        size = rng.choice([size + 1, max(1, size - 1), 2 * size, 7, 1,
                           classes[rng.randrange(len(classes))].size or 3])
        classes[i] = ConjClass(classes[i].name, classes[i].element_order, size,
                               classes[i].power_maps)
    elif kind == 4:  # the group order changed
        g = order or 60
        order = rng.choice([0, -g, -1, g - 1, g + 1, 2 * g, g // 2, None])
    elif kind == 5:  # one character dropped
        del chars[rng.randrange(len(chars))]
    else:  # one character duplicated
        i = rng.randrange(len(chars))
        chars.insert(rng.randrange(len(chars) + 1), Character(
            chars[i].name + "_dup", chars[i].degree, dict(chars[i].values),
            chars[i].characteristic))
    return chartab.CharacterTable(table.group_name, classes, chars, order,
                                  table.completeness)


def _acceptance_tables():
    return [gen_table(fam, q) for fam in ("psl2", "pgl2")
            for q in (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49)]


def _differential_tables():
    tables = _acceptance_tables()
    tables += [gen_table("pgl2", q, include_brauer3=True) for q in (5, 9, 16)]
    tables += [datasets.load_embedded(n) for n in datasets.list_embedded()]
    return tables


def _seeded_corruptions(tables):
    """1,200 seeded corruptions of the tables with at most 17 classes,
    which keeps the runs short."""
    rng = random.Random(20261019)
    small = [t for t in tables if len(t.classes) <= 17]
    return [_corrupt(rng.choice(small), rng) for _ in range(1200)]


def test_validate_matches_the_two_pass_reference():
    tables = _differential_tables()
    for table in tables:
        assert _report(table) == _two_pass_validate(table), table.group_name
    outcomes = set()
    for table in _seeded_corruptions(tables):
        got = _report(table)
        assert got == _two_pass_validate(table), (table.group_name, got)
        if "row-orthogonality" in got[1]:
            failed = {p.split(":")[0] for p in got[2]}
            outcomes.add(("row-orthogonality" in failed,
                          "column-orthogonality" in failed))
    # every combination of the two relations failing or holding occurs
    assert len(outcomes) == 4


def test_column_relation_is_computed_when_it_is_not_implied():
    # the row relation holds but the table is not square
    table = gen_table("psl2", 5)
    del table.characters[-1]
    want = "column-orthogonality: columns 1a,1a: CycValue('51'), expected 60"
    assert validate(table).problems[-1] == want
    assert _report(table) == _two_pass_validate(table)
    # the row relation holds but the class size 4 does not divide g = 1
    table = parse_table({
        "group_name": "bad", "order": 1, "completeness": "full",
        "classes": [{"name": "1a", "element_order": 1, "size": 4}],
        "characters": [{"name": "x", "degree": 1, "values": {"1a": "1/2"}}],
    })
    report = validate(table)
    assert "row-orthogonality" not in " ".join(report.problems)
    want = "column-orthogonality: columns 1a,1a: CycValue('1/4'), expected 0"
    assert report.problems[-1] == want
    assert _report(table) == _two_pass_validate(table)


def _large_tables():
    return [gen_table(fam, q) for fam, q in (("psl2", 32), ("pgl2", 49), ("pgl2", 27))]


def test_validate_matches_the_oracle_on_large_tables():
    # tables whose values fall into long Galois orbits, with 40 seeded
    # corruptions of them
    tables = _large_tables()
    rng = random.Random(20261020)
    outcomes = set()
    for table in tables + [_corrupt(rng.choice(tables), rng) for _ in range(40)]:
        got = _report(table)
        assert got == _two_pass_validate(table), (table.group_name, got)
        outcomes.add(tuple(p.split(":")[0] for p in got[2] if "orthogonality" in p))
    assert len(outcomes) == 4


def _with_character(table, index, ch):
    chars = list(table.characters)
    chars.insert(index, ch)
    return chartab.CharacterTable(table.group_name, table.classes, chars,
                                  table.order, table.completeness)


def _det(m):
    """The determinant of a square matrix of values, by expansion along
    its first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * _det([r[:c] + r[c + 1:] for r in m[1:]])
               for c in range(len(m)))


def test_first_failing_pair_is_the_oracles_on_targeted_tables():
    table = gen_table("psl2", 32)
    chi = table.character_by_name("chi_4")  # irrational on the 31 classes
    at = table.characters.index(chi)
    # chi_4 duplicated before itself, after itself and at the end
    for index in (at, at + 1, len(table.characters)):
        dup = Character("chi_4_dup", chi.degree, dict(chi.values))
        bad = _with_character(table, index, dup)
        report = _report(bad)
        assert report == _two_pass_validate(bad), index
        assert "row-orthogonality: <chi_4" in report[2][-2], report[2]
    # one member of the chi family changed, its Galois conjugates left as
    # they were: one value perturbed; two values on classes of one size
    # swapped, which keeps it orthogonal to triv and st; and a change on
    # four classes of one size orthogonal to triv, st, chi_1 and chi_2 but
    # not to chi_3, the image of chi_1 under zeta_31 -> zeta_31^3
    cls = ["31a", "31b", "31c", "31d"]
    rows = [[cyc_rational(1)] * 4] + [
        [table.character_by_name(name).values[c] for c in cls]
        for name in ("chi_1", "chi_2")]
    delta = [(-1) ** m * _det([r[:m] + r[m + 1:] for r in rows]) for m in range(4)]
    for edit, pair in (
        (lambda v: v.update({"31b": v["31b"] + 1}), "<triv,chi_4>"),
        (lambda v: v.update({"31a": v["31b"], "31b": v["31a"]}), "<chi_1,chi_4>"),
        (lambda v: v.update({c: v[c] + d for c, d in zip(cls, delta)}), "<chi_3,chi_4>"),
    ):
        values = dict(chi.values)
        edit(values)
        bad = _with_character(table, at, Character("chi_4", chi.degree, values))
        del bad.characters[at + 1]
        report = _report(bad)
        assert report == _two_pass_validate(bad)
        assert report[2][-2].startswith(f"row-orthogonality: {pair} = "), report[2]


def test_pair_sums_are_one_per_galois_orbit(monkeypatch):
    # the row relation of each table computes one pair per orbit of
    # (Z/L)^* on its unordered pairs of characters
    calls = []
    pair_sum = chartab._pair_sum
    monkeypatch.setattr(chartab, "_pair_sum", lambda e: calls.append(1) or pair_sum(e))
    for table, want in zip(_large_tables(), (39, 186, 77)):
        calls.clear()
        assert validate(table).ok
        assert len(calls) == want, table.group_name
    calls.clear()
    assert all(validate(t).ok for t in _acceptance_tables())
    assert len(calls) == 1040


def _power_map_report(table):
    report = validate(table)
    head = "power-map-galois["
    return ([c for c in report.checks_run if c.startswith(head)],
            [p for p in report.problems if p.startswith(head)])


def _corrupt_power_map(table, rng):
    """A copy of `table` with one seeded fault where its power-map Galois
    check looks, as `_corrupt` makes faults elsewhere."""
    classes = list(table.classes)
    chars = [Character(ch.name, ch.degree, dict(ch.values), ch.characteristic)
             for ch in table.characters]
    ordinary = [ch for ch in chars if not ch.characteristic]
    completeness = table.completeness
    checked = [(i, p) for i, c in enumerate(classes) for p in sorted(c.power_maps)
               if c.element_order % p and c.element_order > 1]
    i, p = rng.choice(checked)
    c = classes[i]
    maps, target = dict(c.power_maps), c.power_maps[p]
    alike = [d.name for d in classes if d.element_order == c.element_order]
    kind = rng.randrange(4)
    if kind == 0:  # the target moved to another class of the same order
        maps[p] = rng.choice([d for d in alike if d != target] or alike)
    elif kind == 1:  # a value on the target class perturbed
        ch = rng.choice(ordinary)
        ch.values[target] = ch.values[target] + rng.choice([
            cyc_rational(1), cyc_rational(Fraction(-1, 2)),
            root_of_unity(c.element_order), root_of_unity(c.element_order, -1),
        ])
    elif kind == 2:  # a map added for a prime dividing a value's conductor
        q = rng.choice([q for q in (2, 3, 5, 7, 11, 13) if c.element_order % q])
        # the first character, read first, is drawn more often
        ch = rng.choice(ordinary[:1] + ordinary)
        ch.values[c.name] = ch.values[c.name] + root_of_unity(4 if q == 2 else q)
        maps[q] = rng.choice(alike)
    else:  # a value dropped from a partial table
        completeness = "partial"
        del rng.choice(ordinary).values[rng.choice([c.name, target])]
    classes[i] = ConjClass(c.name, c.element_order, c.size, maps)
    return chartab.CharacterTable(table.group_name, classes, chars, table.order,
                                  completeness)


def test_power_map_galois_matches_the_per_character_reference():
    # validate compares a column of value ids per (class, prime) and looks
    # character by character only where the columns differ or lack a value
    tables = _differential_tables()
    for table in tables:
        assert _power_map_report(table) == power_map_galois(table), table.group_name
    rng = random.Random(20261021)
    mapped = [t for t in tables if len(t.classes) <= 30 and any(
        p for c in t.classes for p in c.power_maps if c.element_order % p)]
    seen = Counter()
    for _ in range(240):
        table = _corrupt_power_map(rng.choice(mapped), rng)
        got = _power_map_report(table)
        assert got == power_map_galois(table), (table.group_name, got)
        for problem in got[1]:
            seen["coprime" if "not coprime" in problem else "twist"] += 1
        seen["partial held" if table.completeness == "partial" and not got[1] else "other"] += 1
    # both details occur, and dropped values that leave every check holding
    assert {"coprime", "twist", "partial held"} <= set(seen), seen


def test_each_value_is_twisted_once_per_exponent(monkeypatch):
    # per distinct value, not per entry: a twist per (value, k) at most,
    # and one memo lookup per (distinct value, prime) in the power-map
    # check and per (distinct value, generator) in each orthogonality
    # relation
    twisted, looked_up = Counter(), []
    apply, twist = chartab.galois_apply, chartab._twist
    monkeypatch.setattr(chartab, "galois_apply",
                        lambda v, k: twisted.update([(v, k)]) or apply(v, k))
    monkeypatch.setattr(chartab, "_twist",
                        lambda *args: looked_up.append(1) or twist(*args))
    assert validate(gen_table("pgl2", 49)).ok
    assert max(twisted.values()) == 1
    assert sum(twisted.values()) == 282
    assert len(looked_up) == 334


@pytest.mark.parametrize("n", [4, 8, 16, 48, 343, 1023, 1200, 2310])
def test_unit_generators_generate_the_unit_group(n):
    group = {1}
    todo = [1]
    while todo:
        x = todo.pop()
        for k in chartab._unit_generators(n):
            y = x * k % n
            if y not in group:
                group.add(y)
                todo.append(y)
    assert len(group) == euler_phi(n)


@pytest.mark.parametrize("bad", [1.5, 3.0, True, "2.0"])
@pytest.mark.parametrize("edit, field", [
    (lambda t, x: t["classes"][1].update(element_order=x),
     "class '3a': element_order"),
    (lambda t, x: t["classes"][1].update(size=x), "class '3a': size"),
    (lambda t, x: t["classes"][1].update(power_maps={x: "3b"}),
     "class '3a': power-map key"),
    (lambda t, x: t["characters"][1].update(degree=x), "character 'omega': degree"),
    (lambda t, x: t["characters"][1].update(characteristic=x),
     "character 'omega': characteristic"),
    (lambda t, x: t.update(order=x), "order"),
], ids=["element_order", "size", "power_map_key", "degree", "characteristic", "order"])
def test_integer_fields_refuse_floats_and_booleans(edit, field, bad):
    # int() would truncate 1.5, read True as 1 and fail on "2.0" without
    # naming the field
    data = cyclic3_table()
    edit(data, bad)
    with pytest.raises(TableError, match=f"^{field} must be an integer"):
        parse_table(data)


def test_parse_table_rejects_truncated_or_undefined_terms():
    for term in ([0, -1.4, 1], [0, 1, 0]):
        bad = cyclic3_table()
        bad["characters"][1]["values"]["3a"] = {"conductor": 3, "terms": [term]}
        with pytest.raises(TableError, match="term"):
            parse_table(bad)


@pytest.mark.parametrize("term, detail", [
    ([True, 1, 1], "term [True, 1, 1]: True is not an integer"),
    ([1.0, 1, 1], "term [1.0, 1, 1]: 1.0 is not an integer"),
    ([1, True, 1], "term [1, True, 1]: True is not an integer"),
    ([1, 1.0, 1], "term [1, 1.0, 1]: 1.0 is not an integer"),
    ([1, 1, True], "term [1, 1, True]: True is not an integer"),
    ([1, 1, 1.0], "term [1, 1, 1.0]: 1.0 is not an integer"),
    ([1, 1, 0], "term [1, 1, 0] has a zero denominator"),
])
def test_a_repeated_value_is_checked_again(term, detail):
    # omega's value Z3 on 3a repeats as omega2's value on 3b, where one
    # field is now bad; True and 1.0 equal 1, so a value shared by its
    # unparsed terms would let them through.  The messages are the
    # parser's from before values were shared.
    good = parse_table(cyclic3_table())
    first = good.character_by_name("omega").values["3a"]
    assert good.character_by_name("omega2").values["3b"] is first
    data = cyclic3_table()
    data["characters"][2]["values"]["3b"] = {"conductor": 3, "terms": [term]}
    with pytest.raises(TableError) as exc:
        parse_table(data)
    assert str(exc.value) == f"character 'omega2': bad value on class '3b': {detail}"


@pytest.mark.parametrize("term, detail", [
    ([1, "1", 1], "term [1, '1', 1]: '1' is not an integer"),
    ("111", "malformed term '111'"),
    ({"a": 1, "b": 2}, "malformed term {'a': 1, 'b': 2}"),
], ids=["string_field", "string_term", "dict_term"])
def test_a_term_is_a_list_of_integers(term, detail):
    # int() read the field "1" as 1 and the term "111" as [1, 1, 1]; the
    # dict term ended in a bare "missing required key 0"
    data = cyclic3_table()
    data["characters"][1]["values"]["3a"] = {"conductor": 3, "terms": [term]}
    with pytest.raises(TableError) as exc:
        parse_table(data)
    assert str(exc.value) == f"character 'omega': bad value on class '3a': {detail}"


@pytest.mark.parametrize("text", [" 2 ", "\u0662", "2_0", "0.5", "1e3", "1/-2"])
def test_a_string_value_is_a_ratio_in_ascii_digits(text):
    # Fraction read " 2 ", the Arabic-Indic digit two, "2_0", "0.5" and
    # "1e3" as 2, 2, 20, 1/2 and 1000
    data = cyclic3_table()
    data["characters"][1]["values"]["3a"] = text
    with pytest.raises(TableError) as exc:
        parse_table(data)
    assert str(exc.value) == (f"character 'omega': bad value on class '3a': "
                              f"value {text!r} is not written as a or a/b in ASCII digits")


def test_a_string_value_reads_as_a_signed_ratio():
    data = cyclic3_table()
    data["characters"][1]["values"]["3a"] = "-3/4"
    value = parse_table(data).character_by_name("omega").values["3a"]
    assert value == cyc_rational(Fraction(-3, 4))
    data["characters"][1]["values"]["3a"] = "1/0"
    with pytest.raises(TableError) as exc:
        parse_table(data)
    assert str(exc.value) == ("character 'omega': bad value on class '3a': "
                              "term '1/0' has a zero denominator")


def _edited_c3(edit):
    data = cyclic3_table()
    edit(data)
    return data


@pytest.mark.parametrize("call, error, message", [
    (lambda: gen_table("psl2", 7.5), ValueError, "q must be an integer, got 7.5"),
    (lambda: gen_table("psl2", Fraction(17, 2)), ValueError,
     "q must be an integer, got Fraction(17, 2)"),
    (lambda: CycValue(7.5, {1: 1}), ValueError, "conductor must be an integer, got 7.5"),
    (lambda: CycValue(7, {1.9: 1}), ValueError, "exponent must be an integer, got 1.9"),
    (lambda: rational_trace(root_of_unity(3), 6.5), ValueError,
     "trace level must be an integer, got 6.5"),
    (lambda: parse_table(cyclic3_table(order=Decimal("168.9"))), TableError,
     "order must be an integer, got Decimal('168.9')"),
    (lambda: parse_table(_edited_c3(
        lambda t: t["classes"][1].update(element_order=Fraction(5, 2)))), TableError,
     "class '3a': element_order must be an integer, got Fraction(5, 2)"),
    (lambda: parse_chain({"unit_order": 6, "entries": {"2": {"2a": Fraction(3, 2)}}}),
     TableError, "chain entries['2']['2a'] must be an integer, got Fraction(3, 2)"),
    (lambda: parse_table(_edited_c3(
        lambda t: t["classes"][1].update(power_maps={"2_0": "3b"}))), TableError,
     "class '3a': power-map key must be an integer, got '2_0'"),
    (lambda: parse_table(_edited_c3(
        lambda t: t["classes"][1].update(power_maps={"\u0662": "3b"}))), TableError,
     "class '3a': power-map key must be an integer, got '\u0662'"),
], ids=["gen_table_q_float", "gen_table_q_fraction", "conductor", "exponent",
        "trace_level", "table_order", "element_order", "chain_entry",
        "power_map_key_underscore", "power_map_key_non_ascii"])
def test_no_integer_argument_or_field_is_truncated(call, error, message):
    # int() truncated each of these, or read the key "2_0" as 20 and the
    # Arabic-Indic digit two as 2
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_equal_terms_at_other_conductors_stay_apart():
    data = cyclic3_table(completeness="partial")
    # Z3's terms again, at conductors 5 and 7
    data["characters"][0]["values"]["3a"] = {"conductor": 5, "terms": [[1, 1, 1]]}
    data["characters"][0]["values"]["3b"] = {"conductor": 7, "terms": [[1, 1, 1]]}
    table = parse_table(data)
    triv = table.character_by_name("triv")
    assert [triv.values[c] for c in ("3a", "3b")] == [root_of_unity(5), root_of_unity(7)]
    assert table.character_by_name("omega").values["3a"] == root_of_unity(3)


def test_parse_table_values_match_parse_cyc_one_by_one():
    tables = _acceptance_tables()
    tables += [datasets.load_embedded(n) for n in datasets.list_embedded()]
    for table in tables:
        data = render_table(table)
        parsed = parse_table(data)
        for obj, ch in zip(data["characters"], parsed.characters):
            assert obj["values"].keys() == ch.values.keys()
            for cname, raw in obj["values"].items():
                got, want = ch.values[cname], parse_cyc(raw)
                assert (got.conductor, got.terms) == (want.conductor, want.terms), (
                    table.group_name, ch.name, cname)


# raw values that `parse_table` must check where they stand: booleans and
# floats equal to ints, strings, zero denominators, ints above sys.maxsize
_BIG = sys.maxsize + 1
_BAD_VALUES = [True, False, 1.0, 2.5, "3", "-1/2", "x", "1/0", None, _BIG, -_BIG,
               [1, 0], [3, 2], [True, 1], [1]]
_BAD_FIELDS = [True, False, 1.0, 0.5, "1", "x", None, 0, _BIG, -_BIG, [1]]


def _mutate_value(raw, rng):
    """One seeded mutation of a raw value."""
    if not isinstance(raw, dict) or rng.random() < 0.2:
        return rng.choice(_BAD_VALUES + [[raw, 1], [raw, 0], str(raw), raw + _BIG]
                          if isinstance(raw, int) else _BAD_VALUES)
    raw = copy.deepcopy(raw)
    terms = raw["terms"]
    t = rng.randrange(len(terms))
    kind = rng.randrange(7)
    if kind == 0:  # the conductor
        raw["conductor"] = rng.choice([True, 3.0, "3", 0, -3, None])
    elif kind == 1:  # a key dropped
        del raw[rng.choice(["conductor", "terms"])]
    elif kind == 2:  # terms that are not a list of lists
        raw["terms"] = rng.choice([5, "12", None, {"1": 1}, terms[t], [5], ["111"],
                                   [tuple(terms[t])], [{0: 1, 1: 1}]])
    elif kind == 3:  # a term of the wrong length
        terms[t] = rng.choice([terms[t][:1], terms[t] + [1], []])
    elif kind == 4:  # a zero denominator
        terms[t] = (terms[t] + [1])[:2] + [0]
    elif kind == 5:  # one field of one term
        terms[t][rng.randrange(len(terms[t]))] = rng.choice(_BAD_FIELDS)
    else:  # the same value written differently
        e, num, *den = terms[t]
        terms[t] = rng.choice([[e, num], [e, 2 * num, 2 * (den or [1])[0]],
                               [e + raw["conductor"], num] + den])
    return raw


def _parse_outcome(parse, data):
    try:
        table = parse(data)
    except TableError as exc:
        return str(exc)
    return render_table(table), [
        [(c, v.conductor, v.terms) for c, v in ch.values.items()]
        for ch in table.characters]


def test_parse_table_matches_the_value_by_value_reference_on_mutations():
    # each mutation hits one value, half the time a repeat of a value
    # parsed before in the same table, whose first copy is then shared
    sources = [render_table(t) for t in _acceptance_tables()[:9]]
    sources += [render_table(datasets.load_embedded(n)) for n in datasets.list_embedded()]
    rng = random.Random(20261022)
    seen = Counter()
    for _ in range(400):
        data = copy.deepcopy(rng.choice(sources))
        firsts, repeats, raws = [], [], set()
        for ch in data["characters"]:
            for cname, raw in ch["values"].items():
                key = json.dumps(raw)
                (repeats if key in raws else firsts).append((ch["values"], cname))
                raws.add(key)
        repeated = bool(repeats) and rng.random() < 0.5
        values, cname = rng.choice(repeats if repeated else firsts)
        values[cname] = _mutate_value(values[cname], rng)
        got = _parse_outcome(parse_table, data)
        assert got == _parse_outcome(parse_table_by_value, data), (values[cname], got)
        seen[isinstance(got, str), repeated] += 1
    # errors and tables, on first and on repeated copies
    assert len(seen) == 4, seen


def test_equal_values_written_differently_parse_equal():
    data = cyclic3_table(completeness="partial")
    values = data["characters"][0]["values"]
    for cname, terms in zip(("1a", "3a", "3b"), ([[1, 1]], [[1, 1, 1]], [[1, 2, 2]])):
        values[cname] = {"conductor": 3, "terms": terms}
    got = parse_table(data).characters[0].values
    assert got["1a"] == got["3a"] == got["3b"] == root_of_unity(3)


def test_no_parsed_value_outlives_its_call():
    text = json.dumps(render_table(gen_table("pgl2", 49)))
    first, second = parse_table(text), parse_table(text)

    def irrational(table):
        return {id(v) for ch in table.characters for v in ch.values.values()
                if not v.is_rational()}

    assert irrational(first) and not irrational(first) & irrational(second)
    # within one call, a value written twice is one object
    assert len(irrational(first)) < sum(
        not v.is_rational() for ch in first.characters for v in ch.values.values())


def _random_value(rng):
    n = rng.choice([1, 3, 4, 5, 7, 8, 9, 12, 15, 20])
    v = cyc_zero()
    for _ in range(rng.randint(0, 3)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        v = v + root_of_unity(n, rng.randrange(n)) * cyc_rational(coeff)
    return v


def test_pair_sum_matches_cyclotomic_arithmetic():
    rng = random.Random(20261018)
    for _ in range(200):
        entries = [
            (_random_value(rng), _random_value(rng), rng.randint(-3, 5))
            for _ in range(rng.randint(0, 6))
        ]
        want = cyc_zero()
        for a, b, w in entries:
            want = want + w * a * galois_apply(b, -1)
        got = chartab._pair_sum(entries)
        assert (got.conductor, got.terms) == (want.conductor, want.terms), entries


def test_pair_sum_matches_the_reference_on_every_row_pair():
    # the reference is sum of w * a * conj(b) in CycValue arithmetic; each
    # distinct value is kept once, so that ids can key its memos
    canon, terms, pairs = {}, {}, {}

    def reference(u, v, weights):
        key = (tuple(map(id, u)), tuple(map(id, v)), weights)
        total = pairs.get(key)
        if total is None:
            total = cyc_zero()
            for a, b, w in zip(u, v, weights):
                term = terms.get((id(a), id(b), w))
                if term is None:
                    term = terms[id(a), id(b), w] = w * a * galois_apply(b, -1)
                if term:
                    total = total + term
            pairs[key] = total
        return total

    seen = set()
    for table in _acceptance_tables() + _seeded_corruptions(_differential_tables()):
        weights = tuple(c.size or 1 for c in table.classes)
        rows = [[canon.setdefault(x, x)
                 for x in (ch.values.get(c.name, cyc_zero()) for c in table.classes)]
                for ch in table.characters]
        for i, u in enumerate(rows):
            seen.add((len({x.is_rational() for x in u}), all(x.is_integral() for x in u)))
            for v in rows[i:]:
                got = chartab._pair_sum(zip(u, v, weights))
                want = reference(u, v, weights)
                assert (got.conductor, got.terms) == (want.conductor, want.terms)
    # rows mixing rational and irrational values occur, with and without
    # Fraction values
    assert {(2, True), (2, False)} <= seen


def test_validate_reports_are_pinned():
    # sha256 of every (ok, checks_run, problems) over the differential
    # tables and their seeded corruptions, recorded before values were
    # shared and rational terms summed apart
    digest = hashlib.sha256()
    tables = _differential_tables()
    for table in tables + _seeded_corruptions(tables):
        digest.update(json.dumps(_report(table)).encode())
    assert digest.hexdigest() == (
        "b18e5e0a5c6bb626a69e62ebf334c7e1973e0a1bedc86f7ced12892846c15e1c")


def test_validate_flags_power_map_order_mismatch():
    bad = cyclic3_table()
    # order-3 class squaring into the identity is impossible
    bad["classes"][1]["power_maps"] = {"2": "1a"}
    report = validate(parse_table(bad))
    assert not report.ok
    assert any("power-map" in p for p in report.problems)


# --- lookups and power maps --------------------------------------------------

def test_classes_of_order_dividing():
    table = parse_table(cyclic3_table())
    assert [c.name for c in table.classes_of_order_dividing(3)] == ["3a", "3b"]
    assert [c.name for c in table.classes_of_order_dividing(3, include_identity=True)] \
        == ["1a", "3a", "3b"]
    assert table.classes_of_order_dividing(2) == []


def test_power_class_uses_stored_maps_and_inference():
    table = parse_table(cyclic3_table())
    assert table.power_class("3a", 2) == "3b"     # stored
    assert table.power_class("3a", 3) == "1a"     # kills the order
    assert table.power_class("3a", 4) == "3a"     # k = 1 mod o
    assert table.power_class("1a", 5) == "1a"


def test_power_class_unique_target_inference_and_ambiguity():
    data = {
        "group_name": "toy",
        "completeness": "partial",
        "classes": [
            {"name": "1a", "element_order": 1},
            {"name": "2a", "element_order": 2},
            {"name": "6a", "element_order": 6},
            {"name": "3a", "element_order": 3},
            {"name": "3b", "element_order": 3},
        ],
        "characters": [],
    }
    table = parse_table(data)
    # 6a^3 has order 2 and 2a is the only candidate
    assert table.power_class("6a", 3) == "2a"
    # 6a^2 has order 3 but two classes qualify and no map is stored
    assert table.power_class("6a", 2) is None


# --- chains -------------------------------------------------------------------

def test_chain_round_trip_and_accessors():
    chain = PAChain(6, {
        2: {"2a": 1},
        3: {"3a": 0, "3b": 1},
        6: {"2a": -2, "3a": 2, "3b": 1},
    })
    assert chain.levels() == [2, 3, 6]
    assert chain.entry(6)["3a"] == 2
    assert not chain.is_nonnegative()
    rebuilt = parse_chain(json.dumps(render_chain(chain)))
    assert rebuilt.unit_order == 6 and rebuilt.entries == chain.entries


def test_parse_chain_refuses_text_that_is_not_json():
    with pytest.raises(TableError, match="^not valid JSON: Expecting value"):
        parse_chain("not json")


@pytest.mark.parametrize("bad", [1.7, 1.0, True])
def test_parse_chain_refuses_float_and_boolean_augmentations(bad):
    with pytest.raises(TableError, match=r"chain entries\['2'\]\['2a'\] must be"):
        parse_chain({"unit_order": 2, "entries": {"2": {"2a": bad}}})
    with pytest.raises(TableError, match="chain unit_order must be"):
        parse_chain({"unit_order": bad, "entries": {"2": {"2a": 1}}})
    # level keys are strings read as integers
    assert parse_chain({"unit_order": 2, "entries": {"2": {"2a": 1}}}).entries == {
        2: {"2a": 1}}


def test_check_chain_shape_accepts_group_element_chain():
    table = parse_table(cyclic3_table())
    chain = trivial_chain(table, "3a")
    assert chain.unit_order == 3
    assert chain.entries == {3: {"3a": 1, "3b": 0}}
    assert check_chain_shape(table, chain) == set()
    # "~3" stands for the total over 3a and 3b; the orders summed come back
    assert check_chain_shape(table, PAChain(3, {3: {"~3": 1}})) == {3}


def test_check_chain_shape_rejects_wrong_levels():
    table = parse_table(cyclic3_table())
    with pytest.raises(TableError, match="level"):
        check_chain_shape(table, PAChain(3, {}))


def test_check_chain_shape_rejects_bad_sum():
    table = parse_table(cyclic3_table())
    with pytest.raises(TableError, match="sum"):
        check_chain_shape(table, PAChain(3, {3: {"3a": 2, "3b": 1}}))


def test_check_chain_shape_rejects_identity_support():
    table = parse_table(cyclic3_table())
    with pytest.raises(TableError):
        check_chain_shape(table, PAChain(3, {3: {"1a": 1, "3a": 0, "3b": 0}}))


def test_trivial_chain_of_identity_is_empty():
    table = parse_table(cyclic3_table())
    chain = trivial_chain(table, "1a")
    assert chain.unit_order == 1 and chain.entries == {}
    check_chain_shape(table, chain)


# --- embedded datasets all parse and validate --------------------------------

def test_embedded_datasets_validate():
    from helixpq import datasets

    assert len(datasets.list_embedded()) == 8
    for name in datasets.list_embedded():
        table = datasets.load_embedded(name)
        report = validate(table)
        assert report.ok, (name, report.problems)


def test_unknown_embedded_name_rejected():
    from helixpq import datasets

    with pytest.raises(TableError, match="embedded"):
        datasets.load_embedded("nope")
