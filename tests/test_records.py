"""The package's records: immutable NamedTuples, and the two plain classes
that normalise their fields when built (CharacterTable, Polyhedron)."""

import pytest

from helixpq import chartab, engine, lattice, pq, psl2
from helixpq.chartab import Character, CharacterTable, ConjClass, PAChain
from helixpq.cyclo import cyc_rational, root_of_unity
from helixpq.engine import ConstraintSystem, Row, SolutionSet
from helixpq.lattice import Polyhedron
from helixpq.pq import PairReport

NAMED_TUPLES = [
    chartab.ConjClass, chartab.Character, chartab.ValidationReport,
    engine.Row, engine.ConstraintSystem, engine.SolutionSet, engine.VerifyReport,
    lattice.EnumerationResult,
    pq.PrimeGraph, pq.PairReport, pq.PQReport,
    psl2.Psl2Params, psl2._Spec,
]


def c3_table(notes=None):
    # the classes are given out of order: the table sorts them
    return CharacterTable(
        "C3",
        [ConjClass("3a", 3, 1, {2: "3b"}), ConjClass("1a", 1, 1, {})],
        [Character("omega", 1, {"1a": cyc_rational(1), "3a": root_of_unity(3)})],
        order=3, notes=notes,
    )


@pytest.mark.parametrize("record, text", [
    (Row((1, -2), 3, "ge", None, "char[st]@6"),
     "Row(coeffs=(1, -2), const=3, kind='ge', modulus=None, provenance='char[st]@6')"),
    (ConjClass("3a", 3, 1, {2: "3b"}),
     "ConjClass(name='3a', element_order=3, size=1, power_maps={2: '3b'})"),
    (c3_table(),
     "CharacterTable(group_name='C3', classes=[ConjClass(name='1a', element_order=1, "
     "size=1, power_maps={}), ConjClass(name='3a', element_order=3, size=1, "
     "power_maps={2: '3b'})], characters=[Character(name='omega', degree=1, "
     "values={'1a': CycValue('1'), '3a': CycValue('z3')}, characteristic=0)], "
     "order=3, completeness='full', notes=None)"),
    (SolutionSet("C3", 3, "finite", (PAChain(3, {3: {"3a": 1}}),), ("omega",)),
     "SolutionSet(table_name='C3', unit_order=3, status='finite', "
     "chains=(PAChain(unit_order=3, entries={3: {'3a': 1}}),), "
     "character_names=('omega',), strategy='joint', congruence_modes=(), "
     "detail=None, ray=None)"),
    (PairReport(2, 3, "ruled_out", strategy="joint"),
     "PairReport(p=2, q=3, outcome='ruled_out', count=0, nontrivial=0, sample=(), "
     "strategy='joint', character_names=(), congruence_modes=(), detail=None, "
     "status=None)"),
], ids=["Row", "ConjClass", "CharacterTable", "SolutionSet", "PairReport"])
def test_repr_names_every_field(record, text):
    assert repr(record) == text


def test_plain_classes_compare_field_by_field_and_are_unhashable():
    assert c3_table() == c3_table()
    assert c3_table() != c3_table(notes="edited")
    assert c3_table() != ("C3",)
    poly = Polyhedron(2, [((1, 0), 0)], congruences=[([1, 1], 0, 2)])
    assert poly == Polyhedron(2, [([1, 0], 0)], [], [((1, 1), 0, 2)])
    assert poly != Polyhedron(2, [((1, 0), 0)])
    assert poly != Polyhedron(3, [((1, 0, 0), 0)], congruences=[((1, 1, 0), 0, 2)])
    for obj in (c3_table(), poly):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


def test_polyhedron_rows_are_fresh_lists():
    a, b = Polyhedron(1), Polyhedron(1)
    a.ineqs.append(((1,), 0))
    assert b.ineqs == [] and b.eqs == [] and b.congruences == []
    rows = [((1,), 0)]
    assert Polyhedron(1, rows).ineqs is not rows


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_a_named_tuple_record_is_immutable(cls):
    record = cls._make(range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    assert record._replace(**{cls._fields[0]: None})[0] is None


def test_a_default_mapping_is_read_only():
    first, second = ConjClass("1a", 1), ConjClass("2a", 2)
    with pytest.raises(TypeError):
        first.power_maps[2] = "1a"
    assert dict(second.power_maps) == {}
    system = ConstraintSystem("C3", 3, ("x",), [], ("omega",))
    with pytest.raises(TypeError):
        system.congruence_mode[3] = "class"
    assert dict(ConstraintSystem("C3", 3, ("x",), [], ("omega",)).congruence_mode) == {}
