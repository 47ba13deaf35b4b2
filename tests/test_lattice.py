"""Exact integer-point enumeration over rational polyhedra."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from helixpq import datasets, lattice
from helixpq.chartab import render_chain
from helixpq.engine import build_chain_system, solve_order
from helixpq.lattice import (
    DEFAULT_CAP,
    EnumerationResult,
    Polyhedron,
    enumerate_integer_points,
)
from helixpq.pq import pq_check
from helixpq.psl2 import gen_table
from engine_oracle import screen_differential
from lattice_oracle import (oracle_enumerate, pq_systems, presolve_differential,
                            unit_coords)


def test_box_bounds_exact():
    # 0 <= x <= 5/2, 2y >= x - 1, y <= 3
    poly = Polyhedron(
        dim=2,
        ineqs=[
            ((1, 0), 0),
            ((-2, 0), 5),
            ((-1, 2), 1),
            ((0, -1), 3),
        ],
    )
    b = lattice._bounds(poly.dim, poly.ineqs, poly.eqs)
    assert b != "infeasible"
    assert b[0] == [Fraction(0), Fraction(-1, 2)]
    assert b[1] == [Fraction(5, 2), Fraction(3)]


def test_simplex_on_line_segment():
    # x + y = 1, x in [-1, 1]: exactly three integer points
    poly = Polyhedron(
        dim=2,
        ineqs=[((1, 0), 1), ((-1, 0), 1)],
        eqs=[((1, 1), -1)],
    )
    res = enumerate_integer_points(poly)
    assert res.status == "finite"
    assert res.points == [(-1, 2), (0, 1), (1, 0)]


def test_congruence_progression():
    # 0 <= x <= 30, x = 4 mod 6
    poly = Polyhedron(
        dim=1,
        ineqs=[((1,), 0), ((-1,), 30)],
        congruences=[((1,), -4, 6)],
    )
    res = enumerate_integer_points(poly)
    assert res.status == "finite"
    assert res.points == [(4,), (10,), (16,), (22,), (28,)]


def test_crt_combination():
    # x = 1 mod 3 and x = 2 mod 5 forces x = 7 mod 15
    poly = Polyhedron(
        dim=1,
        ineqs=[((1,), 0), ((-1,), 44)],
        congruences=[((1,), -1, 3), ((1,), -2, 5)],
    )
    res = enumerate_integer_points(poly)
    assert res.points == [(7,), (22,), (37,)]


def test_infeasible_lp():
    poly = Polyhedron(dim=1, ineqs=[((1,), -2), ((-1,), 1)])  # x >= 2, x <= 1
    assert lattice._bounds(poly.dim, poly.ineqs, poly.eqs) == "infeasible"
    res = enumerate_integer_points(poly)
    assert res.status == "finite" and res.points == []


def test_rational_equality_without_integer_solution():
    poly = Polyhedron(dim=1, eqs=[((2,), -1)])  # 2x = 1
    res = enumerate_integer_points(poly)
    assert res.status == "finite" and res.points == []


def test_degenerate_zero_rows_are_feasibility_checks():
    # _bounds gets zero rows untidied; its presolve reads them as
    # constants, and a zero equality pair as 0 == c
    sat = Polyhedron(dim=1, ineqs=[((0,), 3), ((1,), 0), ((-1,), 2)],
                     eqs=[((0,), 0)], congruences=[((0,), 0, 5)])
    assert enumerate_integer_points(sat).points == [(0,), (1,), (2,)]
    assert lattice._bounds(sat.dim, sat.ineqs, sat.eqs)[:2] == ([Fraction(0)], [Fraction(2)])
    for bad in (
        Polyhedron(dim=1, ineqs=[((0,), -1)]),
        Polyhedron(dim=1, eqs=[((0,), 2)]),
        Polyhedron(dim=1, congruences=[((0,), 3, 5)]),
    ):
        res = enumerate_integer_points(bad)
        assert res.status == "finite" and res.points == []
        if not bad.congruences:
            assert lattice._bounds(bad.dim, bad.ineqs, bad.eqs) == "infeasible"


def test_unbounded_ray_reported():
    # x - y = 0, x >= 0: infinite along (1,1)
    poly = Polyhedron(dim=2, ineqs=[((1, 0), 0)], eqs=[((1, -1), 0)])
    res = enumerate_integer_points(poly)
    assert res.status == "infinite"
    x, y = res.ray
    assert x == y and x != 0
    # x is unbounded above only, so the ray must point up
    assert x > 0


def _satisfies(poly, x):
    return (
        all(sum(a * v for a, v in zip(row, x)) + c >= 0 for row, c in poly.ineqs)
        and all(sum(a * v for a, v in zip(row, x)) + c == 0 for row, c in poly.eqs)
        and all((sum(a * v for a, v in zip(row, x)) + c) % m == 0
                for row, c, m in poly.congruences)
    )


@pytest.mark.parametrize(
    "poly",
    [
        # x <= 5: unbounded below only
        Polyhedron(dim=1, ineqs=[((-1,), 5)]),
        # x <= 5, x - 2 <= y <= x: both coordinates unbounded below
        Polyhedron(dim=2, ineqs=[((-1, 0), 5), ((1, -1), 0), ((-1, 1), 2)]),
        # x >= -3, y <= x, y >= x - 1: unbounded above
        Polyhedron(dim=2, ineqs=[((1, 0), 3), ((1, -1), 0), ((-1, 1), 1)]),
        # as the second, with x + y = 1 (mod 4)
        Polyhedron(
            dim=2,
            ineqs=[((-1, 0), 5), ((1, -1), 0), ((-1, 1), 2)],
            congruences=[((1, 1), -1, 4)],
        ),
    ],
    ids=["below_1d", "below_2d", "above_2d", "below_congruence"],
)
def test_ray_certificate_stays_inside_from_a_witness(poly):
    res = enumerate_integer_points(poly)
    assert res.status == "infinite"
    # every witness in the box, so those on the boundary are among them
    witnesses = oracle_enumerate(poly, [(-6, 6)] * poly.dim)
    assert witnesses
    for witness in witnesses:
        for t in (1, 2, 3):
            moved = tuple(w + t * r for w, r in zip(witness, res.ray))
            assert _satisfies(poly, moved), (witness, res.ray, t)


def test_identical_columns_collapse_to_lineality(monkeypatch):
    # only x + y is constrained: infinitely many integer points
    poly = Polyhedron(
        dim=2,
        ineqs=[((1, 1), 0), ((-1, -1), 4)],
    )
    res = enumerate_integer_points(poly)
    assert res.status == "infinite"
    assert res.ray is not None
    rx, ry = res.ray
    assert rx + ry == 0 and (rx, ry) != (0, 0)

    # x + y = 5 (mod 6) as well: the search finds no point to lift
    empty = Polyhedron(dim=2, ineqs=poly.ineqs, congruences=[((1, 1), -5, 6)])
    assert enumerate_integer_points(empty) == EnumerationResult("finite", [])
    # and with no node to spend it cannot say so
    monkeypatch.setattr(lattice, "_NODE_BUDGET", 0)
    res = enumerate_integer_points(empty)
    assert res.status == "capped" and res.limit == "node_budget"
    assert res.points == []


def test_cap_interrupts_enumeration():
    poly = Polyhedron(dim=1, ineqs=[((1,), 0), ((-1,), 10**7)])
    res = enumerate_integer_points(poly, cap=5)
    assert res.status == "capped" and res.limit == "cap"
    assert len(res.points) == 5  # the first cap-many points come back

    # exactly cap-many points is still a complete, finite answer
    full = enumerate_integer_points(
        Polyhedron(dim=1, ineqs=[((1,), 0), ((-1,), 4)]), cap=5
    )
    assert full.status == "finite" and len(full.points) == 5


def test_failed_probe_is_named_as_the_limit():
    # x, y >= 0 with x = 0, y = 0 and x + y = 1 (mod 2): the relaxation is
    # unbounded, no integer point exists, and the probe windows cannot show
    # either (no row clashes with another on its own left-hand side)
    poly = Polyhedron(dim=2, ineqs=[((1, 0), 0), ((0, 1), 0)],
                      congruences=[((1, 0), 0, 2), ((0, 1), 0, 2), ((1, 1), -1, 2)])
    res = enumerate_integer_points(poly)
    assert res.status == "capped" and res.limit == "probe"
    assert res.points == []
    assert enumerate_integer_points(
        Polyhedron(dim=1, ineqs=[((1,), 0), ((-1,), 3)])).limit is None


def test_default_cap_is_large():
    assert DEFAULT_CAP == 10**6


def test_oracle_box_mismatch_rejected():
    with pytest.raises(ValueError):
        oracle_enumerate(Polyhedron(dim=2), [(0, 1)])


@pytest.mark.parametrize("rows", [
    # truncated, 2.5x - 5 >= 0 would become 2x - 5 >= 0 and drop x = 2
    {"ineqs": [((2.5,), -5), ((-1,), 3)]},
    {"eqs": [((1,), Fraction(1, 2))]},
    {"congruences": [((1,), 0, 2.5)]},
    # floats are rejected even when integral, and so are nan and inf
    {"ineqs": [((2.0,), 1)]},
    {"eqs": [((float("nan"),), 0)]},
    {"ineqs": [((1,), float("inf"))]},
    # a float among plain ints misses the fast path for int rows
    {"eqs": [((1,), 3.0)]},
])
def test_non_integer_rows_are_rejected(rows):
    with pytest.raises(ValueError, match="row .* non-integer entry"):
        Polyhedron(dim=1, **rows)
    # an integral Fraction and a bool are read as ints
    poly = Polyhedron(dim=1, ineqs=[((2,), Fraction(-4, 2))],
                      eqs=[((Fraction(4, 2),), True)])
    assert poly.ineqs == [((2,), -2)] and poly.eqs == [((2,), 1)]
    assert all(type(x) is int for a, c in poly.ineqs + poly.eqs for x in (*a, c))


def test_negative_cap_is_rejected():
    poly = Polyhedron(dim=1, ineqs=[((1,), 0), ((-1,), 3)])
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        enumerate_integer_points(poly, cap=-1)
    assert enumerate_integer_points(poly, cap=0).limit == "cap"


@pytest.mark.parametrize("cap", [2.9, 2.0, True, "3"], ids=repr)
def test_non_integer_cap_is_rejected(cap):
    # int() made cap=2.9 keep 2 points, cap=True 1 and cap="3" 3
    poly = Polyhedron(dim=1, ineqs=[((1,), 0), ((-1,), 5)])
    with pytest.raises(ValueError, match=f"cap must be an integer, got {cap!r}"):
        enumerate_integer_points(poly, cap=cap)


@pytest.mark.parametrize("dim", [2.0, True, "1"], ids=repr)
def test_non_integer_dim_is_rejected(dim):
    # dim 2.0 ended in a TypeError from range, and True ran as dim 1
    with pytest.raises(ValueError, match=f"dim must be an integer, got {dim!r}"):
        Polyhedron(dim=dim, ineqs=[((1,), 0)])


@pytest.fixture
def budgets(monkeypatch):
    """Every DFS node budget made while the test runs, to read node counts:
    a weaker or stronger propagation rule finds the same points but leaves
    a different number of nodes."""
    made = []

    class CountedBudget(lattice._Budget):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(lattice, "_Budget", CountedBudget)
    return made


@pytest.mark.parametrize(
    "seed, trials, box, coeff, ineq_consts, eq_coeff, eq_const, nodes",
    [
        pytest.param(20260815, 150, 6, 3, (-4, 8), 2, 3, 325934, id="coeff3"),
        # most nonzero coefficients of real systems exceed 1 in size (median
        # 2, p90 12 over the benchmark's solve ops); large ones exercise the
        # rounding of propagation steps divided by |a_j| > 1
        pytest.param(20261018, 60, 4, 40, (-60, 120), 40, 60, 14231, id="coeff40"),
    ],
)
def test_enumerator_matches_oracle_randomized(budgets, seed, trials, box, coeff,
                                              ineq_consts, eq_coeff, eq_const, nodes):
    rng = random.Random(seed)
    for trial in range(trials):
        dim = rng.randint(1, 4)
        lo, hi = -box, box
        ineqs = [(tuple(1 if j == k else 0 for j in range(dim)), -lo) for k in range(dim)]
        ineqs += [(tuple(-1 if j == k else 0 for j in range(dim)), hi) for k in range(dim)]
        for _ in range(rng.randint(0, 3)):
            a = tuple(rng.randint(-coeff, coeff) for _ in range(dim))
            ineqs.append((a, rng.randint(*ineq_consts)))
        eqs = []
        if rng.random() < 0.5:
            eqs.append((tuple(rng.randint(-eq_coeff, eq_coeff) for _ in range(dim)),
                        rng.randint(-eq_const, eq_const)))
        congs = []
        if rng.random() < 0.5:
            congs.append((tuple(rng.randint(-eq_coeff, eq_coeff) for _ in range(dim)),
                          rng.randint(-2, 2), rng.choice([2, 3, 4, 6])))
        poly = Polyhedron(dim=dim, ineqs=ineqs, eqs=eqs, congruences=congs)
        res = enumerate_integer_points(poly)
        assert res.status == "finite", (trial, poly)
        want = oracle_enumerate(poly, [(lo, hi)] * dim)
        assert res.points == want, (trial, poly)
    assert sum(b.nodes for b in budgets) == nodes


def test_psl2_25_order_39_search_visits_pinned_node_count(budgets):
    table = gen_table("psl2", 25)
    res = build_chain_system(table, list(table.characters), 39).solve()
    assert res.status == "finite" and res.points == []
    assert [b.nodes for b in budgets] == [1]


def test_psl2_43_order_77_joint_search_visits_pinned_node_count(budgets):
    # the joint system over levels 7, 11 and 77 has many long rows, so most
    # of its time goes to shifting activities and propagating dirty rows
    table = gen_table("psl2", 43)
    res = build_chain_system(table, list(table.characters), 77).solve(cap=2000)
    assert res.status == "finite" and res.points == []
    assert [b.nodes for b in budgets] == [4721]


def test_enumerator_matches_oracle_on_dense_rows(budgets):
    # every general row holds nearly every variable, so each bound move
    # shifts and dirties many rows, and many rows come to hold on the whole
    # box deep in the search
    rng = random.Random(20261019)
    nonempty = 0
    for trial in range(80):
        dim = rng.randint(4, 5)
        unit = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
        ineqs = [(u, 2) for u in unit] + [(tuple(-x for x in u), 2) for u in unit]
        for _ in range(rng.randint(6, 10)):
            ineqs.append((tuple(rng.randint(-12, 12) for _ in range(dim)),
                          rng.randint(-10, 30)))
        eqs = []
        if rng.random() < 0.5:
            eqs.append((tuple(rng.randint(-12, 12) for _ in range(dim)),
                        rng.randint(-12, 12)))
        congs = []
        if rng.random() < 0.5:
            congs.append((tuple(rng.randint(-12, 12) for _ in range(dim)),
                          rng.randint(-2, 2), rng.choice([2, 3, 4, 6])))
        poly = Polyhedron(dim=dim, ineqs=ineqs, eqs=eqs, congruences=congs)
        res = enumerate_integer_points(poly)
        want = oracle_enumerate(poly, [(-2, 2)] * dim)
        assert res.status == "finite" and res.points == want, (trial, poly)
        nonempty += bool(want)
    assert nonempty == 51
    assert sum(b.nodes for b in budgets) == 5321


def test_capped_search_keeps_its_node_count_and_chains(budgets):
    # the benchmark's capped solve: which 20000 chains come back depends on
    # the order the search visits its nodes in
    table = datasets.load_embedded("pgl2_243_rows")
    sol = solve_order(table, [ch.name for ch in table.characters], 11, cap=20000)
    assert sol.status == "capped" and len(sol.chains) == 20000
    assert [b.nodes for b in budgets] == [20351]
    rendered = json.dumps([render_chain(c) for c in sol.chains], sort_keys=True)
    assert hashlib.sha256(rendered.encode()).hexdigest() == (
        "041c60f20dd0f3ab7a0032f19671eb14b12e8ecda3cd3e9e8c1ed4d5f5b5ec14")


def _bottom_heavy_system(rng):
    """dim 2-4 in [-5, 5], mostly with one equality whose coefficients go up
    to 3 and often with a congruence: the search mostly ends at nodes with
    one or two free variables."""
    dim = rng.randint(2, 4)
    unit = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
    ineqs = [(u, 5) for u in unit] + [(tuple(-x for x in u), 5) for u in unit]
    for _ in range(rng.randint(0, 2)):
        ineqs.append((tuple(rng.randint(-4, 4) for _ in range(dim)), rng.randint(0, 12)))
    eqs = []
    if rng.random() < 0.7:
        eqs.append((tuple(rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(dim)),
                    rng.randint(-4, 4)))
    congs = []
    if rng.random() < 0.6:
        congs.append((tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-2, 2),
                      rng.choice((2, 3, 4, 6))))
    return Polyhedron(dim=dim, ineqs=ineqs, eqs=eqs, congruences=congs)


def test_closed_form_bottom_matches_oracle(budgets):
    # the children of a node whose free variables are x_j and an x_k tied
    # to it by a live equality are decided in closed form.  These systems
    # reach such nodes where the equality's coefficient on x_k is 2 or 3
    # (so some x_j give no integer x_k), where a congruence holds both x_j
    # and x_k, and where x_k is in no equality or x_j is alone, so the
    # search branches
    rng = random.Random(20261020)
    nonempty = 0
    for trial in range(120):
        poly = _bottom_heavy_system(rng)
        res = enumerate_integer_points(poly)
        want = oracle_enumerate(poly, [(-5, 5)] * poly.dim)
        assert res.status == "finite" and res.points == want, (trial, poly)
        nonempty += bool(want)
    assert nonempty == 102
    # the node total from before the closed form, when every candidate was
    # a child node
    assert sum(b.nodes for b in budgets) == 93232


def test_several_congruences_per_variable_match_oracle(budgets):
    # 2-4 congruences per system on shared variables, with moduli that share
    # factors (4 and 6, 6 and 9, ...): a branch merges every congruence of
    # its variable whose other variables are pinned into one progression.
    # Half the systems hold a hidden point, so their congruences agree
    rng = random.Random(20261021)
    nonempty = 0
    for trial in range(150):
        dim = rng.randint(2, 4)
        unit = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
        ineqs = [(u, 4) for u in unit] + [(tuple(-x for x in u), 4) for u in unit]
        for _ in range(rng.randint(0, 2)):
            ineqs.append((tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(0, 10)))
        eqs = []
        if rng.random() < 0.3:
            eqs.append((tuple(rng.randint(-2, 2) for _ in range(dim)), rng.randint(-3, 3)))
        hidden = [rng.randint(-4, 4) for _ in range(dim)] if rng.random() < 0.5 else None
        congs = []
        for _ in range(rng.randint(2, 4)):
            a = tuple(rng.randint(-5, 5) for _ in range(dim))
            m = rng.choice((2, 3, 4, 6, 8, 9, 12))
            c = rng.randint(-6, 6) if hidden is None else -sum(map(mul, a, hidden))
            congs.append((a, c, m))
        poly = Polyhedron(dim=dim, ineqs=ineqs, eqs=eqs, congruences=congs)
        res = enumerate_integer_points(poly)
        want = oracle_enumerate(poly, [(-4, 4)] * dim)
        assert res.status == "finite" and res.points == want, (trial, poly)
        nonempty += bool(want)
    assert nonempty == 94
    assert sum(b.nodes for b in budgets) == 24372


def test_node_budget_stops_inside_a_closed_form_run(budgets, monkeypatch):
    # x + 3y + 2z = 0 and x + y + z = 0 (mod 2) in [-4, 4]^3: each branch on
    # x leaves y and z, tied by the equality, to the closed form, whose
    # candidates count one node each.  Every budget short of the whole
    # search stops after exactly budget + 1 nodes with the points found
    # so far, a new one at each node below, as when every candidate was a
    # child node
    unit = [tuple(int(j == k) for j in range(3)) for k in range(3)]
    poly = Polyhedron(
        dim=3,
        ineqs=[(u, 4) for u in unit] + [(tuple(-x for x in u), 4) for u in unit]
        + [((1, 1, -1), 5)],
        eqs=[((1, 3, 2), 0)],
        congruences=[((1, 1, 1), 0, 2)],
    )
    full = enumerate_integer_points(poly)
    assert full.points == oracle_enumerate(poly, [(-4, 4)] * 3)
    assert [b.nodes for b in budgets] == [55]
    found, seen = [], set()
    for limit in range(55):
        monkeypatch.setattr(lattice, "_NODE_BUDGET", limit)
        res = enumerate_integer_points(poly)
        assert (res.status, res.limit, budgets[-1].nodes) == ("capped", "node_budget", limit + 1)
        assert seen <= set(res.points) <= set(full.points)
        found += [limit] * (len(res.points) - len(seen))
        seen = set(res.points)
    # the last point comes at the last node
    assert len(set(full.points) - seen) == 1
    assert found == [7, 11, 19, 21, 25, 29, 37, 39, 43, 47, 51]


def test_every_cap_stops_a_closed_form_run_as_a_child_per_value_would(budgets):
    # the system above, whose points all come from closed-form runs, under
    # every cap up to its point count: each stops at the node of the point
    # that passes the cap, with that many points found, as when every
    # candidate was a child node; the last cap lets the search finish
    unit = [tuple(int(j == k) for j in range(3)) for k in range(3)]
    poly = Polyhedron(
        dim=3,
        ineqs=[(u, 4) for u in unit] + [(tuple(-x for x in u), 4) for u in unit]
        + [((1, 1, -1), 5)],
        eqs=[((1, 3, 2), 0)],
        congruences=[((1, 1, 1), 0, 2)],
    )
    full = enumerate_integer_points(poly)
    runs = []
    for cap in range(len(full.points) + 1):
        res = enumerate_integer_points(poly, cap=cap)
        runs.append([res.status, res.limit, budgets[-1].nodes, res.points])
    assert [run[:2] for run in runs] == [["capped", "cap"]] * 12 + [["finite", None]]
    assert [run[2] for run in runs] == [7, 11, 19, 21, 25, 29, 37, 39, 43, 47, 51, 55, 55]
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == (
        "46f0d2acf77f4fba7a5917dd6ce9e306daa5587de59c853011acda62a96df711")


def _folded_bottom_system(rng):
    """dim 2-4 in [-4, 4] with one equality whose every coefficient has size
    2 or 3, so a closed-form node reads x_k off it with |e_k| in {2, 3},
    and 2-3 congruences on all the variables with moduli 4, 6 and 9, which
    share factors; half the systems hold a hidden point, so their
    congruences agree."""
    dim = rng.randint(2, 4)
    unit = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
    ineqs = [(u, 4) for u in unit] + [(tuple(-x for x in u), 4) for u in unit]
    for _ in range(rng.randint(0, 2)):
        ineqs.append((tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(0, 10)))
    eqs = [(tuple(rng.choice((-3, -2, 2, 3)) for _ in range(dim)), rng.randint(-6, 6))]
    hidden = [rng.randint(-4, 4) for _ in range(dim)] if rng.random() < 0.5 else None
    congs = []
    for _ in range(rng.randint(2, 3)):
        a = tuple(rng.randint(-4, 4) for _ in range(dim))
        m = rng.choice((4, 6, 9))
        c = rng.randint(-8, 8) if hidden is None else -sum(map(mul, a, hidden))
        congs.append((a, c, m))
    return Polyhedron(dim=dim, ineqs=ineqs, eqs=eqs, congruences=congs)


def test_folded_congruences_of_the_closed_form_match_oracle(budgets):
    # a closed-form node merges x_k's integrality (modulo e_k) and each of
    # its congruences (modulo e_k*m) into x_j's progression.  Over these
    # systems the folds see |e_k| = 2 and 3, mostly two or three
    # congruences on x_k, and many merges with no common value
    rng = random.Random(20261022)
    nonempty = 0
    for trial in range(150):
        poly = _folded_bottom_system(rng)
        res = enumerate_integer_points(poly)
        want = oracle_enumerate(poly, [(-4, 4)] * poly.dim)
        assert res.status == "finite" and res.points == want, (trial, poly)
        nonempty += bool(want)
    assert nonempty == 45
    # the node total from before the fold, when each candidate was tested
    assert sum(b.nodes for b in budgets) == 10011


@pytest.mark.parametrize(
    "dim, moduli",
    [
        pytest.param(1, (2, 2), id="1"),
        pytest.param(2, (2, 2), id="2"),
        pytest.param(3, (2, 2), id="3"),
        # the moduli differ: the rows clash modulo their gcd 2
        pytest.param(1, (2, 4), id="mixed-1"),
        pytest.param(2, (2, 4), id="mixed-2"),
    ],
)
def test_contradictory_congruences_stop_before_the_search(budgets, dim, moduli):
    # x_i >= 0 with sum x_i = 0 (mod m1) and sum x_i = 1 (mod m2): the
    # relaxation is unbounded, and only the clash of the two congruences
    # shows emptiness
    ones = (1,) * dim
    unit = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
    poly = Polyhedron(
        dim=dim,
        ineqs=[(u, 0) for u in unit],
        congruences=[(ones, 0, moduli[0]), (ones, -1, moduli[1])],
    )
    res = enumerate_integer_points(poly)
    assert res.status == "finite" and res.points == []
    assert sum(b.nodes for b in budgets) == 0


def test_congruence_outside_its_gcd_stops_before_the_search(budgets):
    # x >= 0, 2x = 1 (mod 4): 2x is even modulo 4, so no integer point
    # exists, and the unbounded relaxation would leave the probe unsure
    poly = Polyhedron(dim=1, ineqs=[((1,), 0)], congruences=[((2,), -1, 4)])
    res = enumerate_integer_points(poly)
    assert res.status == "finite" and res.points == []
    assert sum(b.nodes for b in budgets) == 0


def test_congruence_broken_by_the_rounded_box_cuts_the_root(budgets):
    # 1 <= x <= 3/2 rounds to x = 1, which breaks x = 0 (mod 3), while y
    # and z stay free in [0, 5]: no branch on them is needed
    poly = Polyhedron(
        dim=3,
        ineqs=[((1, 0, 0), -1), ((-2, 0, 0), 3), ((0, 1, 0), 0), ((0, -1, 0), 5),
               ((0, 0, 1), 0), ((0, 0, -1), 5)],
        congruences=[((1, 0, 0), 0, 3)],
    )
    res = enumerate_integer_points(poly)
    assert res.status == "finite" and res.points == []
    assert sum(b.nodes for b in budgets) <= 1


def test_congruence_pinned_by_propagation_cuts_the_node(budgets):
    # x + y = 3 in [0, 3]^2, y = 0 (mod 2), z free in [0, 3]: the search
    # branches on x, and propagation, not a branch, then pins y; the
    # children with y odd are cut before they branch on z
    poly = Polyhedron(
        dim=3,
        ineqs=[(u, 0) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        + [(u, 3) for u in ((-1, 0, 0), (0, -1, 0), (0, 0, -1))],
        eqs=[((1, 1, 0), -3)],
        congruences=[((0, 1, 0), 0, 2)],
    )
    res = enumerate_integer_points(poly)
    assert res.status == "finite"
    assert res.points == oracle_enumerate(poly, [(0, 3)] * 3)
    assert len(res.points) == 8
    # the root, four branches on x, four leaves under each of x = 1 and 3
    assert sum(b.nodes for b in budgets) == 13


def test_empty_rounded_box_stops_before_the_probe(budgets):
    # 25 <= 10x <= 27 and y >= 0: the relaxation is unbounded in y, but x
    # rounds to the empty range [3, 2], so no integer point exists
    poly = Polyhedron(dim=2, ineqs=[((10, 0), -25), ((-10, 0), 27), ((0, 1), 0)])
    res = enumerate_integer_points(poly)
    assert res.status == "finite" and res.points == []
    assert sum(b.nodes for b in budgets) == 0


# --- _bounds against brute-force vertex enumeration ----------------------------
# The oracle shares no code with the simplex: every vertex of a bounded
# polytope is the unique solution of some dim rows made tight.


def _solve_square(rows):
    """The unique x with a.x + c == 0 for every (a, c) in rows, or None."""
    n = len(rows)
    m = [[Fraction(v) for v in a] + [Fraction(-c)] for a, c in rows]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] / m[r][r] for r in range(n)]


def _vertex_bounds(dim, ineqs, eqs):
    """(lower, upper) over the vertices of a bounded polytope, or None when
    it has no vertex (it is empty)."""
    def value(a, x):
        return sum(p * q for p, q in zip(a, x))

    vertices = []
    for tight in itertools.combinations(ineqs + eqs, dim):
        x = _solve_square(tight)
        if (x is not None and all(value(a, x) + c >= 0 for a, c in ineqs)
                and all(value(a, x) + c == 0 for a, c in eqs)):
            vertices.append(x)
    if not vertices:
        return None
    return ([min(v[i] for v in vertices) for i in range(dim)],
            [max(v[i] for v in vertices) for i in range(dim)])


def _check_bounds_against_vertices(seed, trials, max_dim, box, coeff):
    """_bounds on random polytopes inside the box |x_i| <= box, with
    1-4 extra rows (coefficients in [-coeff, coeff], constants in [-box, box],
    ~30% equalities), against the vertex oracle; returns the largest bit
    length of a bound's denominator."""
    rng = random.Random(seed)
    statuses = set()
    widest = 0
    for trial in range(trials):
        dim = rng.randint(1, max_dim)
        ineqs = [(tuple(s if j == k else 0 for j in range(dim)), box)
                 for k in range(dim) for s in (1, -1)]
        eqs = []
        for _ in range(rng.randint(1, 4)):
            row = (tuple(rng.randint(-coeff, coeff) for _ in range(dim)),
                   rng.randint(-box, box))
            (eqs if rng.random() < 0.3 else ineqs).append(row)
        poly = Polyhedron(dim=dim, ineqs=ineqs, eqs=eqs)
        got = lattice._bounds(poly.dim, poly.ineqs, poly.eqs)
        want = _vertex_bounds(dim, ineqs, eqs)
        if want is None:
            assert got == "infeasible", (trial, poly)
        else:
            assert got != "infeasible", (trial, poly)
            assert got[:2] == want, (trial, poly)
            assert all(type(b) is Fraction for b in got[0] + got[1]), (trial, poly)
            widest = max([widest] + [b.denominator.bit_length()
                                     for b in got[0] + got[1]])
        statuses.add("infeasible" if got == "infeasible" else "ok")
    assert statuses == {"ok", "infeasible"}
    return widest


def test_variable_bounds_match_vertex_enumeration():
    # the box |x_i| <= 6 keeps every polytope bounded
    _check_bounds_against_vertices(20261018, 200, 3, 6, 3)


def test_variable_bounds_with_large_coefficients_match_vertex_enumeration():
    # entries up to 10^4 in dims up to 4: bounds have denominators beyond
    # 40 bits, so the cross products a pivot forms pass 64 bits
    widest = _check_bounds_against_vertices(20261019, 120, 4, 10**4, 10**4)
    assert widest > 40


def test_redundant_equalities_drive_an_artificial_out(monkeypatch):
    # x + y = 2, x - y = 0, x = 1: phase 1 ends with an artificial basic at
    # zero, and driving it out pivots on a negative entry.  The simplex core
    # sees the equalities as pairs; _bounds substitutes all three out
    # and pivots on none
    seen = []
    pivot = lattice._pivot

    def spy(rows, obj, basis, slots, d, r, k):
        seen.append(rows[r][k])
        return pivot(rows, obj, basis, slots, d, r, k)

    monkeypatch.setattr(lattice, "_pivot", spy)
    eqs = [((1, 1), -2), ((1, -1), 0), ((1, 0), -1)]
    got = lattice._bounds_raw(2, lattice._inequalities([], eqs), unit_coords(2))
    assert got != "infeasible"
    lower, upper, _ = got
    assert lower == upper == [Fraction(1), Fraction(1)]
    assert all(type(b) is Fraction for b in lower + upper)
    assert min(seen) < 0


def _random_lp_systems(seed, trials):
    """Untidied systems in dims 1-5 with constants of both signs; half get a
    box |x_i| <= b, so bounded, unbounded and infeasible ones all occur."""
    rng = random.Random(seed)
    for _ in range(trials):
        dim = rng.randint(1, 5)

        def row():
            return tuple(rng.randint(-4, 4) for _ in range(dim)), rng.randint(-6, 6)

        ineqs = [row() for _ in range(rng.randint(0, 8))]
        eqs = [row() for _ in range(rng.choice((0, 0, 1, 2)))]
        if rng.random() < 0.5:
            b = rng.randint(1, 6)
            ineqs += [(tuple(s if j == i else 0 for j in range(dim)), b)
                      for i in range(dim) for s in (1, -1)]
        yield dim, ineqs, eqs


def test_bounds_and_pivot_count_are_pinned(monkeypatch):
    # every (lo, hi, ray) of the LP bounds, and the number of pivots taken,
    # as the full simplex tableau gave them: the condensed tableau must take
    # the same pivots under Bland's rule
    calls = []
    pivot = lattice._pivot

    def spy(*args):
        calls.append(1)
        return pivot(*args)

    monkeypatch.setattr(lattice, "_pivot", spy)
    digest = hashlib.sha256()
    kinds = {"infeasible": 0, "unbounded": 0, "bounded": 0}
    for dim, ineqs, eqs in _random_lp_systems(20261019, 600):
        got = lattice._bounds_raw(dim, lattice._inequalities(ineqs, eqs), unit_coords(dim))
        if got == "infeasible":
            kinds["infeasible"] += 1
        else:
            lo, hi, ray = got
            kinds["unbounded" if ray else "bounded"] += 1
            got = [[None if b is None else str(b) for b in lo],
                   [None if b is None else str(b) for b in hi], ray]
        digest.update(json.dumps(got).encode())
    assert kinds == {"infeasible": 229, "unbounded": 171, "bounded": 200}
    assert len(calls) == 8617
    assert digest.hexdigest() == (
        "2f5130a73e7d6a4220e32f8636dbaab3036b579d84303c2578b1cc4501dbd357")


# --- the presolve: bounds with the equalities substituted out ----------------
# `_bounds` must give what the simplex core gives on the unreduced rows: the
# extrema of a coordinate do not depend on how the polyhedron is written.


def _check_presolved(dim, ineqs, eqs):
    """`_bounds` against `_bounds_raw` on the same rows, the equalities as
    pairs: the same (lo, hi) or "infeasible", and a ray exactly when the
    core has one; a lifted ray is a nonzero primitive integer recession
    direction of the rows, annihilated by the equalities.  Returns the
    presolved result."""
    rows = lattice._inequalities(ineqs, eqs)
    want = lattice._bounds_raw(dim, rows, unit_coords(dim))
    got = lattice._bounds(dim, ineqs, eqs)
    if want == "infeasible":
        assert got == "infeasible", (dim, ineqs, eqs)
        return got
    assert got != "infeasible", (dim, ineqs, eqs)
    assert got[:2] == want[:2], (dim, ineqs, eqs)
    ray = got[2]
    assert (ray is None) == (want[2] is None), (dim, ineqs, eqs)
    if ray is not None:
        assert len(ray) == dim and all(type(x) is int for x in ray)
        assert any(ray) and math.gcd(*ray) == 1, (dim, ineqs, eqs, ray)
        assert all(sum(map(mul, a, ray)) >= 0 for a, _ in rows), (dim, ineqs, eqs, ray)
        for a, _ in eqs:
            assert sum(map(mul, a, ray)) == 0, (dim, ineqs, eqs, ray)
    return got


@pytest.mark.parametrize("seed", [20261019, 1])
def test_presolved_bounds_match_the_core_on_random_systems(seed):
    kinds = set()
    for dim, ineqs, eqs in _random_lp_systems(seed, 600):
        got = _check_presolved(dim, ineqs, eqs)
        kinds.add("infeasible" if got == "infeasible" else
                  "unbounded" if got[2] else "bounded")
    assert kinds == {"infeasible", "unbounded", "bounded"}


# the tables of the benchmark's `screen` workload
SCREEN_TABLES = [("psl2", q) for q in (5, 7, 8, 9, 11, 16)] + [
    ("pgl2", q) for q in (7, 9, 11, 13, 16)]


def test_screen_node_totals_are_pinned(budgets):
    # the DFS nodes of all the solves of each table's screen: a change to
    # how the rows are held can keep every point and still move these
    totals = []
    for family, q in SCREEN_TABLES:
        budgets.clear()
        pq_check(gen_table(family, q))
        totals.append(sum(b.nodes for b in budgets))
    assert totals == [2, 3, 3, 11, 4, 5, 2, 7, 3, 3, 5]


def test_presolved_bounds_match_the_core_on_screen_systems(monkeypatch):
    # every LP that enumerate_integer_points bounds while pq_check screens
    # the 11 tables, by the joint solve and by the recursive route: the
    # tidied, projected rows and equalities (the joint solve alone makes 59)
    seen = []
    presolved = lattice._bounds

    def spy(dim, ineqs, eqs):
        seen.append((dim, ineqs, eqs))
        return presolved(dim, ineqs, eqs)

    monkeypatch.setattr(lattice, "_bounds", spy)
    for family, q in SCREEN_TABLES:
        assert screen_differential(gen_table(family, q)) == ([], [])
    monkeypatch.undo()
    assert len(seen) > 100
    for dim, ineqs, eqs in seen:
        assert eqs, (dim, ineqs)
        _check_presolved(dim, ineqs, eqs)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(lattice, name)

    def spy(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(lattice, name, spy)
    return calls


def test_presolve_substitutes_on_a_non_unit_coefficient():
    # 2x + 3y = 7 in the box |x|, |y| <= 5: x = (7 - 3y)/2 is substituted
    # out, and x <= 5 cuts y to [-1, 5]
    box = [((1, 0), 5), ((-1, 0), 5), ((0, 1), 5), ((0, -1), 5)]
    got = _check_presolved(2, box, [((2, 3), -7)])
    assert got == ([Fraction(-4), Fraction(-1)], [Fraction(5), Fraction(5)], None)
    poly = Polyhedron(dim=2, ineqs=box, eqs=[((2, 3), -7)])
    assert lattice._bounds(poly.dim, poly.ineqs, poly.eqs)[:2] == ([-4, -1], [5, 5])
    assert enumerate_integer_points(poly).points == [(-4, 5), (-1, 3), (2, 1), (5, -1)]


def test_presolve_runs_no_simplex_when_the_equalities_fix_every_coordinate(monkeypatch):
    runs = _count_calls(monkeypatch, "_run_simplex")
    pivots = _count_calls(monkeypatch, "_pivot")
    eqs = [((1, 1), -2), ((1, -1), 0)]
    # x = y = 1, and x >= 0 reduces to the constant 1 >= 0
    ineqs = [((1, 0), 0)]
    got = lattice._bounds(2, ineqs, eqs)
    assert got == ([Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)], None)
    assert all(type(b) is Fraction for b in got[0] + got[1])
    # x >= 2 reduces to the constant -1 >= 0
    assert lattice._bounds(2, [((1, 0), -2)], eqs) == "infeasible"
    assert runs == [] and pivots == []
    assert _check_presolved(2, ineqs, eqs) == got


def test_presolve_finds_an_equality_that_reduces_to_a_nonzero_constant(monkeypatch):
    # x + y = 1 and 2x + 2y = 4: the second reduces to 0 = 2
    runs = _count_calls(monkeypatch, "_run_simplex")
    ineqs, eqs = [((1, 0), 0)], [((1, 1), -1), ((2, 2), -4)]
    assert lattice._bounds(2, ineqs, eqs) == "infeasible"
    assert runs == []
    assert lattice._bounds_raw(2, lattice._inequalities(ineqs, eqs), unit_coords(2)) == "infeasible"
    poly = Polyhedron(dim=2, eqs=[((1, 1), -1), ((2, 2), -4)])
    assert lattice._bounds(poly.dim, poly.ineqs, poly.eqs) == "infeasible"


# --- the presolve stages against their references ----------------------------
# `_int_row`, `_tidy` with `_tightest`, `_column_groups`, `_project` and
# `_bounds`' `_substitute` read rows in C-level passes and skip the work
# that changes nothing; each must return the rows its reference in
# tests/lattice_oracle.py returns, in the same order.


@pytest.mark.parametrize("seed", [20261019, 1])
def test_presolve_stages_match_their_references_on_random_systems(seed):
    for dim, ineqs, eqs in _random_lp_systems(seed, 600):
        # the first three inequalities again as congruences modulo 2, 3 and
        # 4, so that moduli share a gcd above 1 with themselves and others
        congs = [(a, c, 2 + i) for i, (a, c) in enumerate(ineqs[:3])]
        # the same rows written as lists and Fractions take _int_row's
        # converting path
        slow = ([(list(a), Fraction(c)) for a, c in ineqs],
                [(list(a), Fraction(c)) for a, c in eqs],
                [(list(a), Fraction(c), Fraction(m)) for a, c, m in congs])
        for rows in ((ineqs, eqs, []), (ineqs, eqs, congs), slow):
            assert presolve_differential(dim, *rows) == [], (dim, rows)


def test_presolve_stages_match_their_references_on_screen_systems():
    systems = [rows for family, q in SCREEN_TABLES for rows in pq_systems(gen_table(family, q))]
    assert len(systems) == 39
    for rows in systems:
        assert presolve_differential(*rows) == [], rows


def test_presolve_projects_only_when_columns_merge(monkeypatch):
    # x_0 and x_2 agree in every row, x_2's congruence coefficient only
    # modulo 4: the groups are [0, 2] and [1], and _project runs; with a box
    # on x_2 alone it is told apart, and the tidied rows go on unprojected
    merged = (3, [((1, 2, 1), 0), ((-1, -1, -1), 6)], [((2, 1, 2), -4)], [((3, 1, 7), 1, 4)])
    plain = (3, merged[1] + [((0, 0, 1), 0), ((0, 0, -1), 2)], merged[2], merged[3])
    _, *tidied = lattice._tidy(Polyhedron(*merged))
    assert lattice._column_groups(3, *tidied) == [[0, 2], [1]]
    assert presolve_differential(*merged) == []
    assert presolve_differential(*plain) == []
    projections = _count_calls(monkeypatch, "_project")
    assert enumerate_integer_points(Polyhedron(*merged)).status == "infinite"
    assert projections == [1]
    res = enumerate_integer_points(Polyhedron(*plain))
    assert projections == [1]
    assert res.status == "finite" and res.points
    assert res.points == oracle_enumerate(Polyhedron(*plain), [(-10, 10)] * 3)
