"""Exact integer-point enumeration over rational polyhedra."""

import random
from fractions import Fraction

import pytest

from helixpq.lattice import (
    DEFAULT_CAP,
    Bounds,
    EnumerationResult,
    Polyhedron,
    enumerate_integer_points,
    oracle_enumerate,
    variable_bounds,
)


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
    b = variable_bounds(poly)
    assert b.status == "ok"
    assert b.lower == [Fraction(0), Fraction(-1, 2)]
    assert b.upper == [Fraction(5, 2), Fraction(3)]


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
    assert variable_bounds(poly).status == "infeasible"
    res = enumerate_integer_points(poly)
    assert res.status == "finite" and res.points == []


def test_rational_equality_without_integer_solution():
    poly = Polyhedron(dim=1, eqs=[((2,), -1)])  # 2x = 1
    res = enumerate_integer_points(poly)
    assert res.status == "finite" and res.points == []


def test_degenerate_zero_rows_are_feasibility_checks():
    sat = Polyhedron(dim=1, ineqs=[((0,), 3), ((1,), 0), ((-1,), 2)],
                     eqs=[((0,), 0)], congruences=[((0,), 0, 5)])
    assert enumerate_integer_points(sat).points == [(0,), (1,), (2,)]
    for bad in (
        Polyhedron(dim=1, ineqs=[((0,), -1)]),
        Polyhedron(dim=1, eqs=[((0,), 2)]),
        Polyhedron(dim=1, congruences=[((0,), 3, 5)]),
    ):
        res = enumerate_integer_points(bad)
        assert res.status == "finite" and res.points == []


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


def test_identical_columns_collapse_to_lineality():
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


def test_cap_interrupts_enumeration():
    poly = Polyhedron(dim=1, ineqs=[((1,), 0), ((-1,), 10**7)])
    res = enumerate_integer_points(poly, cap=5)
    assert res.status == "capped"
    assert len(res.points) == 5  # the first cap-many points come back

    # exactly cap-many points is still a complete, finite answer
    full = enumerate_integer_points(
        Polyhedron(dim=1, ineqs=[((1,), 0), ((-1,), 4)]), cap=5
    )
    assert full.status == "finite" and len(full.points) == 5


def test_default_cap_is_large():
    assert DEFAULT_CAP == 10**6


def test_oracle_box_mismatch_rejected():
    with pytest.raises(ValueError):
        oracle_enumerate(Polyhedron(dim=2), [(0, 1)])


def test_enumerator_matches_oracle_randomized():
    rng = random.Random(20260815)
    for trial in range(150):
        dim = rng.randint(1, 4)
        lo, hi = -6, 6
        ineqs = [(tuple(1 if j == k else 0 for j in range(dim)), -lo) for k in range(dim)]
        ineqs += [(tuple(-1 if j == k else 0 for j in range(dim)), hi) for k in range(dim)]
        for _ in range(rng.randint(0, 3)):
            a = tuple(rng.randint(-3, 3) for _ in range(dim))
            ineqs.append((a, rng.randint(-4, 8)))
        eqs = []
        if rng.random() < 0.5:
            eqs.append((tuple(rng.randint(-2, 2) for _ in range(dim)),
                        rng.randint(-3, 3)))
        congs = []
        if rng.random() < 0.5:
            congs.append((tuple(rng.randint(-2, 2) for _ in range(dim)),
                          rng.randint(-2, 2), rng.choice([2, 3, 4, 6])))
        poly = Polyhedron(dim=dim, ineqs=ineqs, eqs=eqs, congruences=congs)
        res = enumerate_integer_points(poly)
        assert res.status == "finite", (trial, poly)
        want = oracle_enumerate(poly, [(lo, hi)] * dim)
        assert res.points == want, (trial, poly)
