"""Test helpers for `helixpq.lattice`: the brute-force enumeration oracle,
which deliberately shares no code with the enumerator so that the two can
be tested against each other, and the unit coordinates that the simplex
core `_bounds_raw` bounds."""

import itertools
from operator import mul

from helixpq.lattice import Polyhedron


def oracle_enumerate(poly: Polyhedron, box):
    """Every integer point of the polyhedron in an explicit box, a list of
    (lo, hi) pairs, one per coordinate, sorted."""
    if len(box) != poly.dim:
        raise ValueError("box width != dim")
    # each point of the box is tested against the rows in turn and dropped at
    # the first it fails; equalities first, as they reject the most points
    points = list(itertools.product(*(range(a, b + 1) for a, b in box)))
    for a, c in poly.eqs:
        points = [x for x in points if sum(map(mul, a, x)) + c == 0]
    for a, c, m in poly.congruences:
        points = [x for x in points if (sum(map(mul, a, x)) + c) % m == 0]
    for a, c in poly.ineqs:
        points = [x for x in points if sum(map(mul, a, x)) + c >= 0]
    return sorted(points)


def unit_coords(dim):
    """The coordinates x_0 .. x_(dim-1) as the affine functions (w, t, den)
    that `lattice._bounds_raw` bounds."""
    return [(tuple(int(i == j) for j in range(dim)), 0, 1) for i in range(dim)]
