"""Test helpers for `helixpq.lattice`: the brute-force enumeration oracle,
which deliberately shares no code with the enumerator so that the two can
be tested against each other; the unit coordinates that the simplex core
`_bounds_raw` bounds; and the presolve stages as they were written before
they read rows in C-level passes (`int_row`, `tidy`, `tightest`,
`column_groups`, `project`, `substitute`), with `presolve_differential`,
which checks each stage against its reference on one system.

Run as a script, it checks the presolve stages against these references
on every system that `pq_check` enumerates on the missing prime-graph
edges of PSL(2,q) and PGL(2,q), 7 <= q <= 49:

    PYTHONPATH=src python tests/lattice_oracle.py
"""

import itertools
import math
import numbers
import sys
from operator import mul

from helixpq import engine, lattice
from helixpq.lattice import Polyhedron
from helixpq.pq import pq_check


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


# --- the presolve stages as references ---------------------------------------


def int_row(kind, row):
    """The row with int entries; ValueError when one is not an integer."""
    a, *rest = row
    if type(row) is tuple and type(a) is tuple and all(type(x) is int for x in (*a, *rest)):
        return row
    if not all(isinstance(x, numbers.Rational) and x.denominator == 1 for x in (*a, *rest)):
        raise ValueError(f"{kind} row {row!r} has a non-integer entry")
    return (tuple(map(int, a)), *map(int, rest))


def tidy(poly: Polyhedron):
    """(feasible, ineqs, eqs, congs), as `lattice._tidy` returns them."""
    ineqs = tightest(poly.ineqs)
    if ineqs is None:
        return False, [], [], []

    eqs: dict = {}  # key -> the first equality with that key
    for a, c in poly.eqs:
        if not any(a):
            if c != 0:
                return False, [], [], []
            continue
        g = math.gcd(*a)
        if c % g:
            return False, [], [], []
        if next(x for x in a if x) < 0:
            g = -g
        eqs.setdefault((tuple(x // g for x in a), c // g), (a, c))

    congs = []
    seenc = set()
    for a, c, m in poly.congruences:
        if m == 1:
            continue
        ra = tuple(x % m for x in a)
        rc = c % m
        if rc % math.gcd(m, *ra):
            return False, [], [], []
        if not any(ra):
            continue
        if (ra, rc, m) not in seenc:
            seenc.add((ra, rc, m))
            congs.append((ra, rc, m))
    pairs = itertools.combinations_with_replacement({m for _, _, m in congs}, 2)
    for g in {math.gcd(m1, m2) for m1, m2 in pairs} - {1}:
        residues: dict[tuple[int, ...], int] = {}
        for a, c, m in congs:
            if m % g == 0:
                key = tuple(x % g for x in a)
                if residues.setdefault(key, c % g) != c % g:
                    return False, [], [], []
    return True, ineqs, list(eqs.values()), congs


def tightest(ineqs):
    """The tightest row of each set of proportional inequalities, as
    `lattice._tightest` returns them."""
    best: dict = {}  # key -> (c, g, row); the tightest has the least c/g
    for a, c in ineqs:
        if not any(a):
            if c < 0:
                return None
            continue
        g = math.gcd(*a)
        key = tuple(x // g for x in a)
        cur = best.get(key)
        if cur is None or c * cur[1] < cur[0] * g:
            best[key] = (c, g, (a, c))
    return [row for _, _, row in best.values()]


def column_groups(dim, ineqs, eqs, congs):
    """The columns grouped by their entries in every row."""
    sigs: dict[tuple, list[int]] = {}
    for j in range(dim):
        sig = (
            tuple(a[j] for a, _ in ineqs),
            tuple(a[j] for a, _ in eqs),
            tuple(a[j] % m for a, _, m in congs),
        )
        sigs.setdefault(sig, []).append(j)
    return sorted(sigs.values(), key=lambda g: g[0])


def project(groups, ineqs, eqs, congs):
    """The rows on the first column of each group."""
    reps = [g[0] for g in groups]
    pineqs = [(tuple(a[r] for r in reps), c) for a, c in ineqs]
    peqs = [(tuple(a[r] for r in reps), c) for a, c in eqs]
    pcongs = [(tuple(a[r] for r in reps), c, m) for a, c, m in congs]
    return pineqs, peqs, pcongs


def substitute(rows, e, c, p):
    """The rows with x_p put in from e.x + c == 0, as `lattice._substitute`
    returns them."""
    f = abs(e[p])
    out = []
    for a, b, *rest in rows:
        s = a[p] if e[p] > 0 else -a[p]
        if s:
            if f == 1:
                a = [x - s * y for x, y in zip(a, e)]
                b -= s * c
            else:
                a = [f * x - s * y for x, y in zip(a, e)]
                b = f * b - s * c
                rest = [f * x for x in rest]
            g = math.gcd(*a, b, *rest) or 1
            a, b, rest = tuple(x // g for x in a), b // g, [x // g for x in rest]
        out.append((a, b, *rest))
    return out


def presolve_differential(dim, ineqs=(), eqs=(), congruences=()):
    """Each presolve stage of `lattice` against its reference above on the
    system with these rows, in the order `enumerate_integer_points` runs
    them: the rows each `_int_row` call returns, `_tidy`'s result, the
    column groups, the projected rows (and, when no columns merge, that the
    tidied rows already are what `_project` would return), and the rows of
    every `_substitute` and `_tightest` call that `_bounds` makes.  Returns
    a list of the stages whose output differs, each once; every stage gets
    the reference's input, so one difference does not repeat downstream."""
    problems = []
    for kind, rows in (("inequality", ineqs), ("equality", eqs), ("congruence", congruences)):
        if [lattice._int_row(kind, r) for r in rows] != [int_row(kind, r) for r in rows]:
            problems.append(f"_int_row on {kind} rows")
    poly = Polyhedron(dim, ineqs, eqs, congruences)
    tidied = tidy(poly)
    if lattice._tidy(poly) != tidied:
        problems.append("_tidy")
    ok, ineqs, eqs, congs = tidied
    if not ok:
        return problems
    groups = column_groups(dim, ineqs, eqs, congs)
    if lattice._column_groups(dim, ineqs, eqs, congs) != groups:
        problems.append("_column_groups")
    projected = project(groups, ineqs, eqs, congs)
    if lattice._project(groups, ineqs, eqs, congs) != projected:
        problems.append("_project")
    if len(groups) == dim and projected != (ineqs, eqs, congs):
        problems.append("tidied rows with no merged column")

    def check(name, fn, ref):
        def spy(*args):
            want = ref(*args)
            if fn(*args) != want and name not in problems:
                problems.append(name)
            return want
        return spy

    real = lattice._substitute, lattice._tightest
    lattice._substitute = check("_substitute", lattice._substitute, substitute)
    lattice._tightest = check("_tightest", lattice._tightest, tightest)
    try:
        lattice._bounds(len(groups), *projected[:2])
    finally:
        lattice._substitute, lattice._tightest = real
    return problems


def pq_systems(table, cap=None):
    """The rows (dim, ineqs, eqs, congruences) of every system that
    `pq_check(table, cap=cap)` enumerates, in the order it does."""
    systems = []
    real = engine.enumerate_integer_points

    def spy(poly, cap=None):
        systems.append((poly.dim, poly.ineqs, poly.eqs, poly.congruences))
        return real(poly, cap=cap)

    engine.enumerate_integer_points = spy
    try:
        pq_check(table, cap=cap)
    finally:
        engine.enumerate_integer_points = real
    return systems


def main():
    """Run `presolve_differential` on every system `pq_check` enumerates at
    cap 2000 on PSL(2,q) and PGL(2,q) for every prime power 7 <= q <= Q of
    `engine_oracle`'s sweep; exit 1 when a stage differs."""
    from engine_oracle import Q, sweep_qs
    from helixpq.psl2 import gen_table

    problems, tables, systems = [], 0, 0
    for q in sweep_qs(Q):
        for family in ("psl2", "pgl2"):
            tables += 1
            for i, rows in enumerate(pq_systems(gen_table(family, q), cap=2000)):
                systems += 1
                problems += [f"{family}:{q} system {i}: {stage}"
                             for stage in presolve_differential(*rows)]
    for line in problems:
        print(line)
    print(f"{tables} tables, {systems} systems: "
          f"{f'{len(problems)} differences' if problems else 'every presolve stage agrees'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
