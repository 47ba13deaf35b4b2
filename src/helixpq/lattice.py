"""Exact integer-point enumeration for rational polyhedra with congruences.

A `Polyhedron` is given by integer rows:

* inequalities  (a, c):     a.x + c >= 0
* equalities    (a, c):     a.x + c == 0
* congruences   (a, c, m):  a.x + c == 0  (mod m)

`_bounds` computes, for each coordinate, exact rational extrema of the
linear relaxation (ignoring congruences).  The equalities are
substituted out first, fraction-free, each on its variable of least
|coefficient|, so each coordinate becomes an affine function (w.y + t) / den
of the kept variables y.  A two-phase primal simplex using Bland's rule then
bounds those functions over the reduced inequalities, so it terminates and
certifies unboundedness with an explicit recession direction, lifted back
to x; when the equalities fix every coordinate no simplex runs.  The
tableau is condensed (dictionary form): it keeps only the nonbasic columns,
one per free variable y = u - v while u and v are both nonbasic.  It is
fraction-free (Edmonds' integer-preserving elimination): integer entries
over one common denominator, the basis determinant, so only the returned
bounds are `Fraction`s.  It builds one tableau and runs one phase 1 per
polyhedron; the objectives (max and min of each coordinate that is not
fixed) are then warm-started, each from the basis the previous one left.

`enumerate_integer_points` returns all integer solutions, or reports an
infinite family (with an integer ray along which solutions repeat: the ray is
a recession direction of the inequalities, annihilated by the equalities and
scaled by the lcm of the congruence moduli so that stepping by it preserves
every congruence), or gives up honestly at a cap.  The tidied equalities
stay a list of their own, which the bounds substitute out; only the search
splits each a.x + c == 0 into the inequalities a.x + c >= 0 and -a.x - c
>= 0, placed after all the others, so that it sees a single row kind.  The
main structural move: columns that agree in every row are aggregated (the
difference of two such variables is never constrained), which removes the
lineality space that aggregate-style constraint systems produce; after that
the enumeration is a depth-first
interval-propagation search, exact in integers throughout.  It
searches the integer box (lo, hi): the LP bounds rounded once (None on an
unbounded side, clipped to each probe window); a branch pins one variable,
and congruences read pinned values off lo.  Each row is split once into its
nonzero coefficients, so propagation touches no zero entry.  Propagation is
incremental, as in the activity-based bound propagation of MIP solvers: each
node carries every row's activities (its minimum and maximum over the box),
summed once at the root and then shifted by each bound move through a
per-variable occurrence index; a pass evaluates only the dirty rows, those
with a variable moved since their last evaluation.  None of this changes
which boxes the search visits.  Congruences live in one per-variable index: a
branch takes its values from the progression its variable's congruences
allow, and a congruence is checked as soon as its last free variable is
pinned, whether by a branch, by the rounded box or by propagation; a node
whose pinned values break one is cut, so a leaf only reads its row
activities.  At a node whose only free variables are the branch variable
and one other, tied to it by an equality, no child node is made: the rows
bound the branch value to an interval, and the other variable being an
integer (read off the equality) and each of its congruences are linear
congruences in the branch value, merged by CRT into the branch's
progression once, so the points are the merged progression's values in
that interval.  Each branch value still counts as the node its child would
have been, so node counts, budget and cap stops and the order of the
points are unchanged.  A search leaves no reference cycle behind, so
reference counting alone frees it.
A congruence whose constant the gcd of its modulus and coefficients does not
divide, and congruences that clash modulo the gcd of two moduli, are
rejected before any search.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional

from .cyclo import as_integer

Rat = Fraction

DEFAULT_CAP = 10**6
_NODE_BUDGET = 5_000_000
_PROBE_WINDOWS = (16, 256, 4096, 65536)

__all__ = [
    "Polyhedron",
    "EnumerationResult",
    "enumerate_integer_points",
    "DEFAULT_CAP",
]


@dataclass
class Polyhedron:
    dim: int
    ineqs: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    eqs: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    congruences: list[tuple[tuple[int, ...], int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.dim = as_integer(self.dim, "dim")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        self.ineqs = [_int_row("inequality", row) for row in self.ineqs]
        self.eqs = [_int_row("equality", row) for row in self.eqs]
        self.congruences = [_int_row("congruence", row) for row in self.congruences]
        for a, _ in itertools.chain(self.ineqs, self.eqs):
            if len(a) != self.dim:
                raise ValueError(f"row width {len(a)} != dim {self.dim}")
        for a, _, m in self.congruences:
            if len(a) != self.dim:
                raise ValueError(f"row width {len(a)} != dim {self.dim}")
            if m < 1:
                raise ValueError(f"congruence modulus {m} < 1")


def _int_row(kind, row):
    """The row with int entries; ValueError when one is not an integer (a
    float is not, as in `cyclo.parse_cyc`).  A tuple row of plain ints, as
    the engine builds them, is returned as it is."""
    a, *rest = row
    if type(row) is tuple and type(a) is tuple and all(type(x) is int for x in (*a, *rest)):
        return row
    if not all(isinstance(x, numbers.Rational) and x.denominator == 1 for x in (*a, *rest)):
        raise ValueError(f"{kind} row {row!r} has a non-integer entry")
    return (tuple(map(int, a)), *map(int, rest))


@dataclass
class EnumerationResult:
    status: str  # "finite" | "infinite" | "capped"
    points: list[tuple[int, ...]]
    ray: Optional[tuple[int, ...]] = None
    # what stopped a capped search: "cap" | "node_budget" | "probe"
    limit: Optional[str] = None


# ---------------------------------------------------------------------------
# exact simplex (max c.x, A x <= b, x >= 0; Bland's rule) on a condensed
# tableau: row i holds only the nonbasic columns, slot k that of variable
# slots[k], then its right-hand side; its basic variable basis[i] has an
# implicit unit column.  Entries and the objective row are integers over
# d = |det B|, so rows[i][k] / d is the usual entry (d = 1 at the start).
# Labels: u_j = j and v_j = dim + j (x_j = u_j - v_j), then one slack per
# row, then the artificials.


def _pivot(rows, obj, basis, slots, d, r, k):
    """Pivot slot k's variable into row r; return the new denominator p =
    |a_rk|.  Other entries become (a_ij*p - a_ik*a_rj) / d, exactly; the
    pivot row keeps its entries, negated first when a_rk < 0 so that d stays
    positive.  Slot k takes the leaving variable, whose unit column becomes
    d in row r (negated with it) and -a_ik in every other row."""
    neg = rows[r][k] < 0
    if neg:
        rows[r] = [-w for w in rows[r]]
    pr = rows[r]
    p = pr[k]
    for i, row in enumerate(rows):
        if i != r:
            f = row[k]
            if f:
                rows[i] = row = [(v * p - f * w) // d for v, w in zip(row, pr)]
                row[k] = f if neg else -f
            elif p != d:
                rows[i] = [v * p // d for v in row]
    f = obj[k]
    obj[:] = [(v * p - f * w) // d for v, w in zip(obj, pr)]
    obj[k] = f if neg else -f
    pr[k] = -d if neg else d
    slots[k], basis[r] = basis[r], slots[k]
    return p


def _flip(rows, obj, slots, k, dim):
    """Slot k, holding u_j or v_j, takes the other (col(v_j) = -col(u_j)
    while both are nonbasic; while one is basic, the other never enters)."""
    for row in rows:
        row[k] = -row[k]
    obj[k] = -obj[k]
    slots[k] += dim if slots[k] < dim else -dim


def _run_simplex(rows, obj, basis, slots, d, dim):
    """Bland's rule loop: (d, None) at an optimum, or (d, k) when slot k's
    variable increases without bound.  A slot offers its variable at a
    negative reduced cost, and u_j or v_j the other at a positive one."""
    while True:
        offers = [(e if c < 0 else e + dim if e < dim else e - dim, k)
                  for k, (e, c) in enumerate(zip(slots, obj))
                  if c < 0 or (c and e < 2 * dim)]
        if not offers:
            return d, None
        e, k = min(offers)
        if e != slots[k]:
            _flip(rows, obj, slots, k, dim)
        r = None
        for i, row in enumerate(rows):
            if row[k] > 0:
                # row[-1]/row[k] against the best ratio so far; d cancels
                if r is None:
                    r = i
                    continue
                lhs, rhs = row[-1] * rows[r][k], rows[r][-1] * row[k]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r is None:
            return d, k
        d = _pivot(rows, obj, basis, slots, d, r, k)


def _price(rows, basis, slots, d, cost):
    """Objective row (over d) for maximising cost.x ({label: c_j}) at the
    current basis: the slots' reduced costs, then the objective value."""
    obj = [-cost.get(e, 0) * d for e in slots] + [0]
    for row, b in zip(rows, basis):
        f = cost.get(b)
        if f:
            for j, v in enumerate(row):
                obj[j] += f * v
    return obj


def _feasible_tableau(dim, ineqs):
    """Standard form of {a.x + c >= 0}, x free, at a feasible basis:
    (rows, basis, slots, d), or None when the system is infeasible.

    The slots start as u and the slacks of the rows with a negative
    right-hand side, which get an artificial; phase 1 runs once, then the
    artificials are pivoted out of the basis and dropped."""
    # a.x + c >= 0  =>  -a.u + a.v <= c
    std = [([-x for x in a], c) for a, c in ineqs]
    n, m = 2 * dim, len(std)
    width = n + m
    arts = [i for i, (_, c) in enumerate(std) if c < 0]
    slots = list(range(dim)) + [n + i for i in arts]
    basis = list(range(n, width))
    rows = [[x if c >= 0 else -x for x in a] + [0] * len(arts) + [abs(c)]
            for a, c in std]
    for k, i in enumerate(arts):
        rows[i][dim + k] = -1  # the slack, in its negated row
        basis[i] = width + k
    if not arts:
        return rows, basis, slots, 1

    # phase 1: max -(sum of artificials)
    obj = _price(rows, basis, slots, 1, dict.fromkeys(range(width, width + len(arts)), -1))
    d, k = _run_simplex(rows, obj, basis, slots, 1, dim)
    assert k is None  # phase 1 is always bounded
    if obj[-1] != 0:  # leftover infeasibility (value = -sum art < 0)
        return None
    # drive the artificials (at zero) out on the lowest label with a nonzero
    # entry in their row, u_j before v_j; [A | I] has full row rank, so one
    # of the slots that hold no artificial has one
    for i in range(m):
        if basis[i] >= width:
            e, k = min((e - dim if dim <= e < n else e, k)
                       for k, e in enumerate(slots) if e < width and rows[i][k])
            if e != slots[k]:
                _flip(rows, obj, slots, k, dim)
            d = _pivot(rows, obj, basis, slots, d, i, k)
    keep = [k for k, e in enumerate(slots) if e < width]
    rows = [[row[k] for k in keep] + row[-1:] for row in rows]
    return rows, basis, [slots[k] for k in keep], d


def _ray(rows, basis, slots, d, k, dim):
    """Primitive integer x-direction of the edge along which slot k's
    variable increases without bound: d on it, -a_ik on the basic ones."""
    direction = {slots[k]: d}
    for row, b in zip(rows, basis):
        if row[k]:
            direction[b] = -row[k]
    ray = [direction.get(j, 0) - direction.get(dim + j, 0) for j in range(dim)]
    g = math.gcd(*ray) or 1
    return tuple(x // g for x in ray)


# ---------------------------------------------------------------------------
# preprocessing


def _tidy(poly: Polyhedron):
    """Deduplicate/merge rows; detect trivial integer infeasibility.

    Returns (feasible, ineqs, eqs, congs).  Inequalities with proportional
    coefficient vectors keep only the tightest constant; zero-coefficient
    rows become pure feasibility checks, and an equality whose coefficient
    gcd does not divide its constant has no integer point; of equalities
    that are multiples of one another the first is kept.  Congruence rows
    are reduced mod m, and one whose constant is not divisible by the gcd of
    m and its coefficients has no integer point; two whose left-hand sides
    agree modulo g must agree in their constants modulo g, for each g > 1
    that is the gcd of two moduli present (one modulus with itself included,
    so g = m).
    """
    ineqs = _tightest(poly.ineqs)
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
        # a.x takes exactly the multiples of gcd(m, a) modulo m
        if rc % math.gcd(m, *ra):
            return False, [], [], []
        if not any(ra):
            continue
        if (ra, rc, m) not in seenc:
            seenc.add((ra, rc, m))
            congs.append((ra, rc, m))
    # g divides both moduli, so one left-hand side mod g has one residue
    pairs = itertools.combinations_with_replacement({m for _, _, m in congs}, 2)
    for g in {math.gcd(m1, m2) for m1, m2 in pairs} - {1}:
        residues: dict[tuple[int, ...], int] = {}
        for a, c, m in congs:
            if m % g == 0:
                key = tuple(x % g for x in a)
                if residues.setdefault(key, c % g) != c % g:
                    return False, [], [], []
    return True, ineqs, list(eqs.values()), congs


def _tightest(ineqs):
    """The inequalities with each set of proportional coefficient vectors
    merged into its tightest row, in the order of first occurrence, and the
    zero rows dropped; None when a zero row reads c >= 0 with c < 0."""
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


def _inequalities(ineqs, eqs):
    """The inequalities, then each equality a.x + c == 0 as the pair a.x + c
    >= 0, -a.x - c >= 0."""
    out = list(ineqs)
    for a, c in eqs:
        out += [(a, c), (tuple(-x for x in a), -c)]
    return out


# ---------------------------------------------------------------------------
# DFS over integer boxes with exact propagation


def _merge_progression(step, offset, a, b, m):
    """The progression t = offset (mod step) merged by CRT with the
    solutions of a*t = b (mod m): the combined (step, offset) with offset
    in [0, step), or None when no t satisfies both."""
    g = math.gcd(a, m)
    if b % g:
        return None
    mm = m // g
    root = b // g * pow(a // g, -1, mm) % mm
    gg = math.gcd(step, mm)
    if (root - offset) % gg:
        return None
    t = (root - offset) // gg * pow(step // gg, -1, mm // gg) % (mm // gg)
    lcm = step // gg * mm
    return lcm, (offset + step * t) % lcm


class _Budget:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def _dfs_enumerate(dim, ineqs, eqs, congs, lo, hi, cap, budget: _Budget):
    """All integer points in the box satisfying all rows.

    The rows are the inequalities, then each equality as its pair of
    opposite rows (`_inequalities`).  A branch pins one variable (lo_j ==
    hi_j).  A row a.x + c >= 0 is held as (pos, neg, c) with pos the pairs
    (j, a_j) for a_j > 0 and neg the pairs (j, -a_j) for a_j < 0, so
    propagation touches no zero entry.  Besides the box, a node owns two row
    activities, mn[r] and mx[r] (the minimum and maximum of a_r.x + c_r over
    the box), and a dirty flag per row.  The activities are summed only at
    the root; after that, a move of a bound of x_j shifts them through the
    occurrence index occ[j], the pairs (r, a_j) with a_j != 0 split by sign,
    and marks those rows dirty.

    A node tightens the box by up to 4 Gauss-Seidel passes over the rows in
    index order; each row cuts with the activities read as its evaluation
    starts.  A pass evaluates only the dirty rows: a clean row has seen no
    move of its variables since its last evaluation, or only its own moves,
    which cannot change its cuts, so evaluating it again changes nothing.
    A row with mn >= 0 holds on the whole box and cuts nothing.  A child
    copies its parent's lists, pins its variable and marks that variable's
    rows dirty; the root starts with every row dirty.

    Congruences are held once, in cocc[j]: those whose support {j: a_j mod
    m != 0} holds x_j.  A congruence is decided once its last free variable
    is pinned.  A branch on x_j takes its values from the progression its
    congruences with every other variable pinned allow; every other pin, by
    the rounded box at the root or by propagation, is found after the
    node's propagation among the variables still free at its parent, and
    each congruence of such a variable whose support is now pinned is
    checked; a node that breaks one holds no point and is cut.  So at a
    leaf every congruence holds, and the point is kept when every row has
    mx >= 0.

    A node whose free variables are the branch variable x_j and one x_k
    that an equality pair (the last equality first) holds with x_j
    makes no children: `bottom` folds x_k's integrality and congruences
    into x_j's progression and reads the points off it, still counting one
    node per value of x_j.  Any other node branches, one child per value
    of x_j.
    Returns (points, exhausted) where exhausted=False means the cap or node
    budget interrupted the search.
    """
    rows = [
        ([(j, x) for j, x in enumerate(a) if x > 0],
         [(j, -x) for j, x in enumerate(a) if x < 0], c)
        for a, c in _inequalities(ineqs, eqs)
    ]
    # occ[j] = (rows with a_j > 0, rows with a_j < 0), as pairs (r, a_j);
    # the root's activities mn, mx are summed along the way
    occ: list[tuple[list, list]] = [([], []) for _ in range(dim)]
    mn, mx = [], []
    for r, (pos, neg, c) in enumerate(rows):
        rmn = rmx = c
        for j, aj in pos:
            occ[j][0].append((r, aj))
            rmn += aj * lo[j]
            rmx += aj * hi[j]
        for j, bj in neg:
            occ[j][1].append((r, -bj))
            rmn -= bj * hi[j]
            rmx -= bj * lo[j]
        mn.append(rmn)
        mx.append(rmx)
    # cocc[j] = the congruences whose support holds j, as (support, a, c, m)
    cocc: list[list] = [[] for _ in range(dim)]
    for a, c, m in congs:
        supp = {j for j, x in enumerate(a) if x % m}
        for j in supp:
            cocc[j].append((supp, a, c, m))
    # each equality as (its first row, its coefficients), the last first
    pairs = [(len(ineqs) + 2 * i, eqs[i][0]) for i in reversed(range(len(eqs)))]
    # (j, k) -> the rows of x_j and x_k, as `bottom` reads them
    pair_rows: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
    points: list[tuple[int, ...]] = []

    def shift(j, dl, dh, mn, mx, dirty):
        """lo_j moved by dl and hi_j by dh: shift the activities of the
        rows of x_j and mark them dirty.  lo_j bounds a_j*x_j from below
        when a_j > 0 and from above when a_j < 0; hi_j the reverse."""
        up, down = occ[j]
        if dl:
            for r, a in up:
                mn[r] += a * dl
                dirty[r] = True
            for r, a in down:
                mx[r] += a * dl
                dirty[r] = True
        if dh:
            for r, a in up:
                mx[r] += a * dh
                dirty[r] = True
            for r, a in down:
                mn[r] += a * dh
                dirty[r] = True

    def propagate(lo, hi, mn, mx, dirty):
        """Tighten the box in place; False when it holds no integer point."""
        changed = True
        passes = 0
        while changed and passes < 4:
            changed = False
            passes += 1
            for r, (pos, neg, _) in enumerate(rows):
                if not dirty[r]:
                    continue
                # the activities as the evaluation starts: the row's own
                # moves below shift mn[r], not these
                rmn, rmx = mn[r], mx[r]
                if rmx < 0:
                    return False
                if rmn >= 0:
                    dirty[r] = False
                    continue
                # x_j's own term spans [a_j*lo_j, a_j*hi_j], so the row needs
                # a_j*x_j >= a_j*hi_j - mx: lo_j >= ceil((a_j*hi_j - mx) /
                # a_j), which is hi_j - floor(mx / a_j); mx >= 0, so no cut
                # passes the opposite bound
                for j, aj in pos:
                    nl = hi[j] - rmx // aj
                    if nl > lo[j]:
                        shift(j, nl - lo[j], 0, mn, mx, dirty)
                        lo[j] = nl
                        changed = True
                for j, bj in neg:  # b_j = -a_j > 0: the same for -x_j
                    nh = lo[j] + rmx // bj
                    if nh < hi[j]:
                        shift(j, 0, nh - hi[j], mn, mx, dirty)
                        hi[j] = nh
                        changed = True
                # these moves raise mn only and the cuts read mx, so a
                # second evaluation would move nothing
                dirty[r] = False
        return True

    def cong_progression(j, lo, hi):
        """Combined progression x_j = offset (mod step) from the congruences
        of x_j whose other variables are all fixed (lo == hi), each
        contributing a_k * lo_k to the constant; None when they admit no
        value of x_j."""
        prog = (1, 0)
        for supp, a, c, m in cocc[j]:
            if any(lo[k] < hi[k] for k in supp if k != j):
                continue
            cc = c + sum(map(mul, a, lo)) - a[j] * lo[j]
            prog = _merge_progression(*prog, a[j], -cc, m)
            if prog is None:
                return None
        return prog

    def bottom(j, v, step, k, eq, lo, hi, mn, mx):
        """The children of a node whose only free variables are x_j, the
        branch variable, and x_k, tied to x_j by the equality pair whose
        first row is eq, in closed form; the same return as rec.

        The child x_j = v has one point at most, (v, x_k) with x_k read off
        the equality, and rec would keep it exactly when x_k is an integer
        in [lo_k, hi_k], every row holds there and so does every congruence
        of x_k (those of x_j alone shaped the progression).  The rows give
        an interval [vl, vh] of v.  That x_k is an integer, and each
        congruence of x_k, is a linear congruence in v; they are merged
        into the progression once, so the points are its values in [vl,
        vh], with no test per value.  Each value of the first progression
        up to hi_j counts as the node its child would have been, and the
        count is made arithmetically: the budget stops at budget + 1 nodes
        and the cap at the node of the point that passes it, as with a
        child per value."""
        # the rows of x_j and x_k, r -> (a_j, a_k), built once per pair
        coef = pair_rows.get((j, k))
        if coef is None:
            acc: dict[int, list[int]] = {}
            for t, i in enumerate((j, k)):
                for r, a in itertools.chain(*occ[i]):
                    acc.setdefault(r, [0, 0])[t] = a
            coef = pair_rows[j, k] = {r: tuple(a) for r, a in acc.items()}

        # such a row reads f + a_j*x_j + a_k*x_k >= 0, f its activity mn
        # less the least terms of x_j and x_k (a*lo for a > 0, else a*hi);
        # x_k's box adds two rows
        lj, hj, lk, hk = lo[j], hi[j], lo[k], hi[k]
        lin = [(mn[r] - aj * (lj if aj > 0 else hj) - ak * (lk if ak > 0 else hk),
                aj, ak)
               for r, (aj, ak) in coef.items()]
        lin += [(-lk, 0, 1), (hk, 0, -1)]
        if coef[eq][1] < 0:
            eq += 1  # the row of the pair with e_k > 0
        ej, ek = coef[eq]
        f0 = mn[eq] - ej * (lj if ej > 0 else hj) - ek * (lk if ek > 0 else hk)
        # with x_k = -(f0 + e_j*v) / e_k, a row times e_k reads A + B*v >= 0
        vl, vh = lo[j], hi[j]
        # a row with mx < 0, such as a row of fixed variables with a
        # negative value, fails on the whole box
        if min(mx) < 0:
            vh = vl - 1
        for f, aj, ak in lin:
            a, b = ek * f - ak * f0, ek * aj - ak * ej
            if b > 0:
                vl = max(vl, -(a // b))
            elif b < 0:
                vh = min(vh, a // -b)
            elif a < 0:
                vh = vl - 1
        # x_k is an integer when e_j*v = -f0 (mod e_k); then a congruence
        # C + a_j*v + a_k*x_k = 0 (mod m), C its constant with the pinned
        # values in, holds when e_k times it holds modulo e_k*m
        prog = _merge_progression(step, v % step, ej, -f0, ek)
        for _, a, c, m in cocc[k]:
            if prog is None:
                break
            cc = c + sum(map(mul, a, lo)) - a[j] * lo[j] - a[k] * lo[k]
            prog = _merge_progression(*prog, ek * a[j] - a[k] * ej,
                                      a[k] * f0 - ek * cc, ek * m)
        # the child of the value v + i*step would be node budget.nodes + i
        # + 1, so the values below the budget's are those before end
        end = v + (_NODE_BUDGET - budget.nodes) * step
        emitted = range(0)
        if prog is not None:
            fold, offset = prog
            first = max(v, vl)
            first += (offset - first) % fold
            # at most the points up to the one that passes the cap
            emitted = range(first, min(vh + 1, end), fold)[:cap + 1 - len(points)]
        point = list(lo)
        for w in emitted:
            point[j], point[k] = w, (-f0 - ej * w) // ek
            points.append(tuple(point))
        if len(points) > cap:
            budget.nodes += (emitted[-1] - v) // step + 1
            return False
        if end <= hi[j]:
            budget.nodes = _NODE_BUDGET + 1
            return False
        budget.nodes += len(range(v, hi[j] + 1, step))
        return True

    def rec(lo, hi, mn, mx, dirty, free):
        """free: the variables free at the parent, less the one it branched
        on (every variable at the root)."""
        budget.nodes += 1
        if budget.nodes > _NODE_BUDGET or len(points) > cap:
            return False
        if not propagate(lo, hi, mn, mx, dirty):
            return True
        unfixed = [j for j in free if lo[j] < hi[j]]
        if len(unfixed) < len(free):  # this node pinned a variable
            for j in free:
                if lo[j] == hi[j]:
                    for supp, a, c, m in cocc[j]:
                        if supp.isdisjoint(unfixed) and (c + sum(map(mul, a, lo))) % m:
                            return True
        if not unfixed:
            # every congruence holds, and a row's activities are its value
            if min(mx, default=0) >= 0:
                points.append(tuple(lo))
                if len(points) > cap:
                    return False
            return True
        j = min(unfixed, key=lambda k: hi[k] - lo[k])
        prog = cong_progression(j, lo, hi)
        if prog is None:
            return True
        unfixed.remove(j)
        step, offset = prog
        v = lo[j] + (offset - lo[j]) % step
        if len(unfixed) == 1:
            k = unfixed[0]
            for r, a in pairs:
                if a[j] and a[k]:
                    return bottom(j, v, step, k, r, lo, hi, mn, mx)
        while v <= hi[j]:
            nlo, nhi = list(lo), list(hi)
            nlo[j] = nhi[j] = v
            nmn, nmx, ndirty = list(mn), list(mx), list(dirty)
            shift(j, v - lo[j], v - hi[j], nmn, nmx, ndirty)
            if not rec(nlo, nhi, nmn, nmx, ndirty, unfixed):
                return False
            v += step
        return True

    try:
        exhausted = rec(list(lo), list(hi), mn, mx, [True] * len(rows), range(dim))
    finally:
        # rec's cell holds rec: emptying it breaks the one reference cycle,
        # so reference counting frees the call's rows, indexes and closures
        del rec
    return points, exhausted


# ---------------------------------------------------------------------------
# column aggregation (lineality quotient) and the public enumeration


def _column_groups(dim, ineqs, eqs, congs) -> list[list[int]]:
    sigs: dict[tuple, list[int]] = {}
    for j in range(dim):
        sig = (
            tuple(a[j] for a, _ in ineqs),
            tuple(a[j] for a, _ in eqs),
            tuple(a[j] % m for a, _, m in congs),
        )
        sigs.setdefault(sig, []).append(j)
    return sorted(sigs.values(), key=lambda g: g[0])


def _project(groups, ineqs, eqs, congs):
    reps = [g[0] for g in groups]
    pineqs = [(tuple(a[r] for r in reps), c) for a, c in ineqs]
    peqs = [(tuple(a[r] for r in reps), c) for a, c in eqs]
    pcongs = [(tuple(a[r] for r in reps), c, m) for a, c, m in congs]
    return pineqs, peqs, pcongs


def enumerate_integer_points(poly: Polyhedron, cap: int | None = None) -> EnumerationResult:
    """All integer points of the polyhedron, an infinite certificate, or a cap.

    * finite: `points` is the complete, lexicographically sorted list.
    * infinite: `ray` is a nonzero integer vector with the property that
      translating any solution by it stays inside all constraints; `points`
      is empty.
    * capped: the search stopped early; `points` holds what was found (not
      necessarily complete) and `limit` names what stopped it: "cap" (more
      than `cap` points), "node_budget" (the DFS node budget ran out) or
      "probe" (the relaxation is unbounded and the probe windows held no
      integer point, so neither an infinite family nor emptiness is shown).
    """
    cap = DEFAULT_CAP if cap is None else as_integer(cap, "cap")
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    ok, ineqs, eqs, congs = _tidy(poly)
    if not ok:
        return EnumerationResult("finite", [])

    groups = _column_groups(poly.dim, ineqs, eqs, congs)
    merged = len(groups) < poly.dim
    pineqs, peqs, pcongs = _project(groups, ineqs, eqs, congs)
    k = len(groups)

    bounds = _bounds(k, pineqs, peqs)
    if bounds == "infeasible":
        return EnumerationResult("finite", [])
    lo, hi, ray = bounds
    # the integer box of the relaxation, None on an unbounded side
    lo = [None if b is None else math.ceil(b) for b in lo]
    hi = [None if b is None else math.floor(b) for b in hi]
    # a coordinate bounded on both sides may round to an empty range, also
    # when the relaxation is unbounded elsewhere
    if any(a is not None and b is not None and a > b for a, b in zip(lo, hi)):
        return EnumerationResult("finite", [])

    budget = _Budget()
    if ray is not None:
        # unbounded relaxation: hunt for one integer point in growing windows
        for w in _PROBE_WINDOWS:
            wlo = [-w if l is None else max(l, -w) for l in lo]
            whi = [w if h is None else min(h, w) for h in hi]
            if any(a > b for a, b in zip(wlo, whi)):
                continue
            if _dfs_enumerate(k, pineqs, peqs, pcongs, wlo, whi, 0, budget)[0]:
                # scaled by the lcm of the moduli, on each group's first column
                step = math.lcm(*(m for _, _, m in pcongs))
                lifted = [0] * poly.dim
                for g, x in zip(groups, ray):
                    lifted[g[0]] = x * step
                return EnumerationResult("infinite", [], ray=tuple(lifted))
            if budget.nodes > _NODE_BUDGET:
                break
        limit = "node_budget" if budget.nodes > _NODE_BUDGET else "probe"
        return EnumerationResult("capped", [], limit=limit)

    # with merged columns one point settles it: any solution of the reduced
    # system lifts in infinitely many ways through a group of size >= 2
    # (x_i - x_j is unconstrained there)
    pts, exhausted = _dfs_enumerate(k, pineqs, peqs, pcongs, lo, hi,
                                    0 if merged else cap, budget)
    if merged and pts:
        big = next(g for g in groups if len(g) > 1)
        ray = [0] * poly.dim
        ray[big[0]], ray[big[1]] = 1, -1
        return EnumerationResult("infinite", [], ray=tuple(ray))
    if not exhausted:
        limit = "node_budget" if budget.nodes > _NODE_BUDGET else "cap"
        return EnumerationResult("capped", sorted(pts)[:cap], limit=limit)
    return EnumerationResult("finite", sorted(pts))


def _bounds_raw(dim, ineqs, coords):
    """The simplex core: bounds over the system {a.x + c >= 0} as it is
    written, equalities and all (`_bounds` substitutes them out first);
    returns 'infeasible' or (lo list, hi list, ray-or-None): lo/hi entries
    None when unbounded, and ray a primitive x-direction along which the
    first unbounded objective grows.

    The bounds are the extrema of the affine functions (w.x + t) / den
    listed in coords; one with w = 0 is the constant t / den and takes no
    simplex.  All the objectives, max then min of each function, run on one
    feasible tableau, each starting from the basis the previous one left,
    which stays feasible.
    """
    tab = _feasible_tableau(dim, ineqs)
    if tab is None:
        return "infeasible"
    rows, basis, slots, d = tab
    lo: list[Optional[Rat]] = []
    hi: list[Optional[Rat]] = []
    ray = None
    for w, t, den in coords:
        if not any(w):
            lo.append(Rat(t, den))
            hi.append(Rat(t, den))
            continue
        for sgn, out in ((1, hi), (-1, lo)):
            cost = {}
            for j, x in enumerate(w):
                if x:
                    cost[j], cost[dim + j] = sgn * x, -sgn * x
            obj = _price(rows, basis, slots, d, cost)
            d, k = _run_simplex(rows, obj, basis, slots, d, dim)
            if k is None:
                out.append(Rat(sgn * obj[-1] + t * d, d * den))
            else:
                out.append(None)
                ray = ray or _ray(rows, basis, slots, d, k, dim)
    return lo, hi, ray


def _bounds(dim, ineqs, eqs):
    """Exact rational extrema of each coordinate over the linear
    relaxation: 'infeasible' or (lo, hi, ray), with the lo and hi that
    `_bounds_raw` gives for each coordinate x_i on the rows
    `_inequalities(ineqs, eqs)`, but with the equalities substituted out
    first.

    Each equality e.x + c == 0 in turn, in order, is solved for the
    variable x_p with the least nonzero |e_p| (the lowest p on ties), and
    x_p is put into the other rows fraction-free (`_substitute`).  An
    equality that reduces to 0 == c with c != 0, or an inequality that
    reduces to a negative constant, makes the system infeasible.  Each
    coordinate is tracked as an affine function (w.y + t) / den of the
    kept variables y, and the simplex runs once, on the reduced rows in y,
    for the extrema of those functions; when every coordinate is fixed, no
    simplex runs.  The extrema of a coordinate over a polyhedron do not
    depend on how it is written, so only the ray may differ from
    `_bounds_raw`'s: one found in y is lifted to x and made primitive.
    """
    eqs = eqs[::-1]  # a copy, popped from its end, so the first goes first
    coords = [(tuple(int(i == j) for j in range(dim)), 0, 1) for i in range(dim)]
    kept = set(range(dim))
    while eqs:
        e, c = eqs.pop()
        if not any(e):
            if c:
                return "infeasible"
            continue
        p = min((abs(x), j) for j, x in enumerate(e) if x)[1]
        kept.remove(p)
        eqs = _substitute(eqs, e, c, p)
        ineqs = _substitute(ineqs, e, c, p)
        coords = _substitute(coords, e, c, p)
    kept = sorted(kept)
    reduced = _tightest([(tuple(a[j] for j in kept), c) for a, c in ineqs])
    if reduced is None:
        return "infeasible"
    coords = [(tuple(w[j] for j in kept), t, den) for w, t, den in coords]
    bounds = _bounds_raw(len(kept), reduced, coords)
    if bounds == "infeasible" or bounds[2] is None:
        return bounds
    lo, hi, ray = bounds
    # x_i moves by w.ray / den along the ray: scaled by the lcm of the dens
    scale = math.lcm(*(den for _, _, den in coords))
    lifted = [sum(map(mul, w, ray)) * (scale // den) for w, _, den in coords]
    g = math.gcd(*lifted)
    return lo, hi, tuple(x // g for x in lifted)


def _substitute(rows, e, c, p):
    """The rows (a, b, *rest) with x_p put in from e.x + c == 0: a row with
    a_p != 0 becomes |e_p| times itself less a_p*sign(e_p) times (e, c, 0,
    ...), so a_p becomes 0, an inequality a.x + b >= 0 keeps its direction
    and a trailing denominator is scaled by |e_p|; then it is divided by the
    gcd of its entries.  When |e_p| = 1 the scaling is skipped; the gcd
    division is not, as the row may still gain a common factor."""
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
