"""Exact integer-point enumeration for rational polyhedra with congruences.

A `Polyhedron` is given by integer rows:

* inequalities  (a, c):     a.x + c >= 0
* equalities    (a, c):     a.x + c == 0
* congruences   (a, c, m):  a.x + c == 0  (mod m)

`variable_bounds` computes, for each coordinate, exact rational extrema of
the linear relaxation (ignoring congruences) with a two-phase primal simplex
over `Fraction` using Bland's rule, so it terminates and certifies
unboundedness with an explicit recession direction.

`enumerate_integer_points` returns all integer solutions, or reports an
infinite family (with an integer ray along which solutions repeat: the ray is
a recession direction of the inequalities, annihilated by the equalities and
scaled by the lcm of the congruence moduli so that stepping by it preserves
every congruence), or gives up honestly at a cap.  The main structural move:
columns that agree in every row are aggregated (the difference of two such
variables is never constrained), which removes the lineality space that
aggregate-style constraint systems produce; after that the enumeration is a
depth-first interval-propagation search, exact in integers throughout.

`oracle_enumerate` is an independent brute-force checker over an explicit
box, kept free of any machinery above so the two can be tested against each
other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

Rat = Fraction

DEFAULT_CAP = 10**6
_NODE_BUDGET = 5_000_000
_PROBE_WINDOWS = (16, 256, 4096, 65536)

__all__ = [
    "Polyhedron",
    "Bounds",
    "EnumerationResult",
    "variable_bounds",
    "enumerate_integer_points",
    "oracle_enumerate",
    "DEFAULT_CAP",
]


@dataclass
class Polyhedron:
    dim: int
    ineqs: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    eqs: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    congruences: list[tuple[tuple[int, ...], int, int]] = field(default_factory=list)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        self.ineqs = [(tuple(int(x) for x in a), int(c)) for a, c in self.ineqs]
        self.eqs = [(tuple(int(x) for x in a), int(c)) for a, c in self.eqs]
        self.congruences = [
            (tuple(int(x) for x in a), int(c), int(m)) for a, c, m in self.congruences
        ]
        for a, _ in itertools.chain(self.ineqs, self.eqs):
            if len(a) != self.dim:
                raise ValueError(f"row width {len(a)} != dim {self.dim}")
        for a, _, m in self.congruences:
            if len(a) != self.dim:
                raise ValueError(f"row width {len(a)} != dim {self.dim}")
            if m < 1:
                raise ValueError(f"congruence modulus {m} < 1")


@dataclass
class Bounds:
    status: str  # "ok" | "infeasible"
    lower: list[Optional[Rat]]
    upper: list[Optional[Rat]]


@dataclass
class EnumerationResult:
    status: str  # "finite" | "infinite" | "capped"
    points: list[tuple[int, ...]]
    ray: Optional[tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# exact two-phase simplex (max c.x, A x <= b, x >= 0; Bland's rule)


def _pivot(rows, obj, basis, r, e):
    pr = rows[r]
    inv = Rat(1) / pr[e]
    rows[r] = [v * inv for v in pr]
    pr = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[e]:
            f = row[e]
            rows[i] = [v - f * w for v, w in zip(row, pr)]
    if obj[e]:
        f = obj[e]
        for j in range(len(obj)):
            obj[j] -= f * pr[j]
    basis[r] = e


def _run_simplex(rows, obj, basis, ncols):
    """Bland's rule loop; returns ('optimal',) or ('unbounded', entering)."""
    while True:
        e = next((j for j in range(ncols) if obj[j] < 0), None)
        if e is None:
            return ("optimal",)
        r, best = None, None
        for i, row in enumerate(rows):
            if row[e] > 0:
                ratio = row[-1] / row[e]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                    r, best = i, ratio
        if r is None:
            return ("unbounded", e)
        _pivot(rows, obj, basis, r, e)


def _lp_max(dim, ineqs, eqs, objective):
    """Maximize objective.x over {a.x + c >= 0} + equalities, x free.

    Returns ("optimal", value), ("unbounded", ray) with an integer recession
    direction of value-increase, or ("infeasible",).
    """
    # x = u - v with u, v >= 0;  a.x + c >= 0  =>  (-a, a).(u,v) <= c
    n = 2 * dim
    A: list[list[int]] = []
    b: list[int] = []
    for a, c in ineqs:
        A.append([-x for x in a] + [x for x in a])
        b.append(c)
    for a, c in eqs:
        A.append([-x for x in a] + [x for x in a])
        b.append(c)
        A.append([x for x in a] + [-x for x in a])
        b.append(-c)
    m = len(A)
    obj_struct = list(objective) + [-x for x in objective]

    width = n + m  # structural + slack; artificials appended as needed
    rows: list[list[Rat]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    for i in range(m):
        row = [Rat(x) for x in A[i]]
        slack = [Rat(0)] * m
        slack[i] = Rat(1)
        rhs = Rat(b[i])
        if rhs < 0:
            row = [-x for x in row]
            slack = [-x for x in slack]
            rhs = -rhs
            rows.append(row + slack + [rhs])
            art_cols.append(len(rows) - 1)  # row index; column assigned below
            basis.append(-1)  # placeholder
        else:
            rows.append(row + slack + [rhs])
            basis.append(n + i)
    # append artificial columns
    n_art = len(art_cols)
    total = width + n_art
    for k, ri in enumerate(art_cols):
        for i, row in enumerate(rows):
            row.insert(width + k, Rat(1) if i == ri else Rat(0))
        basis[ri] = width + k
    for row in rows:
        assert len(row) == total + 1

    if n_art:
        # phase 1: max -(sum of artificials); obj[j] = z_j - c_j
        cvec = [Rat(0)] * total
        for k in range(n_art):
            cvec[width + k] = Rat(-1)
        obj = [Rat(0)] * (total + 1)
        for j in range(total + 1):
            s = sum(rows[i][j] for i in range(m) if basis[i] >= width)
            obj[j] = -s - (cvec[j] if j < total else 0)
        res = _run_simplex(rows, obj, basis, total)
        assert res[0] == "optimal"  # phase 1 is always bounded
        if obj[-1] != 0:  # leftover infeasibility (value = -sum art < 0)
            return ("infeasible",)
        # drive artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= width:
                e = next((j for j in range(width) if rows[i][j] != 0), None)
                if e is not None:
                    _pivot(rows, obj, basis, i, e)
        # drop rows still carrying a basic artificial (they are 0 = 0)
        keep = [i for i in range(m) if basis[i] < width]
        rows = [rows[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(rows)
    # strip artificial columns
    for row in rows:
        del row[width : width + n_art]
    total = width

    cvec = [Rat(x) for x in obj_struct] + [Rat(0)] * (total - n)
    obj = [Rat(0)] * (total + 1)
    for j in range(total + 1):
        s = sum(cvec[basis[i]] * rows[i][j] for i in range(m))
        obj[j] = s - (cvec[j] if j < total else 0)
    res = _run_simplex(rows, obj, basis, total)
    if res[0] == "unbounded":
        e = res[1]
        direction = [Rat(0)] * total
        direction[e] = Rat(1)
        for i in range(m):
            if rows[i][e]:
                direction[basis[i]] = -rows[i][e]
        ray = [direction[j] - direction[dim + j] for j in range(dim)]
        den = math.lcm(*(f.denominator for f in ray)) if ray else 1
        iray = [int(f * den) for f in ray]
        g = math.gcd(*(abs(x) for x in iray)) or 1
        return ("unbounded", tuple(x // g for x in iray))
    # objective value: obj[-1] holds z = c_B B^-1 b
    return ("optimal", obj[-1])


# ---------------------------------------------------------------------------
# preprocessing


def _tidy(poly: Polyhedron, integer: bool):
    """Deduplicate/merge rows; detect trivial infeasibility.

    Returns (feasible, ineqs, eqs, congs).  Inequalities with proportional
    coefficient vectors keep only the tightest constant; congruence rows are
    reduced mod m.  Zero-coefficient rows become pure feasibility checks.
    With integer=True an equality whose coefficient gcd does not divide the
    constant term is an immediate contradiction (it is not one rationally).
    """
    best: dict[tuple[int, ...], tuple[Fraction, tuple[tuple[int, ...], int]]] = {}
    for a, c in poly.ineqs:
        if not any(a):
            if c < 0:
                return False, [], [], []
            continue
        g = math.gcd(*(abs(x) for x in a))
        key = tuple(x // g for x in a)
        tight = Rat(c, g)
        cur = best.get(key)
        if cur is None or tight < cur[0]:
            best[key] = (tight, (a, c))
    ineqs = [row for _, row in best.values()]

    eqs = []
    seen = set()
    for a, c in poly.eqs:
        if not any(a):
            if c != 0:
                return False, [], [], []
            continue
        g = math.gcd(*(abs(x) for x in a))
        if integer and c % g:
            return False, [], [], []
        lead = next(x for x in a if x)
        sgn = 1 if lead > 0 else -1
        key = (tuple(sgn * x // g for x in a), Rat(sgn * c, g))
        if key not in seen:
            seen.add(key)
            eqs.append((a, c))

    congs = []
    seenc = set()
    for a, c, m in poly.congruences:
        if m == 1:
            continue
        ra = tuple(x % m for x in a)
        rc = c % m
        if not any(ra):
            if rc:
                return False, [], [], []
            continue
        key = (ra, rc, m)
        if key not in seenc:
            seenc.add(key)
            congs.append(key)
    return True, ineqs, eqs, congs


def variable_bounds(poly: Polyhedron) -> Bounds:
    """Exact rational extrema of each coordinate over the linear relaxation."""
    ok, ineqs, eqs, _ = _tidy(poly, integer=False)
    bounds = _bounds_raw(poly.dim, ineqs, eqs) if ok else "infeasible"
    if bounds == "infeasible":
        return Bounds("infeasible", [], [])
    lower, upper, _ = bounds
    return Bounds("ok", lower, upper)


# ---------------------------------------------------------------------------
# DFS over integer boxes with exact propagation


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _floor_div(p: int, q: int) -> int:
    return p // q


class _Budget:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def _dfs_enumerate(dim, ineqs, eqs, congs, lo, hi, cap, budget: _Budget):
    """All integer points in the box satisfying all rows.

    Returns (points, exhausted) where exhausted=False means the cap or node
    budget interrupted the search.
    """
    rows = [(a, c, False) for a, c in ineqs] + [(a, c, True) for a, c in eqs]
    points: list[tuple[int, ...]] = []

    def propagate(lo, hi):
        changed = True
        passes = 0
        while changed and passes < 4:
            changed = False
            passes += 1
            for a, c, is_eq in rows:
                mn = c
                mx = c
                for j, aj in enumerate(a):
                    if aj > 0:
                        mn += aj * lo[j]
                        mx += aj * hi[j]
                    elif aj < 0:
                        mn += aj * hi[j]
                        mx += aj * lo[j]
                if mx < 0 or (is_eq and mn > 0):
                    return None
                for j, aj in enumerate(a):
                    if aj == 0:
                        continue
                    # rest = row value minus this variable's contribution
                    rest_max = mx - (aj * hi[j] if aj > 0 else aj * lo[j])
                    rest_min = mn - (aj * lo[j] if aj > 0 else aj * hi[j])
                    # need aj*xj >= -rest_max (for >= 0 resp. == 0 rows)
                    if aj > 0:
                        nl = _ceil_div(-rest_max, aj)
                        if nl > lo[j]:
                            lo[j] = nl
                            changed = True
                        if is_eq:  # and aj*xj <= -rest_min
                            nh = _floor_div(-rest_min, aj)
                            if nh < hi[j]:
                                hi[j] = nh
                                changed = True
                    else:
                        # aj < 0: aj*xj >= -rest_max  <=>  xj <= rest_max/(-aj)
                        nh = _floor_div(rest_max, -aj)
                        if nh < hi[j]:
                            hi[j] = nh
                            changed = True
                        if is_eq:  # aj*xj <= -rest_min <=> xj >= rest_min/(-aj)
                            nl = _ceil_div(rest_min, -aj)
                            if nl > lo[j]:
                                lo[j] = nl
                                changed = True
                    if lo[j] > hi[j]:
                        return None
        return lo, hi

    def cong_progression(j, lo, hi, congs_state):
        """Combined arithmetic progression for variable j from congruences
        whose not-yet-fixed support is exactly {j}; fixed variables (pinched
        boxes) contribute to the constant."""
        step, offset = 1, 0
        for a, c, m in congs_state:
            if a[j] % m == 0:
                continue
            if any(a[k] % m and k != j and lo[k] < hi[k] for k in range(dim)):
                continue
            cc = c + sum(a[k] * lo[k] for k in range(dim) if k != j and a[k] % m)
            aj, cc = a[j] % m, cc % m
            g = math.gcd(aj, m)
            if cc % g:
                return None
            mm = m // g
            root = (-(cc // g) * pow(aj // g, -1, mm)) % mm
            # merge x = root (mod mm) into x = offset (mod step)
            gg = math.gcd(step, mm)
            if (root - offset) % gg:
                return None
            l = step // gg * mm
            # CRT combine
            t = ((root - offset) // gg * pow(step // gg, -1, mm // gg)) % (mm // gg)
            offset = offset + step * t
            step = l
            offset %= step
        return step, offset

    def rec(lo, hi, congs_state):
        budget.nodes += 1
        if budget.nodes > _NODE_BUDGET or len(points) > cap:
            return False
        got = propagate(lo, hi)
        if got is None:
            return True
        lo, hi = got
        unfixed = [j for j in range(dim) if lo[j] < hi[j]]
        if not unfixed:
            x = tuple(lo)
            if _point_ok(x, ineqs, eqs, congs):
                points.append(x)
                if len(points) > cap:
                    return False
            return True
        j = min(unfixed, key=lambda k: hi[k] - lo[k])
        prog = cong_progression(j, lo, hi, congs_state)
        if prog is None:
            return True
        step, offset = prog
        start = lo[j] + (offset - lo[j]) % step
        v = start
        while v <= hi[j]:
            nlo, nhi = list(lo), list(hi)
            nlo[j] = nhi[j] = v
            # substitute into congruences: fixing is implicit (lo==hi)
            ncongs = []
            for a, c, m in congs_state:
                if a[j] % m:
                    na = list(a)
                    na[j] = 0
                    ncongs.append((tuple(na), (c + a[j] * v) % m, m))
                else:
                    ncongs.append((a, c, m))
            if not rec(nlo, nhi, ncongs):
                return False
            v += step
        return True

    exhausted = rec(list(lo), list(hi), list(congs))
    return points, exhausted


def _point_ok(x, ineqs, eqs, congs) -> bool:
    for a, c in ineqs:
        if sum(ai * xi for ai, xi in zip(a, x)) + c < 0:
            return False
    for a, c in eqs:
        if sum(ai * xi for ai, xi in zip(a, x)) + c != 0:
            return False
    for a, c, m in congs:
        if (sum(ai * xi for ai, xi in zip(a, x)) + c) % m:
            return False
    return True


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


def _scale_ray_for_congruences(ray, congs):
    mods = [m for _, _, m in congs]
    k = math.lcm(*mods) if mods else 1
    return tuple(x * k for x in ray)


def enumerate_integer_points(poly: Polyhedron, cap: int | None = None) -> EnumerationResult:
    """All integer points of the polyhedron, an infinite certificate, or a cap.

    * finite: `points` is the complete, lexicographically sorted list.
    * infinite: `ray` is a nonzero integer vector with the property that
      translating any solution by it stays inside all constraints; `points`
      is empty.
    * capped: the search stopped at the cap/node budget; `points` holds what
      was found (not necessarily complete).
    """
    cap = DEFAULT_CAP if cap is None else int(cap)
    ok, ineqs, eqs, congs = _tidy(poly, integer=True)
    if not ok:
        return EnumerationResult("finite", [])

    groups = _column_groups(poly.dim, ineqs, eqs, congs)
    merged = len(groups) < poly.dim
    pineqs, peqs, pcongs = _project(groups, ineqs, eqs, congs)
    k = len(groups)

    bounds = _bounds_raw(k, pineqs, peqs)
    if bounds == "infeasible":
        return EnumerationResult("finite", [])
    lo, hi, ray = bounds

    budget = _Budget()
    if ray is not None:
        # unbounded relaxation: hunt for one integer point in growing windows
        ray = _scale_ray_for_congruences(ray, pcongs)
        found = None
        for w in _PROBE_WINDOWS:
            wlo = [int(l) if l is not None else -w for l in lo]
            whi = [int(h) if h is not None else w for h in hi]
            wlo = [max(v, -w) for v in wlo]
            whi = [min(v, w) for v in whi]
            if any(a > b for a, b in zip(wlo, whi)):
                continue
            pts, _ = _dfs_enumerate(k, pineqs, peqs, pcongs, wlo, whi, 0, budget)
            if pts:
                found = pts[0]
                break
            if budget.nodes > _NODE_BUDGET:
                break
        if found is None:
            return EnumerationResult("capped", [])
        lifted_ray = _lift_ray(poly.dim, groups, ray)
        return EnumerationResult("infinite", [], ray=lifted_ray)

    ilo = [_ceil_div(b.numerator, b.denominator) for b in lo]
    ihi = [_floor_div(b.numerator, b.denominator) for b in hi]
    if any(a > b for a, b in zip(ilo, ihi)):
        return EnumerationResult("finite", [])

    if merged:
        # any solution of the reduced system lifts in infinitely many ways
        # through a group of size >= 2 (x_i - x_j is unconstrained there)
        pts, exhausted = _dfs_enumerate(k, pineqs, peqs, pcongs, ilo, ihi, 0, budget)
        if pts:
            big = next(g for g in groups if len(g) > 1)
            ray = [0] * poly.dim
            ray[big[0]], ray[big[1]] = 1, -1
            return EnumerationResult("infinite", [], ray=tuple(ray))
        return EnumerationResult("finite" if exhausted else "capped", [])

    pts, exhausted = _dfs_enumerate(k, pineqs, peqs, pcongs, ilo, ihi, cap, budget)
    if not exhausted:
        return EnumerationResult("capped", sorted(pts)[:cap])
    return EnumerationResult("finite", sorted(pts))


def _lift_ray(dim, groups, pray):
    ray = [0] * dim
    for g, v in zip(groups, pray):
        ray[g[0]] = v
    return tuple(ray)


def _bounds_raw(dim, ineqs, eqs):
    """Bounds for the already-tidied system; returns 'infeasible' or
    (lo list, hi list, ray-or-None): lo/hi entries None when unbounded."""
    lo: list[Optional[Rat]] = []
    hi: list[Optional[Rat]] = []
    ray = None
    for i in range(dim):
        obj = [0] * dim
        obj[i] = 1
        up = _lp_max(dim, ineqs, eqs, obj)
        if up[0] == "infeasible":
            return "infeasible"
        if up[0] == "unbounded":
            hi.append(None)
            ray = ray or up[1]
        else:
            hi.append(up[1])
        obj[i] = -1
        low = _lp_max(dim, ineqs, eqs, obj)
        if low[0] == "unbounded":
            lo.append(None)
            ray = ray or low[1]
        else:
            lo.append(-low[1])
    return lo, hi, ray


# ---------------------------------------------------------------------------
# independent brute-force oracle


def oracle_enumerate(poly: Polyhedron, box: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Brute force over an explicit box; deliberately shares no code with
    the real enumerator."""
    if len(box) != poly.dim:
        raise ValueError("box width != dim")
    out = []
    for x in itertools.product(*(range(a, b + 1) for a, b in box)):
        good = True
        for a, c in poly.ineqs:
            if sum(p * q for p, q in zip(a, x)) + c < 0:
                good = False
                break
        if good:
            for a, c in poly.eqs:
                if sum(p * q for p, q in zip(a, x)) + c != 0:
                    good = False
                    break
        if good:
            for a, c, m in poly.congruences:
                if (sum(p * q for p, q in zip(a, x)) + c) % m:
                    good = False
                    break
        if good:
            out.append(tuple(x))
    return sorted(out)
