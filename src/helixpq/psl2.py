"""Generic ordinary character tables of PSL(2,q) and PGL(2,q), q >= 4.

The construction is the classical parameterized one.  Writing d = gcd(2,q-1),
A = (q-1)/d and B = (q+1)/d for the orders of the images of the split and
nonsplit maximal tori, the classes are:

* the identity;
* unipotent elements of order p (one class for even q or PGL, two classes
  c, d for PSL with q odd, swapped by conjugation with a non-square-determinant
  element: x^r stays in its class iff r is a square in F_q);
* split torus classes a_l, l = 1..A/2 (element order A/gcd(A,l), size q(q+1),
  halved at the involution l = A/2);
* nonsplit torus classes b_m, m = 1..B/2 (order B/gcd(B,m), size q(q-1),
  halved at m = B/2).

Character values involve zeta_A and zeta_B only, except the two "halved"
degree-(q±1)/2 characters of PSL(2,q) for odd q whose unipotent values need
sqrt(q) (q = 1 mod 4) or sqrt(-q) (q = 3 mod 4); those square roots are exact
quadratic Gauss sums, so everything stays inside cyclotomic fields.

Classes are named by element order plus letter ('2a', '11c', ...).  Within
one element order: unipotent classes first, then split (by l), then nonsplit
(by m); the one genuine collision - the two involution classes of PGL(2,q)
for odd q - is ordered so that the involution lying inside PSL(2,q) gets the
letter 'a'.

Power maps are generated for every prime dividing the group order, which is
what downstream congruence constraints consume.

`gen_table(..., include_brauer3=True)` appends the 3-dimensional Brauer
character in the defining characteristic (the adjoint module): a
projective matrix t = diag(t,1) acts on trace-zero matrices with
eigenvalues t, 1, 1/t, so the value on a torus class with exponent
parameter l is 1 + zeta^l + zeta^-l.  It is a character of the full
projective group, hence only available for pgl2 (or even q, where
PSL = PGL).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .chartab import Character, CharacterTable, ConjClass
from .cyclo import CycValue, as_integer, cyc_rational, _factor, prime_divisors

__all__ = ["gen_table", "Psl2Params"]


class Psl2Params(NamedTuple):
    family: str  # "psl2" | "pgl2"
    q: int
    p: int
    f: int

    @property
    def is_even(self) -> bool:
        return self.p == 2

    @property
    def torus_div(self) -> int:
        # tori are seen through the center: /2 for odd PSL, /1 otherwise
        return 2 if (self.family == "psl2" and not self.is_even) else 1

    @property
    def split_order(self) -> int:
        return (self.q - 1) // self.torus_div

    @property
    def nonsplit_order(self) -> int:
        return (self.q + 1) // self.torus_div

    @property
    def group_order(self) -> int:
        return self.q * (self.q * self.q - 1) // self.torus_div

    @property
    def group_name(self) -> str:
        fam = "PSL" if self.family == "psl2" else "PGL"
        return f"{fam}(2,{self.q})"


def resolve_params(family: str, q: int) -> Psl2Params:
    if family not in ("psl2", "pgl2"):
        raise ValueError(f"family must be 'psl2' or 'pgl2', got {family!r}")
    q = as_integer(q, "q")
    if q < 4:
        raise ValueError(f"q >= 4 required, got {q}")
    fac = _factor(q)
    if len(fac) != 1:
        raise ValueError(f"q must be a prime power, got {q} = {dict(fac)}")
    p, f = fac[0]
    return Psl2Params(family=family, q=q, p=p, f=f)


# ---------------------------------------------------------------------------
# class layout


class _Spec(NamedTuple):
    kind: str  # "id" | "uni" | "split" | "nonsplit"
    param: int
    element_order: int
    size: int
    in_psl: bool  # used only to order colliding involution classes


def _class_specs(ps: Psl2Params) -> list[_Spec]:
    q, p = ps.q, ps.p
    A, B = ps.split_order, ps.nonsplit_order
    specs = [_Spec("id", 0, 1, 1, True)]

    if ps.is_even:
        specs.append(_Spec("uni", 0, 2, q * q - 1, True))
    elif ps.family == "pgl2":
        specs.append(_Spec("uni", 0, p, q * q - 1, True))
    else:
        half = (q * q - 1) // 2
        specs.append(_Spec("uni", 0, p, half, True))
        specs.append(_Spec("uni", 1, p, half, True))

    for l in range(1, A // 2 + 1):
        order = A // math.gcd(A, l)
        size = q * (q + 1) // (2 if 2 * l == A else 1)
        in_psl = ps.family == "psl2" or order != 2 or q % 4 == 1
        specs.append(_Spec("split", l, order, size, in_psl))
    for m in range(1, B // 2 + 1):
        order = B // math.gcd(B, m)
        size = q * (q - 1) // (2 if 2 * m == B else 1)
        in_psl = ps.family == "psl2" or order != 2 or q % 4 == 3
        specs.append(_Spec("nonsplit", m, order, size, in_psl))
    return specs


def _letters(i: int) -> str:
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


_KIND_RANK = {"id": 0, "uni": 0, "split": 1, "nonsplit": 2}


def _name_classes(specs: list[_Spec]) -> dict[_Spec, str]:
    by_order: dict[int, list[_Spec]] = {}
    for s in specs:
        by_order.setdefault(s.element_order, []).append(s)
    names: dict[_Spec, str] = {}
    for order, group in by_order.items():
        group.sort(key=lambda s: (0 if s.in_psl else 1, _KIND_RANK[s.kind], s.param))
        for i, s in enumerate(group):
            names[s] = f"{order}{_letters(i)}"
    return names


def _is_square_mod_q(r: int, ps: Psl2Params) -> bool:
    # r (in the prime field) is a square in F_q iff r^((q-1)/2) = 1
    p = ps.p
    r %= p
    if r == 0:
        raise ValueError("square test on a multiple of p")
    e = ((ps.q - 1) // 2) % (p - 1)
    return pow(r, e, p) == 1


def _power_maps(ps: Psl2Params, specs: list[_Spec], names) -> dict[_Spec, dict[int, str]]:
    primes = prime_divisors(ps.group_order)
    A, B = ps.split_order, ps.nonsplit_order
    by_key = {(s.kind, s.param): s for s in specs}
    out: dict[_Spec, dict[int, str]] = {}
    for s in specs:
        if s.kind == "id":
            continue
        maps = {}
        for r in primes:
            if s.kind == "uni":
                if r == ps.p:
                    target = by_key[("id", 0)]
                elif ps.family == "pgl2" or ps.is_even:
                    target = s
                else:
                    keep = _is_square_mod_q(r, ps)
                    target = s if keep else by_key[("uni", 1 - s.param)]
            else:
                mod = A if s.kind == "split" else B
                e = (r * s.param) % mod
                e = min(e, mod - e)
                target = by_key[("id", 0)] if e == 0 else by_key[(s.kind, e)]
            maps[r] = names[target]
        out[s] = maps
    return out


# ---------------------------------------------------------------------------
# character values


def _gauss_sum(p: int) -> CycValue:
    """Quadratic Gauss sum: sqrt(p) for p = 1 mod 4, sqrt(-p) for p = 3 mod 4."""
    total = CycValue(p, {a: 1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, p)})
    return total


def _sqrt_q(ps: Psl2Params) -> CycValue:
    """Exact sqrt(q) (q = 1 mod 4) or sqrt(-q) (q = 3 mod 4)."""
    p, f = ps.p, ps.f
    if f % 2 == 0:
        return cyc_rational(p ** (f // 2))
    return p ** ((f - 1) // 2) * _gauss_sum(p)


def _characters(ps: Psl2Params, specs, names, include_brauer3) -> list[Character]:
    """The characters of the table.  A torus value zeta^e + zeta^-e recurs
    on many classes and characters, so each distinct one is canonicalised
    once per call and shared."""
    q = ps.q
    A, B = ps.split_order, ps.nonsplit_order
    pairs: dict[tuple[int, int], CycValue] = {}

    def torus(order: int, expo: int) -> CycValue:
        # zeta^e + zeta^-e; Counter gives coefficient 2 when 2e = 0 (mod order)
        e = expo % order
        if (order, e) not in pairs:
            pairs[order, e] = CycValue(order, Counter((e, -e % order)))
        return pairs[order, e]

    def build(name, degree, on_uni, on_split, on_nonsplit, characteristic=0):
        vals: dict[str, CycValue] = {}
        for s in specs:
            if s.kind == "id":
                v = cyc_rational(degree)
            elif s.kind == "uni":
                v = on_uni(s.param)
                if v is None:
                    continue
            elif s.kind == "split":
                v = on_split(s.param)
            else:
                v = on_nonsplit(s.param)
            vals[names[s]] = v if isinstance(v, CycValue) else cyc_rational(v)
        return Character(name=name, degree=degree, values=vals, characteristic=characteristic)

    chars = [build("triv", 1, lambda i: 1, lambda l: 1, lambda m: 1)]

    if ps.family == "pgl2" and not ps.is_even:
        chars.append(
            build("sgn", 1, lambda i: 1, lambda l: (-1) ** l, lambda m: (-1) ** m)
        )
    chars.append(build("st", q, lambda i: 0, lambda l: 1, lambda m: -1))
    if ps.family == "pgl2" and not ps.is_even:
        chars.append(
            build("st_sgn", q, lambda i: 0, lambda l: (-1) ** l, lambda m: -((-1) ** m))
        )

    if ps.is_even:
        n_chi, n_theta = (q - 2) // 2, q // 2
    elif ps.family == "pgl2":
        n_chi, n_theta = (q - 3) // 2, (q - 1) // 2
    else:
        n_chi = (A - 2) // 2 if A % 2 == 0 else (A - 1) // 2
        n_theta = (B - 2) // 2 if B % 2 == 0 else (B - 1) // 2

    uni_chi = 1
    uni_theta = -1
    for i in range(1, n_chi + 1):
        chars.append(
            build(
                f"chi_{i}",
                q + 1,
                lambda _x: uni_chi,
                lambda l, i=i: torus(A, i * l),
                lambda m: 0,
            )
        )
    for j in range(1, n_theta + 1):
        chars.append(
            build(
                f"theta_{j}",
                q - 1,
                lambda _x: uni_theta,
                lambda l: 0,
                lambda m, j=j: -torus(B, j * m),
            )
        )

    if ps.family == "psl2" and not ps.is_even:
        root = _sqrt_q(ps)
        if q % 4 == 1:
            for tag, sign in (("xi_1", 1), ("xi_2", -1)):
                chars.append(
                    build(
                        tag,
                        (q + 1) // 2,
                        lambda idx, sign=sign: _halved_value(1, sign, idx, root),
                        lambda l: (-1) ** l,
                        lambda m: 0,
                    )
                )
        else:
            for tag, sign in (("eta_1", 1), ("eta_2", -1)):
                chars.append(
                    build(
                        tag,
                        (q - 1) // 2,
                        lambda idx, sign=sign: _halved_value(-1, sign, idx, root),
                        lambda l: 0,
                        lambda m: -((-1) ** m),
                    )
                )

    if include_brauer3:
        # the unipotent classes are p-singular: no Brauer value
        chars.append(build("brauer3", 3, lambda _x: None, lambda l: 1 + torus(A, l),
                           lambda m: 1 + torus(B, m), characteristic=ps.p))
    return chars


def _halved_value(base: int, sign: int, uni_index: int, root: CycValue) -> CycValue:
    """(base +- root)/2 on the two unipotent classes, swapped between them."""
    s = sign * (1 if uni_index == 0 else -1)
    return (cyc_rational(base) + s * root) * cyc_rational(Fraction(1, 2))


# ---------------------------------------------------------------------------
# public API


def gen_table(family: str, q: int, include_brauer3: bool = False) -> CharacterTable:
    """Full ordinary character table of PSL(2,q) or PGL(2,q).

    For even q the two groups coincide and both family tags are accepted.
    Raises ValueError for q < 4, for q not a prime power, and for
    `include_brauer3` on PSL(2,q) with q odd.
    """
    ps = resolve_params(family, q)
    if include_brauer3 and ps.family != "pgl2" and not ps.is_even:
        raise ValueError(
            "the 3-dimensional adjoint Brauer character lives on the full "
            "projective group; use family='pgl2' (or even q, where PSL = PGL)"
        )
    specs = _class_specs(ps)
    names = _name_classes(specs)
    pmaps = _power_maps(ps, specs, names)
    classes = [
        ConjClass(
            name=names[s],
            element_order=s.element_order,
            size=s.size,
            power_maps=pmaps.get(s, {}),
        )
        for s in specs
    ]
    chars = _characters(ps, specs, names, include_brauer3)
    return CharacterTable(
        group_name=ps.group_name,
        classes=classes,
        characters=chars,
        order=ps.group_order,
        completeness="full",
    )
