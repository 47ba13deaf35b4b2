"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a rational linear combination of roots of unity, stored in a
canonical form that makes equality a dictionary comparison:

* the conductor N is minimal (the value lies in no smaller cyclotomic field)
  and never congruent to 2 mod 4 (Q(zeta_{2m}) = Q(zeta_m) for odd m, via
  zeta_{2m} = -zeta_m^{(m+1)/2});
* coefficients live on the power basis 1, zeta, ..., zeta^{phi(N)-1}, i.e.
  exponents are reduced modulo the N-th cyclotomic polynomial.

The power basis is an integral basis for Q(zeta_N), so a value is an
algebraic integer exactly when all stored coefficients are integers.

Only the representation is clever; the public API is plain: build values out
of roots of unity and rationals, combine with +, -, *, apply Galois
automorphisms, and take traces down to Q.  Traces accept an optional ambient
conductor so that the trace of a value from a *larger* field than its
conductor requires no awkward manual scaling by degree ratios (the trace of
the rational 1 taken at conductor 12 is 4, not 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

from sympy import cyclotomic_poly, factorint

Rat = Fraction

__all__ = [
    "CycValue",
    "cyc_zero",
    "cyc_rational",
    "root_of_unity",
    "galois_apply",
    "rational_trace",
    "root_trace_table",
    "parse_cyc",
    "render_cyc",
    "format_cyc",
    "euler_phi",
    "mobius",
    "divisors",
    "prime_divisors",
]


# ---------------------------------------------------------------------------
# elementary number theory, cached (sympy does the factoring)


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    return tuple(sorted(factorint(n).items()))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = 1
    for p, a in _factor(n):
        out *= (p - 1) * p ** (a - 1)
    return out


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    out = 1
    for _, a in _factor(n):
        if a > 1:
            return 0
        out = -out
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in _factor(n))


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    out = [1]
    for p, a in _factor(n):
        out = [d * p**k for d in out for k in range(a + 1)]
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _coprime_residues(n: int) -> tuple[int, ...]:
    if n == 1:
        return (0,)
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# power-basis reduction modulo the cyclotomic polynomial


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row e (0 <= e < n) expresses zeta_n^e over 1..zeta_n^{phi(n)-1}.

    Rows are integer vectors because Phi_n is monic over Z.
    """
    if n % 4 == 2:
        raise ValueError("internal: reduction tables only for n != 2 mod 4")
    d = euler_phi(n)
    top = [int(c) for c in cyclotomic_poly(n, polys=True).all_coeffs()]
    # x^d = -(top[1] x^{d-1} + ... + top[d]);  step[j] = coeff of x^j
    step = tuple(-c for c in reversed(top[1:]))
    rows: list[tuple[int, ...]] = []
    for e in range(n):
        if e < d:
            rows.append(tuple(1 if j == e else 0 for j in range(d)))
        else:
            prev = rows[e - 1]
            carry = prev[d - 1]
            shifted = (0,) + prev[: d - 1]
            rows.append(tuple(s + carry * st for s, st in zip(shifted, step)))
    return tuple(rows)


@lru_cache(maxsize=None)
def root_trace_table(n: int) -> tuple[int, ...]:
    """Traces of zeta_n^j from Q(zeta_n) down to Q, for j = 0..n-1.

    These are Ramanujan sums: mu(n/g) * phi(n)/phi(n/g) with g = gcd(j, n).
    The identity is property-tested against the Galois-orbit trace; this
    table exists because row construction in the constraint engine calls it
    in a tight loop.
    """
    out = []
    for j in range(n):
        g = math.gcd(j, n) if j else n
        m = n // g
        out.append(mobius(m) * euler_phi(n) // euler_phi(m))
    return tuple(out)


# ---------------------------------------------------------------------------
# subfield descent: rewriting a value at conductor n over Q(zeta_{n/p})


def _matrix_inverse(m: list[list[Rat]]) -> list[list[Rat]]:
    k = len(m)
    aug = [list(row) + [Rat(i == j) for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Rat(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


@lru_cache(maxsize=None)
def _subfield_solver(n: int, p: int):
    """Solver for membership of Q(zeta_n)-values in Q(zeta_{n/p}), p || n.

    Returns solve(vec) -> coefficient dict over zeta_{n/p}, or None when the
    value does not lie in the subfield.  zeta_{n/p} = zeta_n^p, so we solve
    the linear system whose columns are the reduced powers zeta_n^{p*j}.
    """
    m = n // p
    dm, dn = euler_phi(m), euler_phi(n)
    rows_n = _reduction_rows(n)
    cols = [rows_n[(p * j) % n] for j in range(dm)]  # dm columns, each len dn

    # pick dm coordinate rows on which the columns are invertible
    work = [list(c) for c in cols]
    pivots: list[int] = []
    for r in range(dm):
        piv = next(i for i in range(dn) if i not in pivots and work[r][i] != 0)
        pivots.append(piv)
        for r2 in range(r + 1, dm):
            if work[r2][piv]:
                f = Rat(work[r2][piv], work[r][piv])
                work[r2] = [a - f * b for a, b in zip(work[r2], work[r])]
    square = [[Rat(cols[j][i]) for j in range(dm)] for i in pivots]
    inv = _matrix_inverse(square)

    def solve(vec: list[Rat]):
        rhs = [vec[i] for i in pivots]
        x = [sum(inv[i][j] * rhs[j] for j in range(dm)) for i in range(dm)]
        # verify on all dn coordinates (pivot rows only prove consistency there)
        for i in range(dn):
            if sum(x[j] * cols[j][i] for j in range(dm)) != vec[i]:
                return None
        return {j: x[j] for j in range(dm) if x[j]}

    return solve


# ---------------------------------------------------------------------------
# canonicalization pipeline


def _canonical_parts(n: int, raw: Mapping[int, Rat]) -> tuple[int, dict[int, Rat]]:
    if n <= 0:
        raise ValueError(f"conductor must be positive, got {n}")
    folded: dict[int, Rat] = {}
    for e, c in raw.items():
        if not c:
            continue
        e %= n
        folded[e] = folded.get(e, Rat(0)) + c

    while n % 4 == 2:  # zeta_{2m} = -zeta_m^{(m+1)/2}, m odd
        m = n // 2
        nxt: dict[int, Rat] = {}
        for e, c in folded.items():
            e2 = (e * (m + 1) // 2) % m if e % 2 else (e // 2) % m
            c2 = -c if e % 2 else c
            nxt[e2] = nxt.get(e2, Rat(0)) + c2
        n, folded = m, nxt

    d = euler_phi(n)
    vec = [Rat(0)] * d
    rows = _reduction_rows(n)
    for e, c in folded.items():
        if not c:
            continue
        if e < d:
            vec[e] += c
        else:
            for j, rc in enumerate(rows[e]):
                if rc:
                    vec[j] += c * rc

    support = [j for j, c in enumerate(vec) if c]
    if not support:
        return 1, {}
    if support == [0]:
        return 1, {0: vec[0]}
    if n == 1:
        return 1, {0: vec[0]}

    # descend to a proper subfield where possible, one prime at a time
    for p in prime_divisors(n):
        m = n // p
        if m % p == 0:
            # Phi_n(x) = Phi_m(x^p): the subfield basis is the exponents
            # divisible by p, so membership is a support condition.
            if all(j % p == 0 for j in support):
                return _canonical_parts(m, {j // p: vec[j] for j in support})
        else:
            sol = _subfield_solver(n, p)(vec)
            if sol is not None:
                return _canonical_parts(m, sol)
    return n, {j: vec[j] for j in support}


# ---------------------------------------------------------------------------
# the value type


_RatLike = Union[int, Rat]


class CycValue:
    """A canonical element of some Q(zeta_N); immutable and hashable."""

    __slots__ = ("_n", "_c")

    def __init__(self, conductor: int = 1, terms: Mapping[int, _RatLike] | None = None):
        raw = {} if terms is None else {int(e): Rat(c) for e, c in terms.items()}
        self._n, self._c = _canonical_parts(int(conductor), raw)

    # -- inspection ---------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self._n

    @property
    def terms(self) -> dict[int, Rat]:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def is_rational(self) -> bool:
        return self._n == 1

    def as_rational(self) -> Rat:
        if self._n != 1:
            raise ValueError(f"{self!r} is irrational")
        return self._c.get(0, Rat(0))

    def is_integral(self) -> bool:
        """Algebraic integer test (power basis = integral basis)."""
        return all(c.denominator == 1 for c in self._c.values())

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "CycValue":
        if isinstance(x, CycValue):
            return x
        if isinstance(x, (int, Rat)):
            return cyc_rational(x)
        return NotImplemented  # type: ignore[return-value]

    def _terms_at(self, level: int) -> Iterable[tuple[int, Rat]]:
        step = level // self._n
        return ((e * step % level, c) for e, c in self._c.items())

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        level = self._n * o._n // math.gcd(self._n, o._n)
        raw: dict[int, Rat] = {}
        for e, c in self._terms_at(level):
            raw[e] = raw.get(e, Rat(0)) + c
        for e, c in o._terms_at(level):
            raw[e] = raw.get(e, Rat(0)) + c
        return CycValue(level, raw)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(CycValue)
        out._n, out._c = self._n, {e: -c for e, c in self._c.items()}
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        level = self._n * o._n // math.gcd(self._n, o._n)
        a = list(self._terms_at(level))
        b = list(o._terms_at(level))
        raw: dict[int, Rat] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = (e1 + e2) % level
                raw[e] = raw.get(e, Rat(0)) + c1 * c2
        return CycValue(level, raw)

    __rmul__ = __mul__

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            return self._n == 1 and self._c.get(0, Rat(0)) == other
        if not isinstance(other, CycValue):
            return NotImplemented
        return self._n == other._n and self._c == other._c

    def __hash__(self):
        return hash((self._n, frozenset(self._c.items())))

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        return f"CycValue({format_cyc(self)!r})"


# ---------------------------------------------------------------------------
# factories and arithmetic helpers


def cyc_zero() -> CycValue:
    return CycValue(1, {})


def cyc_rational(q: _RatLike) -> CycValue:
    return CycValue(1, {0: Rat(q)})


def root_of_unity(order: int, power: int = 1) -> CycValue:
    """zeta_order^power."""
    if order <= 0:
        raise ValueError(f"order must be positive, got {order}")
    return CycValue(order, {power % order: Rat(1)})


def galois_apply(value: CycValue, k: int) -> CycValue:
    """Apply the automorphism zeta_N -> zeta_N^k; k must be a unit mod N."""
    n = value.conductor
    if math.gcd(k, n) != 1:
        raise ValueError(f"k={k} is not coprime to the conductor {n}")
    return CycValue(n, {e * k % n: c for e, c in value.terms.items()})


def rational_trace(value: CycValue, level: int | None = None) -> Rat:
    """Trace of `value` down to Q, taken from Q(zeta_level).

    `level` defaults to the value's own conductor and must otherwise be a
    multiple of it; a value of conductor c sits in the degree-phi(level)
    field, so its trace picks up a factor phi(level)/phi(c).
    """
    n = value.conductor
    lv = n if level is None else int(level)
    if lv <= 0 or lv % n:
        raise ValueError(f"trace level {lv} is not a multiple of the conductor {n}")
    if value.is_zero():
        return Rat(0)
    acc: dict[int, Rat] = {}
    for k in _coprime_residues(n):
        for e, c in value._c.items():
            e2 = e * k % n
            acc[e2] = acc.get(e2, Rat(0)) + c
    total = CycValue(n, acc)
    if not total.is_rational():  # pragma: no cover - Galois sums are rational
        raise AssertionError("orbit sum failed to be rational")
    return total.as_rational() * (euler_phi(lv) // euler_phi(n))


def terms_at_level(value: CycValue, level: int) -> list[tuple[int, Rat]]:
    """The value written as sum of c * zeta_level^e (level multiple of cond)."""
    n = value.conductor
    if level % n:
        raise ValueError(f"level {level} is not a multiple of the conductor {n}")
    return sorted(value._terms_at(level))


# ---------------------------------------------------------------------------
# text encoding: int | {"conductor": N, "terms": [[exp, num, den], ...]}


def parse_cyc(obj) -> CycValue:
    if isinstance(obj, bool):
        raise TypeError("booleans are not cyclotomic values")
    if isinstance(obj, int):
        return cyc_rational(obj)
    if isinstance(obj, str):
        return cyc_rational(Rat(obj))
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return cyc_rational(Rat(int(obj[0]), int(obj[1])))
    if isinstance(obj, dict):
        try:
            n = int(obj["conductor"])
            entries = obj["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed cyclotomic value {obj!r}") from exc
        raw: dict[int, Rat] = {}
        for ent in entries:
            if len(ent) == 2:
                e, num, den = int(ent[0]), int(ent[1]), 1
            elif len(ent) == 3:
                e, num, den = int(ent[0]), int(ent[1]), int(ent[2])
            else:
                raise ValueError(f"malformed term {ent!r}")
            raw[e] = raw.get(e, Rat(0)) + Rat(num, den)
        return CycValue(n, raw)
    raise TypeError(f"cannot parse {obj!r} as a cyclotomic value")


def render_cyc(value: CycValue):
    if value.is_rational():
        q = value.as_rational()
        if q.denominator == 1:
            return int(q)
        return {"conductor": 1, "terms": [[0, q.numerator, q.denominator]]}
    terms = [[e, c.numerator, c.denominator] for e, c in sorted(value.terms.items())]
    return {"conductor": value.conductor, "terms": terms}


def format_cyc(value: CycValue) -> str:
    """Human-readable form, e.g. '1 + 3*z3' or '-1/2'."""
    if value.is_rational():
        return str(value.as_rational())
    n = value.conductor
    bits = []
    for e, c in sorted(value.terms.items()):
        base = "1" if e == 0 else (f"z{n}" if e == 1 else f"z{n}^{e}")
        if e == 0:
            piece = str(c)
        elif c == 1:
            piece = base
        elif c == -1:
            piece = f"-{base}"
        else:
            coeff = str(c) if c.denominator == 1 else f"({c})"
            piece = f"{coeff}*{base}"
        bits.append(piece)
    out = bits[0]
    for piece in bits[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out
