"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a rational linear combination of roots of unity, stored in a
canonical form that makes equality a dictionary comparison:

* the conductor N is minimal (the value lies in no smaller cyclotomic field)
  and never congruent to 2 mod 4 (Q(zeta_{2m}) = Q(zeta_m) for odd m, via
  zeta_{2m} = -zeta_m^{(m+1)/2});
* coefficients live on the power basis 1, zeta, ..., zeta^{phi(N)-1}, i.e.
  exponents are reduced modulo the N-th cyclotomic polynomial;
* a coefficient is a Python `int` when it is integral and a `Fraction` only
  when it is not, so the values of character tables, which are algebraic
  integers, are added and multiplied in plain integer arithmetic.

The power basis is an integral basis for Q(zeta_N), so a value is an
algebraic integer exactly when all stored coefficients are integers.

The conductor is lowered one prime p at a time.  When p^2 | N, Q(zeta_{N/p})
is spanned by the basis powers divisible by p.  When p || N, the relative
trace from Q(zeta_N) down to Q(zeta_{N/p}), divided by p - 1, projects onto
the subfield in closed form; the value lies there iff the projection leaves
it unchanged.

Only the representation is clever; the public API is plain: build values out
of roots of unity and rationals, combine with +, -, *, apply Galois
automorphisms, and take traces down to Q.  Traces accept an optional ambient
conductor so that the trace of a value from a *larger* field than its
conductor requires no awkward manual scaling by degree ratios (the trace of
the rational 1 taken at conductor 12 is 4, not 1).  A trace is a sum of
Ramanujan sums, one per stored term.

A rational is canonical as it stands, so `cyc_rational` builds it without
the pipeline, and `galois_apply` returns it (and any value under the
identity) unchanged.  Values are immutable, so `psl2.gen_table` builds,
and `chartab.parse_table` parses, each distinct (raw) value once per call
and shares it.  Every integer argument and integer field of parsed data
goes through `as_integer`, which refuses a bool, a float or a string
rather than truncate it; a key naming an integer (a power-map prime, a
chain level, the s of "~s") goes through `key_integer`, which reads a
string of ASCII digits.  A value written as a string ("1/2") is read by
`Fraction`.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul
from typing import Iterable, Mapping, Union

Rat = Fraction
# a stored coefficient: int when integral, Fraction with denominator > 1 if not
Coeff = Union[int, Fraction]

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
    "isprime",
    "PRIME_BOUND",
]


# ---------------------------------------------------------------------------
# integer arguments and fields


def as_integer(x, what: str, error: type[ValueError] = ValueError) -> int:
    """`x` as an int, else `error` naming the field `what`: an int, or any
    other integral number that is not a bool.  A bool, a float (even 2.0),
    a Fraction or a string is refused rather than truncated or converted."""
    if type(x) is int:  # the common case, without the slower ABC check
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    raise error(f"{what} must be an integer, got {x!r}")


def _is_decimal(text: str, signed: bool = True) -> bool:
    """Whether `text` is ASCII digits, after one optional sign when `signed`."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def key_integer(key, what: str, error: type[ValueError] = ValueError) -> int:
    """A mapping key as an int: a string `_is_decimal` accepts, else as `as_integer` reads it."""
    if isinstance(key, str) and _is_decimal(key):
        return int(key)
    return as_integer(key, what, error)


# ---------------------------------------------------------------------------
# elementary number theory, cached


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(1000)
# strong tests to the first 13 prime bases decide primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003)
_MR_BASES = _SMALL_PRIMES[:13]
PRIME_BOUND = 3317044064679887385961981


def _strong_probable_prime(n: int) -> bool:
    """Whether the odd n > 41 passes the strong test to every base in _MR_BASES."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def isprime(n: int) -> bool:
    """Exact primality of an integer below PRIME_BOUND; at or above it the
    strong tests prove nothing, so a ValueError names the number."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is too large to test for primality (the limit is {PRIME_BOUND})")
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n > 1
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n)


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Brent's variant of Pollard's
    rho, which takes about n^(1/4) steps."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:  # one gcd per batch of up to 128 steps
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"no factor of {n} found")  # pragma: no cover


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorisation of n as sorted (p, a) pairs: trial division
    by the primes below 1000, then rho on what is left until every part is
    prime.  A part left at or above PRIME_BOUND is a ValueError, as isprime
    cannot decide it."""
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    out: dict[int, int] = {}
    rest = n
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    if rest >= PRIME_BOUND:
        raise ValueError(f"cannot factor {n}: the part {rest} left after trial division "
                         f"is too large to test for primality (the limit is {PRIME_BOUND})")
    parts = [rest] if rest > 1 else []
    while parts:
        m = parts.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            parts += [d, m // d]
    return tuple(sorted(out.items()))


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


# ---------------------------------------------------------------------------
# power-basis reduction modulo the cyclotomic polynomial


def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """The coefficients of Phi_n, constant term first, as the product over
    d | n of (x^d - 1)^mu(n/d).  Every multiplication comes first, so each
    division by x^d - 1 that follows is exact."""
    poly = [1]
    for d in divisors(n):  # times x^d - 1
        if mobius(n // d) == 1:
            shifted = [0] * d + poly
            for i, c in enumerate(poly):
                shifted[i] -= c
            poly = shifted
    for d in divisors(n):  # over x^d - 1: q[i] = q[i-d] - p[i]
        if mobius(n // d) == -1:
            quot: list[int] = []
            for i in range(len(poly) - d):
                quot.append((quot[i - d] if i >= d else 0) - poly[i])
            poly = quot
    return tuple(poly)


# the most entries n * phi(n) a reduction table may have: 7 times the most
# the tests build (n = 2520) and 12 times the most a generated table up to
# q = 1024 needs (n = 1025); past it the table would take gigabytes
_MAX_REDUCTION_ENTRIES = 10**7


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row e (0 <= e < n) expresses zeta_n^e over 1..zeta_n^{phi(n)-1}.

    Rows are integer vectors because Phi_n is monic over Z.  A table of
    more than _MAX_REDUCTION_ENTRIES entries is a ValueError.
    """
    if n % 4 == 2:
        raise ValueError("internal: reduction tables only for n != 2 mod 4")
    d = euler_phi(n)
    if n * d > _MAX_REDUCTION_ENTRIES:
        raise ValueError(f"conductor {n} needs a reduction table of {n} x {d} entries, "
                         f"more than the limit of {_MAX_REDUCTION_ENTRIES}")
    # x^d = -(phi[0] + phi[1] x + ... + phi[d-1] x^{d-1});  step[j] = coeff of x^j
    step = tuple(-c for c in _cyclotomic_coeffs(n)[:d])
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


def _root_trace(n: int, j: int) -> int:
    """The trace of zeta_n^j from Q(zeta_n) down to Q: the Ramanujan sum
    mu(n/g) * phi(n)/phi(n/g) with g = gcd(j, n)."""
    m = n // math.gcd(j, n)
    return mobius(m) * euler_phi(n) // euler_phi(m)


@lru_cache(maxsize=None)
def root_trace_table(n: int) -> tuple[int, ...]:
    """The traces `_root_trace(n, j)` for j = 0..n-1, as one tuple: row
    construction in the constraint engine reads them in a tight loop.

    The Ramanujan sum is multiplicative in n, so each entry is the product
    over p^a || n of c_{p^a}(j): phi(p^a) when p^a | j, -p^(a-1) when only
    p^(a-1) | j, and 0 otherwise.  Each factor has period p^a, so the table
    is built one prime power at a time, from that factor's period repeated."""
    table = [1] * n
    for p, a in _factor(n):
        q = p**a
        low = q // p
        period = [0] * q
        period[::low] = [-low] * p
        period[0] = q - low
        table = list(map(mul, table, period * (n // q)))
    return tuple(table)


# ---------------------------------------------------------------------------
# subfield descent: projecting a value at conductor n onto Q(zeta_{n/p})


def _norm(c: Coeff) -> Coeff:
    """The canonical form of a coefficient: an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _reduce(n: int, raw: Mapping[int, Coeff]) -> dict[int, Coeff]:
    """sum c * zeta_n^e on the power basis of Q(zeta_n); zeros dropped."""
    d = euler_phi(n)
    rows = None  # built only for a term at or above phi(n)
    acc: dict[int, Coeff] = {}
    for e, c in raw.items():
        if not c:
            continue
        e %= n
        if e < d:
            acc[e] = acc.get(e, 0) + c
        else:
            if rows is None:
                rows = _reduction_rows(n)
            for j, rc in enumerate(rows[e]):
                if rc:
                    acc[j] = acc.get(j, 0) + c * rc
    return {j: _norm(acc[j]) for j in sorted(acc) if acc[j]}


def _descend(n: int, p: int, vec: Mapping[int, Coeff]) -> dict[int, Coeff] | None:
    """The reduced value `vec` at conductor n as a dict over zeta_m, m = n/p,
    or None when it does not lie in Q(zeta_m)."""
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x^p): the subfield basis is the exponents
        # divisible by p, so membership is a support condition.
        if all(j % p == 0 for j in vec):
            return {j // p: c for j, c in vec.items()}
        return None
    # p does not divide m: zeta_n^e = zeta_m^{e*x} * zeta_p^{e*y} with
    # x = p^-1 mod m.  Gal(Q(zeta_n)/Q(zeta_m)) ~ (Z/p)^* moves only the
    # zeta_p part, so the relative trace over p - 1 keeps zeta_m^{e*x} when
    # p | e and turns it into -zeta_m^{e*x}/(p-1) otherwise.  This projection
    # fixes Q(zeta_m), so the value lies there iff it is its own projection.
    # The sums are taken p - 1 times over and divided once, exactly.
    x = pow(p, -1, m)
    q = p - 1
    acc: dict[int, Coeff] = {}
    for e, c in vec.items():
        j = e * x % m
        acc[j] = acc.get(j, 0) + (q * c if e % p == 0 else -c)
    out = {j: v // q if v % q == 0 else Rat(v, q) for j, v in acc.items()}
    if _reduce(n, {p * j: c for j, c in out.items()}) != vec:  # zeta_m = zeta_n^p
        return None
    return out


# ---------------------------------------------------------------------------
# canonicalization pipeline


def _canonical_parts(n: int, raw: Mapping[int, Coeff]) -> tuple[int, dict[int, Coeff]]:
    if n <= 0:
        raise ValueError(f"conductor must be positive, got {n}")
    if n > sys.maxsize:  # the reduction rows are indexed by exponents below n
        raise ValueError(f"conductor {n} is too large (at most {sys.maxsize})")
    while n % 4 == 2:  # zeta_{2m} = -zeta_m^{(m+1)/2}, m odd
        m = n // 2
        nxt: dict[int, Coeff] = {}
        for e, c in raw.items():
            e2 = (e * (m + 1) // 2) % m if e % 2 else (e // 2) % m
            c2 = -c if e % 2 else c
            nxt[e2] = nxt.get(e2, 0) + c2
        n, raw = m, nxt

    vec = _reduce(n, raw)
    if not vec:
        return 1, {}
    if list(vec) == [0]:  # rational, n == 1 included
        return 1, {0: vec[0]}
    # descend to a proper subfield where possible, one prime at a time
    for p in prime_divisors(n):
        sub = _descend(n, p, vec)
        if sub is not None:
            return _canonical_parts(n // p, sub)
    return n, vec


# ---------------------------------------------------------------------------
# the value type


_RatLike = Union[int, Rat]


def _coefficient(c) -> Coeff:
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}: use an int or a Fraction")
    return c if type(c) is int else Rat(c)


class CycValue:
    """A canonical element of some Q(zeta_N); immutable and hashable."""

    # _h: the hash, None until the first __hash__ computes it
    __slots__ = ("_n", "_c", "_h")

    def __init__(self, conductor: int = 1, terms: Mapping[int, _RatLike] | None = None):
        raw = {} if terms is None else {as_integer(e, "exponent"): _coefficient(c)
                                        for e, c in terms.items()}
        self._n, self._c = _canonical_parts(as_integer(conductor, "conductor"), raw)
        self._h = None

    @classmethod
    def _canonical(cls, conductor: int, raw: Mapping[int, Coeff]) -> "CycValue":
        """Like the constructor, for terms that are already ints or Fractions."""
        out = object.__new__(cls)
        out._n, out._c = _canonical_parts(conductor, raw)
        out._h = None
        return out

    # -- inspection ---------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self._n

    @property
    def terms(self) -> dict[int, Coeff]:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def is_rational(self) -> bool:
        return self._n == 1

    def as_rational(self) -> Rat:
        if self._n != 1:
            raise ValueError(f"{self!r} is irrational")
        return Rat(self._c.get(0, 0))

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

    def _terms_at(self, level: int) -> Iterable[tuple[int, Coeff]]:
        step = level // self._n
        return ((e * step % level, c) for e, c in self._c.items())

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        level = self._n * o._n // math.gcd(self._n, o._n)
        raw: dict[int, Coeff] = {}
        for e, c in self._terms_at(level):
            raw[e] = raw.get(e, 0) + c
        for e, c in o._terms_at(level):
            raw[e] = raw.get(e, 0) + c
        return CycValue._canonical(level, raw)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(CycValue)
        out._n, out._c, out._h = self._n, {e: -c for e, c in self._c.items()}, None
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
        raw: dict[int, Coeff] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = (e1 + e2) % level
                raw[e] = raw.get(e, 0) + c1 * c2
        return CycValue._canonical(level, raw)

    __rmul__ = __mul__

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other):
        # CycValue first: it is a plain class, while a test against
        # Fraction goes through ABCMeta.__instancecheck__
        if isinstance(other, CycValue):
            return self._n == other._n and self._c == other._c
        if isinstance(other, (int, Rat)):
            return self._n == 1 and self._c.get(0, 0) == other
        return NotImplemented

    def __hash__(self):
        if self._h is None:
            # a rational value equals its number, so it hashes as the number
            self._h = (hash(self._c.get(0, 0)) if self._n == 1
                       else hash((self._n, frozenset(self._c.items()))))
        return self._h

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        return f"CycValue({format_cyc(self)!r})"


# ---------------------------------------------------------------------------
# factories and arithmetic helpers


def cyc_zero() -> CycValue:
    return CycValue(1, {})


def cyc_rational(q: _RatLike) -> CycValue:
    """q as a value of conductor 1, built directly: a rational is already
    canonical once its coefficient is an int when integral."""
    c = _norm(_coefficient(q))
    out = object.__new__(CycValue)
    out._n, out._c, out._h = 1, ({0: c} if c else {}), None
    return out


def root_of_unity(order: int, power: int = 1) -> CycValue:
    """zeta_order^power."""
    if order <= 0:
        raise ValueError(f"order must be positive, got {order}")
    return CycValue(order, {power % order: 1})


def galois_apply(value: CycValue, k: int) -> CycValue:
    """Apply the automorphism zeta_N -> zeta_N^k; k must be a unit mod N."""
    n = value.conductor
    if math.gcd(k, n) != 1:
        raise ValueError(f"k={k} is not coprime to the conductor {n}")
    if k % n == 1 % n:  # the identity, and every k on a rational
        return value
    # an automorphism maps every subfield of Q(zeta_N) onto itself, so the
    # image keeps the conductor N and only needs reducing on the power basis
    out = object.__new__(CycValue)
    out._n, out._c, out._h = n, _reduce(n, {e * k % n: c for e, c in value._c.items()}), None
    return out


def rational_trace(value: CycValue, level: int | None = None) -> Rat:
    """Trace of `value` down to Q, taken from Q(zeta_level).

    `level` defaults to the value's own conductor and must otherwise be a
    multiple of it; a value of conductor c sits in the degree-phi(level)
    field, so its trace picks up a factor phi(level)/phi(c).  The trace is
    taken term by term in closed form (`_root_trace`), not over the Galois
    orbit, so it costs no more at a large conductor than at a small one.
    """
    n = value.conductor
    lv = n if level is None else as_integer(level, "trace level")
    if lv <= 0 or lv % n:
        raise ValueError(f"trace level {lv} is not a multiple of the conductor {n}")
    total = sum(c * _root_trace(n, e) for e, c in value._c.items())
    return Rat(total * (euler_phi(lv) // euler_phi(n)))


def terms_at_level(value: CycValue, level: int) -> list[tuple[int, Coeff]]:
    """The value written as sum of c * zeta_level^e (level multiple of cond)."""
    n = value.conductor
    if level % n:
        raise ValueError(f"level {level} is not a multiple of the conductor {n}")
    return sorted(value._terms_at(level))


# ---------------------------------------------------------------------------
# text encoding: int | {"conductor": N, "terms": [[exp, num, den], ...]}


def _int_field(term, x) -> int:
    """An integer field of a term, refused where `as_integer` refuses it."""
    try:
        return as_integer(x, "term field")
    except ValueError:
        raise ValueError(f"term {term!r}: {x!r} is not an integer") from None


def _parse_ratio(term, num, den=1) -> Coeff:
    num, den = _int_field(term, num), _int_field(term, den)
    if den == 0:
        raise ValueError(f"term {term!r} has a zero denominator")
    return num if den == 1 else Rat(num, den)


def parse_cyc(obj) -> CycValue:
    if isinstance(obj, bool):
        raise TypeError("booleans are not cyclotomic values")
    if isinstance(obj, int):
        return cyc_rational(obj)
    if isinstance(obj, str):  # "a" or "a/b" in ASCII digits, with a signed and b not
        num, slash, den = obj.partition("/")
        if _is_decimal(num) and (not slash or _is_decimal(den, signed=False)):
            return cyc_rational(_parse_ratio(obj, int(num), int(den) if slash else 1))
        raise ValueError(f"value {obj!r} is not written as a or a/b in ASCII digits")
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return cyc_rational(_parse_ratio(obj, obj[0], obj[1]))
    if isinstance(obj, dict):
        try:
            n = _int_field(obj, obj["conductor"])
            entries = obj["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed cyclotomic value {obj!r}") from exc
        raw: dict[int, Coeff] = {}
        for ent in entries:
            if not isinstance(ent, (list, tuple)) or len(ent) not in (2, 3):
                raise ValueError(f"malformed term {ent!r}")
            e = _int_field(ent, ent[0])
            raw[e] = raw.get(e, 0) + _parse_ratio(ent, *ent[1:])
        return CycValue._canonical(n, raw)
    raise TypeError(f"cannot parse {obj!r} as a cyclotomic value")


def render_cyc(value: CycValue):
    if value.is_rational():
        q = value._c.get(0, 0)
        if type(q) is int:
            return q
        return {"conductor": 1, "terms": [[0, q.numerator, q.denominator]]}
    terms = [[e, c.numerator, c.denominator] for e, c in sorted(value._c.items())]
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
