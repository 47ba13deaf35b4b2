"""Exact cyclotomic arithmetic: canonical forms, traces, Galois action."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helixpq import cyclo
from helixpq.cyclo import (
    PRIME_BOUND,
    CycValue,
    _cyclotomic_coeffs,
    _factor,
    cyc_rational,
    cyc_zero,
    divisors,
    euler_phi,
    galois_apply,
    isprime,
    mobius,
    parse_cyc,
    rational_trace,
    render_cyc,
    root_of_unity,
    root_trace_table,
    terms_at_level,
)


# --- small values with known canonical forms -------------------------------

def test_zeta6_lowers_to_conductor_3():
    z6 = root_of_unity(6)
    assert z6.conductor == 3
    # zeta_6 = 1 + zeta_3
    assert z6 == cyc_rational(1) + root_of_unity(3)


def test_zeta4_squared_is_minus_one():
    z4 = root_of_unity(4)
    sq = z4 * z4
    assert sq.is_rational() and sq.as_rational() == -1


def test_real_quadratic_identity():
    # (z11 + z11^10)^2 = z11^2 + z11^9 + 2
    a = root_of_unity(11) + root_of_unity(11, 10)
    expect = root_of_unity(11, 2) + root_of_unity(11, 9) + cyc_rational(2)
    assert a * a == expect


def test_sum_of_all_primitive_power_coeffs_cancels():
    # 1 + z3 + z3^2 = 0
    total = cyc_rational(1) + root_of_unity(3) + root_of_unity(3, 2)
    assert total.is_zero()


def test_rational_arithmetic_stays_rational():
    v = cyc_rational(Fraction(3, 4)) - cyc_rational(Fraction(1, 4))
    assert v.is_rational() and v.as_rational() == Fraction(1, 2)


def test_equal_values_hash_equal():
    # a rational value equals its number, so a dict keyed by the number
    # finds it; zero from a cancelling sum hashes as 0
    for number in (3, -7, Fraction(5, 6)):
        v = cyc_rational(number)
        assert v == number and hash(v) == hash(number)
        assert {number: "x"}.get(v) == "x"
    assert {3: "x"}.get(CycValue(1, {0: 3})) == "x"
    zero = cyc_rational(1) + root_of_unity(3) + root_of_unity(3, 2)
    assert zero == 0 and hash(zero) == hash(0) == hash(cyc_zero())
    # i as zeta_4, and as zeta_8^2 written at conductor 8; the hash is
    # kept, so it is the same on a second call
    i4, i8 = root_of_unity(4), CycValue(8, {2: 1})
    assert i4 == i8 and hash(i4) == hash(i8) == hash(i8)
    assert len({i4, i8, root_of_unity(4, 3)}) == 2
    # an int or a Fraction equals only a rational value; any other object
    # is left to its own __eq__, and so compares unequal
    assert cyc_rational(Fraction(6, 3)) == 2 and cyc_rational(Fraction(1, 3)) == Fraction(1, 3)
    assert i4 != 0 and i4 != Fraction(1, 4) and cyc_rational(Fraction(1, 3)) != 0
    for other in ("1", 1.0, None, (1,)):
        assert cyc_rational(1).__eq__(other) is NotImplemented
        assert cyc_rational(1) != other and i4 != other


# --- traces -----------------------------------------------------------------

def test_trace_of_primitive_root_is_mobius():
    for n in range(1, 201):
        assert rational_trace(root_of_unity(n)) == mobius(n), n


def test_trace_scales_with_ambient_level():
    one = cyc_rational(1)
    assert rational_trace(one, level=12) == euler_phi(12) == 4
    assert rational_trace(one, level=1) == 1
    z3 = root_of_unity(3)
    # from Q(zeta_3): -1; from Q(zeta_12): scaled by phi(12)/phi(3) = 2
    assert rational_trace(z3) == -1
    assert rational_trace(z3, level=12) == -2


def test_trace_level_must_be_multiple_of_conductor():
    with pytest.raises(ValueError):
        rational_trace(root_of_unity(5), level=7)


def _ramanujan_formula(n: int, j: int) -> int:
    g = n // __import__("math").gcd(j, n)
    if mobius(g) == 0:
        return 0
    return mobius(g) * euler_phi(n) // euler_phi(g)


def test_root_trace_table_matches_two_independent_routes():
    for n in (1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 24, 30, 36, 45):
        tab = root_trace_table(n)
        assert len(tab) == n
        for j in range(n):
            direct = rational_trace(root_of_unity(n, j) if j else cyc_rational(1),
                                    level=n)
            assert tab[j] == direct == _ramanujan_formula(n, j), (n, j)


def _orbit_trace(value, level=None):
    """The reference trace: the sum of the value's Galois conjugates, over
    every unit k below the conductor n, times phi(level)/phi(n)."""
    import math

    n = value.conductor
    acc = {}
    for k in range(n):
        if math.gcd(k, n) == 1:  # k = 0 alone when n = 1
            for e, c in value.terms.items():
                acc[e * k % n] = acc.get(e * k % n, 0) + c
    total = CycValue(n, acc)
    assert total.is_rational()
    lv = n if level is None else level
    return total.as_rational() * (euler_phi(lv) // euler_phi(n))


def test_rational_trace_matches_the_galois_orbit_sum():
    rng = random.Random(21)
    conductors = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 15, 16, 20, 21, 24, 30, 36, 45)
    for n in conductors:
        for _ in range(25):
            v = CycValue(n, {rng.randrange(n): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(rng.randint(0, 4))})
            for mult in (1, 2, 3):
                level = v.conductor * mult
                got = rational_trace(v, level=level)
                assert got == _orbit_trace(v, level), (v, level)
                assert type(got) is Fraction


def test_rational_trace_at_a_huge_conductor_is_immediate():
    # the orbit sum walked every residue below 10**18 and did not end;
    # mu(10**18) = 0 gives the trace of zeta term by term
    assert rational_trace(CycValue(10**18, {1: 1})) == 0
    assert rational_trace(CycValue(10**18, {0: 3}), level=10**18) == 3 * euler_phi(10**18)


@pytest.mark.parametrize("q", [0, 3, -2, Fraction(4, 2), Fraction(1, 2), True])
def test_cyc_rational_matches_the_constructor(q):
    fast, slow = cyc_rational(q), CycValue(1, {0: q})
    assert (fast.conductor, fast._c) == (slow.conductor, slow._c)
    assert [type(c) for c in fast._c.values()] == [type(c) for c in slow._c.values()]


def test_galois_fast_paths_return_the_value_itself():
    with pytest.raises(TypeError, match="float"):
        cyc_rational(1.5)
    for q in (0, 5, Fraction(-7, 3)):
        v = cyc_rational(q)
        for k in (-1, 1, 2, 7, 10**20):
            assert galois_apply(v, k) is v
    for n, e in ((3, 1), (5, 2), (12, 5), (45, 7)):
        v = root_of_unity(n, e) + cyc_rational(Fraction(1, 2))
        for k in (1, n + 1, 1 - n, 5 * n + 1):
            assert galois_apply(v, k) is v
    with pytest.raises(ValueError, match="not coprime"):
        galois_apply(root_of_unity(6), 3)


def test_root_trace_table_smallest_cases():
    assert root_trace_table(1) == (1,)
    assert root_trace_table(2) == (1, -1)


def test_root_trace_table_is_the_closed_form_trace_up_to_1200():
    # the table is built as a product of prime-power Ramanujan sums; each
    # entry is the closed-form trace of zeta_n^j, read one at a time
    for n in range(1, 1201):
        assert root_trace_table(n) == tuple(cyclo._root_trace(n, j) for j in range(n)), n


def test_small_primes_are_pinned():
    # the sieve gives what trial division by 2..sqrt(p) gives
    import math

    assert cyclo._SMALL_PRIMES == tuple(
        p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1)))
    assert len(cyclo._SMALL_PRIMES) == 168
    assert cyclo._SMALL_PRIMES[:5] == (2, 3, 5, 7, 11) and cyclo._SMALL_PRIMES[-1] == 997
    assert cyclo._MR_BASES == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


# --- Galois action ----------------------------------------------------------

def test_galois_requires_unit_exponent():
    with pytest.raises(ValueError):
        galois_apply(root_of_unity(6), 3)


def test_galois_permutes_roots():
    z5 = root_of_unity(5)
    assert galois_apply(z5, 2) == root_of_unity(5, 2)
    assert galois_apply(galois_apply(z5, 2), 3) == root_of_unity(5, 6)


# --- serialization ----------------------------------------------------------

def test_parse_render_round_trip():
    v = root_of_unity(7, 2) * cyc_rational(Fraction(2, 3)) - cyc_rational(5)
    assert parse_cyc(render_cyc(v)) == v
    assert parse_cyc(render_cyc(cyc_zero())) == cyc_zero()
    assert parse_cyc(3) == cyc_rational(3)


def test_parse_rejects_booleans_and_junk():
    with pytest.raises(TypeError):
        parse_cyc(True)
    with pytest.raises((TypeError, KeyError, ValueError)):
        parse_cyc({"bogus": 1})


@pytest.mark.parametrize("term", [
    [0, -1.4, 1],      # a float numerator used to be truncated to -1
    [0, 1, 2.0],
    [1.0, 1, 1],
    [0, True],
    [0, 1, False],
    [True, 1, 1],
    [0, 1, 0],         # used to end in ZeroDivisionError
])
def test_parse_rejects_non_integer_and_zero_denominator_terms(term):
    with pytest.raises(ValueError, match=r"term \["):
        parse_cyc({"conductor": 3, "terms": [term]})


@pytest.mark.parametrize("term, message", [
    ([0, "1"], "term [0, '1']: '1' is not an integer"),
    (["1", 1, 1], "term ['1', 1, 1]: '1' is not an integer"),
    ([0, 1, Fraction(1, 1)], "term [0, 1, Fraction(1, 1)]: Fraction(1, 1) is not an integer"),
    ("111", "malformed term '111'"),
    ({"a": 1, "b": 2}, "malformed term {'a': 1, 'b': 2}"),
])
def test_parse_reads_a_term_only_as_a_list_of_integers(term, message):
    # int() read "1" as 1 and the string "111" as the term [1, 1, 1]; a
    # dict term ended in a bare KeyError
    with pytest.raises(ValueError) as exc:
        parse_cyc({"conductor": 3, "terms": [term]})
    assert str(exc.value) == message


@pytest.mark.parametrize("obj", [[1, 0], [1.5, 2], [1, True], "1/0"])
def test_parse_rejects_bad_rationals(obj):
    with pytest.raises(ValueError, match="term"):
        parse_cyc(obj)


@pytest.mark.parametrize("text", [" 2 ", "\u0662", "2_0", "0.5", "1e3", "1/-2",
                                  "", "/2", "1/", "1/2/3", "+-1"])
def test_a_string_value_is_read_only_as_a_or_a_over_b(text):
    # Fraction read the first five as 2, 2, 20, 1/2 and 1000
    with pytest.raises(ValueError) as exc:
        parse_cyc(text)
    assert str(exc.value) == f"value {text!r} is not written as a or a/b in ASCII digits"


@pytest.mark.parametrize("text, value", [
    ("2", 2), ("-3/4", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)), ("007", 7), ("-0/5", 0),
])
def test_a_string_value_reads_as_its_ratio(text, value):
    assert parse_cyc(text) == cyc_rational(value)


def test_conductor_past_the_index_range_is_refused():
    # building Phi_n for the reduction ended in an OverflowError
    with pytest.raises(ValueError, match=f"conductor {10**30} is too large"):
        CycValue(10**30, {0: 1})
    # terms below phi(n) need no reduction rows, so none are built; building
    # them at this conductor ran out of memory
    assert CycValue(10**18, {0: 3}) == 3
    assert CycValue(10**18, {1: 1}).terms == {1: 1}


def test_reduction_table_past_the_limit_is_refused(monkeypatch):
    # a term at or above phi(n) needs the dense n x phi(n) reduction table;
    # at n = 10**18 building it ended in a MemoryError
    with pytest.raises(ValueError, match=r"conductor 1000000000000000000 needs a reduction "
                       r"table of 1000000000000000000 x 400000000000000000 entries, "
                       r"more than the limit of 10000000"):
        CycValue(10**18, {5 * 10**17 + 1: 1})
    # the limit bounds n * phi(n) itself: 36 x 12 = 432 entries
    build = cyclo._reduction_rows.__wrapped__  # past the cache
    monkeypatch.setattr(cyclo, "_MAX_REDUCTION_ENTRIES", 432)
    assert len(build(36)) == 36
    monkeypatch.setattr(cyclo, "_MAX_REDUCTION_ENTRIES", 431)
    with pytest.raises(ValueError, match="conductor 36 needs a reduction table of 36 x 12"):
        build(36)


def test_constructor_rejects_float_coefficients():
    with pytest.raises(TypeError, match="float"):
        CycValue(3, {1: 0.1})
    with pytest.raises(TypeError, match="float"):
        cyc_rational(0.5)


def test_terms_at_level_reconstructs_value():
    v = root_of_unity(9) + cyc_rational(2)
    terms = terms_at_level(v, 18)
    rebuilt = cyc_zero()
    for e, c in terms:
        rebuilt = rebuilt + root_of_unity(18, e) * cyc_rational(c)
    assert rebuilt == v


# --- divisor helpers --------------------------------------------------------

def test_divisors_sorted_complete():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert divisors(49) == (1, 7, 49)


# --- factoring, primality and Phi_n against sympy ---------------------------

# 318665857834031151167461 passes the strong tests to the twelve prime bases
# up to 37 and fails at 41; 3825123056546413051 passes those up to 23
_STRONG_PSEUDOPRIMES = (3825123056546413051, 318665857834031151167461)


def test_factor_matches_sympy():
    from sympy import factorint

    rng = random.Random(15)
    large = [rng.randrange(10**6, 10**18) for _ in range(300)]
    hard = [
        1000000007 * 998244353,  # two ~10^9 prime factors for rho to split
        1000000007**2,  # a prime square
        999983 * 1000003 * 1000033,
        2**61 - 1,  # a prime left after trial division
        3**40 * 997**3,
        PRIME_BOUND - 1,
        *_STRONG_PSEUDOPRIMES,
    ]
    for n in [*range(1, 20000), *large, *hard]:
        assert _factor(n) == tuple(sorted(factorint(n).items())), n


def test_isprime_matches_sympy():
    from sympy import isprime as sympy_isprime

    rng = random.Random(15)
    large = [rng.randrange(10**6, 10**24) for _ in range(3000)]
    for n in [*range(-5, 20000), *large, *_STRONG_PSEUDOPRIMES, PRIME_BOUND - 1]:
        assert isprime(n) == sympy_isprime(n), n
    assert not isprime(318665857834031151167461)


def test_cyclotomic_coeffs_match_sympy():
    from sympy import cyclotomic_poly

    for n in range(1, 1001):
        want = [int(c) for c in reversed(cyclotomic_poly(n, polys=True).all_coeffs())]
        assert list(_cyclotomic_coeffs(n)) == want, n


def test_primality_bound_is_an_error_not_a_guess():
    # PRIME_BOUND is the least composite that passes all 13 strong tests
    for n in (PRIME_BOUND, PRIME_BOUND + 1, 10**30 + 57):
        with pytest.raises(ValueError, match=f"^{n} is too large"):
            isprime(n)
    # neither has a prime factor below 1000
    for n in (PRIME_BOUND, 10**30 + 57):
        with pytest.raises(ValueError, match=f"^cannot factor {n}"):
            _factor(n)
    # a large number whose factors all lie below 1000 still factors
    assert _factor(2**100 * 3**7) == ((2, 100), (3, 7))
    with pytest.raises(ValueError, match="positive integer"):
        _factor(0)


# --- property tests ---------------------------------------------------------

_conductors = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 20, 21, 24])


@st.composite
def cyc_values(draw):
    n = draw(_conductors)
    k = draw(st.integers(0, 3))
    v = cyc_zero()
    for _ in range(k):
        e = draw(st.integers(0, n - 1))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        v = v + root_of_unity(n, e) * cyc_rational(Fraction(num, den))
    return v


@settings(max_examples=150, deadline=None)
@given(cyc_values(), st.sampled_from([2, 3, 4, 5, 6, 9, 10, 12]))
def test_value_written_at_a_multiple_of_its_conductor_descends(a, k):
    # zeta_N^e = zeta_{kN}^{ke}: the same value handed in at conductor kN,
    # so canonicalisation has to descend through every prime of k
    n = a.conductor
    lifted = CycValue(k * n, {k * e: c for e, c in a.terms.items()})
    assert lifted == a
    assert (lifted.conductor, lifted.terms) == (a.conductor, a.terms)


@settings(max_examples=150, deadline=None)
@given(cyc_values(), cyc_values())
def test_trace_is_additive(a, b):
    import math

    level = math.lcm(a.conductor, b.conductor)
    assert rational_trace(a + b, level=level) == (
        rational_trace(a, level=level) + rational_trace(b, level=level)
    )


@settings(max_examples=150, deadline=None)
@given(cyc_values(), st.integers(1, 40))
def test_trace_is_galois_invariant(a, k):
    import math

    if math.gcd(k, a.conductor) != 1:
        k = 1
    assert rational_trace(galois_apply(a, k)) == rational_trace(a)


@settings(max_examples=150, deadline=None)
@given(cyc_values(), st.integers(1, 40))
def test_galois_image_keeps_the_conductor(a, k):
    import math

    n = a.conductor
    if math.gcd(k, n) != 1:
        k = 1
    image = galois_apply(a, k)
    rebuilt = CycValue(n, {e * k % n: c for e, c in a.terms.items()})
    assert (image.conductor, image.terms) == (rebuilt.conductor, rebuilt.terms)


def _canonical_coefficients(v: CycValue) -> bool:
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in v.terms.values()
    )


@settings(max_examples=150, deadline=None)
@given(cyc_values(), cyc_values(), st.integers(1, 40))
def test_coefficients_are_ints_unless_fractional(a, b, k):
    import math

    if math.gcd(k, a.conductor) != 1:
        k = 1
    for v in (a, b, a + b, a - b, a * b, -a, galois_apply(a, k)):
        assert _canonical_coefficients(v), v.terms
        if v.is_rational():
            assert type(v.as_rational()) is Fraction
    assert type(rational_trace(a * b)) is Fraction


@settings(max_examples=100, deadline=None)
@given(cyc_values(), cyc_values(), cyc_values())
def test_ring_axioms_spot_check(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a
