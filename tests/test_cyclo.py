"""Exact cyclotomic arithmetic: canonical forms, traces, Galois action."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helixpq.cyclo import (
    CycValue,
    cyc_rational,
    cyc_zero,
    divisors,
    euler_phi,
    galois_apply,
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


def test_root_trace_table_smallest_cases():
    assert root_trace_table(1) == (1,)
    assert root_trace_table(2) == (1, -1)


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


@settings(max_examples=100, deadline=None)
@given(cyc_values(), cyc_values(), cyc_values())
def test_ring_axioms_spot_check(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a
