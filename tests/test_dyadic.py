from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneideal import Dyadic, odd_part, two_adic_valuation
from oracles import dyadic_strictly_between

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=0, max_value=40),
)


def test_canonical_form_examples():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(4, 2).numerator == 1 and Dyadic(4, 2).exponent == 0
    assert Dyadic(3, 1) == Dyadic(3, 1) and Dyadic(3, 1).to_fraction() == Fraction(3, 2)
    assert Dyadic(0, 5) == Dyadic(0) and Dyadic(0, 5).exponent == 0


def test_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


def test_from_fraction_rejects_odd_denominator():
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))
    assert Dyadic.from_fraction(Fraction(5, 8)) == Dyadic(5, 3)


@given(dyadics, dyadics)
def test_addition_is_exact(a, b):
    assert (a + b) - b == a
    assert (a + b).to_fraction() == a.to_fraction() + b.to_fraction()


@given(dyadics)
def test_negation_and_zero(a):
    assert a + (-a) == Dyadic(0)
    assert -(-a) == a


@given(dyadics, dyadics)
def test_comparison_matches_fractions(a, b):
    assert (a < b) == (a.to_fraction() < b.to_fraction())
    assert (a == b) == (a.to_fraction() == b.to_fraction())


@given(dyadics, st.integers(min_value=-30, max_value=30))
def test_shift_is_multiplication_by_power_of_two(a, k):
    assert a.shift(k).to_fraction() == a.to_fraction() * Fraction(2) ** k


@given(dyadics, dyadics)
def test_canonical_invariant(a, b):
    c = a * b
    assert c.exponent == 0 or c.numerator % 2 == 1


def test_two_adic_valuation_and_odd_part():
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(7) == 0
    assert odd_part(12) == 3
    assert odd_part(128) == 1
    with pytest.raises(ValueError):
        odd_part(0)


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
    st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
)
def test_strictly_between(lo, hi):
    if lo == hi:
        return
    lo, hi = min(lo, hi), max(lo, hi)
    d = dyadic_strictly_between(lo, hi)
    assert lo < d.to_fraction() < hi
