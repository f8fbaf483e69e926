from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneideal import odd_part, two_adic_valuation
from oracles import dyadic_strictly_between


def test_two_adic_valuation_and_odd_part():
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(7) == 0
    assert two_adic_valuation(0) == 0  # by convention
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
    assert isinstance(d, Fraction)
    assert d.denominator & (d.denominator - 1) == 0
    assert lo < d < hi
