from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneideal import WorkLimitError
from oneideal.dyadic import odd_part, residue_cycle, two_adic_valuation, two_power_log
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


def test_two_power_log_matches_the_orbit_walk_on_every_small_odd_modulus():
    # orders 1 to 7 end in the baby steps, larger ones need giant steps,
    # and past 64 (e.g. 2 is a primitive root of 131) a larger step
    for modulus in range(1, 300, 2):
        orbit = residue_cycle(modulus, 1)
        logs = {r: t for t, r in enumerate(orbit)}
        for r in range(-1, modulus + 2):
            assert two_power_log(modulus, r) == (len(orbit), logs.get(r % modulus)), (modulus, r)


@pytest.mark.parametrize("modulus", [0, -3, 2, 12])
def test_two_power_log_refuses_a_modulus_that_is_not_odd_and_positive(modulus):
    with pytest.raises(ValueError, match="odd modulus"):
        two_power_log(modulus, 1)


def test_two_power_log_prices_the_order_at_its_own_modulus(monkeypatch):
    import oneideal.dyadic

    # 2 has order 10 modulo 11, a 4-bit modulus: 40 bits admit it, 39 do not
    monkeypatch.setattr(oneideal.dyadic, "MAX_ORBIT_BITS", 40)
    assert two_power_log(11, 3) == (10, 8)
    monkeypatch.setattr(oneideal.dyadic, "MAX_ORBIT_BITS", 39)
    with pytest.raises(WorkLimitError, match="4-bit modulus has more than 9 residues"):
        two_power_log(11, 3)
