import pytest

from oneideal import WorkLimitError
from oneideal.dyadic import odd_part, residue_cycle, two_adic_valuation, two_power_log


def test_two_adic_valuation_and_odd_part():
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(7) == 0
    assert two_adic_valuation(0) == 0  # by convention
    assert odd_part(12) == 3
    assert odd_part(128) == 1
    with pytest.raises(ValueError):
        odd_part(0)


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

    # a table of s entries finds every order of 2 up to s**2 and refuses the
    # larger ones, whatever the size of the modulus, also for an s the table
    # does not reach by growing fourfold from 8: 2 has order 60 modulo 61,
    # 64 modulo 641, 65 modulo 31 * 8191, 66 modulo 67 and 100 modulo 101
    cases = [(modulus, range(modulus)) for modulus in range(1, 200, 2)]
    cases += [(641, range(100)), (31 * 8191, range(100))]
    for step in (8, 10):
        monkeypatch.setattr(oneideal.dyadic, "MAX_LOG_STEP", step)
        orders = set()
        for modulus, residues in cases:
            orbit = residue_cycle(modulus, 1)
            orders.add(len(orbit))
            logs = {r: t for t, r in enumerate(orbit)}
            for r in residues:
                if len(orbit) > step**2:
                    with pytest.raises(WorkLimitError, match=f"^the order of 2 modulo {modulus} is "
                                       f"more than {step**2}, past the {step}-entry table"):
                        two_power_log(modulus, r)
                else:
                    assert two_power_log(modulus, r) == (len(orbit), logs.get(r)), (modulus, r)
        assert {60, 64, 65, 66, 100} <= orders and max(orders) > step**2
