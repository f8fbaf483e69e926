"""sympy as an independent reference for the arithmetic.

The oracles in ``oracles.py`` were written with the routes they check and
share their idioms (trial division, orbit walks, the Burnside count); sympy
is a separate implementation.  It is a test dependency only: the library
never imports it (``test_package.py`` checks every import of ``src``).
"""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oneideal import class_counts, odd_part, torsion_range, two_adic_valuation
from oneideal.dyadic import factorize

REFERENCE = settings(max_examples=300, derandomize=True, deadline=None)


@REFERENCE
@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_matches_sympy_factorint(n):
    assert factorize(n) == sympy.factorint(n)


@REFERENCE
@given(st.integers(min_value=2, max_value=10**9))
def test_torsion_range_is_the_two_part_times_each_odd_divisor(m):
    two_part = 1 << two_adic_valuation(m - 1)
    assert torsion_range(m) == {two_part * d for d in sympy.divisors(odd_part(m - 1))}


def sympy_class_counts(m):
    """Sum over d | M of totient(d) / ord_d(2), and the number of divisors of M."""
    divisors = sympy.divisors(odd_part(m - 1))
    # sympy's n_order rejects modulus 1, whose one residue is one coset
    exact = sum(1 if d == 1 else int(sympy.totient(d)) // sympy.n_order(2, d) for d in divisors)
    return exact, len(divisors)


@REFERENCE
@given(st.integers(min_value=2, max_value=10**7))
def test_class_counts_match_the_sympy_coset_count(m):
    assert class_counts(m) == sympy_class_counts(m)
