"""sympy as an independent reference for the arithmetic.

The hand-written oracles in ``oracles.py`` were written with the routes
they check and share their idioms (trial division, orbit walks, the
Burnside count); sympy is a separate implementation.  Its cokernel,
``oracles.sympy_cokernel``, is the suite's one dense reference.  It is a test dependency only: the library
never imports it (``test_package.py`` checks every import of ``src``).
"""

import functools

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oneideal import FamilySpec, divergence_table
from oneideal.classify import class_counts
from oneideal.dyadic import MAX_LOG_STEP, factorize, odd_part, two_power_log
from oneideal.ktheory import stable_oracle_depth, torsion_order, truncated_k0
from oracles import dense_presentation, sympy_cokernel

REFERENCE = settings(max_examples=300)


@REFERENCE
@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_matches_sympy_factorint(n):
    assert factorize(n) == sympy.factorint(n)


@st.composite
def odd_moduli_and_residues(draw):
    """An odd modulus in [3, 2^20] and a residue, a power of 2 about half the time."""
    modulus = 2 * draw(st.integers(min_value=1, max_value=2**19 - 1)) + 1
    if draw(st.booleans()):
        return modulus, pow(2, draw(st.integers(min_value=0, max_value=modulus)), modulus)
    return modulus, draw(st.integers(min_value=0, max_value=modulus - 1))


@REFERENCE
@given(odd_moduli_and_residues())
def test_two_power_log_matches_sympy_n_order_and_discrete_log(case):
    modulus, r = case
    order = sympy.n_order(2, modulus)
    try:
        t = sympy.discrete_log(modulus, r, 2) % order
    except ValueError:  # r is no power of 2
        t = None
    assert two_power_log(modulus, r) == (order, t)



def test_the_table_limit_rows_are_the_full_order_primes_around_it():
    # test_cli.py's boundary rows for the weights 1 and 3: the largest prime
    # p with 2 of the full order p - 1 <= MAX_LOG_STEP**2, the first one past
    # it, and the logarithms t of 3 that give the witnesses l = t, l' = 0
    # (minimal, as t < p - 1 - t)
    limit = MAX_LOG_STEP**2

    def full_order_prime(p, step):
        while sympy.n_order(2, p) != p - 1:
            p = step(p)
        return p

    below = full_order_prime(sympy.prevprime(limit + 2), sympy.prevprime)
    above = full_order_prime(sympy.nextprime(limit + 1), sympy.nextprime)
    assert (below, above) == (4194187, 4194371)
    logs = {p: sympy.discrete_log(p, 3, 2) for p in (1597931, below)}
    assert logs == {1597931: 725374, 4194187: 1157275}
    assert all(2 * t < p - 1 for p, t in logs.items())

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


@functools.cache
def scan_table():
    return divergence_table(10**5)


@REFERENCE
@given(st.integers(min_value=2, max_value=10**5))
def test_divergence_table_rows_match_the_sympy_coset_count(m):
    assert scan_table()[m - 2] == (m, *sympy_class_counts(m))


@st.composite
def truncations(draw):
    """A finite-m member with a short prefix and a depth a few levels past it."""
    k = draw(st.integers(1, 4))
    prefix = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(any))
    spec = FamilySpec(draw(st.integers(2, 200)), tuple(prefix))
    return spec, draw(st.integers(k, k + 6))


@REFERENCE
@given(truncations())
def test_truncation_smith_diagonal_matches_sympy(case):
    spec, depth = case
    free_rank, torsion = sympy_cokernel(dense_presentation(spec, depth))
    assert truncated_k0(spec, depth) == (free_rank, torsion)
    if depth >= stable_oracle_depth(spec):
        x = torsion_order(spec)
        assert (free_rank, torsion) == (1, [x] if x > 1 else [])
