import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conjugacy_exists, rand_affine, rand_poly
from ritt_lab.errors import BadParams, DegreeTooLow
from ritt_lab.forms import (
    ChebyshevConjugate,
    NotSpecial,
    PowerConjugate,
    center,
    chebyshev,
    is_conjugate_to_chebyshev,
    is_conjugate_to_power,
    is_special,
    linear_equivalence,
    monic_chebyshev,
)
from ritt_lab.polynomials import AffineMap, Poly, Z, compose, conjugate

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero_fractions = fractions.filter(lambda x: x != 0)


@st.composite
def polys(draw, min_degree=2, max_degree=5):
    deg = draw(st.integers(min_degree, max_degree))
    coeffs = [draw(fractions) for _ in range(deg)]
    return Poly(coeffs + [draw(nonzero_fractions)])


# -- centering --------------------------------------------------------------

def test_center_examples():
    cf = center(Z**2 + 2 * Z)
    assert cf.shift.b == 1
    assert cf.centered == Z**2
    cf = center(2 * Z**2 - 4 * Z)
    assert cf.shift.b == -1
    assert cf.centered == 2 * Z**2 - 3
    cf = center(Z**3)
    assert cf.shift.b == 0
    assert cf.centered == Z**3


def test_center_rejects_low_degree():
    with pytest.raises(DegreeTooLow):
        center(Z + 1)


@given(polys())
def test_center_invariants(p):
    cf = center(p)
    n = p.degree
    assert cf.centered[n - 1] == 0
    assert cf.shift.a == 1
    assert cf.centered == conjugate(p, cf.shift)
    assert cf.original() == p


# -- chebyshev --------------------------------------------------------------

def test_chebyshev_values():
    assert chebyshev(0) == 1
    assert chebyshev(1) == Z
    assert chebyshev(2) == 2 * Z**2 - 1
    assert chebyshev(3) == 4 * Z**3 - 3 * Z
    assert chebyshev(4) == 8 * Z**4 - 8 * Z**2 + 1


def test_chebyshev_nesting_small():
    assert compose(chebyshev(2), chebyshev(3)) == chebyshev(6)
    assert compose(chebyshev(3), chebyshev(2)) == chebyshev(6)


def test_monic_chebyshev_model():
    for n in range(2, 9):
        m = monic_chebyshev(n)
        assert m.lc == 1
        assert m == conjugate(chebyshev(n), AffineMap(Fraction(2), Fraction(0)))
        # full parity support: every coefficient of matching parity is nonzero
        assert m.support() == tuple(range(n % 2, n + 1, 2))


def test_chebyshev_rejects_negative_index():
    for family in (chebyshev, monic_chebyshev):
        with pytest.raises(BadParams):
            family(-1)


# -- special detection ------------------------------------------------------

def test_power_detection():
    assert is_conjugate_to_power(Z**3) == PowerConjugate(3, Fraction(0))
    lam = AffineMap(Fraction(2), Fraction(1))
    found = is_conjugate_to_power(conjugate(Z**4, lam))
    assert found is not None and found.n == 4 and found.b == 1
    assert is_conjugate_to_power(chebyshev(4)) is None
    assert is_conjugate_to_power(Z**3 + Z) is None
    c = 5 * (Z - 2) ** 3 + 2
    assert is_conjugate_to_power(c) == PowerConjugate(3, Fraction(2))


def test_chebyshev_detection_direct():
    for n in range(2, 7):
        found = is_conjugate_to_chebyshev(chebyshev(n))
        assert found is not None
        assert found.n == n and found.sign == 1
        assert found.witness is not None
        assert conjugate(found.sign * chebyshev(n), found.witness) == chebyshev(n)


def test_chebyshev_detection_negative_sign():
    # odd n: -T_n is its own class; even n: same class as +T_n, reported +
    for n in (3, 5):
        found = is_conjugate_to_chebyshev(-chebyshev(n))
        assert found is not None and found.sign == -1
    for n in (2, 4, 6):
        found = is_conjugate_to_chebyshev(-chebyshev(n))
        assert found is not None and found.sign == 1
        assert conjugate(chebyshev(n), found.witness) == -chebyshev(n)


def test_chebyshev_detection_rejects():
    assert is_conjugate_to_chebyshev(Z**3) is None
    assert is_conjugate_to_chebyshev(Z**2) is None
    assert is_conjugate_to_chebyshev(Z**4 + Z**2) is None
    assert is_conjugate_to_chebyshev(Z**3 + Z) is None


def test_special_dispatch():
    assert is_special(Z**2) == PowerConjugate(2, Fraction(0))
    sp = is_special(chebyshev(5))
    assert isinstance(sp, ChebyshevConjugate)
    assert is_special(Z**3 + Z) == NotSpecial()


def test_special_random_conjugates_with_witness_check():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 6)
        lam = rand_affine(rng)
        p = conjugate(Z**n, lam)
        found = is_special(p)
        assert isinstance(found, PowerConjugate) and found.n == n
        q = conjugate(chebyshev(n), lam)
        found = is_special(q)
        assert isinstance(found, ChebyshevConjugate)
        assert found.n == n and found.sign == 1
        assert conjugate(chebyshev(n), found.witness) == q


def test_special_agrees_with_raw_solver_on_sample():
    cases = [Z**3 + Z, chebyshev(3), conjugate(Z**4, AffineMap(Fraction(1, 2), Fraction(3))), Z**4 + Z**2]
    for p in cases:
        mine = is_special(p)
        n = p.degree
        power_truth = conjugacy_exists(p, Z**n)
        cheb_truth = conjugacy_exists(p, chebyshev(n)) or conjugacy_exists(p, -chebyshev(n))
        assert isinstance(mine, PowerConjugate) == power_truth
        assert isinstance(mine, ChebyshevConjugate) == cheb_truth


# -- linear equivalence -----------------------------------------------------

def test_linear_equivalence_monomials():
    e = linear_equivalence(Z**3, 8 * Z**3)
    assert e is not None and e.rational
    assert e.sigma.a * compose(8 * Z**3, e.nu.as_poly()) + e.sigma.b == Z**3


def test_linear_equivalence_identity_case():
    p = Z**4 + 3 * Z**2 - 1
    e = linear_equivalence(p, p)
    assert e is not None and e.rational
    assert e.sigma.a * compose(p, e.nu.as_poly()) + e.sigma.b == p


def test_linear_equivalence_complex_only_witness():
    e = linear_equivalence(Z**3 + Z, Z**3 + Z**2)
    assert e is not None
    assert not e.rational
    assert e.sigma is None and e.nu is None
    assert e.constraint == Z**2 + Fraction(1, 3)


def test_linear_equivalence_none_cases():
    assert linear_equivalence(Z**4 + Z, Z**4 + Z**3) is None
    assert linear_equivalence(Z**2, Z**3) is None


def test_linear_equivalence_rejects_low_degree():
    with pytest.raises(DegreeTooLow):
        linear_equivalence(Z, Z + 1)


@given(polys(max_degree=4))
@settings(max_examples=40)
def test_linear_equivalence_reflexive(p):
    e = linear_equivalence(p, p)
    assert e is not None


@given(polys(max_degree=4))
@settings(max_examples=40)
def test_linear_equivalence_invariant_under_affine_twist(p):
    sigma = AffineMap(Fraction(3), Fraction(-1))
    nu = AffineMap(Fraction(1, 2), Fraction(2))
    q = sigma.a * compose(p, nu.as_poly()) + sigma.b
    e = linear_equivalence(q, p)
    assert e is not None and e.rational
    assert e.sigma.a * compose(p, e.nu.as_poly()) + e.sigma.b == q


def test_linear_equivalence_symmetric_on_rational_pairs():
    rng = random.Random(23)
    for _ in range(10):
        p = rand_poly(rng, rng.randint(2, 4))
        sigma, nu = rand_affine(rng), rand_affine(rng)
        q = sigma.a * compose(p, nu.as_poly()) + sigma.b
        assert linear_equivalence(p, q).rational
        assert linear_equivalence(q, p).rational
