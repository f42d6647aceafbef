import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import conjugacy_exists, gcd, rand_affine, rand_poly
from ritt_lab import forms
from ritt_lab.errors import BadParams, DegreeTooLow
from ritt_lab.forms import (
    ChebyshevConjugate,
    NotSpecial,
    PowerConjugate,
    _binomial_system,
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


@st.composite
def power_inputs(draw):
    """Random maps, and conjugates of c*z^n (b != 0 almost always)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return rand_poly(rng, n)
    return conjugate(rand_poly(rng, 0) * Z**n, rand_affine(rng))


@given(power_inputs())
@example(2 * (Z - Fraction(1, 2)) ** 12 + Fraction(1, 2))
@settings(max_examples=150, deadline=None)
def test_power_detection_matches_definition(p):
    n, c = p.degree, p.lc
    b = -p[n - 1] / (n * c)
    expected = PowerConjugate(n, b) if p == c * (Z - b) ** n + b else None
    assert is_conjugate_to_power(p) == expected


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


def test_chebyshev_detection_complex_only_witness():
    # for odd n, (a z) o (sign*M_n) o (z / a) has the coefficients
    # sign*M_k*(a^2)^((1-k)/2): rational, yet a is not
    for n in (3, 5, 7, 9):
        m = monic_chebyshev(n)
        for sign in (1, -1):
            for a2 in (Fraction(2), Fraction(3), Fraction(5, 3)):
                p = Poly([sign * m[k] * a2 ** ((1 - k) // 2) for k in range(n + 1)])
                assert is_conjugate_to_chebyshev(p) == ChebyshevConjugate(n=n, sign=sign, witness=None)
                assert conjugacy_exists(p, sign * chebyshev(n))
                assert not conjugacy_exists(p, -sign * chebyshev(n))


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


def test_special_centers_once(monkeypatch):
    # the power and Chebyshev readers share one centered form
    real = forms.center
    calls = []

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(forms, "center", spy)
    p = Z**3 + Z**2 + 1
    assert is_special(p) == NotSpecial()
    assert calls == [p]
    with pytest.raises(DegreeTooLow, match="special detection"):
        is_special(Z + 1)


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
    # a single scaling constraint, t^6 == 1, is reported monic like a gcd
    p = -Z**7 - Fraction(1, 2) * Z - Fraction(1, 2)
    assert linear_equivalence(p, p).constraint == Z**6 - 1


def test_linear_equivalence_complex_only_witness():
    e = linear_equivalence(Z**3 + Z, Z**3 + Z**2)
    assert e is not None
    assert not e.rational
    assert e.sigma is None and e.nu is None
    assert e.constraint == Z**2 + Fraction(1, 3)
    e = linear_equivalence(Z**3 + Z, Z**3 + 3 * Z)  # one binomial, t^2 == 3
    assert e is not None and not e.rational
    assert e.constraint == Z**2 - 3


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
    assert e.constraint is None or e.constraint.lc == 1


ratios = st.builds(lambda r, e, sign: sign * r**e, nonzero_fractions, st.integers(1, 4), st.sampled_from([1, -1]))


@st.composite
def binomial_systems(draw):
    """1-5 pairs (d, r), d in 0..12; r a power of a shared root or a
    random +-(p/q)^e, so both solvable and empty systems are common."""
    root = draw(nonzero_fractions)
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        d = draw(st.integers(0, 12))
        pairs.append((d, root**d if draw(st.booleans()) else draw(ratios)))
    return pairs


@given(binomial_systems())
@example([(0, Fraction(1))])
@example([(0, Fraction(2)), (3, Fraction(8))])
@example([(3, Fraction(-8)), (2, Fraction(4))])
@settings(max_examples=300, deadline=None)
def test_binomial_system_matches_gcd(pairs):
    g = Poly()
    for d, r in pairs:
        g = gcd(g, Poly.monomial(d) - r)
    sol = _binomial_system(pairs)
    if g.degree == 0:
        assert sol is None
    else:
        assert Poly.monomial(sol[0]) - sol[1] == g


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
