import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import gcd, to_expr
from ritt_lab.errors import BadParams
from ritt_lab.polynomials import (
    AffineMap,
    ONE,
    Poly,
    Z,
    ZERO,
    compose,
    conjugate,
    evaluate,
    int_nth_root,
    iterate,
    rational_nth_root,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_fractions = fractions.filter(lambda x: x != 0)


@st.composite
def polys(draw, min_degree=0, max_degree=4):
    deg = draw(st.integers(min_degree, max_degree))
    coeffs = [draw(fractions) for _ in range(deg)]
    return Poly(coeffs + [draw(nonzero_fractions)])


@st.composite
def affine_maps(draw):
    return AffineMap(draw(nonzero_fractions), draw(fractions))


def test_construction_normalizes_trailing_zeros():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert Poly([]).degree == -1
    assert Poly([0, 0]).degree == -1
    assert not Poly([0])
    assert bool(Z)


def test_coefficient_access_and_constants():
    p = 3 * Z**2 + Fraction(1, 2)
    assert p[2] == 3
    assert p[1] == 0
    assert p[0] == Fraction(1, 2)
    assert p[17] == 0
    assert p.lc == 3
    assert ZERO.degree == -1
    assert ONE == 1
    assert Poly.monomial(3, 2) == 2 * Z**3
    assert Poly.constant(Fraction(2, 3))[0] == Fraction(2, 3)


def test_str_rendering():
    assert str(2 * Z**4 - Fraction(3, 2) * Z + 1) == "2*z^4 - 3/2*z + 1"
    assert str(Z**2 - Z) == "z^2 - z"
    assert str(-Z**3) == "-z^3"
    assert str(Poly.constant(Fraction(-3, 2))) == "-3/2"
    assert str(ZERO) == "0"
    assert str(Z) == "z"


def test_scalar_equality_both_ways():
    assert Poly.constant(5) == 5
    assert 5 == Poly.constant(5)
    assert Poly.constant(5) != Z


@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == ZERO


@given(polys(), polys(min_degree=1))
def test_divmod_invariant(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(polys(min_degree=1), polys(min_degree=1), polys(min_degree=1))
@settings(max_examples=60)
def test_composition_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(polys(min_degree=1), polys(min_degree=1))
def test_composition_degree_and_lc_laws(p, q):
    c = compose(p, q)
    assert c.degree == p.degree * q.degree
    assert c.lc == p.lc * q.lc**p.degree


@given(polys(min_degree=1, max_degree=3), st.integers(1, 3))
@settings(max_examples=40)
def test_iterate_matches_repeated_compose(p, k):
    out = p
    for _ in range(k - 1):
        out = compose(p, out)
    assert iterate(p, k) == out


def test_iterate_rejects_nonpositive():
    with pytest.raises(BadParams):
        iterate(Z**2, 0)


@given(polys(), fractions)
def test_horner_evaluation_matches_naive(p, x):
    naive = sum(c * x**k for k, c in enumerate(p.coeffs))
    assert evaluate(p, x) == naive
    assert p(x) == naive


@given(polys(min_degree=1, max_degree=3), polys(min_degree=1, max_degree=3), affine_maps())
@settings(max_examples=60)
def test_conjugation_distributes_over_composition(p, q, lam):
    assert conjugate(compose(p, q), lam) == compose(conjugate(p, lam), conjugate(q, lam))


def _horner(p, q):
    """p(q) by Horner's rule in the polynomial ring, one product per step."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * q + c
    return acc


_zs = sympy.Symbol("z")


@given(polys(max_degree=24) | st.just(ZERO),
       nonzero_fractions | st.sampled_from([Fraction(1), Fraction(-1), Fraction(-5, 7), Fraction(7, 3)]),
       fractions | st.sampled_from([Fraction(0), Fraction(2, 3), Fraction(-9, 4)]))
@example(ZERO, Fraction(3), Fraction(1))
@example(Poly.constant(Fraction(-2, 3)), Fraction(5), Fraction(7))
@example(Poly([1, 2, 3, 4]), Fraction(1), Fraction(0))
@example(Poly([Fraction(1, 6), 0, Fraction(-3, 4), 0, 0, 2]), Fraction(-5, 7), Fraction(-1, 3))
@settings(max_examples=150, deadline=None)
def test_affine_compose_matches_horner_and_sympy(p, a, b):
    q = Poly((b, a))
    out = compose(p, q)
    assert out == _horner(p, q)
    sp, sq = (sympy.Poly(to_expr(x), _zs, domain="QQ") for x in (p, q))
    assert sympy.Poly(to_expr(out), _zs, domain="QQ") == sp.compose(sq)


@given(polys(max_degree=24), affine_maps())
def test_conjugation_round_trip(p, lam):
    assert conjugate(conjugate(p, lam), lam.inverse()) == p


@given(affine_maps(), affine_maps())
def test_affine_compose_matches_poly_compose(f, g):
    assert f.compose(g).as_poly() == compose(f.as_poly(), g.as_poly())


@given(affine_maps())
def test_affine_inverse(f):
    ident = f.compose(f.inverse())
    assert ident.a == 1 and ident.b == 0
    assert AffineMap.from_poly(f.as_poly()) == f


def test_affine_rejects_degenerate():
    with pytest.raises(ValueError):
        AffineMap(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        AffineMap.from_poly(Z**2)


@given(polys(min_degree=1, max_degree=3), polys(min_degree=1, max_degree=3),
       polys(min_degree=1, max_degree=2))
@settings(max_examples=60)
def test_gcd_divides_and_scales(f, g, h):
    d = gcd(f, g)
    assert d.lc == 1
    assert f % d == ZERO and g % d == ZERO
    assert gcd(f * h, g * h) == (h * d).monic()


def test_gcd_known_factor():
    f = (Z - 1) * (Z + 2)
    g = (Z - 1) * (Z - 3)
    assert gcd(f, g) == Z - 1


def test_int_nth_root():
    assert int_nth_root(1024, 10) == 2
    assert int_nth_root(1025, 10) is None
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(1, 7) == 1


def test_rational_nth_root():
    assert rational_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rational_nth_root(Fraction(-4), 2) is None
    assert rational_nth_root(Fraction(2), 2) is None
    assert rational_nth_root(Fraction(9, 4), 2) == Fraction(3, 2)


@given(st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5), st.integers(1, 4))
def test_rational_nth_root_round_trip(x, k):
    r = rational_nth_root(x**k, k)
    assert r is not None
    assert r**k == x**k


def test_pow_matches_repeated_product():
    p = Z - Fraction(3, 7)
    acc = ONE
    for k in range(34):
        assert p**k == acc
        acc = acc * p


def test_pow_takes_j_products_for_two_to_the_j(monkeypatch):
    products = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    p = Z - Fraction(3, 7)
    for j in range(8):
        products.clear()
        out = p ** (2**j)
        assert len(products) == j
        assert out.degree == 2**j


def test_composition_random_cross_check():
    rng = random.Random(7)
    for _ in range(20):
        p = Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(2, 4))] + [Fraction(1)])
        q = Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(2, 4))] + [Fraction(1)])
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        assert compose(p, q)(x) == p(q(x))
