import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import indecomposable_oracle, left_compose_oracle, rand_affine, rand_fraction, rand_poly, right_factor_oracle
from ritt_lab.decompose import (
    NO_RATIONAL_WITNESS,
    all_decompositions,
    left_compose_solutions,
    left_compose_solve,
    right_compose_solve,
    right_factor,
    ritt_first,
    ritt_second_family,
)
from ritt_lab.errors import BadDegree, BadParams, NotAnIdentity
from ritt_lab.forms import chebyshev
from ritt_lab.polynomials import Poly, Z, compose, conjugate


def _normalized(h):
    return (h - h[0]) * (1 / h.lc)


def test_right_factor_known_composition():
    f = compose(Z**2 + 1, Z**3 - Z)
    d = right_factor(f, 3)
    assert d is not None
    assert compose(d.left, d.right) == f
    assert d.right == Z**3 - Z  # already monic with zero constant


def test_right_factor_normalizes_inner_factor():
    g = 2 * Z**2 + 3 * Z - 1
    h = 3 * Z**3 + Fraction(1, 2) * Z + 2
    d = right_factor(compose(g, h), 3)
    assert d is not None
    assert d.right == _normalized(h)
    assert compose(d.left, d.right) == compose(g, h)


def test_right_factor_trivial_degrees():
    f = Z**4 + Z
    d1 = right_factor(f, 1)
    assert d1.right == Z and d1.left == f
    dn = right_factor(f, 4)
    assert dn.left.degree == 1 and compose(dn.left, dn.right) == f


def test_right_factor_returns_none_when_impossible():
    f = Z**6 + Z
    assert indecomposable_oracle(f)
    assert right_factor(f, 2) is None
    assert right_factor(f, 3) is None


def test_right_factor_degree_errors():
    with pytest.raises(BadDegree):
        right_factor(Z**4, 3)  # 3 does not divide 4
    with pytest.raises(BadDegree):
        right_factor(Z**4, 5)
    with pytest.raises(BadDegree):
        right_factor(Z**4, 0)
    with pytest.raises(BadDegree):
        right_factor(Poly.constant(1), 1)


@st.composite
def decomposition_inputs(draw, max_degree=36):
    """Composites, random maps (almost never decomposable) and conjugates
    of z^n and T_n, all of degree <= max_degree."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["composite", "random", "power", "chebyshev"]))
    if kind == "composite":
        a = draw(st.integers(1, max_degree // 2))
        b = draw(st.integers(1, max_degree // a))
        return compose(rand_poly(rng, a), rand_poly(rng, b))
    n = draw(st.integers(1, max_degree))
    if kind == "random":
        return rand_poly(rng, n)
    base = Z**n if kind == "power" else chebyshev(n)
    return conjugate(base, rand_affine(rng))


@given(decomposition_inputs())
@example(Z**6 + Z)
@example(compose(2 * Z**2 + 3 * Z - 1, 3 * Z**3 + Fraction(1, 2) * Z + 2))
@settings(max_examples=150, deadline=None)
def test_right_factor_matches_definition(f):
    n = f.degree
    for m in range(1, n + 1):  # every divisor, the ends m = 1 and m = n included
        if n % m == 0:
            assert right_factor(f, m) == right_factor_oracle(f, m)


def test_all_decompositions_composite_degree():
    found = [(d.left, d.right) for d in all_decompositions(Z**6)]
    assert (Z**2, Z**3) in found and (Z**3, Z**2) in found
    assert len(found) == 4  # includes both trivial splits


def test_all_decompositions_prime_degree_only_trivial():
    f = Z**5 + 2 * Z**3 + Z + 1
    found = all_decompositions(f)
    assert sorted(d.right.degree for d in found) == [1, 5]


def test_random_round_trip_and_uniqueness():
    rng = random.Random(101)
    for _ in range(40):
        g = rand_poly(rng, rng.randint(2, 4))
        h = rand_poly(rng, rng.randint(2, 4))
        f = compose(g, h)
        d = right_factor(f, h.degree)
        assert d is not None
        assert compose(d.left, d.right) == f
        assert d.right == _normalized(h)


def test_decomposability_matches_oracle_on_random_sample():
    rng = random.Random(55)
    for _ in range(12):
        f = rand_poly(rng, rng.choice([4, 6]))
        nontrivial = [d for d in all_decompositions(f) if 1 < d.right.degree < f.degree]
        assert bool(nontrivial) == (not indecomposable_oracle(f))


def test_left_compose_solutions_sign_pair():
    u = Z**2
    b = compose(u, Z**2 + 1)
    sols = left_compose_solutions(u, b)
    assert sorted(str(x) for x in sols) == ["-z^2 - 1", "z^2 + 1"]
    for x in sols:
        assert compose(u, x) == b


def test_left_compose_no_rational_witness():
    # x with x^2 == 2z^4 needs lc sqrt(2)
    assert left_compose_solve(Z**2, 2 * Z**4) is NO_RATIONAL_WITNESS
    assert left_compose_solutions(Z**2, 2 * Z**4) is NO_RATIONAL_WITNESS


def test_left_compose_none_when_inconsistent():
    # degree works, leading coefficient works, but no exact solution
    assert left_compose_solve(Z**2, Z**4 + Z) is None


@st.composite
def left_compose_inputs(draw):
    """(u, b) with deg u, deg b / deg u <= 5: true composites u o x, ones
    perturbed below the top, ones whose lc(b) / lc(u) has no rational
    (deg u)-th root, and u = v((z - s)^2), which is solved by x and 2s - x."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["composite", "perturbed", "no_root", "sign_pair"]))
    du, dx = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if kind == "sign_pair":
        du = 2 * draw(st.integers(1, 2))
        u = compose(rand_poly(rng, du // 2), (Z - rand_fraction(rng)) ** 2)
    else:
        u = rand_poly(rng, du)
    b = compose(u, rand_poly(rng, dx))
    if kind == "perturbed":
        b = b + Poly.monomial(rng.randrange(du * dx), rng.choice([1, -1, Fraction(1, 3)]))
    elif kind == "no_root":
        b = rng.choice([2, 3, Fraction(5, 7)]) * b
    return u, b


@given(left_compose_inputs())
@example((Z**2, compose(Z**2, Z**2 + 1)))
@example((Z**2, 2 * Z**4))
@settings(max_examples=150, deadline=None)
def test_left_compose_matches_definition(case):
    u, b = case
    assert left_compose_solutions(u, b) == left_compose_oracle(u, b)


def test_left_compose_degree_errors():
    with pytest.raises(BadDegree):
        left_compose_solve(Z**2, Z**3)
    with pytest.raises(BadDegree):
        left_compose_solve(Poly.constant(2), Z**2)


def test_right_compose_solve():
    v = Z**3 + Z
    w = 2 * Z**2 + 1
    assert right_compose_solve(v, compose(w, v)) == w
    assert right_compose_solve(Z**2, Z**4 + Z) is None
    with pytest.raises(BadDegree):
        right_compose_solve(Z**2, Z**3)


def test_ritt_first_monomial_identity():
    rf = ritt_first(Z**2, Z**3, Z**3, Z**2)
    assert compose(rf.u, rf.a_tilde) == Z**2
    assert compose(rf.c_tilde, rf.v) == Z**3
    assert compose(rf.u, rf.b_tilde) == Z**3
    assert compose(rf.d_tilde, rf.v) == Z**2
    assert compose(rf.a_tilde, rf.c_tilde) == compose(rf.b_tilde, rf.d_tilde)


def test_ritt_first_mixed_degrees():
    rf = ritt_first(Z**2, Z**2, Z**4, Z)
    assert compose(rf.u, rf.a_tilde) == Z**2
    assert compose(rf.u, rf.b_tilde) == Z**4
    assert compose(rf.a_tilde, rf.c_tilde) == compose(rf.b_tilde, rf.d_tilde)


def test_ritt_first_random_refinements():
    rng = random.Random(31)
    for _ in range(15):
        g1 = rand_poly(rng, 2)
        g2 = rand_poly(rng, rng.randint(2, 3))
        g3 = rand_poly(rng, 2)
        a, c = g1, compose(g2, g3)
        b, d = compose(g1, g2), g3
        rf = ritt_first(a, c, b, d)
        assert compose(rf.u, rf.a_tilde) == a
        assert compose(rf.c_tilde, rf.v) == c
        assert compose(rf.u, rf.b_tilde) == b
        assert compose(rf.d_tilde, rf.v) == d
        assert compose(rf.a_tilde, rf.c_tilde) == compose(rf.b_tilde, rf.d_tilde)


def test_ritt_first_rejects_non_identity():
    with pytest.raises(NotAnIdentity):
        ritt_first(Z**2, Z**3, Z**3, Z**3)
    with pytest.raises(BadDegree):
        ritt_first(Poly.constant(1), Z**2, Z**2, Poly.constant(1))


def test_ritt_second_power_family():
    a, c, b, d = ritt_second_family("power", r=Z + 1, s=2, n=3)
    assert compose(a, c) == compose(b, d)
    assert c == Z**3 and b == Z**3
    assert a == Z**2 * (Z + 1) ** 3


def test_ritt_second_chebyshev_family():
    a, c, b, d = ritt_second_family("chebyshev", m=3, n=4)
    assert (a, c, b, d) == (chebyshev(3), chebyshev(4), chebyshev(4), chebyshev(3))
    assert compose(a, c) == compose(b, d)


def test_ritt_second_rejects_bad_params():
    with pytest.raises(BadParams):
        ritt_second_family("power", r=Z + 1, s=2, n=4)  # gcd(s, n) != 1
    with pytest.raises(BadParams):
        ritt_second_family("power", r=Poly.constant(0), s=1, n=2)
    with pytest.raises(BadParams):
        ritt_second_family("chebyshev", m=2, n=4)
    with pytest.raises(BadParams):
        ritt_second_family("spiral", m=2, n=3)
