"""The affine-companion check of the power-twisted relations against their
four-composition definition (oracles.twisted_relations_oracle)."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import twisted_companion_oracle, twisted_relations_oracle
from ritt_lab import semigroup
from ritt_lab.errors import DegreeTooLow
from ritt_lab.polynomials import Poly, Z, compose, iterate
from ritt_lab.semigroup import (
    NO,
    UNKNOWN,
    YES,
    BoundExhausted,
    CommonIterate,
    DegreeObstruction,
    Outcome,
    SearchBounds,
    TwistedPair,
    common_iterate,
    twisted_pair,
    verify_certificate,
)

MAX_N = 9  # largest iterate degree handed to the oracle, which composes to N^2

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def polys(draw, min_degree, max_degree=4):
    deg = draw(st.integers(min_degree, max_degree))
    return Poly([draw(small) for _ in range(deg)] + [draw(small.filter(bool))])


def check_search(a, b):
    """twisted_pair agrees with the first grid point the oracle accepts, at
    the largest tmax that keeps every iterate at degree <= MAX_N, and its
    certificate verifies."""
    n, m = a.degree, b.degree
    grid = next(((k, l) for k in range(1, 5) for l in range(1, 5) if n**k == m**l), None)
    if grid is None:
        out = twisted_pair(a, b)
        assert out == Outcome(NO, DegreeObstruction(n, m))
    else:
        k0, l0 = grid
        bounds = SearchBounds(tmax=max(t for t in range(1, 5) if n ** (k0 * t) <= MAX_N))
        want = Outcome(UNKNOWN, BoundExhausted(bounds))
        for t in range(1, bounds.tmax + 1):
            if twisted_relations_oracle(a, b, k0 * t, l0 * t):
                want = Outcome(YES, TwistedPair(k0 * t, l0 * t))
                break
        out = twisted_pair(a, b, bounds)
        assert out == want
    assert verify_certificate(out.certificate, a, b)


def check_certificate(a, b, k=1, l=1) -> bool:
    held = twisted_relations_oracle(a, b, k, l)
    assert verify_certificate(TwistedPair(k, l), a, b) == held
    return held


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2))
def test_search_matches_definition_on_random_pairs(a, b):
    check_search(a, b)


@settings(max_examples=60, deadline=None)
@given(polys(1), polys(1), st.integers(1, 2), st.integers(1, 2))
def test_certificate_check_matches_definition_on_random_pairs(a, b, k, l):
    assume(a.degree**k <= MAX_N and b.degree**l <= MAX_N)
    check_certificate(a, b, k, l)


@settings(max_examples=60, deadline=None)
@given(polys(2), small)
def test_shifted_copy_is_twisted_only_unshifted(p, c):
    assert check_certificate(p, p + c) == (c == 0)
    check_search(p, p + c)


@settings(max_examples=60, deadline=None)
@given(polys(1, 2), small, small)
@example(3 * Z + Fraction(1, 3), Fraction(2, 3), Fraction(0))  # the ZZ/QQ oracle mismatch
def test_reflected_copy_is_twisted_only_about_the_symmetry_axis(r, c, c2):
    p = compose(r, (Z - c / 2) ** 2)  # symmetric about c/2
    for c_prime in (c, c2):
        q = -p + c_prime
        assert check_certificate(p, q) == (c_prime == c)
        check_search(p, q)


def test_twisted_pair_of_two_iterates_of_one_map():
    p = Z**2 + Z
    a, b = iterate(p, 2), iterate(p, 3)
    out = twisted_pair(a, b)
    assert out == Outcome(YES, TwistedPair(3, 2))
    assert verify_certificate(out.certificate, a, b)


def test_unequal_leading_moduli_end_the_search_without_a_walk():
    # on (2z^2, z^2) mu_t = 2^(2^t - 1) w would never repeat, and |lc| differs at every t
    assert list(semigroup._affine_walk(2 * Z**2, Z**2)) == []
    bounds = SearchBounds(tmax=10**6)
    assert twisted_pair(2 * Z**2, Z**2, bounds) == Outcome(UNKNOWN, BoundExhausted(bounds))
    assert not twisted_relations_oracle(2 * Z**2, Z**2, 1, 1)


def test_period_two_walk_builds_nothing_above_degree_three(monkeypatch):
    # -p == nu o p with nu(w) = -w, and p o nu == -p != p, so the walk goes
    # mu_1 = -w, mu_2 = id and repeats: both relations first hold at t = 2
    p = Z**3 + Z
    degrees = []
    for name in ("compose", "iterate"):
        def spy(*args, real=getattr(semigroup, name)):
            out = real(*args)
            degrees.append(out.degree)
            return out

        monkeypatch.setattr(semigroup, name, spy)
    assert twisted_pair(p, -p) == Outcome(YES, TwistedPair(2, 2))
    assert verify_certificate(TwistedPair(2, 2), p, -p)
    assert degrees and max(degrees) == 3
    assert not twisted_relations_oracle(p, -p, 1, 1)


WALK_MAX_N = 81  # largest iterate degree of the exact grid walk below


@st.composite
def symmetric_pairs(draw):
    """Two maps from the relatives of p = u((z - c)^d), whose walk moves
    inside a nontrivial G(p): negations (-p + 2c is twisted with p for
    d = 2), shifts, the reflection about c and an iterate."""
    d = draw(st.sampled_from([2, 3]))
    c, s = draw(small), draw(small)
    p = compose(draw(polys(1, 2 if d == 2 else 1)), (Z - c) ** d)
    kin = [p, -p, -p + 2 * c, -p + s, p + s, compose(p, 2 * c - Z), compose(-p, 2 * c - Z) + s, iterate(p, 2)]
    return draw(st.sampled_from(kin)), draw(st.sampled_from(kin))


def exact_grid_walk(a, b, relation, grid, tmax):
    """The first t <= tmax at which the relation holds on the grid, by its
    definition (iterate equality, or the twisted oracles); verify_certificate
    must agree at every t."""
    for t in range(1, tmax + 1):
        k, l = grid[0] * t, grid[1] * t
        if relation is CommonIterate:
            held = iterate(a, k) == iterate(b, l)
        elif a.degree**k <= MAX_N:
            held = twisted_relations_oracle(a, b, k, l)
        else:
            held = twisted_companion_oracle(a, b, k, l)
        assert verify_certificate(relation(k, l), a, b) == held
        if held:
            return relation(k, l)
    return None


@settings(max_examples=80, deadline=None)
@given(symmetric_pairs())
@example((Z**3 + Z, -(Z**3 + Z)))  # period 2: mu = -w, id, -w, ...
@example((Z**3 - 2 * Z, -(Z**3 - 2 * Z) + 1))  # mu_1 has no gamma: the walk leaves at t = 1
def test_walk_matches_exact_grid_walk(pair):
    a, b = pair
    n, m = a.degree, b.degree
    grid = next((k, l) for k in range(1, 5) for l in range(1, 5) if n**k == m**l)
    bounds = SearchBounds(tmax=max(t for t in range(1, 6) if n ** (grid[0] * t) <= WALK_MAX_N))
    for search, relation in ((common_iterate, CommonIterate), (twisted_pair, TwistedPair)):
        hit = exact_grid_walk(a, b, relation, grid, bounds.tmax)
        out = search(a, b, bounds)
        if hit is not None:
            assert out == Outcome(YES, hit)
        elif out.status == NO:
            assert relation is CommonIterate and verify_certificate(out.certificate, a, b)
        else:
            assert out == Outcome(UNKNOWN, BoundExhausted(bounds))


def test_certificate_check_rejects_constants():
    with pytest.raises(DegreeTooLow):
        verify_certificate(TwistedPair(1, 1), Poly((2,)), Z**2)
