"""The affine-companion check of the power-twisted relations against their
four-composition definition (oracles.twisted_relations_oracle)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import twisted_relations_oracle
from ritt_lab import semigroup
from ritt_lab.errors import DegreeTooLow
from ritt_lab.polynomials import Poly, Z, compose, iterate
from ritt_lab.semigroup import (
    NO,
    UNKNOWN,
    YES,
    BoundExhausted,
    DegreeObstruction,
    Outcome,
    SearchBounds,
    TwistedPair,
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
    the largest tmax that keeps every iterate at degree <= MAX_N."""
    n, m = a.degree, b.degree
    grid = next(((k, l) for k in range(1, 5) for l in range(1, 5) if n**k == m**l), None)
    if grid is None:
        assert twisted_pair(a, b) == Outcome(NO, DegreeObstruction(n, m))
        return
    k0, l0 = grid
    bounds = SearchBounds(tmax=max(t for t in range(1, 5) if n ** (k0 * t) <= MAX_N))
    want = Outcome(UNKNOWN, BoundExhausted(bounds))
    for t in range(1, bounds.tmax + 1):
        if twisted_relations_oracle(a, b, k0 * t, l0 * t):
            want = Outcome(YES, TwistedPair(k0 * t, l0 * t))
            break
    assert twisted_pair(a, b, bounds) == want


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


def test_prefilter_pass_rejected_by_exact_check(monkeypatch):
    # at t = 1, -p == nu o p with nu(w) = -w passes the prefilter, but
    # p o nu == -p != p; at t = 2 the iterates coincide
    p = Z**3 + Z
    real = semigroup._twisted_companion
    calls = []

    def spy(P, Q):
        calls.append((P.degree, real(P, Q)))
        return calls[-1][1]

    monkeypatch.setattr(semigroup, "_twisted_companion", spy)
    assert twisted_pair(p, -p) == Outcome(YES, TwistedPair(2, 2))
    assert calls == [(3, False), (9, True)]
    assert not twisted_relations_oracle(p, -p, 1, 1)


def test_certificate_check_rejects_constants():
    with pytest.raises(DegreeTooLow):
        verify_certificate(TwistedPair(1, 1), Poly((2,)), Z**2)
