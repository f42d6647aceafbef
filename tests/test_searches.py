"""The common-iterate and commutation searches against a plain walk of the
same grid that decides each step by exact composition alone; every
certificate a search returns must verify."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ritt_lab.forms import NotSpecial, chebyshev, is_special
from ritt_lab.polynomials import Poly, Z, compose, iterate
from ritt_lab.semigroup import (
    NO,
    UNKNOWN,
    YES,
    BoundExhausted,
    CommonIterate,
    CommutesWithIterate,
    DegreeObstruction,
    LeadingCoeffObstruction,
    Outcome,
    SearchBounds,
    common_iterate,
    commutes_with_iterate,
    verify_certificate,
)

MAX_N = 16  # largest iterate degree either walk builds

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
SPECIAL = (Z**2, Z**3, -Z**3, Z**4, chebyshev(2), chebyshev(3), -chebyshev(3))


@st.composite
def polys(draw, min_degree=2, max_degree=4):
    deg = draw(st.integers(min_degree, max_degree))
    return Poly([draw(small) for _ in range(deg)] + [draw(small.filter(bool))])


@st.composite
def kin_pairs(draw):
    """Two maps drawn from relatives of one random p and a few special maps,
    so shared iterates and commuting pairs come up as well as misses."""
    p = draw(polys())
    kin = [p, -p, p + draw(small), compose(-Z, compose(p, -Z)), draw(polys()), *SPECIAL]
    if p.degree == 2:
        kin.append(iterate(p, 2))
    return draw(st.sampled_from(kin)), draw(st.sampled_from(kin))


def first_commuting_iterate(a, b, lmax):
    for l in range(1, lmax + 1):
        bl = iterate(b, l)
        if compose(a, bl) == compose(bl, a):
            return l
    return None


@settings(max_examples=80, deadline=None)
@given(kin_pairs())
@example((-Z**3, Z**3))  # refuted at t = 1, shared at t = 2
def test_common_iterate_matches_exact_walk(pair):
    a, b = pair
    n, m = a.degree, b.degree
    grid = next(((k, l) for k in range(1, 5) for l in range(1, 5) if n**k == m**l), None)
    if grid is None:
        out = common_iterate(a, b)
        assert out == Outcome(NO, DegreeObstruction(n, m))
    else:
        k0, l0 = grid
        bounds = SearchBounds(tmax=max(t for t in range(1, 5) if n ** (k0 * t) <= MAX_N))
        hit = next((CommonIterate(k0 * t, l0 * t) for t in range(1, bounds.tmax + 1)
                    if iterate(a, k0 * t) == iterate(b, l0 * t)), None)
        out = common_iterate(a, b, bounds)
        if hit is not None:
            assert out == Outcome(YES, hit)
        elif out.status == NO:
            assert isinstance(out.certificate, LeadingCoeffObstruction)
        else:
            assert out == Outcome(UNKNOWN, BoundExhausted(bounds))
    assert verify_certificate(out.certificate, a, b)


@settings(max_examples=80, deadline=None)
@given(kin_pairs())
@example((Z**2, -Z**3))  # commutes with B^2, not with B
def test_commutes_with_iterate_matches_exact_walk(pair):
    a, b = pair
    lmax = max(l for l in range(1, 5) if b.degree**l <= MAX_N)
    assert commutes_with_iterate(a, b, SearchBounds(lmax=lmax)) == first_commuting_iterate(a, b, lmax)


ODD_ABOUT_1 = compose(Z**3 + Z, Z - 1) + 1


@st.composite
def nonspecial_commuting_pairs(draw):
    """A non-special B with a partner that commutes with some iterate of B
    (B^j, -B for odd B, sigma o B with sigma in Aut(B)) or narrowly misses
    (a shift of B, a random map)."""
    c = draw(small)
    odd = Poly([0, draw(small), 0, draw(small.filter(bool))])
    b = draw(st.sampled_from([draw(polys(2, 3)), odd, compose(odd, Z - c) + c]))
    assume(isinstance(is_special(b), NotSpecial))
    kin = [b, iterate(b, 2), -b, compose(2 * c - Z, b), b + draw(small.filter(bool)), draw(polys(2, 3))]
    return draw(st.sampled_from(kin)), b


@settings(max_examples=80, deadline=None)
@given(nonspecial_commuting_pairs())
@example((-(Z**3 + Z), Z**3 + Z))  # -B for odd B: commutes with B
@example((compose(2 - Z, ODD_ABOUT_1), ODD_ABOUT_1))  # sigma o B, sigma(z) = 2 - z in Aut(B)
@example((ODD_ABOUT_1 + 1, ODD_ABOUT_1))  # shares no iterate: refuted before any sample point
def test_commutes_with_iterate_against_nonspecial_pivot(pair):
    a, b = pair
    lmax = max(l for l in range(1, 4) if a.degree * b.degree**l <= 27)
    want = first_commuting_iterate(a, b, lmax)
    assert commutes_with_iterate(a, b, SearchBounds(lmax=lmax)) == want
    for l in range(1, lmax + 1):
        bl = iterate(b, l)
        assert verify_certificate(CommutesWithIterate(l), a, b) == (compose(a, bl) == compose(bl, a))
