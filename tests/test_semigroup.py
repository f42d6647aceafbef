import dataclasses
import random
import time
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import folner_ratio_oracle
from ritt_lab.errors import (
    BadParams,
    BadSubgroup,
    DegreeTooLow,
    EmptyInput,
    InfiniteGroup,
    NotRational,
)
from ritt_lab.forms import chebyshev
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
    SearchBounds,
    SemidirectElement,
    TwistedPair,
    _factor,
    abstract_semidirect_context,
    classify,
    common_iterate,
    commutes_with_iterate,
    folner_ratio,
    folner_window,
    free_collision_search,
    multiplicatively_dependent,
    semidirect_context,
    semidirect_mul,
    semidirect_realize,
    sgr_left_amenable,
    twisted_pair,
    verify_certificate,
)

B = SearchBounds()
P4 = Z**4 + Z**2


def test_search_bounds_validation():
    assert B.tmax == 6 and B.lmax == 6 and B.wordmax == 8
    with pytest.raises(BadParams):
        SearchBounds(tmax=0)
    with pytest.raises(BadParams):
        SearchBounds(wordmax=-1)


def test_multiplicative_dependence():
    assert multiplicatively_dependent(4, 4) == (2, 2, 2)
    assert multiplicatively_dependent(4, 8) == (2, 2, 3)
    assert multiplicatively_dependent(8, 4) == (2, 3, 2)
    assert multiplicatively_dependent(6, 6) == (6, 1, 1)
    assert multiplicatively_dependent(4, 16) == (2, 2, 4)
    assert multiplicatively_dependent(2, 3) is None
    assert multiplicatively_dependent(6, 12) is None
    with pytest.raises(BadParams):
        multiplicatively_dependent(1, 4)


def test_common_iterate_yes_cases():
    out = common_iterate(-Z**3, Z**3, B)
    assert out.status == YES and out.certificate == CommonIterate(2, 2)
    out = common_iterate(Z**2, Z**4, B)
    assert out.status == YES and out.certificate == CommonIterate(2, 1)
    p = Z**3 + Z
    out = common_iterate(p, iterate(p, 2), B)
    assert out.status == YES and out.certificate == CommonIterate(2, 1)
    out = common_iterate(p, p, B)
    assert out.status == YES and out.certificate == CommonIterate(1, 1)


def test_common_iterate_degree_obstruction():
    out = common_iterate(Z**2 + 1, Z**3 + 1, B)
    assert out.status == NO
    assert out.certificate == DegreeObstruction(2, 3)
    out = common_iterate(chebyshev(2), chebyshev(3), B)
    assert out.status == NO and isinstance(out.certificate, DegreeObstruction)


def test_common_iterate_sign_obstruction():
    out = common_iterate(-P4, P4, B)
    assert out.status == NO
    cert = out.certificate
    assert isinstance(cert, LeadingCoeffObstruction)
    assert cert.reason == "sign" and (cert.k0, cert.l0) == (1, 1)


def test_common_iterate_prime_obstruction():
    out = common_iterate(2 * Z**2, Z**2, B)
    assert out.status == NO
    cert = out.certificate
    assert isinstance(cert, LeadingCoeffObstruction)
    assert cert.reason == "prime" and cert.prime == 2


PSI12 = 318665857834031151167461  # least strong pseudoprime to the prime bases up to 37
PSI13 = 3317044064679887385961981  # the same for the bases up to 41
SEMIPRIME = 100000007 * 100000037


@settings(deadline=None)  # PSI12 splits into two 12-digit primes: about 0.5 s with sympy
@given(st.integers(1, 10**18))
@example(1)
@example(2)
@example(2**61)
@example(3**40)
@example(561)
@example(2047)
@example(3215031751)  # strong pseudoprime to 2, 3, 5 and 7
@example(PSI12)
@example(SEMIPRIME)
def test_factor_matches_sympy(n):
    assert _factor(n) == sympy.factorint(n)


def test_factor_refuses_unprovable_prime():
    with pytest.raises(BadParams):
        common_iterate(PSI13 * Z**2, Z**2 + Z, B)


def test_lc_obstruction_at_benchmark_scale():
    a, b = SEMIPRIME * Z**2, Z**2 + Z
    out = common_iterate(a, b, B)
    assert out.status == NO
    cert = out.certificate
    assert isinstance(cert, LeadingCoeffObstruction)
    assert cert.reason == "prime" and cert.prime == 100000007
    assert verify_certificate(cert, a, b)
    v = classify([SEMIPRIME * Z**2, Z**2], B)  # both generators special: Unknown
    assert (v.left_amenable.status, v.right_amenable.status, v.amenable) == (UNKNOWN,) * 3
    for side in (v.left_amenable, v.right_amenable):
        assert [(f.subject, f.outcome.status) for f in side.findings] == [
            ("g0|g0", YES), ("g0|g1", UNKNOWN), ("g1|g1", YES)]


def test_equal_lc_powers_skip_factoring():
    p = sympy.nextprime(10**29) * Z**2 + Z  # a 30-digit prime lc, never factored here
    gens = [p, compose(p, p)]
    v = classify(gens, B)
    assert v.left_amenable.status == YES and v.right_amenable.status == YES
    for f in v.left_amenable.findings + v.right_amenable.findings:
        i, j = (int(g[1:]) for g in f.subject.split("|"))
        assert verify_certificate(f.outcome.certificate, gens[i], gens[j])


def test_common_iterate_unknown():
    out = common_iterate(Z**2 + 1, Z**2 + 2, B)
    assert out.status == UNKNOWN
    assert out.certificate == BoundExhausted(B)


def test_common_iterate_rejects_degree_one():
    with pytest.raises(DegreeTooLow):
        common_iterate(Z, Z**2, B)


def test_twisted_pair_cases():
    out = twisted_pair(-P4, P4, B)
    assert out.status == YES and out.certificate == TwistedPair(1, 1)
    out = twisted_pair(P4, P4, B)
    assert out.status == YES and out.certificate == TwistedPair(1, 1)
    out = twisted_pair(Z**2 + 1, Z**3 + 1, B)
    assert out.status == NO and isinstance(out.certificate, DegreeObstruction)
    out = twisted_pair(Z**2 + 1, Z**2 + 2, B)
    assert out.status == UNKNOWN


def test_commutes_with_iterate():
    assert commutes_with_iterate(-Z**3, Z**3, B) == 1
    p = Z**3 + Z
    assert commutes_with_iterate(iterate(p, 2), p, B) == 1
    assert commutes_with_iterate(Z**2 + 1, Z**2 + 2, B) is None


def test_certificates_reverify():
    pairs = [
        (-Z**3, Z**3),
        (Z**2, Z**4),
        (-P4, P4),
        (Z**2 + 1, Z**3 + 1),
        (2 * Z**2, Z**2),
        (Z**2 + 1, Z**2 + 2),
    ]
    for a, b in pairs:
        for out in (common_iterate(a, b, B), twisted_pair(a, b, B)):
            assert verify_certificate(out.certificate, a, b)


def test_verify_rejects_tampered_certificates():
    assert not verify_certificate(CommonIterate(1, 1), -Z**3, Z**3)
    assert not verify_certificate(TwistedPair(2, 1), -P4, P4)
    assert not verify_certificate(TwistedPair(10**6, 1), Z**2, Z**3)  # degrees checked first
    start = time.perf_counter()
    assert not verify_certificate(CommonIterate(10**6, 1), Z**2 + 1, Z**3 + 1)
    assert time.perf_counter() - start < 1
    lc = common_iterate(2 * Z**2, Z**2, B).certificate
    assert isinstance(lc, LeadingCoeffObstruction) and verify_certificate(lc, 2 * Z**2, Z**2)
    for field, value in (("prime", 3), ("lc_a", Fraction(7)), ("reason", "sign")):
        assert not verify_certificate(dataclasses.replace(lc, **{field: value}), 2 * Z**2, Z**2)
    assert not verify_certificate(DegreeObstruction(2, 4), Z**2, Z**4)
    assert not verify_certificate(CommutesWithIterate(1), Z**2 + 1, Z**2 + 2)

    def timed(cert, a, b):
        start = time.perf_counter()
        held = verify_certificate(cert, a, b)
        assert time.perf_counter() - start < 1, cert
        return held

    for cert in (CommonIterate(10**6, 10**6), TwistedPair(10**6, 10**6), CommutesWithIterate(10**6)):
        assert not timed(cert, Z**2 + 1, Z**2 + 2)  # the walk leaves at t = 1
    p = Z**3 + Z
    for relation in (CommonIterate, TwistedPair):  # the walk has period 2
        assert timed(relation(2 * 10**6, 2 * 10**6), p, -p)
        assert not timed(relation(2 * 10**6 + 1, 2 * 10**6 + 1), p, -p)
    # special pivots: unequal |lc| rules out every t, else the walk repeats
    for relation in (CommonIterate, TwistedPair):
        assert not timed(relation(10**6, 10**6), 2 * Z**2, Z**2)
    assert not timed(CommonIterate(10**6, 10**6), -Z**2, Z**2)
    assert timed(TwistedPair(10**6, 10**6), -Z**2, Z**2)
    good = common_iterate(-P4, P4, B).certificate
    assert not verify_certificate(good, -Z**3, Z**3)  # wrong pair
    assert verify_certificate(DegreeObstruction(2, 3), Z**2 + 1, Z**3 + 1)
    assert not verify_certificate(DegreeObstruction(3, 2), Z**2 + 1, Z**3 + 1)  # fields swapped
    assert not verify_certificate(DegreeObstruction(2, 2), 2 * Z**2, Z**2)  # refuted by lc, not degrees
    assert not verify_certificate(lc, Z**2 + 1, Z**3 + 1)  # refuted by degrees, not lc
    for cert in (DegreeObstruction(5, 5), DegreeObstruction(1, 2), lc):
        with pytest.raises(BadParams):  # obstructions are derived only for degrees >= 2
            verify_certificate(cert, Z, Z**2)
    with pytest.raises(BadParams):
        verify_certificate("certificate", Z**2, Z**2)


def test_free_collision_search():
    hit = free_collision_search(Z**2, Z**4, SearchBounds(wordmax=4))
    assert hit is not None
    w1, w2 = hit
    gens = {"A": Z**2, "B": Z**4}

    def word_poly(word):
        out = gens[word[-1]]
        for ch in reversed(word[:-1]):
            out = compose(gens[ch], out)
        return out

    assert w1 != w2
    assert word_poly(w1) == word_poly(w2)
    assert free_collision_search(Z**2 + 1, Z**3 + 1, SearchBounds(wordmax=5)) is None


def test_classify_power_joined_pair():
    v = classify([-Z**3, Z**3], B)
    assert v.amenable == YES
    assert v.left_amenable.status == YES and v.right_amenable.status == YES
    certs = {f.outcome.certificate for f in v.left_amenable.findings}
    assert CommonIterate(2, 2) in certs


def test_classify_right_only_pair():
    v = classify([-P4, P4], B)
    assert v.amenable == NO
    assert v.left_amenable.status == NO
    assert v.right_amenable.status == YES
    left_certs = [f.outcome.certificate for f in v.left_amenable.findings if f.outcome.status == NO]
    assert len(left_certs) == 1 and isinstance(left_certs[0], LeadingCoeffObstruction)
    right_certs = {f.outcome.certificate for f in v.right_amenable.findings}
    assert TwistedPair(1, 1) in right_certs


def test_classify_free_pair():
    v = classify([Z**2 + 1, Z**3 + 1], B)
    assert v.amenable == NO
    assert v.left_amenable.status == NO and v.right_amenable.status == NO
    assert any("free subsemigroup" in note for note in v.notes)


def test_classify_single_generator():
    v = classify([Z**3 + Z], B)
    assert v.amenable == YES
    assert [f.subject for f in v.left_amenable.findings] == ["g0|g0"]


def test_classify_deduplicates_generators():
    v = classify([Z**3 + Z, Z**3 + Z], B)
    assert len(v.left_amenable.findings) == 1


def test_classify_unknown_propagates():
    v = classify([Z**2 + 1, Z**2 + 2], B)
    assert v.amenable == UNKNOWN
    assert v.left_amenable.status == UNKNOWN
    assert v.right_amenable.status == UNKNOWN


def test_classify_commutation_upgrade_under_tight_bounds():
    p = Z**3 + Z
    tight = SearchBounds(tmax=1, lmax=2, wordmax=2)
    v = classify([-p, p], tight)
    assert v.left_amenable.status == YES
    upgraded = [f for f in v.left_amenable.findings if isinstance(f.outcome.certificate, CommutesWithIterate)]
    assert upgraded and upgraded[0].outcome.certificate == CommutesWithIterate(1)
    assert any("commut" in note for note in v.notes)
    assert verify_certificate(upgraded[0].outcome.certificate, p, -p)


def test_classify_all_special_abelian():
    v = classify([chebyshev(2), chebyshev(3)], B)
    assert v.amenable == YES
    assert any("abelian" in note for note in v.notes)
    # degree obstruction must NOT be cited: it is vacuous without a
    # non-special generator
    for f in v.left_amenable.findings + v.right_amenable.findings:
        assert not isinstance(f.outcome.certificate, DegreeObstruction)


def test_classify_all_special_noncommuting_is_unknown():
    v = classify([Z**2, 2 * Z**2 - 1], B)  # power and chebyshev, do not commute
    assert v.amenable == UNKNOWN


def test_classify_input_guards():
    with pytest.raises(EmptyInput):
        classify([], B)
    with pytest.raises(DegreeTooLow):
        classify([Z**2, Z + 1], B)


# -- semidirect model --------------------------------------------------------

def test_semidirect_context_fields():
    ctx = semidirect_context(P4, 2)
    assert (ctx.d, ctx.twist, ctx.ell) == (2, 0, 2)
    assert ctx.base == P4  # already centered
    ctx = semidirect_context(Z**5 + Z, 4)
    assert (ctx.d, ctx.twist, ctx.ell) == (4, 1, 4)


def test_semidirect_context_guards():
    with pytest.raises(InfiniteGroup):
        semidirect_context(Z**5, 2)
    with pytest.raises(InfiniteGroup):
        semidirect_context(2 * Z**3 + 5, 2)
    with pytest.raises(BadSubgroup):
        semidirect_context(P4, 3)  # 3 does not divide ell = 2
    with pytest.raises(BadSubgroup):
        semidirect_context(Z**3 + Z + 1, 2)  # c0 != 0 with twist 1


def test_semidirect_context_allows_shifted_even_case():
    ctx = semidirect_context(Z**4 + Z**2 + 1, 2)  # c0 != 0 but twist 0
    assert ctx.twist == 0


def test_abstract_context_guards():
    with pytest.raises(BadSubgroup):
        abstract_semidirect_context(6, 1, 4)
    with pytest.raises(BadParams):
        abstract_semidirect_context(0, 1, 1)


def test_semidirect_identity_and_mul():
    ctx = abstract_semidirect_context(4, 1, 4)
    e = SemidirectElement(0, 0)
    x = SemidirectElement(3, 2)
    assert semidirect_mul(ctx, x, e) == x
    assert semidirect_mul(ctx, e, x) == x
    y = SemidirectElement(1, 1)
    assert semidirect_mul(ctx, x, y) == SemidirectElement(0, 3)


def test_semidirect_mul_twist_action():
    ctx = abstract_semidirect_context(4, 3, 4)
    # (0,1)*(1,0): j = 0 + 3^1 * 1 = 3
    assert semidirect_mul(ctx, SemidirectElement(0, 1), SemidirectElement(1, 0)) == SemidirectElement(3, 1)


def test_semidirect_element_guards():
    ctx = abstract_semidirect_context(4, 1, 2)
    with pytest.raises(BadParams):
        semidirect_mul(ctx, SemidirectElement(2, 0), SemidirectElement(0, 0))
    with pytest.raises(BadParams):
        semidirect_mul(ctx, SemidirectElement(0, -1), SemidirectElement(0, 0))


def test_semidirect_associativity_exhaustive_small():
    for d in (1, 2, 3):
        for ell in (d, 2 * d):
            for r in range(ell):
                ctx = abstract_semidirect_context(ell, r, d)
                elems = [SemidirectElement(j, s) for j in range(d) for s in range(3)]
                for x, y, z in product(elems, repeat=3):
                    lhs = semidirect_mul(ctx, semidirect_mul(ctx, x, y), z)
                    rhs = semidirect_mul(ctx, x, semidirect_mul(ctx, y, z))
                    assert lhs == rhs


def test_semidirect_realize():
    ctx = semidirect_context(P4, 2)
    assert semidirect_realize(ctx, SemidirectElement(0, 0)) == Z
    assert semidirect_realize(ctx, SemidirectElement(1, 0)) == -Z
    assert semidirect_realize(ctx, SemidirectElement(1, 1)) == -P4
    assert semidirect_realize(ctx, SemidirectElement(0, 2)) == iterate(P4, 2)


def test_semidirect_realize_is_homomorphism():
    for rpoly in (P4, Z**5 + Z):
        ctx = semidirect_context(rpoly, 2)
        elems = [SemidirectElement(j, s) for j in range(2) for s in range(3)]
        for x, y in product(elems, repeat=2):
            lhs = semidirect_realize(ctx, semidirect_mul(ctx, x, y))
            rhs = compose(semidirect_realize(ctx, x), semidirect_realize(ctx, y))
            assert lhs == rhs


def test_semidirect_realize_guards():
    with pytest.raises(NotRational):
        semidirect_realize(semidirect_context(Z**5 + Z, 4), SemidirectElement(1, 0))
    with pytest.raises(BadParams):
        semidirect_realize(abstract_semidirect_context(2, 1, 2), SemidirectElement(1, 0))


def test_sgr_left_amenable():
    assert sgr_left_amenable(abstract_semidirect_context(6, 5, 3))
    assert not sgr_left_amenable(abstract_semidirect_context(6, 3, 3))
    assert sgr_left_amenable(abstract_semidirect_context(4, 1, 2))
    assert not sgr_left_amenable(abstract_semidirect_context(2, 0, 2))
    assert not sgr_left_amenable(semidirect_context(P4, 2))
    assert sgr_left_amenable(semidirect_context(Z**5 + Z, 2))


def test_folner_window():
    ctx = abstract_semidirect_context(4, 1, 2)
    win = folner_window(ctx, 2)
    assert len(win) == 6
    assert set(win) == {SemidirectElement(j, s) for j in range(2) for s in range(3)}
    with pytest.raises(BadParams):
        folner_window(ctx, -1)


def test_folner_ratio_frozen():
    ctx = abstract_semidirect_context(4, 1, 2)
    assert folner_ratio(ctx, SemidirectElement(0, 1), 9) == Fraction(1, 10)
    assert folner_ratio(ctx, SemidirectElement(1, 0), 9) == Fraction(0)
    assert folner_ratio(ctx, SemidirectElement(1, 3), 9) == Fraction(3, 10)
    # a translate past the window misses all of it: min(s, N+1)/(N+1) == 1
    assert folner_ratio(abstract_semidirect_context(3, 1, 3), SemidirectElement(0, 6), 4) == 1


def test_folner_ratio_matches_window_enumeration():
    for ell in range(1, 7):
        for d, r in product(range(1, ell + 1), range(ell)):
            if ell % d:
                continue
            ctx = abstract_semidirect_context(ell, r, d)
            for j, s, n in product(range(d), range(9), range(7)):
                x = SemidirectElement(j, s)
                assert folner_ratio(ctx, x, n) == folner_ratio_oracle(ctx, x, n), (ell, r, d, x, n)


def test_folner_ratio_power_translate_law():
    for ctx in (abstract_semidirect_context(4, 1, 2), semidirect_context(P4, 2)):
        for s in (1, 2, 3):
            for n in (9, 19):
                assert folner_ratio(ctx, SemidirectElement(0, s), n) == Fraction(s, n + 1)


def test_folner_ratio_decays():
    ctx = abstract_semidirect_context(4, 1, 2)
    x = SemidirectElement(1, 2)
    ratios = [folner_ratio(ctx, x, n) for n in (4, 9, 49, 99)]
    assert all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
