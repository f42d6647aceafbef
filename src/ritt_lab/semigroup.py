"""Amenability classification for semigroups of polynomials under
composition, with machine-checkable certificates.

The decidable core: for polynomials of degree >= 2 with at least one
non-special generator, left amenability of the generated semigroup is
equivalent to the generators being pairwise power joined (some iterates
coincide: A^k = B^l as k-fold compositions), and right amenability is
equivalent to the pairwise power-twisted relations A^(2k) = A^k o B^l and
B^(2l) = B^l o A^k.  On the grid (k, l) = (k0 t, l0 t) one walk of affine
maps mu_t with A^k = mu_t o B^l decides both from maps of degree n^k0 in
a few steps, as it soon leaves or repeats.  Both conditions are certified by
exhibiting (k, l) and refuted exactly through two obstructions:

- degrees: A^k = B^l forces n^k = m^l, so n and m must be powers of a
  common base (multiplicative dependence);
- leading coefficients: lc(A^k) = lc(A)^((n^k-1)/(n-1)), and along the
  admissible grid (k, l) = (k0 t, l0 t) the resulting equation between
  lc(A) and lc(B) is t-independent in its prime part and depends only on
  t mod 2 in its sign, so failure for every t is a finite check.

Everything else is bounded search, reported honestly as Unknown with the
bounds that were exhausted.  All-special generator sets fall outside the
pivot theory; they are decided only when they commute (abelian semigroups
are amenable) and otherwise reported Unknown.

The semidirect section models the subsemigroups generated by one
polynomial together with a finite rotation subgroup of its symmetry group:
elements delta_j o R^s multiply through the twist, Folner windows give
exact invariance defects, and left amenability reduces to the twist being
invertible mod the subgroup order.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd

from .errors import (
    BadParams,
    BadSubgroup,
    DegreeTooLow,
    EmptyInput,
    InfiniteGroup,
    NotRational,
)
from .forms import NotSpecial, is_special
from .polynomials import Poly, Z, compose, iterate
from .symmetry import g_group

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SearchBounds:
    """Caps for the bounded searches; failure within these caps is Unknown."""

    tmax: int = 6
    lmax: int = 6
    wordmax: int = 8

    def __post_init__(self):
        if self.tmax < 1 or self.lmax < 1 or self.wordmax < 1:
            raise BadParams("all search bounds must be >= 1")


@dataclass(frozen=True)
class CommonIterate:
    """A^k == B^l, k-fold and l-fold composition."""

    k: int
    l: int


@dataclass(frozen=True)
class TwistedPair:
    """A^(2k) == A^k o B^l and B^(2l) == B^l o A^k."""

    k: int
    l: int


@dataclass(frozen=True)
class CommutesWithIterate:
    """A o B^l == B^l o A."""

    l: int


@dataclass(frozen=True)
class DegreeObstruction:
    """deg A = n and deg B = m admit no k, l with n^k == m^l."""

    n: int
    m: int


@dataclass(frozen=True)
class LeadingCoeffObstruction:
    """Along every admissible (k, l) = (k0 t, l0 t) the leading coefficients
    of the iterates differ.

    reason "prime": the exponent of `prime` in lc violates the t-independent
    condition a_p (m-1) == b_p (n-1).  reason "sign": no parity of t makes
    the iterate signs agree.
    """

    n: int
    m: int
    k0: int
    l0: int
    lc_a: Fraction
    lc_b: Fraction
    reason: str
    prime: int | None


@dataclass(frozen=True)
class BoundExhausted:
    bounds: SearchBounds


Certificate = (
    CommonIterate
    | TwistedPair
    | CommutesWithIterate
    | DegreeObstruction
    | LeadingCoeffObstruction
    | BoundExhausted
)


@dataclass(frozen=True)
class Outcome:
    """Yes/No/Unknown plus the certificate backing the answer."""

    status: str
    certificate: Certificate | None


@dataclass(frozen=True)
class Finding:
    """An Outcome tagged with which generators it is about."""

    subject: str
    outcome: Outcome


@dataclass(frozen=True)
class SideVerdict:
    status: str
    findings: tuple[Finding, ...]


@dataclass(frozen=True)
class Verdict:
    left_amenable: SideVerdict
    right_amenable: SideVerdict
    amenable: str
    notes: tuple[str, ...]


NOTE_PIVOT_LEFT = (
    "left amenability with a non-special generator present is equivalent to "
    "all generators sharing an iterate with the pivot (power joined)"
)
NOTE_PIVOT_RIGHT = (
    "right amenability is equivalent to the power-twisted relations holding "
    "against the pivot"
)
NOTE_DAY = "amenable means left and right amenable simultaneously"
NOTE_FREE = (
    "a pair of degree >= 2 polynomials without the twisted relations "
    "generates a free subsemigroup of rank two, ruling out right amenability"
)
NOTE_ALL_SPECIAL = (
    "every generator is special (affine conjugate of z^n or +-T_n); degree "
    "and leading-coefficient obstructions are inconclusive in that regime"
)
NOTE_ABELIAN = (
    "all generators commute, so the semigroup is abelian and amenable on "
    "both sides"
)
NOTE_COMMUTE_UPGRADE = (
    "commuting with an iterate of the non-special pivot forces a shared "
    "iterate, so the pair is power joined"
)
NOTE_SPECIAL_UNDECIDED = (
    "some special generators do not commute; no implemented criterion "
    "decides this case"
)

_SAMPLE_POINTS = (Fraction(2), Fraction(-3, 2), Fraction(5, 7))


# Miller-Rabin on these bases proves primality below _PSI13, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981
_RHO_BATCH = 128


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES for n with no prime factor <= 41; a pass at
    or above _PSI13 proves nothing, so it raises BadParams."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI13:
        raise BadParams(f"cannot prove that the factor {n} is prime: Miller-Rabin on the "
                        f"primes up to 41 is a proof only below {_PSI13}")
    return True


def _rho(n: int) -> int:
    """A proper factor of the composite n by Pollard-Brent rho (Brent, BIT 20,
    1980), one gcd per batch of steps; an overshot batch is replayed by step."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = igcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = igcd(x - ys, n)
        if g != n:
            return g


def _factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes ascending.  The primes up
    to 41 are divided out; each larger piece is proven prime by Miller-Rabin
    or split by Pollard-Brent rho.  A piece at or above _PSI13 that passes
    the test cannot be proven prime, so it raises BadParams."""
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    pieces = [n] if n > 1 else []
    while pieces:
        m = pieces.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            pieces += [d, m // d]
    return dict(sorted(out.items()))


def _prime_exponents(r: Fraction) -> dict[int, int]:
    """Signed prime exponent vector of a nonzero rational."""
    out = _factor(abs(r.numerator))
    for p, e in _factor(r.denominator).items():
        out[p] = out.get(p, 0) - e
    return out


def multiplicatively_dependent(n: int, m: int) -> tuple[int, int, int] | None:
    """Smallest d with n == d^p and m == d^q, as (d, p, q), else None."""
    if n < 2 or m < 2:
        raise BadParams("multiplicative dependence needs n, m >= 2")
    en, em = _factor(n), _factor(m)
    if set(en) != set(em):
        return None
    gp = 0
    for e in en.values():
        gp = igcd(gp, e)
    gq = 0
    for e in em.values():
        gq = igcd(gq, e)
    if any(en[p] // gp != em[p] // gq for p in en):
        return None
    d = 1
    for p, e in en.items():
        d *= p ** (e // gp)
    return d, gp, gq


def _iterate_grid(A: Poly, B: Poly) -> tuple[int, int] | None:
    """Minimal (k0, l0) with (deg A)^k0 == (deg B)^l0, or None."""
    dep = multiplicatively_dependent(A.degree, B.degree)
    if dep is None:
        return None
    _, p, q = dep
    g = igcd(p, q)
    return q // g, p // g


def _apply_iter(p: Poly, k: int, x: Fraction) -> Fraction:
    for _ in range(k):
        x = p(x)
    return x


def _signs_can_agree(A: Poly, B: Poly, k0: int, l0: int) -> bool:
    """Whether lc(A^(k0 t)) and lc(B^(l0 t)) share a sign for some t.
    lc(A^k) = lc(A)^e with e = (n^k - 1)/(n - 1); e is odd for every k when
    n is even, and has the parity of k when n is odd, so t = 1, 2 cover all t."""

    def negative(p: Poly, k: int) -> bool:
        return p.lc < 0 and (p.degree % 2 == 0 or k % 2 == 1)

    return any(negative(A, k0 * t) == negative(B, l0 * t) for t in (1, 2))


def _lc_obstruction(A: Poly, B: Poly, k0: int, l0: int) -> LeadingCoeffObstruction | None:
    """Exact all-t refutation of lc(A^(k0 t)) == lc(B^(l0 t)), if one holds.

    With N = n^k0 = m^l0 the exponents are e(t) = (N^t - 1)/(n - 1) and
    f(t) = (N^t - 1)/(m - 1), so per prime the condition a_p e(t) == b_p f(t)
    reduces to the t-free a_p (m-1) == b_p (n-1); the sign condition only
    sees t mod 2.

    Some prime breaks it exactly when |lc A|^(m-1) != |lc B|^(n-1); only
    then does _factor (Pollard-Brent rho, Miller-Rabin proofs) name the
    smallest such prime, raising BadParams on a factor at or above _PSI13.
    """
    n, m = A.degree, B.degree
    if abs(A.lc) ** (m - 1) != abs(B.lc) ** (n - 1):
        ea, eb = _prime_exponents(A.lc), _prime_exponents(B.lc)
        for pr in sorted(set(ea) | set(eb)):
            if ea.get(pr, 0) * (m - 1) != eb.get(pr, 0) * (n - 1):
                return LeadingCoeffObstruction(
                    n=n, m=m, k0=k0, l0=l0, lc_a=A.lc, lc_b=B.lc, reason="prime", prime=pr
                )
    if not _signs_can_agree(A, B, k0, l0):
        return LeadingCoeffObstruction(
            n=n, m=m, k0=k0, l0=l0, lc_a=A.lc, lc_b=B.lc, reason="sign", prime=None
        )
    return None


def _affine_walk(P: Poly, Q: Poly):
    """Yield (mu_t, gamma(mu_t)) for t = 1, 2, ... with P^t == mu_t o Q^t and
    Q o mu_t == gamma(mu_t) o Q, for P, Q of one degree N >= 1.  Right
    factors of one degree agree up to a left affine map, so each map is read
    off two coefficients and confirmed by one composition of degree N:
    P == nu o Q gives mu_1 = nu and mu_(t+1) = nu o gamma(mu_t).  P^t == Q^t
    iff mu_t == id (step[0]); the twisted relations hold iff Q^t o mu_t ==
    Q^t iff gamma(mu_t) == id (step[1]), as such an affine map is id or a
    reflection and right cancellation leaves Q o mu_t == Q.  Both need
    |lc P| == |lc Q|, else nothing is yielded.  The walk stops after a mu
    without gamma (no later mu exists, by right cancellation) and before a
    repeated mu (periodic from there), so always: each mu_t with a gamma is
    in G(Q), finite or, for Q conjugate to z^N, the two maps with lc +-1."""

    def left_affine(R: Poly) -> Poly | None:
        a = R.lc / Q.lc
        lam = Poly((R[0] - a * Q[0], a))
        return lam if compose(lam, Q) == R else None

    nu = mu = left_affine(P) if abs(P.lc) == abs(Q.lc) else None
    seen = set()
    while mu is not None and mu not in seen:
        seen.add(mu)
        gamma = Z if mu == Z else left_affine(compose(Q, mu))
        yield mu, gamma
        mu = None if gamma is None else compose(nu, gamma)


def _grid_search(relation: type[CommonIterate] | type[TwistedPair], A: Poly, B: Poly,
                 bounds: SearchBounds, what: str) -> Outcome:
    """The first t <= bounds.tmax at which the relation holds on the degree
    grid (k, l) = (k0 t, l0 t), by the affine walk over A^k0 and B^l0.
    Independent degrees refute both relations; the leading coefficients
    refute a common iterate and leave no walk for a twisted pair."""
    if A.degree < 2 or B.degree < 2:
        raise DegreeTooLow(f"{what} needs degrees >= 2")
    grid = _iterate_grid(A, B)
    if grid is None:
        return Outcome(NO, DegreeObstruction(A.degree, B.degree))
    k0, l0 = grid
    if relation is CommonIterate and (obstruction := _lc_obstruction(A, B, k0, l0)) is not None:
        return Outcome(NO, obstruction)
    for t, step in zip(range(1, bounds.tmax + 1), _affine_walk(iterate(A, k0), iterate(B, l0))):
        if step[relation is TwistedPair] == Z:
            return Outcome(YES, relation(k=k0 * t, l=l0 * t))
    return Outcome(UNKNOWN, BoundExhausted(bounds))


def common_iterate(A: Poly, B: Poly, bounds: SearchBounds = SearchBounds()) -> Outcome:
    """Search for A^k == B^l; refute exactly via degrees or leading
    coefficients when possible.

    Any solution sits on the grid (k, l) = (k0 t, l0 t), t >= 1, where
    A^k == B^l iff mu_t == id in the affine walk over A^k0 and B^l0, so the
    search takes t up to bounds.tmax and builds nothing above degree n^k0.
    """
    return _grid_search(CommonIterate, A, B, bounds, "common iterate search")


def _shares_no_iterate(A: Poly, B: Poly) -> bool:
    """Whether B is non-special and the walk shows A^k != B^l for all k, l;
    then A commutes with no iterate of B (Ritt 1923, NOTE_COMMUTE_UPGRADE)."""
    if min(A.degree, B.degree) < 2 or not isinstance(is_special(B), NotSpecial):
        return False
    grid = _iterate_grid(A, B)
    return grid is None or all(mu != Z for mu, _ in _affine_walk(iterate(A, grid[0]), iterate(B, grid[1])))


def _relation_holds(cert: CommonIterate | TwistedPair | CommutesWithIterate, A: Poly, B: Poly) -> bool:
    """Whether A and B satisfy the relation the certificate asserts.  A
    common iterate or twisted pair must lie on the degree grid
    (k l0 == l k0); the affine walk over A^k0 and B^l0 runs to t = k/k0 or
    its exit or first repeat, and t is reduced into the cycle.  A degree-1
    pair is a one-step walk at (k0, l0) = (k, l); constants are iterated.
    Commuting with B^l is refuted at the first sample point that separates
    the sides, else decided by composition."""
    if isinstance(cert, CommutesWithIterate):
        l = cert.l
        if any(_apply_iter(B, l, A(x)) != A(_apply_iter(B, l, x)) for x in _SAMPLE_POINTS):
            return False
        bl = iterate(B, l)
        return compose(A, bl) == compose(bl, A)
    k, l, n, m = cert.k, cert.l, A.degree, B.degree
    if min(n, m) < 1:
        if isinstance(cert, TwistedPair):
            raise DegreeTooLow("twisted relations need nonconstant maps")
        return n**k == m**l and iterate(A, k) == iterate(B, l)
    if k < 1 or l < 1:
        raise BadParams("iteration counts must be >= 1")
    grid = (k, l) if n == m == 1 else None if min(n, m) == 1 else _iterate_grid(A, B)
    if grid is None or k * grid[1] != l * grid[0]:
        return False
    t = k // grid[0]
    steps = list(itertools.islice(_affine_walk(iterate(A, grid[0]), iterate(B, grid[1])), t))
    if len(steps) < t:
        if not steps or steps[-1][1] is None:
            return False
        start = [mu for mu, _ in steps].index(compose(steps[0][0], steps[-1][1]))
        t = start + 1 + (t - 1 - start) % (len(steps) - start)
    return steps[t - 1][isinstance(cert, TwistedPair)] == Z


def twisted_pair(A: Poly, B: Poly, bounds: SearchBounds = SearchBounds()) -> Outcome:
    """Search for the power-twisted relations
    A^(2k) == A^k o B^l and B^(2l) == B^l o A^k on the degree grid.

    The degree constraint is the same n^k == m^l as for a common iterate,
    so the only exact refutation is multiplicative independence of the
    degrees; unequal |lc(A^k)|, |lc(B^l)| rule out every t but, with no
    certificate for that, end the search Unknown.  They hold at (k0 t, l0 t)
    iff gamma(mu_t) == id in the walk over A^k0 and B^l0 (degree n^k0).
    """
    return _grid_search(TwistedPair, A, B, bounds, "twisted relation search")


def commutes_with_iterate(A: Poly, B: Poly, bounds: SearchBounds = SearchBounds()) -> int | None:
    """Smallest l <= bounds.lmax with A o B^l == B^l o A, else None.

    None comes at once when _shares_no_iterate; otherwise each l is checked
    at the sample points and then by exact composition."""
    if A.degree < 2 or B.degree < 2:
        raise DegreeTooLow("commutation search needs degrees >= 2")
    if _shares_no_iterate(A, B):
        return None
    for l in range(1, bounds.lmax + 1):
        if _relation_holds(CommutesWithIterate(l), A, B):
            return l
    return None


def free_collision_search(A: Poly, B: Poly, bounds: SearchBounds = SearchBounds()) -> tuple[str, str] | None:
    """Look for two distinct words in A, B composing to the same polynomial.

    Words are enumerated by length then lexicographically; each word
    w = w1 w2 ... wk denotes w1 o w2 o ... o wk.  Candidates are matched by
    exact evaluation at fixed sample points and confirmed by composing the
    polynomials, so a returned pair is a genuine relation.  None means no
    relation was found within bounds.wordmax; on its own that proves
    nothing, though for pairs refuted by the twisted-relation obstructions
    a free pair of words is known to exist.
    """
    if A.degree < 2 or B.degree < 2:
        raise DegreeTooLow("collision search needs degrees >= 2")
    rng = random.Random(0x52697474)
    pts = [Fraction(rng.randint(2, 99), rng.randint(1, 9)) for _ in range(3)]
    letters = {"A": A, "B": B}

    def word_values(w: str) -> tuple[Fraction, ...]:
        vals = []
        for x in pts:
            for ch in reversed(w):
                x = letters[ch](x)
            vals.append(x)
        return tuple(vals)

    def word_poly(w: str) -> Poly:
        out = letters[w[-1]]
        for ch in reversed(w[:-1]):
            out = compose(letters[ch], out)
        return out

    seen: dict[tuple[Fraction, ...], str] = {}
    for length in range(1, bounds.wordmax + 1):
        for tup in itertools.product("AB", repeat=length):
            w = "".join(tup)
            key = word_values(w)
            prev = seen.get(key)
            if prev is None:
                seen[key] = w
                continue
            if word_poly(prev) == word_poly(w):
                return prev, w
    return None


def _aggregate(statuses) -> str:
    """No if any status is No, else Unknown if any is Unknown, else Yes."""
    return NO if NO in statuses else UNKNOWN if UNKNOWN in statuses else YES


def _classify_all_special(gens: list[Poly], bounds: SearchBounds) -> Verdict:
    findings: list[Finding] = []
    for i, j in itertools.combinations_with_replacement(range(len(gens)), 2):
        gi, gj = gens[i], gens[j]
        if not _relation_holds(CommutesWithIterate(l=1), gi, gj):
            out = Outcome(UNKNOWN, None)
        elif (out := common_iterate(gi, gj, bounds)).status != YES:
            out = Outcome(YES, CommutesWithIterate(l=1))
        findings.append(Finding(f"g{i}|g{j}", out))
    side = SideVerdict(_aggregate([f.outcome.status for f in findings]), tuple(findings))
    notes = (NOTE_ABELIAN, NOTE_DAY) if side.status == YES else (NOTE_SPECIAL_UNDECIDED,)
    return Verdict(side, side, side.status, (NOTE_ALL_SPECIAL, *notes))


def classify(gens: list[Poly], bounds: SearchBounds = SearchBounds()) -> Verdict:
    """Amenability verdict for the semigroup generated by gens under
    composition.

    With a non-special pivot generator available, left amenability reduces
    to every generator sharing an iterate with the pivot and right
    amenability to the twisted relations against the pivot; both reductions
    are exact, so No answers carry obstruction certificates and Yes answers
    carry relation certificates.  Without a non-special generator only the
    abelian case is decided.  Duplicate generators are dropped.
    """
    if not gens:
        raise EmptyInput("need at least one generator")
    unique: list[Poly] = []
    for g in gens:
        if g.degree < 2:
            raise DegreeTooLow("generators must have degree >= 2")
        if g not in unique:
            unique.append(g)
    gens = unique
    pivot_idx = next(
        (i for i, g in enumerate(gens) if isinstance(is_special(g), NotSpecial)), None
    )
    if pivot_idx is None:
        return _classify_all_special(gens, bounds)
    pivot = gens[pivot_idx]
    notes = [NOTE_PIVOT_LEFT, NOTE_PIVOT_RIGHT, NOTE_DAY]
    upgraded = False
    left_findings: list[Finding] = []
    right_findings: list[Finding] = []
    for i, q in enumerate(gens):
        subject = f"g{i}|g{pivot_idx}"
        out = common_iterate(q, pivot, bounds)
        if out.status == UNKNOWN:
            l = commutes_with_iterate(q, pivot, bounds)
            if l is not None:
                out = Outcome(YES, CommutesWithIterate(l=l))
                upgraded = True
        left_findings.append(Finding(subject, out))
        right_findings.append(Finding(subject, twisted_pair(q, pivot, bounds)))
    if upgraded:
        notes.append(NOTE_COMMUTE_UPGRADE)
    left, right = (SideVerdict(_aggregate([f.outcome.status for f in fs]), tuple(fs))
                   for fs in (left_findings, right_findings))
    if right.status == NO:
        notes.append(NOTE_FREE)
    return Verdict(left, right, _aggregate((left.status, right.status)), tuple(notes))


def verify_certificate(cert: Certificate, A: Poly, B: Poly) -> bool:
    """Re-check a certificate by direct exact computation.

    A relation goes through the checks its search makes (_shares_no_iterate
    and _relation_holds), so a common iterate or twisted pair costs at most
    one affine walk at any (k, l).  An obstruction is derived again from A
    and B by the code the searches refute with and compared field by field;
    a degree below 2 raises BadParams.
    """
    if isinstance(cert, CommutesWithIterate) and _shares_no_iterate(A, B):
        return False
    if isinstance(cert, (CommonIterate, TwistedPair, CommutesWithIterate)):
        return _relation_holds(cert, A, B)
    if isinstance(cert, (DegreeObstruction, LeadingCoeffObstruction)):
        grid = _iterate_grid(A, B)
        derived = DegreeObstruction(A.degree, B.degree) if grid is None else _lc_obstruction(A, B, *grid)
        return cert == derived
    if isinstance(cert, BoundExhausted):
        return True
    raise BadParams(f"unknown certificate type: {type(cert).__name__}")


# ---------------------------------------------------------------------------
# Semidirect products delta_j o R^s and their Folner windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemidirectElement:
    """delta_j o R^s: rotation index j (mod the subgroup order) and s >= 0."""

    j: int
    s: int


@dataclass(frozen=True)
class SemidirectContext:
    """Multiplication data for the semigroup generated by a rotation
    subgroup of order d inside a symmetry group of order ell (twist r),
    together with one polynomial.

    Moving R^s past delta_j twists the rotation index by r^s, which is the
    whole multiplication law.  base is the centered polynomial when the
    context was built from one (realize needs it); abstract contexts carry
    only the arithmetic.
    """

    d: int
    twist: int
    ell: int
    base: Poly | None = None


def abstract_semidirect_context(ell: int, r: int, d: int) -> SemidirectContext:
    """Context from raw (ell, r, d) with d dividing ell; no polynomial."""
    if ell < 1 or d < 1:
        raise BadParams("group orders must be >= 1")
    if ell % d:
        raise BadSubgroup(f"subgroup order {d} does not divide {ell}")
    return SemidirectContext(d=d, twist=r % ell, ell=ell)


def semidirect_context(rpoly: Poly, d: int) -> SemidirectContext:
    """Context for the semigroup generated by rpoly (centered) and the
    order-d rotation subgroup of its symmetry group.

    Refused when the symmetry group is infinite (quasi-powers), when d does
    not divide its order, and when the companion maps of the subgroup are
    rotations about a nonzero center (then delta_j o R^s is not closed
    under composition in the claimed shape).
    """
    tw = g_group(rpoly)
    if tw.order is None:
        raise InfiniteGroup("quasi-power: the symmetry group is infinite")
    if d < 1 or tw.order % d:
        raise BadSubgroup(f"subgroup order {d} does not divide {tw.order}")
    c0 = tw.frame.centered[0]
    if c0 != 0 and tw.twist % d != 0:
        raise BadSubgroup(
            "subgroup action is not realizable: companion rotations are "
            "centered away from the origin"
        )
    return SemidirectContext(d=d, twist=tw.twist, ell=tw.order, base=tw.frame.centered)


def _check_element(ctx: SemidirectContext, x: SemidirectElement) -> None:
    if x.s < 0:
        raise BadParams("iteration exponent must be >= 0")
    if not 0 <= x.j < ctx.d:
        raise BadParams(f"rotation index must lie in 0..{ctx.d - 1}")


def semidirect_mul(ctx: SemidirectContext, x: SemidirectElement, y: SemidirectElement) -> SemidirectElement:
    """(delta_{j1} o R^{s1}) o (delta_{j2} o R^{s2})
    == delta_{j1 + r^{s1} j2} o R^{s1+s2}."""
    _check_element(ctx, x)
    _check_element(ctx, y)
    j = (x.j + pow(ctx.twist, x.s, ctx.d) * y.j) % ctx.d
    return SemidirectElement(j=j, s=x.s + y.s)


def semidirect_realize(ctx: SemidirectContext, x: SemidirectElement) -> Poly:
    """The polynomial delta_j o R^s in centered coordinates.

    Only rotation subgroups of order <= 2 consist of rational maps
    (delta in {z, -z}); larger d would need complex roots of unity.
    """
    if ctx.base is None:
        raise BadParams("abstract context has no polynomial to realize")
    if ctx.d > 2:
        raise NotRational(f"rotations of order {ctx.d} are not rational")
    _check_element(ctx, x)
    delta = Z if x.j == 0 else -Z
    if x.s == 0:
        return delta
    it = iterate(ctx.base, x.s)
    return compose(delta, it)


def sgr_left_amenable(ctx: SemidirectContext) -> bool:
    """Left amenability of the modeled semigroup: the twist must permute
    the subgroup, i.e. gcd(r, d) == 1."""
    return igcd(ctx.twist, ctx.d) == 1


def folner_window(ctx: SemidirectContext, n: int) -> list[SemidirectElement]:
    """F_N = all (j, s) with s <= N: the canonical right-Folner candidates."""
    if n < 0:
        raise BadParams("window size must be >= 0")
    return [
        SemidirectElement(j=j, s=s) for j in range(ctx.d) for s in range(n + 1)
    ]


def folner_ratio(ctx: SemidirectContext, x: SemidirectElement, n: int) -> Fraction:
    """Exact right-invariance defect |F_N minus F_N x| / |F_N|.

    Right translation shifts the s-levels up by s(x) and permutes each
    level, so the defect is the closed form min(s(x), N+1)/(N+1) returned
    here: the windows are a right Folner sequence, since for fixed x that
    tends to zero.
    """
    _check_element(ctx, x)
    if n < 0:
        raise BadParams("window size must be >= 0")
    return Fraction(min(x.s, n + 1), n + 1)
