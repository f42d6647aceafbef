"""Centered forms and recognition of power and Chebyshev conjugates.

A polynomial of degree n >= 2 can always be conjugated by a translation so
that its z^(n-1) coefficient vanishes; that representative is the centered
form and it is unique.  Working centered reduces every affine-conjugacy
question to scalings z -> a*z, where each coefficient reads a^d == r:
Euclid on the exponents folds these binomials into one a^g == c, so no
polynomial gcd is ever taken.

The special polynomials are the affine conjugates of z^n and of +-T_n
(Chebyshev).  They are exactly the cases where symmetry groups blow up and
composition identities stop being rigid, so several operations elsewhere in
the package branch on the answer computed here.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParams, DegreeTooLow
from .polynomials import (
    Z,
    AffineMap,
    Poly,
    compose,
    conjugate,
    rational_nth_root,
)


@dataclass(frozen=True)
class CenteredForm:
    """centered == shift o original o shift^{-1}, shift = z + b0."""

    shift: AffineMap
    centered: Poly

    def original(self) -> Poly:
        return conjugate(self.centered, self.shift.inverse())


@dataclass(frozen=True)
class PowerConjugate:
    """p == c*(z - b)^n + b, an affine conjugate of z^n (conjugacy over C)."""

    n: int
    b: Fraction


@dataclass(frozen=True)
class ChebyshevConjugate:
    """p is an affine conjugate of sign*T_n.

    witness is a rational lam with p == lam o (sign*T_n) o lam^{-1} when one
    exists over Q; witness is None when the conjugacy only exists over C
    (its scales a are the roots of one a^g == c, none rational).  For even
    n the classes of T_n and -T_n coincide and the sign is reported as +1.
    """

    n: int
    sign: int
    witness: AffineMap | None


@dataclass(frozen=True)
class NotSpecial:
    """Neither a power conjugate nor a Chebyshev conjugate."""


SpecialKind = PowerConjugate | ChebyshevConjugate | NotSpecial


def center(p: Poly) -> CenteredForm:
    """Conjugate p by a translation so the z^(n-1) coefficient vanishes.

    The shift is z + b0 with b0 = c_{n-1} / (n c_n); this is the unique
    translation doing the job, so centered forms are canonical.
    """
    n = p.degree
    if n < 2:
        raise DegreeTooLow(f"centering needs degree >= 2, got {n}")
    b0 = p[n - 1] / (n * p.lc)
    shift = AffineMap(1, b0)
    return CenteredForm(shift=shift, centered=conjugate(p, shift))


def chebyshev(n: int) -> Poly:
    """T_n with T_0 = 1, T_1 = z, T_{k+1} = 2 z T_k - T_{k-1}."""
    if n < 0:
        raise BadParams("chebyshev index must be >= 0")
    a, b = Poly((1,)), Z
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, 2 * Z * b - a
    return b


def monic_chebyshev(n: int) -> Poly:
    """The monic centered model 2*T_n(z/2); satisfies M_{k+1} = z M_k - M_{k-1}.

    Its support is every exponent of the same parity as n, all coefficients
    nonzero, which is what makes the support test in the Chebyshev detector
    decisive.
    """
    if n < 0:
        raise BadParams("chebyshev index must be >= 0")
    a, b = Poly((2,)), Z
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, Z * b - a
    return b


def _detection_frame(p: Poly) -> CenteredForm:
    if p.degree < 2:
        raise DegreeTooLow(f"special detection needs degree >= 2, got {p.degree}")
    return center(p)


def _read_power(cf: CenteredForm) -> PowerConjugate | None:
    n = cf.centered.degree
    return PowerConjugate(n=n, b=-cf.shift.b) if cf.centered.support() == (n,) else None


def is_conjugate_to_power(p: Poly) -> PowerConjugate | None:
    """Detect p == c*(z-b)^n + b exactly.

    Since the centering translation is unique, this holds iff the centered
    form is c*z^n, and then b = -shift.b: one centering, no search.
    """
    return _read_power(_detection_frame(p))


def _binomial_system(pairs) -> tuple[int, Fraction] | None:
    """Fold a^d == r over all pairs (d, r), r != 0, into one binomial.

    Euclid on the exponents: a^d == r and a^e == s give
    a^(d mod e) == r / s^(d div e); a^0 == r holds for all a if r == 1 and
    for none otherwise.  Returns (g, c), g the gcd of the d, so that the
    roots of z^g - c are the solutions ((0, 1): every a != 0), or None.
    """
    g, c = 0, Fraction(1)
    for d, r in pairs:
        while d:
            (g, c), (d, r) = (d, r), (g % d, c / r ** (g // d))
        if r != 1:
            return None
    return g, c


def _read_chebyshev(p: Poly, cf: CenteredForm) -> ChebyshevConjugate | None:
    n, q = p.degree, cf.centered
    if q.support() != tuple(range(n % 2, n + 1, 2)):
        return None
    model = monic_chebyshev(n)
    for sign in (1, -1):
        sol = _binomial_system((k - 1, sign * model[k] / q[k]) if k else (1, q[0] / (sign * model[0]))
                               for k in q.support())
        if sol is None:
            continue
        a = rational_nth_root(sol[1], sol[0])
        witness = None
        if a is not None:
            witness = AffineMap(2 * a, -cf.shift.b)
            assert conjugate(sign * chebyshev(n), witness) == p
        return ChebyshevConjugate(n=n, sign=sign, witness=witness)
    return None


def is_conjugate_to_chebyshev(p: Poly) -> ChebyshevConjugate | None:
    """Detect whether p is an affine conjugate of T_n or -T_n.

    Centering reduces the question to a pure scaling against the monic
    centered model M_n = 2 T_n(z/2), whose support is every exponent of the
    parity of n.  Coefficientwise the scaling reads a^(k-1) == sign*M_k/q_k
    (a == q_0/(sign*M_0) for k == 0); a conjugacy over C exists iff these
    binomials fold into one a^g == c, and a rational witness iff that has a
    rational root.
    """
    return _read_chebyshev(p, _detection_frame(p))


def is_special(p: Poly) -> SpecialKind:
    """Classify p as a power conjugate, a Chebyshev conjugate, or neither,
    reading both off one centered form."""
    cf = _detection_frame(p)
    return _read_power(cf) or _read_chebyshev(p, cf) or NotSpecial()


@dataclass(frozen=True)
class Equivalence:
    """Outcome of a linear-equivalence test p == sigma o q o nu.

    sigma/nu form a rational witness when present.  constraint is the monic
    z^g - c whose roots are the inner scales that work (None when all do);
    without a rational root it certifies an equivalence over C only, and
    sigma/nu are None.
    """

    sigma: AffineMap | None
    nu: AffineMap | None
    constraint: Poly | None

    @property
    def rational(self) -> bool:
        return self.sigma is not None


def _translation_reduce(f: Poly) -> tuple[Poly, AffineMap, AffineMap]:
    """Write f = tau o F o rho^{-1} with F centered and F(0) == 0."""
    cf = center(f)
    c0 = cf.centered[0]
    rho = cf.shift.inverse()
    return cf.centered - c0, AffineMap(1, c0).compose(rho), rho


def linear_equivalence(p: Poly, q: Poly) -> Equivalence | None:
    """Decide over C whether p == sigma o q o nu for affine sigma, nu.

    Both sides are first reduced by translations to centered, constant-free
    pp and qq, leaving pp(z) == s*qq(t*z): s is forced by the leading
    coefficients and every other exponent k reads
    t^(n-k) == pp_n*qq_k / (qq_n*pp_k).  A rational root t of the folded
    binomial yields an explicit witness; otherwise the binomial certifies an
    equivalence that needs irrational scales.
    """
    n = p.degree
    if n < 2 or q.degree < 2:
        raise DegreeTooLow("linear equivalence needs degree >= 2 on both sides")
    if q.degree != n:
        return None
    pp, tau_p, rho_p = _translation_reduce(p)
    qq, tau_q, rho_q = _translation_reduce(q)
    if pp.support() != qq.support():
        return None
    sol = _binomial_system((n - k, pp.lc * qq[k] / (qq.lc * pp[k])) for k in pp.support()[:-1])
    if sol is None:
        return None
    g, c = sol
    constraint = Poly.monomial(g) - c if g else None
    t1 = rational_nth_root(c, g) if g else Fraction(1)
    if t1 is None:
        return Equivalence(sigma=None, nu=None, constraint=constraint)
    s1 = pp.lc / (t1**n * qq.lc)
    sigma = tau_p.compose(AffineMap(s1)).compose(tau_q.inverse())
    nu = rho_q.compose(AffineMap(t1)).compose(rho_p.inverse())
    assert sigma.a * compose(q, nu.as_poly()) + sigma.b == p
    return Equivalence(sigma=sigma, nu=nu, constraint=constraint)
