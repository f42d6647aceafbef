"""Centered forms and recognition of power and Chebyshev conjugates.

A polynomial of degree n >= 2 can always be conjugated by a translation so
that its z^(n-1) coefficient vanishes; that representative is the centered
form and it is unique.  Working centered reduces every affine-conjugacy
question to a question about scalings z -> a*z, which turns into exact
congruence conditions on the exponents and one algebraic condition on a.

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
    gcd,
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
    (certified by a nonconstant constraint gcd).  For even n the classes of
    T_n and -T_n coincide and the sign is reported as +1.
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


def is_conjugate_to_power(p: Poly) -> PowerConjugate | None:
    """Detect p == c*(z-b)^n + b exactly.

    The candidate b is forced by the z^(n-1) coefficient, so this is a
    single exact comparison, no search.
    """
    n = p.degree
    if n < 2:
        raise DegreeTooLow(f"special detection needs degree >= 2, got {n}")
    c = p.lc
    b = -p[n - 1] / (n * c)
    if p == c * (Z - b) ** n + b:
        return PowerConjugate(n=n, b=b)
    return None


def _scaling_constraints(q: Poly, model: Poly, sign: int) -> list[Poly] | None:
    """Constraint polynomials in a for q == (a z) o (sign*model) o (a z)^{-1}.

    Coefficientwise that conjugation reads q_k == sign * a^(1-k) * model_k,
    i.e. q_k a^(k-1) == sign*model_k for k >= 1 and q_0 == sign*a*model_0.
    Returns None if some constraint is already impossible over C.
    """
    out = []
    for k in q.support():
        if k == 0:
            out.append(Poly((-q[0], sign * model[0])))
            continue
        c = Poly((-sign * model[k],) + (0,) * (k - 2) + (q[k],)) if k >= 2 else Poly((q[k] - sign * model[k],))
        if c.degree < 1:
            if c:
                return None
            continue
        out.append(c)
    return out


def is_conjugate_to_chebyshev(p: Poly) -> ChebyshevConjugate | None:
    """Detect whether p is an affine conjugate of T_n or -T_n.

    Centering reduces the question to a pure scaling against the monic
    centered model M_n = 2 T_n(z/2).  The scaling constraints are binomials
    in a; a conjugacy over C exists iff their gcd is nonconstant, and a
    rational witness exists iff that gcd has a rational root, which can only
    come from the forced linear constraint (n even) or from a minimal
    binomial root (n odd).
    """
    n = p.degree
    if n < 2:
        raise DegreeTooLow(f"special detection needs degree >= 2, got {n}")
    cf = center(p)
    q = cf.centered
    model = monic_chebyshev(n)
    if q.support() != model.support():
        return None
    for sign in (1, -1):
        cons = _scaling_constraints(q, model, sign)
        if cons is None:
            continue
        g = cons[0]
        for c in cons[1:]:
            g = gcd(g, c)
        if g.degree < 1:
            continue
        candidates = []
        linear = [c for c in cons if c.degree == 1]
        if linear:
            candidates.append(-linear[0][0] / linear[0][1])
        else:
            small = min((c for c in cons if c.degree >= 2), key=lambda c: c.degree)
            root = rational_nth_root(-small[0] / small.lc, small.degree)
            if root is not None:
                candidates.extend([root, -root])
        witness = None
        for a in candidates:
            if a != 0 and all(c(a) == 0 for c in cons):
                witness = AffineMap(2 * a, -cf.shift.b)
                assert conjugate(sign * chebyshev(n), witness) == p
                break
        return ChebyshevConjugate(n=n, sign=sign, witness=witness)
    return None


def is_special(p: Poly) -> SpecialKind:
    """Classify p as a power conjugate, a Chebyshev conjugate, or neither."""
    hit = is_conjugate_to_power(p)
    if hit is not None:
        return hit
    cheb = is_conjugate_to_chebyshev(p)
    if cheb is not None:
        return cheb
    return NotSpecial()


@dataclass(frozen=True)
class Equivalence:
    """Outcome of a linear-equivalence test p == sigma o q o nu.

    sigma/nu form a rational witness when present.  When the equivalence
    only holds over C, they are None and constraint is the nonconstant gcd
    of the scaling constraints (no rational root), which certifies the
    complex solution.
    """

    sigma: AffineMap | None
    nu: AffineMap | None
    constraint: Poly | None

    @property
    def rational(self) -> bool:
        return self.sigma is not None


def _translation_reduce(f: Poly) -> tuple[Poly, AffineMap, AffineMap]:
    """Write f = tau o F o rho^{-1} with F centered and F(0) == 0."""
    n = f.degree
    u = -f[n - 1] / (n * f.lc)
    g = compose(f, Z + u)
    c0 = g[0]
    return g - c0, AffineMap(1, c0), AffineMap(1, u)


def linear_equivalence(p: Poly, q: Poly) -> Equivalence | None:
    """Decide over C whether p == sigma o q o nu for affine sigma, nu.

    Both sides are first reduced by translations to centered, constant-free
    representatives; what remains is a pure two-scaling problem whose
    solvability is a support match plus binomial constraints on the inner
    scale t.  A rational root of the constraints yields an explicit witness;
    a nonconstant constraint gcd without rational roots certifies an
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
    others = [k for k in pp.support() if k != n]
    g = None
    if not others:
        t1 = Fraction(1)
    else:
        cons = []
        for k in others:
            cons.append(Poly((-pp.lc * qq[k],) + (0,) * (n - k - 1) + (qq.lc * pp[k],)))
        g = cons[0]
        for c in cons[1:]:
            g = gcd(g, c)
        if g.degree < 1:
            return None
        k_max = max(others)
        small = next(c for c in cons if c.degree == n - k_max)
        root = rational_nth_root(-small[0] / small.lc, small.degree)
        t1 = None
        if root is not None:
            for cand in (root, -root):
                if cand != 0 and all(c(cand) == 0 for c in cons):
                    t1 = cand
                    break
        if t1 is None:
            return Equivalence(sigma=None, nu=None, constraint=g)
    s1 = pp.lc / (t1**n * qq.lc)
    sigma = tau_p.compose(AffineMap(s1)).compose(tau_q.inverse())
    nu = rho_q.compose(AffineMap(t1)).compose(rho_p.inverse())
    assert sigma.a * compose(q, nu.as_poly()) + sigma.b == p
    return Equivalence(sigma=sigma, nu=nu, constraint=g)
