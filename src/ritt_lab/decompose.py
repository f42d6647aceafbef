"""Functional decomposition f = g o h over the rationals, done exactly.

The normalized right factor of a given degree (monic, zero constant term) is
unique when it exists, which makes decomposition searchable degree by
degree: the reversed right factor is the power-series (deg f / deg h)-th
root of the reversed f / lc(f) to deg h terms (Kozen-Landau's approximate
root, by J. C. P. Miller's recurrence), and the left factor is then the
base-h digit expansion of f, given up at the first non-constant digit.
Decomposability does not change when the coefficient field grows from Q to
C, so a None here is definitive.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd

from .errors import BadDegree, InternalInconsistency, NotAnIdentity, BadParams
from .polynomials import Poly, Z, compose, rational_nth_root


@dataclass(frozen=True)
class Decomposition:
    """f == left o right with right monic and right(0) == 0."""

    left: Poly
    right: Poly


@dataclass(frozen=True)
class RittFactorization:
    """Common refinement of two factorizations of the same composition.

    a = u o a_tilde, b = u o b_tilde, c = c_tilde o v, d = d_tilde o v,
    and the middle identity a_tilde o c_tilde == b_tilde o d_tilde holds.
    deg u = gcd(deg a, deg b) and deg v = gcd(deg c, deg d).
    """

    u: Poly
    a_tilde: Poly
    b_tilde: Poly
    v: Poly
    c_tilde: Poly
    d_tilde: Poly


class NoRationalWitness:
    """Marker result: the leading-coefficient equation has no rational root,
    so no rational solution can exist (this is stronger than a failed
    coefficient match, which is reported as None)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoRationalWitness"


NO_RATIONAL_WITNESS = NoRationalWitness()


def _digits(f: Poly, h: Poly) -> Poly | None:
    """The g with g o h == f, read off the base-h expansion of f lowest
    digit first, or None at the first digit that is not a constant."""
    out = []
    cur = f
    while cur:
        cur, r = divmod(cur, h)
        if r.degree > 0:
            return None
        out.append(r[0])
    return Poly(out)


def right_factor(f: Poly, m: int) -> Decomposition | None:
    """Find f == g o h with h monic of degree m and h(0) == 0, if possible.

    With F_i = f[n - i] / lc(f) and q = n / m, the reversed h is the
    power-series root F^(1/q) to m terms.  Miller's recurrence G_0 = 1,
    G_k = (1/k) * sum_{i=1..k} ((1/q + 1) * i - k) * F_i * G_{k-i} gives
    them, and h = z^m + sum_{j=1..m-1} G_j z^(m-j).  Afterwards f is
    expanded in base h; the expansion has constant digits exactly when the
    decomposition exists, and the digits are g.
    """
    n = f.degree
    if n < 1:
        raise BadDegree("cannot factor a constant")
    if m < 1 or m > n or n % m:
        raise BadDegree(f"right factor degree {m} does not divide {n}")
    q = n // m
    F = [f[n - i] / f.lc for i in range(m)]
    G = [Fraction(1)]
    for k in range(1, m):
        # ((1/q + 1) * i - k) / k == ((q + 1) * i - q * k) / (q * k)
        G.append(sum(((q + 1) * i - q * k) * F[i] * G[k - i] for i in range(1, k + 1)) / (q * k))
    hp = Poly([0] + G[:0:-1] + [1])
    g = _digits(f, hp)
    return None if g is None else Decomposition(left=g, right=hp)


def right_compose_solve(v: Poly, d: Poly) -> Poly | None:
    """Solve g o v == d for g (v monic not required; exact digit expansion)."""
    if v.degree < 1:
        raise BadDegree("inner polynomial must be nonconstant")
    if d.degree % v.degree:
        raise BadDegree(f"deg {v.degree} does not divide deg {d.degree}")
    return _digits(d, v)


def left_compose_solve(u: Poly, b: Poly):
    """Solve u o x == b for x over Q.

    Returns x, or NO_RATIONAL_WITNESS when already lc(u) * t^(deg u) = lc(b)
    has no rational root t, or None when the rational leading-coefficient
    candidates exist but the remaining coefficients cannot be matched.
    """
    sols = left_compose_solutions(u, b)
    if isinstance(sols, NoRationalWitness):
        return sols
    return sols[0] if sols else None


def left_compose_solutions(u: Poly, b: Poly):
    """All rational x with u o x == b (0, 1 or 2 of them), or the
    NO_RATIONAL_WITNESS marker.

    A solution is x = lam o h with h the normalized right factor of b of
    degree deg b / deg u and lam = t*z + s, t^(deg u) == lc(b) / lc(u):
    u o lam must be the left factor g, whose z^(deg u - 1) coefficient
    gives s.  As g o h == b exactly, u o lam == g is u o x == b.
    """
    du, db = u.degree, b.degree
    if du < 1 or db < 1:
        raise BadDegree("both polynomials must be nonconstant")
    if db % du:
        raise BadDegree(f"deg {du} does not divide deg {db}")
    t0 = rational_nth_root(b.lc / u.lc, du)
    if t0 is None:
        return NO_RATIONAL_WITNESS
    dec = right_factor(b, db // du)
    if dec is None:
        return []
    out = []
    for t in (t0,) if du % 2 else (t0, -t0):
        s = (dec.left[du - 1] / t ** (du - 1) - u[du - 1]) / (du * u.lc)
        if compose(u, Poly((s, t))) == dec.left:
            out.append(t * dec.right + s)
    return out


def all_decompositions(f: Poly) -> list[Decomposition]:
    """One normalized decomposition per divisor of deg f where one exists,
    by ascending right-factor degree.  The ends are always present:
    m = 1 gives (f, z) and m = deg f gives an affine left factor."""
    n = f.degree
    if n < 1:
        raise BadDegree("cannot decompose a constant")
    out = []
    for m in range(1, n + 1):
        if n % m == 0:
            dec = right_factor(f, m)
            if dec is not None:
                out.append(dec)
    return out


def ritt_first(a: Poly, c: Poly, b: Poly, d: Poly) -> RittFactorization:
    """Refine a o c == b o d through a common left factor u and a common
    right factor v.

    deg u = gcd(deg a, deg b) and deg v = gcd(deg c, deg d); the refinement
    exists over Q whenever the identity holds, so any failure past the
    identity check raises InternalInconsistency.
    """
    for p in (a, c, b, d):
        if p.degree < 1:
            raise BadDegree("all four polynomials must be nonconstant")
    if compose(a, c) != compose(b, d):
        raise NotAnIdentity("a o c differs from b o d")
    g = igcd(a.degree, b.degree)
    rf = right_factor(a, a.degree // g)
    if rf is None:
        raise InternalInconsistency("no right factor of a at the gcd degree")
    u, a_t = rf.left, rf.right
    b_cands = left_compose_solutions(u, b)
    if isinstance(b_cands, NoRationalWitness) or not b_cands:
        raise InternalInconsistency("no rational b_tilde under the common left factor")
    g2 = igcd(c.degree, d.degree)
    rf2 = right_factor(c, g2)
    if rf2 is None:
        raise InternalInconsistency("no right factor of c at the gcd degree")
    c_t, v = rf2.left, rf2.right
    d_t = right_compose_solve(v, d)
    if d_t is None:
        raise InternalInconsistency("d does not expand over the common right factor")
    mid = compose(a_t, c_t)
    for b_t in b_cands:
        if mid == compose(b_t, d_t):
            return RittFactorization(u=u, a_tilde=a_t, b_tilde=b_t, v=v, c_tilde=c_t, d_tilde=d_t)
    raise InternalInconsistency("middle identity failed for all candidates")


def ritt_second_family(kind: str, *, r: Poly | None = None, s: int | None = None,
                       n: int | None = None, m: int | None = None) -> tuple[Poly, Poly, Poly, Poly]:
    """Build a quadruple (a, c, b, d) with a o c == b o d from one of the two
    classical non-trivially-shared-composite families.

    kind "power": a = z^s r(z)^n, c = z^n, b = z^n, d = z^s r(z^n), with
    gcd(s, n) == 1.  kind "chebyshev": a = T_m, c = T_n, b = T_n, d = T_m
    with gcd(m, n) == 1.
    """
    if kind == "power":
        if r is None or s is None or n is None:
            raise BadParams("power kind needs r, s, n")
        if not r:
            raise BadParams("r must be nonzero")
        if s < 1 or n < 1:
            raise BadParams("need s >= 1 and n >= 1")
        if igcd(s, n) != 1:
            raise BadParams(f"gcd(s, n) must be 1, got gcd({s}, {n}) = {igcd(s, n)}")
        zn = Z**n
        a = Z**s * r**n
        d = Z**s * compose(r, zn)
        quad = (a, zn, zn, d)
    elif kind == "chebyshev":
        from .forms import chebyshev

        if m is None or n is None:
            raise BadParams("chebyshev kind needs m, n")
        if m < 1 or n < 1:
            raise BadParams("need m >= 1 and n >= 1")
        if igcd(m, n) != 1:
            raise BadParams(f"gcd(m, n) must be 1, got gcd({m}, {n}) = {igcd(m, n)}")
        quad = (chebyshev(m), chebyshev(n), chebyshev(n), chebyshev(m))
    else:
        raise BadParams(f"unknown family kind: {kind!r}")
    a, c, b, d = quad
    if compose(a, c) != compose(b, d):
        raise InternalInconsistency("constructed quadruple is not an identity")
    return quad
