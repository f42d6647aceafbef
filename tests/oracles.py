"""Independent cross-checks for the test suite.

Everything here re-derives answers from the raw functional equations with
sympy, deliberately avoiding the library's own algorithms: symmetry orders
come from coefficient systems solved in cyclotomic quotient fields,
special-ness certificates from ramification data and sympy's algebraic
solver, decomposability from sympy.decompose.  Folner defects come from
enumerating the window and its translate under the multiplication law.
"""

from fractions import Fraction

import sympy
from sympy import Rational, Symbol, cyclotomic_poly, resultant, totient

from ritt_lab.decompose import NO_RATIONAL_WITNESS, Decomposition
from ritt_lab.polynomials import AffineMap, Poly, compose, iterate, rational_nth_root
from ritt_lab.semigroup import folner_window, semidirect_mul

_z = Symbol("z")
_a = Symbol("a")
_w = Symbol("w")
_A = Symbol("A")
_B = Symbol("B")


def to_expr(p: Poly):
    return sympy.Add(*[
        Rational(c.numerator, c.denominator) * _z**k for k, c in enumerate(p.coeffs)
    ])


def from_expr(e) -> Poly:
    pol = sympy.Poly(sympy.expand(e), _z)
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(pol.all_coeffs())])


def _z_coeffs(e):
    return sympy.Poly(sympy.expand(e), _z).all_coeffs()


def _vanishes_mod(exprs, phi):
    for c in exprs:
        r = sympy.rem(sympy.expand(c), phi, _a)
        if not sympy.Poly(r, _a).is_zero:
            return False
    return True


def brute_aut_order(p: Poly, max_order: int = 12) -> int:
    """Number of affine sigma = a*z+b with sigma o p == p o sigma whose
    multiplier has multiplicative order <= max_order.

    For each candidate order m the coefficient system is solved in the
    field Q[a]/Phi_m(a): b is forced by the z^(n-1) coefficient, the rest
    must vanish identically.  Phi_m is irreducible, so solutions come in
    full Galois orbits of size totient(m).
    """
    n = p.degree
    P = to_expr(p)
    cn = Rational(p.lc.numerator, p.lc.denominator)
    cn1 = Rational(p[n - 1].numerator, p[n - 1].denominator)
    total = 0
    for m in range(1, max_order + 1):
        phi = cyclotomic_poly(m, _a)
        # a^m == 1 in the quotient, so the inverse of a^(n-1) is a power of a
        inv = _a ** ((-(n - 1)) % m)
        b = sympy.rem(sympy.expand(cn1 * (_a - _a ** (n - 1)) * inv / (n * cn)), phi, _a)
        d = sympy.expand((_a * P + b) - P.subs(_z, _a * _z + b))
        if _vanishes_mod(_z_coeffs(d), phi):
            total += int(totient(m))
    return total


def brute_g_order(p: Poly, max_order: int = 12):
    """Number of rotations sigma = a*z admitting an affine nu with
    p_c o sigma == nu o p_c on the centered polynomial p_c, a of order
    <= max_order; None when the group is infinite (centered monomial)."""
    n = p.degree
    P = to_expr(p)
    cn = Rational(p.lc.numerator, p.lc.denominator)
    cn1 = Rational(p[n - 1].numerator, p[n - 1].denominator)
    b0 = cn1 / (n * cn)
    pc = sympy.expand(P.subs(_z, _z - b0) + b0)
    pol = sympy.Poly(pc, _z)
    if [k for k in range(1, n + 1) if pol.nth(k) != 0] == [n]:
        return None
    c0 = pol.nth(0)
    total = 0
    for m in range(1, max_order + 1):
        phi = cyclotomic_poly(m, _a)
        alpha = _a ** (n % m)
        beta = c0 * (1 - alpha)
        d = sympy.expand(pc.subs(_z, _a * _z) - (alpha * pc + beta))
        if _vanishes_mod(_z_coeffs(d), phi):
            total += int(totient(m))
    return total


def power_conjugate_oracle(p: Poly) -> bool:
    """p is affinely conjugate to z^n iff p' is a constant times a single
    linear factor to the n-1 power."""
    P = to_expr(p)
    d1 = sympy.diff(P, _z)
    d2 = sympy.diff(d1, _z)
    return sympy.degree(sympy.gcd(d1, d2), _z) == p.degree - 2


def distinct_critical_values(p: Poly) -> int:
    P = to_expr(p)
    v = sympy.expand(resultant(P - _w, sympy.diff(P, _z), _z))
    vp = sympy.Poly(v, _w)
    g = sympy.gcd(v, sympy.diff(v, _w))
    return vp.degree() - sympy.degree(g, _w)


def derivative_squarefree(p: Poly) -> bool:
    d1 = sympy.diff(to_expr(p), _z)
    return sympy.degree(sympy.gcd(d1, sympy.diff(d1, _z)), _z) == 0


def conjugacy_exists(p: Poly, q: Poly) -> bool:
    """Raw existence over C of affine lambda with p o lambda == lambda o q,
    decided by sympy's polynomial system solver."""
    P, Q = to_expr(p), to_expr(q)
    eqs = _z_coeffs(sympy.expand(P.subs(_z, _A * _z + _B) - (_A * Q + _B)))
    for sol in sympy.solve(eqs, [_A, _B], dict=True):
        aval = sol.get(_A)
        if aval is None or aval != 0:
            return True
    return False


def certified_not_special(p: Poly) -> bool:
    """True only when p is provably not conjugate to z^n or to +-T_n over C.

    The power side is decided exactly by ramification.  The Chebyshev side
    uses two conjugation invariants (derivative squarefree, at most two
    distinct critical values) and falls back to the raw solver when the
    cheap invariants cannot rule it out.
    """
    if power_conjugate_oracle(p):
        return False
    if derivative_squarefree(p) and distinct_critical_values(p) <= 2:
        from ritt_lab.forms import chebyshev

        t = chebyshev(p.degree)
        if conjugacy_exists(p, t) or conjugacy_exists(p, -t):
            return False
    return True


def twisted_relations_oracle(a: Poly, b: Poly, k: int, l: int) -> bool:
    """A^(2k) == A^k o B^l and B^(2l) == B^l o A^k by their definition:
    the four compositions of degree N^2 (N = deg A^k), built in sympy.

    Both polys live over QQ: sympy compares a ZZ poly and a QQ poly with the
    same coefficients as unequal, and the domain it infers depends on the
    coefficients."""
    A, B = (sympy.Poly(to_expr(p), _z, domain="QQ") for p in (a, b))
    ak, bl = A, B
    for _ in range(k - 1):
        ak = A.compose(ak)
    for _ in range(l - 1):
        bl = B.compose(bl)
    return ak.compose(ak) == ak.compose(bl) and bl.compose(bl) == bl.compose(ak)


def twisted_companion_oracle(a: Poly, b: Poly, k: int, l: int) -> bool:
    """The twisted relations at (k, l) on the iterates themselves, as the
    library checked them before the affine walk: B^l == nu o A^k with
    A^k o nu == A^k, nu read off two coefficients (right factors of one
    degree agree up to a left affine map).  Reaches degrees the sympy
    oracle cannot."""
    P, Q = iterate(a, k), iterate(b, l)
    c = Q.lc / P.lc
    nu = Poly((Q[0] - c * P[0], c))
    return Q == compose(nu, P) and compose(P, nu) == P


def folner_ratio_oracle(ctx, x, n: int) -> Fraction:
    """|F_N minus F_N x| / |F_N| by enumerating the window and its right
    translate through the multiplication law."""
    window = folner_window(ctx, n)
    image = {semidirect_mul(ctx, y, x) for y in window}
    return Fraction(sum(1 for y in window if y not in image), len(window))


def indecomposable_oracle(p: Poly) -> bool:
    return len(sympy.decompose(to_expr(p), _z)) == 1


def right_factor_oracle(f: Poly, m: int) -> Decomposition | None:
    """right_factor by its definition: the top m coefficients of f must
    agree with those of lc(f) * h^(deg f / m), each comparison solved for
    the next unknown coefficient of h, then f expanded in base h."""
    n = f.degree
    q = n // m
    c = f.lc
    h = [Fraction(0)] * m + [Fraction(1)]
    for j in range(1, m):
        partial = c * Poly(h) ** q
        h[m - j] = (f[n - j] - partial[n - j]) / (c * q)
    hp = Poly(h)
    digits = []
    cur = f
    while cur:
        cur, r = divmod(cur, hp)
        digits.append(r)
    if any(d.degree > 0 for d in digits):
        return None
    g = Poly([d[0] for d in digits])
    return Decomposition(left=g, right=hp)


def left_compose_oracle(u: Poly, b: Poly):
    """left_compose_solutions by its definition: for each rational leading
    coefficient t, solve the top coefficients of u o x == b for x one at a
    time, composing once per unknown, then keep x when u o x == b."""
    du, db = u.degree, b.degree
    dx = db // du
    t0 = rational_nth_root(b.lc / u.lc, du)
    if t0 is None:
        return NO_RATIONAL_WITNESS
    cands = (t0,) if du % 2 else (t0, -t0)
    out = []
    for t in cands:
        x = [Fraction(0)] * dx + [t]
        denom = u.lc * du * t ** (du - 1)
        for j in range(1, dx + 1):
            partial = compose(u, Poly(x))
            x[dx - j] = (b[db - j] - partial[db - j]) / denom
        xp = Poly(x)
        if compose(u, xp) == b:
            out.append(xp)
    return out


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor by the dense Euclidean algorithm."""
    while g:
        f, g = g, f % g
    return f.monic() if f else f


def rand_fraction(rng, lo=-5, hi=5, dmax=5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def rand_nonzero_fraction(rng, lo=-5, hi=5, dmax=5) -> Fraction:
    while True:
        x = rand_fraction(rng, lo, hi, dmax)
        if x != 0:
            return x


def rand_poly(rng, degree, lo=-5, hi=5, dmax=5) -> Poly:
    coeffs = [rand_fraction(rng, lo, hi, dmax) for _ in range(degree)]
    coeffs.append(rand_nonzero_fraction(rng, lo, hi, dmax))
    return Poly(coeffs)


def rand_affine(rng, lo=-5, hi=5, dmax=5) -> AffineMap:
    return AffineMap(rand_nonzero_fraction(rng, lo, hi, dmax),
                     rand_fraction(rng, lo, hi, dmax))
