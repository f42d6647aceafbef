"""Dense univariate polynomials over the rationals.

Every coefficient is a fractions.Fraction; nothing in this module ever
rounds.  Composition is Horner evaluation in the polynomial ring, so the
same code path serves evaluation at a point and substitution of another
polynomial, except an affine inner polynomial: conjugation, centering and
the affine relations substitute one all the time, and there an integer
Taylor shift over one common denominator replaces a Poly product per step.
"""

from fractions import Fraction
from math import lcm

from .errors import BadParams


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


class Poly:
    """sum(c[k] * z^k) stored as a dense coefficient tuple.

    Trailing zeros are stripped, so the zero polynomial has an empty tuple
    and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * k + (_frac(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Poly((1,)) if result is None else result

    def __call__(self, x):
        """Horner evaluation; x may be a rational or another Poly."""
        acc = Fraction(0) if not isinstance(x, Poly) else Poly()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly) or not other:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d, lead = other.degree, other.lc
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return Poly(q), Poly(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def monic(self) -> "Poly":
        if not self:
            return self
        return self * (1 / self.lc)

    def support(self) -> tuple[int, ...]:
        """Exponents with nonzero coefficient, ascending."""
        return tuple(k for k, c in enumerate(self.coeffs) if c != 0)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


ZERO = Poly()
ONE = Poly((1,))
Z = Poly((0, 1))


class AffineMap:
    """The invertible map z -> a*z + b with a != 0."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        a, b = _frac(a), _frac(b)
        if a == 0:
            raise ValueError("affine map needs a nonzero linear part")
        self.a = a
        self.b = b

    @classmethod
    def from_poly(cls, p: Poly) -> "AffineMap":
        if p.degree != 1:
            raise ValueError(f"not an affine polynomial: {p}")
        return cls(p[1], p[0])

    def as_poly(self) -> Poly:
        return Poly((self.b, self.a))

    def __call__(self, x):
        return self.a * x + self.b

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(z) == self(other(z))."""
        return AffineMap(self.a * other.a, self.a * other.b + self.b)

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.a, -self.b / self.a)

    def __eq__(self, other):
        if isinstance(other, AffineMap):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"AffineMap(a={self.a}, b={self.b})"


def _affine_substitute(p: Poly, a: Fraction, b: Fraction) -> Poly:
    """p(a*z + b) by an integer Taylor shift.  With b = bn/bd, den the common
    denominator of p and u = bd*a*z, den * bd^n * p(a*z + b) has integer
    coefficients in u + bn: shift them by bn in place, then make each one
    Fraction."""
    n = p.degree
    den = lcm(*(c.denominator for c in p.coeffs))
    bn, bd = b.numerator, b.denominator
    cs = [c.numerator * (den // c.denominator) * bd ** (n - k) for k, c in enumerate(p.coeffs)]
    if bn:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                cs[j] += bn * cs[j + 1]
    s, t = bd * a.numerator, a.denominator
    return Poly([Fraction(c * s**j, den * bd**n * t**j) for j, c in enumerate(cs)])


def compose(p: Poly, q: Poly) -> Poly:
    """p o q, i.e. p(q(z)); an affine q goes through _affine_substitute."""
    if not isinstance(q, Poly):
        q = Poly((q,))
    if q.degree == 1 and p:
        return _affine_substitute(p, q[1], q[0])
    out = p(q)
    return out if isinstance(out, Poly) else Poly((out,))


def iterate(p: Poly, k: int) -> Poly:
    """k-fold self-composition p o p o ... o p (k >= 1 copies)."""
    if k < 1:
        raise BadParams("iteration count must be >= 1")
    out = p
    for _ in range(k - 1):
        out = compose(p, out)
    return out


def evaluate(p: Poly, x) -> Fraction:
    return p(_frac(x))


def conjugate(p: Poly, lam: AffineMap) -> Poly:
    """lam o p o lam^{-1}."""
    inner = compose(p, lam.inverse().as_poly())
    return lam.a * inner + Poly((lam.b,))


def int_nth_root(n: int, k: int):
    """Exact integer k-th root of n >= 0, or None if n is not a k-th power."""
    if n < 0 or k < 1:
        raise ValueError("int_nth_root needs n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    lo, hi = 0, 1
    while hi**k < n:
        hi <<= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def rational_nth_root(r: Fraction, k: int):
    """Exact rational t with t^k == r and t >= 0 when k is even.

    Returns None when no rational k-th root exists.  For odd k the sign of
    r is carried over; for even k a negative r has no rational root.
    """
    if k < 1:
        raise ValueError("root order must be >= 1")
    if r == 0:
        return Fraction(0)
    neg = r < 0
    if neg and k % 2 == 0:
        return None
    num = int_nth_root(abs(r.numerator), k)
    den = int_nth_root(r.denominator, k)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return -root if neg else root
