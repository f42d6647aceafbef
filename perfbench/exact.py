"""Exact polynomial arithmetic of the benchmark's own, independent of ritt_lab.

The benchmark builds its inputs and re-checks the library's answers with
these helpers, so a known answer never comes from the code under test.  A
polynomial is a list of Fractions, lowest degree first, with no trailing
zeros; the zero polynomial is the empty list.
"""

from fractions import Fraction


def trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def scale(a, c):
    return trim([x * c for x in a])


def mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def compose(p, q):
    """p(q(z)) by Horner's rule."""
    acc = []
    for c in reversed(p):
        acc = add(mul(acc, q), [c])
    return acc


def monomial(n):
    return [Fraction(0)] * n + [Fraction(1)]


def conjugate(p, a, b):
    """lam o p o lam^-1 for lam(z) = a z + b."""
    inverse = [Fraction(-b) / a, 1 / Fraction(a)]
    return add(scale(compose(p, inverse), a), [Fraction(b)])


def chebyshev(n):
    """T_n from T_{k+1} = 2 z T_k - T_{k-1}."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, add(mul([Fraction(0), Fraction(2)], cur), scale(prev, -1))
    return cur


def rational_text(c):
    """A nonnegative rational in the CLI grammar: 'p' or 'p/q'."""
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def render(p, var="z"):
    """Text for p in the CLI grammar, highest degree first.

    var is the text substituted for z; pass '(h)' to write p o h as text.
    """
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = rational_text(mag)
        else:
            base = var if k == 1 else f"{var}^{k}"
            body = base if mag == 1 else f"{rational_text(mag)}*{base}"
        sign = "-" if c < 0 else "+"
        parts.append(("-" + body if sign == "-" else body) if not parts else f"{sign} {body}")
    return " ".join(parts)
