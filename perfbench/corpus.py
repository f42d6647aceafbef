"""Seeded corpora and known-answer tables for the three workloads.

A corpus is a list of blocks.  Every block of a workload holds the same
number of queries of each kind, with fresh seeded parameters, so a run
that stops at a block boundary always sees the same mix.  A query's `run`
makes only library calls (it is what gets timed); its `check` compares the
result with an answer fixed by the construction or by theory, using the
benchmark's own arithmetic in `exact`, never the library's output.

Every library name is looked up on its module at call time, so the tracer
in `spans` sees the calls once it has wrapped them.
"""

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable

import ritt_lab as rl
from ritt_lab import io_cli

import exact as ex

YES, NO, UNKNOWN = "Yes", "No", "Unknown"
SCHEMA_TAG = "ritt-lab/1"

WORKLOADS = ("verdicts", "decompositions", "cli")


@dataclass
class Answer:
    """The checker's judgement of one query.

    decided/sides count Yes-or-No verdict sides among all verdict sides of
    search queries; stdout_bytes is what a CLI request printed.
    """

    ok: bool
    why: str = ""
    decided: int = 0
    sides: int = 0
    stdout_bytes: int = 0


@dataclass
class Query:
    """label names the inputs fully, so equal labels mean equal queries."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Answer]


def build(workload: str, seed: int) -> list[list[Query]]:
    """The corpus of `workload` for `seed`: a list of blocks of queries."""
    builder, blocks = _BUILDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(blocks):
        block = builder(rng)
        rng.shuffle(block)
        out.append(block)
    return out


def _fail(why: str, **kw) -> Answer:
    return Answer(False, why, **kw)


def _rat(rng, nums=(1, 2, 3), dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.choice(nums) * rng.choice((1, -1)), rng.choice(dens))


# The coefficient of z^k in a dense polynomial has magnitude MAGNITUDES[k]
# and a seeded sign.  Heights, and so the cost of a query, then depend on
# the degree alone: with seeded magnitudes the degree-64 composites vary by
# about 10% in cost, with these by about 2%.
MAGNITUDES = tuple(map(Fraction, ("1", "2", "1/2", "3", "2/3", "1/3", "3/2", "1", "2", "1/2")))


def _dense(rng, degree: int) -> list[Fraction]:
    """A polynomial of the given degree with every coefficient nonzero."""
    return [MAGNITUDES[k % len(MAGNITUDES)] * rng.choice((1, -1)) for k in range(degree + 1)]


def _affine(rng) -> tuple[Fraction, Fraction]:
    return _rat(rng), _rat(rng, nums=(0, 1, 2, 3))


# ---------------------------------------------------------------------------
# verdicts: classify + verify_certificate against known Yes/No sides
# ---------------------------------------------------------------------------

# Kinds (a)-(e); counts per block keep every kind under about half of a
# block's time (shares are measured and reported with each run).  The
# median falls inside d_prime, p90 inside c_unknown.  With 30 b_sign
# queries the median moved among them and spread more from run to run
# (8-12% against 7-8%).
VERDICT_COUNTS = {"a_tower": 2, "b_sign": 10, "c_unknown": 10, "d_prime": 14, "e_gallery": 7}
NEAR_MILLION_PRIMES = (999_000, 1_001_000)
# (a, b) for kind (c); z^2 + c is special only for c in {0, -2}.  The search
# cost differs sixfold between pairs (86 ms for (-3, -1), 518 ms for (4, 5)
# on one machine); these pairs cost within 7% of each other, so the seed
# does not move the latency percentiles.
C_PAIRS = ((1, 2), (2, 1), (3, 1), (1, 4), (1, 5), (-1, 5), (5, -1), (-1, 4), (4, -1))

Z2 = ex.monomial(2)
Z3 = ex.monomial(3)
Z4 = ex.monomial(4)


def _gallery() -> list[tuple[str, list, tuple]]:
    """The rows of scripts/classify_gallery.py with their answers.

    None means theory gives no answer for that side here; Unknown is
    always accepted and only lowers the decided ratio.
    """
    cubic = ex.add(Z3, ex.monomial(1))
    quartic = ex.add(Z4, Z2)
    return [
        ("power-joined pair", [ex.scale(Z3, -1), Z3], (YES, YES)),
        ("iterate tower", [cubic, ex.compose(cubic, cubic)], (YES, YES)),
        ("twisted but not joined", [ex.scale(quartic, -1), quartic], (NO, YES)),
        ("degree obstruction", [ex.add(Z2, [1]), ex.add(Z3, [1])], (NO, NO)),
        ("scaled powers", [ex.scale(Z2, 2), Z2], (None, None)),
        ("chebyshev family", [ex.chebyshev(2), ex.chebyshev(3)], (YES, YES)),
        ("bounded search, no verdict", [ex.add(Z2, [1]), ex.add(Z2, [2])], (NO, NO)),
    ]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.4e14."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_near_million(rng) -> int:
    while True:
        n = rng.randrange(*NEAR_MILLION_PRIMES) | 1
        if _is_prime(n):
            return n


def _subject(subject: str) -> tuple[int, int]:
    left, right = subject.split("|")
    return int(left[1:]), int(right[1:])


def _verdict_query(kind, label, gens_cs, expected, bounds, extra=None) -> Query:
    gens = [rl.Poly(cs) for cs in gens_cs]

    def run():
        verdict = rl.classify(gens, bounds)
        rechecks = []
        for side in (verdict.left_amenable, verdict.right_amenable):
            for f in side.findings:
                if f.outcome.certificate is not None:
                    i, j = _subject(f.subject)
                    rechecks.append(rl.verify_certificate(f.outcome.certificate, gens[i], gens[j]))
        return verdict, rechecks

    def check(result) -> Answer:
        verdict, rechecks = result
        sides = (verdict.left_amenable.status, verdict.right_amenable.status)
        decided = sum(s in (YES, NO) for s in sides)
        counts = {"decided": decided, "sides": 2}
        for name, got, want in zip(("left", "right"), sides, expected):
            if got not in (YES, NO, UNKNOWN):
                return _fail(f"{name} status {got!r}", **counts)
            if got != UNKNOWN and want is not None and got != want:
                return _fail(f"{name} is {got}, known answer {want}", **counts)
        if (NO in sides and verdict.amenable != NO) or (sides == (YES, YES) and verdict.amenable != YES):
            return _fail(f"amenable {verdict.amenable} contradicts sides {sides}", **counts)
        if not all(rechecks):
            return _fail("verify_certificate rejected a certificate", **counts)
        if extra is not None:
            why = extra(verdict)
            if why:
                return _fail(why, **counts)
        return Answer(True, **counts)

    return Query(kind, label, run, check)


def _left_lc_obstruction(verdict) -> str:
    """A left No on the pair must come from the leading coefficients."""
    for f in verdict.left_amenable.findings:
        if f.subject == "g0|g1":
            if f.outcome.status != NO:
                return ""
            name = type(f.outcome.certificate).__name__
            return "" if name == "LeadingCoeffObstruction" else f"left g0|g1 certified by {name}"
    return "no left finding for g0|g1"


def _verdicts_block(rng) -> list[Query]:
    default = rl.SearchBounds()
    out = []
    for _ in range(VERDICT_COUNTS["a_tower"]):
        a = Fraction(rng.choice((1, 2, 4, 5)) * rng.choice((1, -1)), 3)
        p2 = ex.compose([0, a, 1], [0, a, 1])
        out.append(_verdict_query("a_tower", f"[P^2, P^4], P = z^2 + {a}z",
                                  [p2, ex.compose(p2, p2)], (YES, YES), default))
    for _ in range(VERDICT_COUNTS["b_sign"]):
        a = _rat(rng, nums=range(1, 10), dens=(1, 2, 3, 4))
        q = ex.add(Z4, ex.scale(Z2, a))
        out.append(_verdict_query("b_sign", f"[-Q, Q], Q = z^4 + {a}z^2",
                                  [ex.scale(q, -1), q], (NO, YES), default))
    for _ in range(VERDICT_COUNTS["c_unknown"]):
        a, b = rng.choice(C_PAIRS)
        out.append(_verdict_query("c_unknown", f"[z^2 + {a}, z^2 + {b}] tmax 10",
                                  [ex.add(Z2, [a]), ex.add(Z2, [b])], (NO, NO),
                                  rl.SearchBounds(tmax=10)))
    for _ in range(VERDICT_COUNTS["d_prime"]):
        p = _prime_near_million(rng)
        q = _prime_near_million(rng)
        while q == p:
            q = _prime_near_million(rng)
        out.append(_verdict_query("d_prime", f"[{p * q}z^2, z^2 + z]",
                                  [ex.scale(Z2, p * q), ex.add(Z2, ex.monomial(1))],
                                  (NO, NO), default, extra=_left_lc_obstruction))
    for label, gens, expected in _gallery():
        out.append(_verdict_query("e_gallery", label, gens, expected, default))
    return out


# ---------------------------------------------------------------------------
# decompositions: decompose, forms and symmetry on constructed polynomials
# ---------------------------------------------------------------------------

# (deg g, deg h) of the composites g o h in every block.
COMPOSITE_DEGREES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (3, 5), (4, 4), (2, 9),
                     (6, 4), (4, 6), (6, 4), (4, 6), (8, 8))
PRIME_DEGREES = (5, 7, 11, 13, 17)
POWER_DEGREES = (4, 6, 8, 9)
CHEBYSHEV_DEGREES = (3, 4, 6, 8)
SYMMETRIC_SHAPES = ((1, 2, 1), (2, 3, 1), (3, 2, 2), (1, 4, 2), (2, 2, 3), (4, 3, 2))  # (r, l, deg u)


def _divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


def _coeffs(p) -> list[Fraction]:
    return list(p.coeffs)


def _decomposition_query(kind, label, f_cs, lam, **facts) -> Query:
    """lam = (a, b) is the map z -> a z + b that f is conjugated by; facts
    are the known answers for f, any of right_degree, degrees, special
    (type name, n), aut_order and g_order."""
    f = rl.Poly(f_cs)
    lam_map = rl.AffineMap(*lam)

    def run():
        decs = rl.all_decompositions(f)
        special = rl.is_special(f)
        aut = rl.aut_group(f)
        gsym = rl.g_group(f)
        conj = rl.conjugate(f, lam_map)
        return decs, special, aut, gsym, conj, rl.linear_equivalence(f, conj)

    def check(result) -> Answer:
        decs, special, aut, gsym, conj, eq = result
        degrees = [d.right.degree for d in decs]
        for d in decs:
            if ex.compose(_coeffs(d.left), _coeffs(d.right)) != f_cs:
                return _fail(f"decomposition with right degree {d.right.degree} does not recompose")
        if "right_degree" in facts and facts["right_degree"] not in degrees:
            return _fail(f"no right factor of degree {facts['right_degree']} (got {degrees})")
        if "degrees" in facts and degrees != facts["degrees"]:
            return _fail(f"decomposition degrees {degrees}, known {facts['degrees']}")
        if "special" in facts:
            name, n = facts["special"]
            if type(special).__name__ != name or getattr(special, "n", None) != n:
                return _fail(f"is_special gave {special}, known {name} n={n}")
        if "aut_order" in facts and aut.order != facts["aut_order"]:
            return _fail(f"Aut order {aut.order}, known {facts['aut_order']}")
        if "g_order" in facts and gsym.order != facts["g_order"]:
            return _fail(f"G order {gsym.order}, known {facts['g_order']}")
        if _coeffs(conj) != ex.conjugate(f_cs, *lam):
            return _fail("conjugate differs from lam o f o lam^-1")
        if eq is None or not eq.rational:
            return _fail("linear_equivalence found no rational witness")
        outer = ex.compose(_coeffs(conj), [eq.nu.b, eq.nu.a])
        if ex.add(ex.scale(outer, eq.sigma.a), [eq.sigma.b]) != f_cs:
            return _fail("linear_equivalence witness does not map the conjugate back to f")
        return Answer(True)

    return Query(kind, f"{label}: f = {ex.render(f_cs)}, lam = {lam}", run, check)


def _decompositions_block(rng) -> list[Query]:
    out = []
    for dg, dh in COMPOSITE_DEGREES:
        f = ex.compose(_dense(rng, dg), _dense(rng, dh))
        out.append(_decomposition_query("composite", f"g o h, degrees {dg}x{dh}", f, _affine(rng),
                                        right_degree=dh))
    for n in PRIME_DEGREES:
        out.append(_decomposition_query("prime", f"random degree {n}", _dense(rng, n), _affine(rng),
                                        degrees=[1, n]))
    for n in POWER_DEGREES:
        f = ex.conjugate(ex.monomial(n), *_affine(rng))
        out.append(_decomposition_query("special", f"conjugate of z^{n}", f, _affine(rng),
                                        special=("PowerConjugate", n), degrees=_divisors(n),
                                        aut_order=n - 1))
    for n in CHEBYSHEV_DEGREES:
        f = ex.conjugate(ex.chebyshev(n), *_affine(rng))
        out.append(_decomposition_query("special", f"conjugate of T_{n}", f, _affine(rng),
                                        special=("ChebyshevConjugate", n), degrees=_divisors(n)))
    for r, ell, du in SYMMETRIC_SHAPES:
        u = _dense(rng, du)
        p = [Fraction(0)] * (r + ell * du + 1)
        for j, c in enumerate(u):
            p[r + ell * j] = c
        f = ex.conjugate(p, *_affine(rng))
        out.append(_decomposition_query("symmetric", f"z^{r} u(z^{ell}), deg u {du}", f, _affine(rng),
                                        aut_order=gcd(r - 1, ell), g_order=ell))
    return out


# ---------------------------------------------------------------------------
# cli: io_cli.main(argv) in-process, answers read back from the JSON
# ---------------------------------------------------------------------------

_LEAD = re.compile(r"-?(?:\d+(?:/\d+)?\*)?z(?:\^(\d+))?")


def text_degree(text: str) -> int:
    """Degree of a polynomial as the CLI renders it (highest term first)."""
    m = _LEAD.match(text)
    if m is None:
        return -1 if text == "0" else 0
    return int(m.group(1) or 1)


def _cli_run(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = io_cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_query(kind, command, argv, fields=None, sides=0, decided=None) -> Query:
    """A request expected to succeed; fields(result) returns a mismatch
    message or ''.  decided(result) counts Yes/No verdict sides."""

    def check(outcome) -> Answer:
        code, out, err = outcome
        nbytes = len(out.encode())
        if code != 0:
            return _fail(f"exit {code}: {err.strip()[:200]}", sides=sides, stdout_bytes=nbytes)
        doc = json.loads(out)
        n_decided = decided(doc["result"]) if decided else 0
        counts = {"decided": n_decided, "sides": sides, "stdout_bytes": nbytes}
        if doc.get("schema") != SCHEMA_TAG or doc.get("command") != command:
            return _fail(f"schema {doc.get('schema')!r} command {doc.get('command')!r}", **counts)
        why = fields(doc["result"]) if fields else ""
        return _fail(why, **counts) if why else Answer(True, **counts)

    return Query(kind, " ".join(argv), _cli_run(argv), check)


def _cli_error(label, argv) -> Query:
    """A malformed request: exit code 1, nothing on stdout, one error: line."""

    def check(outcome) -> Answer:
        code, out, err = outcome
        if code != 1 or out or not err.startswith("error:") or err.count("\n") != 1:
            return _fail(f"malformed request gave exit {code}, stdout {out[:80]!r}, stderr {err[:80]!r}")
        return Answer(True)

    return Query("malformed", f"{label}: {' '.join(argv)}", _cli_run(argv), check)


def _expect(actual, known, what):
    return "" if actual == known else f"{what} {actual!r}, known {known!r}"


def _nonspecial_quadratic(rng) -> list[Fraction]:
    """alpha z^2 + beta z + gamma is conjugate to z^2 + c with
    c = alpha gamma + beta/2 - beta^2/4; it is special iff c in {0, -2}."""
    while True:
        alpha, beta, gamma = _rat(rng), _rat(rng, nums=(0, 1, 2)), _rat(rng, nums=(0, 1, 2, 3))
        if alpha * gamma + beta / 2 - beta**2 / 4 not in (0, -2):
            return [gamma, beta, alpha]


def _product_text(rng, degree) -> str:
    """A degree-`degree` polynomial written as a product of powers."""
    parts, left = [], degree
    while left:
        e = rng.randint(1, min(left, 3))
        left -= e
        factor = f"({ex.render(_dense(rng, 1))})"
        parts.append(factor if e == 1 else f"{factor}^{e}")
    return f"{ex.rational_text(rng.randint(1, 5))}/{rng.randint(1, 4)}*" + "*".join(parts)


def _comp_text(outer, inner_text) -> str:
    return ex.render(outer, var=f"({inner_text})")


def _cli_block(rng) -> list[Query]:
    q = []
    # compose: two small requests and one output-heavy one
    for dp, dq in ((2, 3), (3, 2), (6, 8)):
        argv = ["compose", "--", _product_text(rng, dp), ex.render(_dense(rng, dq))]
        q.append(_cli_query("compose", "compose", argv,
                            lambda res, n=dp * dq: _expect(res["degree"], n, "degree")))
    # iterate: small requests and one to degree 2^8 = 256
    for n, k in ((2, 3), (3, 2), (2, 8)):
        if k == 8:  # z^2 + c with a small integer c keeps the cost steady
            p = [rng.choice((1, 2, 3, -1, -3)), 0, 1]
        elif n == 2:
            p = _nonspecial_quadratic(rng)
        else:
            p = _dense(rng, n)
        q.append(_cli_query("iterate", "iterate", ["iterate", "--", ex.render(p), str(k)],
                            lambda res, d=n**k: _expect(res["degree"], d, "degree")))
    # decompose g o h, written as text: right factor of degree deg h
    for dg, dh in ((2, 3), (3, 2)):
        argv = ["decompose", "--", _comp_text(_dense(rng, dg), ex.render(_dense(rng, dh))), str(dh)]
        q.append(_cli_query("decompose", "decompose", argv, lambda res, m=dh: _expect(
            (res["found"], text_degree(res["right"])), (True, m), "found/right degree")))
    argv = ["decompose", "--", _comp_text(_dense(rng, 2), ex.render(_dense(rng, 4)))]
    q.append(_cli_query("decompose", "decompose", argv, lambda res: _expect(
        4 in [d["m"] for d in res["decompositions"]], True, "right factor of degree 4 listed")))
    # special: conjugates of z^n and T_n
    for model, name in ((ex.monomial, "PowerConjugate"), (ex.chebyshev, "ChebyshevConjugate")):
        n = rng.choice((3, 4, 5, 6))
        argv = ["special", "--", ex.render(ex.conjugate(model(n), *_affine(rng)))]
        q.append(_cli_query("special", "special", argv, lambda res, n=n, name=name: _expect(
            (res["type"], res["n"]), (name, n), "special kind")))
    # aut / gsym: z^r u(z^l) conjugated; Aut order gcd(r-1, l), G order l, twist r mod l
    text, r, ell = _symmetric_text(rng, conjugated=True)
    q.append(_cli_query("symmetry", "aut", ["aut", "--", text],
                        lambda res, k=gcd(r - 1, ell): _expect(res["order"], k, "Aut order")))
    q.append(_cli_query("symmetry", "gsym", ["gsym", "--", text], lambda res, ell=ell, t=r % ell: _expect(
        (res["order"], res["twist"]), (ell, t), "G order/twist")))
    # chebyshev: a small and an output-heavy request; T_n has degree n and lc 2^(n-1)
    for n in (rng.randint(5, 15), rng.randint(55, 65)):
        q.append(_cli_query("chebyshev", "chebyshev", ["chebyshev", str(n)], lambda res, n=n: _expect(
            (res["degree"], res["poly"].split("*")[0]), (n, str(2 ** (n - 1))), "degree/lc")))
    # searches: P vs P o P share an iterate (k = 2l); quadratic vs cubic fail on degrees
    p = _nonspecial_quadratic(rng)
    q.append(_cli_query("search", "common-iterate", ["common-iterate", "--", ex.render(p), _comp_text(p, ex.render(p))],
                        _joined, sides=1, decided=_outcome_decided))
    argv = ["common-iterate", "--", ex.render(_nonspecial_quadratic(rng)), ex.render(_dense(rng, 3))]
    q.append(_cli_query("search", "common-iterate", argv,
                        lambda res: _expect(res["outcome"]["status"], NO, "status"),
                        sides=1, decided=_outcome_decided))
    quartic = ex.add(Z4, ex.scale(Z2, _rat(rng)))
    argv = ["twisted", "--", ex.render(ex.scale(quartic, -1)), ex.render(quartic)]
    q.append(_cli_query("search", "twisted", argv, lambda res: _expect(res["outcome"]["status"], YES, "status"),
                        sides=1, decided=_outcome_decided))
    # classify: sign obstruction with twisted relation; degree obstruction on both sides
    quartic = ex.add(Z4, ex.scale(Z2, _rat(rng)))
    for gens, known in (([ex.scale(quartic, -1), quartic], (NO, YES)),
                        ([_nonspecial_quadratic(rng), _dense(rng, 3)], (NO, NO))):
        argv = ["classify", "--tmax", str(rng.randint(3, 6)), "--", *map(ex.render, gens)]
        q.append(_cli_query("search", "classify", argv, lambda res, known=known: _sides_match(res, known),
                            sides=2, decided=_classify_decided))
    # semidirect and folner on a centered z^r u(z^l); d divides l
    text, r, ell = _symmetric_text(rng, conjugated=False)
    d = rng.choice([k for k in _divisors(ell) if k > 1])
    (j1, s1), (j2, s2) = [(rng.randrange(d), rng.randint(0, 5)) for _ in range(2)]
    argv = ["semidirect", "--d", str(d), "--op", "mul", "--x", f"{j1},{s1}", "--y", f"{j2},{s2}", "--", text]
    product = {"type": "SemidirectElement", "j": (j1 + pow(r % ell, s1, d) * j2) % d, "s": s1 + s2}
    q.append(_cli_query("semidirect", "semidirect", argv,
                        lambda res, want=product: _expect(res["product"], want, "product")))
    argv = ["semidirect", "--d", str(d), "--op", "left-amenable", "--", text]
    q.append(_cli_query("semidirect", "semidirect", argv, lambda res, want=gcd(r, d) == 1: _expect(
        res["left_amenable"], want, "left amenable")))
    s = rng.randint(1, 2)
    argv = ["semidirect", "--d", "2", "--op", "realize", "--x", f"1,{s}", "--", text]
    q.append(_cli_query("semidirect", "semidirect", argv,
                        lambda res, deg=(r + ell) ** s: _expect(text_degree(res["poly"]), deg, "degree")))
    for _ in range(2):  # windows of about 4000 elements
        n, s = rng.randint(1950, 2050), rng.randint(0, 2500)
        argv = ["folner", "--d", "2", "--x", f"{rng.randrange(2)},{s}", "--n", str(n), "--", text]
        ratio = Fraction(min(s, n + 1), n + 1)
        q.append(_cli_query("folner", "folner", argv, lambda res, ratio=ratio, size=2 * (n + 1): _expect(
            (res["ratio"], res["window_size"]), (f"{ratio.numerator}/{ratio.denominator}", size), "ratio/size")))
    # ritt1: a o c == b o d with a = u o T_m, c = T_n o v, b = u o T_n, d = T_m o v
    m, n = rng.choice(((2, 3), (3, 2)))
    u, v = _dense(rng, 2), _dense(rng, 2)
    tm, tn = ex.render(ex.chebyshev(m)), ex.render(ex.chebyshev(n))
    vt = ex.render(v)
    argv = ["ritt1", "--", _comp_text(u, tm), _comp_text(ex.chebyshev(n), vt),
            _comp_text(u, tn), _comp_text(ex.chebyshev(m), vt)]
    q.append(_cli_query("ritt", "ritt1", argv, lambda res: _expect(
        (text_degree(res["u"]), text_degree(res["v"])), (2, 2), "deg u/deg v")))
    # ritt2-verify: composite degrees n (s + n deg r) and m n
    s, n = rng.choice(((1, 2), (1, 3), (2, 3), (3, 2)))
    rpoly = _dense(rng, rng.randint(1, 2))
    argv = ["ritt2-verify", "power", f"--r={ex.render(rpoly)}", "--s", str(s), "--n", str(n)]
    q.append(_cli_query("ritt", "ritt2-verify", argv, lambda res, deg=n * (s + n * (len(rpoly) - 1)): _expect(
        (res["verified"], text_degree(res["composite"])), (True, deg), "verified/degree")))
    m, n = rng.choice(((2, 3), (3, 4), (4, 5), (5, 6)))
    argv = ["ritt2-verify", "chebyshev", "--m", str(m), "--n", str(n)]
    q.append(_cli_query("ritt", "ritt2-verify", argv, lambda res, deg=m * n: _expect(
        (res["verified"], text_degree(res["composite"])), (True, deg), "verified/degree")))
    # malformed requests: exit 1 with one error: line
    for _ in range(4):
        q.append(_cli_error(*rng.choice(MALFORMED)))
    return q


SYMMETRIC_TEXT_SHAPES = ((1, 2), (3, 2), (2, 4), (1, 4), (3, 4), (1, 6), (2, 6))  # (r, l)


def _symmetric_text(rng, conjugated):
    """z^r u(z^l) with u(0) != 0 as text; conjugated by a random affine map
    when asked (Aut and G orders are conjugation invariants).  l is even,
    so the order-2 rotation subgroup exists and realizes over Q."""
    r, ell = rng.choice(SYMMETRIC_TEXT_SHAPES)
    u = _dense(rng, 1)
    p = [Fraction(0)] * (r + ell + 1)
    p[r], p[r + ell] = u
    if conjugated:
        p = ex.conjugate(p, *_affine(rng))
    return ex.render(p), r, ell


def _joined(res) -> str:
    outcome = res["outcome"]
    if outcome["status"] != YES:
        return f"status {outcome['status']}, known Yes"
    cert = outcome["certificate"]
    return _expect(cert["k"], 2 * cert["l"], "k")


def _outcome_decided(res) -> int:
    return int(res["outcome"]["status"] in (YES, NO))


def _classify_decided(res) -> int:
    verdict = res["verdict"]
    return sum(verdict[side]["status"] in (YES, NO) for side in ("left_amenable", "right_amenable"))


def _sides_match(res, known) -> str:
    verdict = res["verdict"]
    for side, want in zip(("left_amenable", "right_amenable"), known):
        got = verdict[side]["status"]
        if got != UNKNOWN and got != want:
            return f"{side} is {got}, known {want}"
    return ""


# Requests whose correct answer is exit code 1 with one "error:" line.
MALFORMED = [
    ("unknown variable", ["special", "--", "z^2 + y"]),
    ("unbalanced parenthesis", ["compose", "--", "(z + 1", "z^2"]),
    ("zero denominator", ["iterate", "--", "1/0*z^2 + z", "2"]),
    ("right degree not a divisor", ["decompose", "--", "z^6 + z", "4"]),
    ("generator of degree 1", ["classify", "--", "z + 1", "z^2"]),
    ("subgroup order not dividing", ["folner", "--d", "3", "--x", "0,1", "--n", "5", "--", "z^4 + z^2"]),
    ("gcd(s, n) != 1", ["ritt2-verify", "power", "--r=z + 1", "--s", "2", "--n", "4"]),
    ("not an identity", ["ritt1", "--", "z^2", "z^3 + z", "z^3", "z^2 + 1"]),
]


_BUILDERS = {
    "verdicts": (_verdicts_block, 6),
    "decompositions": (_decompositions_block, 8),
    "cli": (_cli_block, 16),
}
