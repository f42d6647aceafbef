"""Polynomial expression parsing, JSON reports, and the command line tool.

Every subcommand prints exactly one JSON document on stdout and exits 0
whenever a result was computed (including No and Unknown verdicts); domain
and syntax errors go to stderr with exit code 1, usage errors exit 2.

The subcommands live in one table, COMMANDS: each row holds the help text,
the argument specs and the function that computes the result.  The report's
"input" echoes the parsed arguments in declaration order; `decompose` echoes
`m` only when it is given, and `classify` leaves its bound flags out (the
bounds in force appear in its result).
"""

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

from . import decompose as dec
from . import forms, semigroup, symmetry
from .errors import BadParams, ParseError, RittLabError
from .polynomials import AffineMap, Poly, Z, compose, iterate

SCHEMA_TAG = "ritt-lab/1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "command", "input", "result"],
    "properties": {
        "schema": {"const": SCHEMA_TAG},
        "command": {"type": "string"},
        "input": {"type": "object"},
        "result": {},
    },
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace allowed between tokens, '/' only inside
# rational literals, '-' both unary and binary):
#
#   expr     := ('+' | '-')? term (('+' | '-') term)*
#   term     := factor ('*' factor)*
#   factor   := base ('^' uint)?
#   base     := rational | 'z' | '(' expr ')'
#   rational := uint ('/' positive-uint)?
# ---------------------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            num = int(text[start:i])
            if i < n and text[i] == "/" and i + 1 < n and text[i + 1].isdigit():
                i += 1
                dstart = i
                while i < n and text[i].isdigit():
                    i += 1
                den = int(text[dstart:i])
                if den == 0:
                    raise ParseError("zero denominator", dstart)
                out.append(("num", Fraction(num, den), start))
            else:
                out.append(("num", Fraction(num), start))
            continue
        if ch == "z":
            out.append(("z", None, i))
            i += 1
            continue
        if ch in "+-*^()":
            out.append((ch, None, i))
            i += 1
            continue
        if ch.isalpha():
            raise ParseError(f"only the variable 'z' is allowed, got {ch!r}", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", None, n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Poly:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        node = self.term() * sign
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Poly:
        node = self.factor()
        while self.peek()[0] == "*":
            self.take()
            node = node * self.factor()
        return node

    def factor(self) -> Poly:
        node = self.base()
        if self.peek()[0] == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind != "num" or not isinstance(val, Fraction) or val.denominator != 1:
                raise ParseError("expected a nonnegative integer exponent", pos)
            self.take()
            node = node ** int(val)
        return node

    def base(self) -> Poly:
        kind, val, pos = self.peek()
        if kind == "num":
            self.take()
            return Poly((val,))
        if kind == "z":
            self.take()
            return Z
        if kind == "(":
            self.take()
            node = self.expr()
            kind2, _, pos2 = self.peek()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            self.take()
            return node
        raise ParseError("expected a polynomial term", pos)


def parse_poly(text: str) -> Poly:
    """Parse the grammar above into a Poly; raises ParseError with the
    offending character offset."""
    p = _Parser(text)
    node = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return node


def render_poly(p: Poly) -> str:
    """Canonical text form; parse_poly(render_poly(p)) == p."""
    return str(p)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, Poly):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, AffineMap):
        return {"a": _jsonable(obj.a), "b": _jsonable(obj.b)}
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in fields(obj):
            out[f.name] = _jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report(command: str, inputs: dict, result) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "command": command,
        "input": _jsonable(inputs),
        "result": _jsonable(result),
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def bounds_from_env(environ=None) -> semigroup.SearchBounds:
    """Default search bounds, overridable via RITT_LAB_BOUNDS="t,l,w"."""
    raw = (environ if environ is not None else os.environ).get("RITT_LAB_BOUNDS")
    if not raw:
        return semigroup.SearchBounds()
    parts = raw.split(",")
    if len(parts) != 3:
        raise BadParams("RITT_LAB_BOUNDS must be 'tmax,lmax,wordmax'")
    try:
        t, l, w = (int(x) for x in parts)
    except ValueError as exc:
        raise BadParams("RITT_LAB_BOUNDS must hold three integers") from exc
    return semigroup.SearchBounds(tmax=t, lmax=l, wordmax=w)


def _parse_element(text: str) -> semigroup.SemidirectElement:
    parts = text.split(",")
    if len(parts) != 2:
        raise BadParams(f"element must look like 'j,s', got {text!r}")
    try:
        j, s = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise BadParams(f"element must hold two integers, got {text!r}") from exc
    return semigroup.SemidirectElement(j=j, s=s)


def _arg(*flags, echo="always", **kw):
    """One add_argument call.  echo says when the parsed value goes into the
    report's input: "always", "given" (unless None) or "never"."""
    return flags, kw, echo


def _poly_result(p: Poly) -> dict:
    return {"poly": p, "degree": p.degree}


def _decompose(args):
    p = parse_poly(args.p)
    if args.m is None:
        return {"decompositions": [{"m": d.right.degree, "left": d.left, "right": d.right}
                                   for d in dec.all_decompositions(p)]}
    d = dec.right_factor(p, args.m)
    if d is None:
        return {"m": args.m, "found": False}
    return {"m": args.m, "found": True, "left": d.left, "right": d.right}


def _search(find, args):
    a, b = parse_poly(args.a), parse_poly(args.b)
    bounds = bounds_from_env()
    return {"outcome": find(a, b, bounds), "bounds": bounds}


def _classify(args):
    gens = [parse_poly(t) for t in args.polys]
    given = {k: v for k in ("tmax", "lmax", "wordmax") if (v := getattr(args, k)) is not None}
    bounds = replace(bounds_from_env(), **given)
    return {"verdict": semigroup.classify(gens, bounds), "bounds": bounds}


def _semidirect(args):
    ctx = semigroup.semidirect_context(parse_poly(args.r), args.d)
    out = {"context": {"d": ctx.d, "twist": ctx.twist, "ell": ctx.ell}}
    if args.op == "mul":
        if args.x is None or args.y is None:
            raise BadParams("mul needs --x and --y")
        out["product"] = semigroup.semidirect_mul(ctx, _parse_element(args.x), _parse_element(args.y))
    elif args.op == "realize":
        if args.x is None:
            raise BadParams("realize needs --x")
        out["poly"] = semigroup.semidirect_realize(ctx, _parse_element(args.x))
    else:
        out["left_amenable"] = semigroup.sgr_left_amenable(ctx)
    return out


def _folner(args):
    ctx = semigroup.semidirect_context(parse_poly(args.r), args.d)
    ratio = semigroup.folner_ratio(ctx, _parse_element(args.x), args.n)
    return {"ratio": ratio, "window_size": ctx.d * (args.n + 1)}


def _ritt2(args):
    if args.kind == "power":
        if args.r is None or args.s is None or args.n is None:
            raise BadParams("power kind needs --r, --s, --n")
        a, c, b, d = dec.ritt_second_family("power", r=parse_poly(args.r), s=args.s, n=args.n)
    else:
        if args.m is None or args.n is None:
            raise BadParams("chebyshev kind needs --m, --n")
        a, c, b, d = dec.ritt_second_family("chebyshev", m=args.m, n=args.n)
    return {"a": a, "c": c, "b": b, "d": d, "composite": compose(a, c), "verified": True}


# Every subcommand: its help, its arguments, and the function from the parsed
# arguments to the report's result.  Library functions are looked up when a
# command runs, not when the table is built, so wrapping a module attribute
# (as a tracer does) reaches the CLI too.
COMMANDS = {
    "compose": ("p o q", [_arg("p"), _arg("q")],
                lambda args: _poly_result(compose(parse_poly(args.p), parse_poly(args.q)))),
    "iterate": ("k-fold self-composition", [_arg("p"), _arg("k", type=int)],
                lambda args: _poly_result(iterate(parse_poly(args.p), args.k))),
    "decompose": ("functional decompositions of p",
                  [_arg("p"), _arg("m", type=int, nargs="?", echo="given",
                                   help="right factor degree (default: all divisors)")],
                  _decompose),
    "special": ("conjugate of z^n or +-T_n?", [_arg("p")],
                lambda args: forms.is_special(parse_poly(args.p))),
    "aut": ("commuting affine symmetries", [_arg("p")],
            lambda args: symmetry.aut_group(parse_poly(args.p))),
    "gsym": ("affine symmetries with companions", [_arg("p")],
             lambda args: symmetry.g_group(parse_poly(args.p))),
    "chebyshev": ("Chebyshev polynomial T_n", [_arg("n", type=int)],
                  lambda args: _poly_result(forms.chebyshev(args.n))),
    "common-iterate": ("search a^k == b^l", [_arg("a"), _arg("b")],
                       lambda args: _search(semigroup.common_iterate, args)),
    "twisted": ("search the power-twisted relations", [_arg("a"), _arg("b")],
                lambda args: _search(semigroup.twisted_pair, args)),
    "classify": ("amenability verdict with certificates",
                 [_arg("polys", nargs="+"), _arg("--tmax", type=int, echo="never"),
                  _arg("--lmax", type=int, echo="never"), _arg("--wordmax", type=int, echo="never")],
                 _classify),
    "semidirect": ("rotation-subgroup semigroup arithmetic",
                   [_arg("r"), _arg("--d", type=int, required=True),
                    _arg("--op", choices=["mul", "realize", "left-amenable"], required=True),
                    _arg("--x", help="element 'j,s'"), _arg("--y", help="element 'j,s'")],
                   _semidirect),
    "folner": ("exact window invariance defect",
               [_arg("r"), _arg("--d", type=int, required=True),
                _arg("--x", required=True, help="element 'j,s'"), _arg("--n", type=int, required=True)],
               _folner),
    "ritt1": ("common refinement of a o c == b o d", [_arg("a"), _arg("c"), _arg("b"), _arg("d")],
              lambda args: dec.ritt_first(*(parse_poly(t) for t in (args.a, args.c, args.b, args.d)))),
    "ritt2-verify": ("build and verify a classical identity",
                     [_arg("kind", choices=["power", "chebyshev"]),
                      _arg("--r", help="inner polynomial (power kind)"), _arg("--s", type=int),
                      _arg("--n", type=int), _arg("--m", type=int)],
                     _ritt2),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ritt-lab",
        description="Exact composition dynamics of rational-coefficient polynomials",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, specs, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kw, _ in specs:
            p.add_argument(*flags, **kw)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, specs, run = COMMANDS[args.command]
    inputs = {}
    for flags, _, echo in specs:
        name = flags[0].lstrip("-")
        value = getattr(args, name)
        if echo == "always" or (echo == "given" and value is not None):
            inputs[name] = value
    try:
        result = run(args)
    except RittLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.command, inputs, result), indent=2))
    return 0
