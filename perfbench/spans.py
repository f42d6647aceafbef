"""Spans recorded from the benchmark's side around ritt_lab's public calls.

`Tracer.install` wraps each listed function everywhere it is bound in the
ritt_lab modules (so `semigroup.compose` is wrapped along with
`polynomials.compose`) and the `Poly` operators: `*` between two
polynomials, `**`, `divmod` and a call at a rational point.  A call with a
`Poly` argument is a composition and is already covered by `compose`.
Nothing under src/ changes; `uninstall` puts every original back.

A span holds its name, start, end, parent span and query id, all kept in
memory until `write`.  Self time is a span's duration minus the durations
of its direct children, so the self times of all spans add up to the
durations of the root spans.
"""

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

TARGETS = {
    "polynomials": ("compose", "iterate", "conjugate"),
    "forms": ("center", "is_special", "linear_equivalence", "chebyshev"),
    "decompose": ("right_factor", "all_decompositions", "ritt_first"),
    "symmetry": ("aut_group", "g_group"),
    "semigroup": ("classify", "verify_certificate", "common_iterate", "twisted_pair",
                  "commutes_with_iterate", "folner_ratio"),
    "io_cli": ("main", "build_parser", "parse_poly", "report"),
}
POLY_OPERATORS = {"__mul__": "mul", "__pow__": "pow", "__divmod__": "divmod", "__call__": "eval_point"}
SEARCHES = ("semigroup.common_iterate", "semigroup.twisted_pair", "semigroup.commutes_with_iterate")
ROOT = "bench.query"

COUNT, SECONDS = "count", "s"


def layer_metrics() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    out = {}
    names = [f"polynomials.{op}" for op in POLY_OPERATORS.values()]
    names += [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
    for name in names:
        out[f"{name}.calls"] = COUNT
        out[f"{name}.self_s"] = SECONDS
    out.update({
        "polynomials.eval_point.max_value_bits": "bits",
        "polynomials.compose.max_out_degree": "degree",
        "polynomials.compose.max_coeff_bits": "bits",
        "polynomials.iterate.max_out_degree": "degree",
        "decompose.right_factor.found_ratio": "ratio",
        "semigroup.verify_certificate.rejected": COUNT,
        "semigroup.common_iterate.unknown": COUNT,
        "semigroup.twisted_pair.unknown": COUNT,
        "semigroup.search.prefilter_evals": COUNT,
        "semigroup.search.exact_composes": COUNT,
        "io_cli.main.failed": COUNT,
        "io_cli.parse_poly.bytes_in": "bytes",
        "io_cli.stdout_bytes": "bytes",
        "trace.overhead_ratio": "ratio",
    })
    return out


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _max_degree(key):
    def observe(counters, args, out):
        counters[key] = max(counters[key], out.degree)
    return observe


def _observe_compose(counters, args, out):
    counters["polynomials.compose.max_out_degree"] = max(counters["polynomials.compose.max_out_degree"], out.degree)
    bits = max((_bits(c) for c in out.coeffs), default=0)
    counters["polynomials.compose.max_coeff_bits"] = max(counters["polynomials.compose.max_coeff_bits"], bits)


def _count_if(key, test):
    def observe(counters, args, out):
        counters[key] += bool(test(args, out))
    return observe


OBSERVERS = {
    "polynomials.compose": _observe_compose,
    "polynomials.iterate": _max_degree("polynomials.iterate.max_out_degree"),
    "decompose.right_factor": _count_if("decompose.right_factor.found", lambda a, out: out is not None),
    "semigroup.verify_certificate": _count_if("semigroup.verify_certificate.rejected", lambda a, out: out is False),
    "semigroup.common_iterate": _count_if("semigroup.common_iterate.unknown",
                                          lambda a, out: out.status == "Unknown"),
    "semigroup.twisted_pair": _count_if("semigroup.twisted_pair.unknown", lambda a, out: out.status == "Unknown"),
    "io_cli.main": _count_if("io_cli.main.failed", lambda a, out: out != 0),
    "io_cli.parse_poly": lambda counters, args, out: counters.__setitem__(
        "io_cli.parse_poly.bytes_in", counters["io_cli.parse_poly.bytes_in"] + len(args[0].encode())),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.query_id = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def run_query(self, query_id: int, fn):
        """fn() inside a root span, so glue code in the query has an owner."""
        self.query_id = query_id
        i = self.begin(self._id(ROOT))
        try:
            return fn()
        finally:
            self.finish(i)

    # -- wrapping ---------------------------------------------------------

    def _wrap_function(self, name, fn):
        nid, begin, finish = self._id(name), self.begin, self.finish
        observe, counters = OBSERVERS.get(name), self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if observe is not None:
                observe(counters, args, out)
            return out

        return traced

    def _wrap_operator(self, poly, op, fn):
        nid, begin, finish, counters = self._id(f"polynomials.{op}"), self.begin, self.finish, self.counters
        if op == "eval_point":
            def traced(p, x):
                if isinstance(x, poly):
                    return fn(p, x)
                i = begin(nid)
                try:
                    out = fn(p, x)
                finally:
                    finish(i)
                if hasattr(out, "denominator"):
                    key = "polynomials.eval_point.max_value_bits"
                    counters[key] = max(counters[key], _bits(out))
                return out
        elif op == "mul":
            def traced(p, other):
                if not isinstance(other, poly):
                    return fn(p, other)
                i = begin(nid)
                try:
                    return fn(p, other)
                finally:
                    finish(i)
        else:
            def traced(p, other):
                i = begin(nid)
                try:
                    return fn(p, other)
                finally:
                    finish(i)
        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "ritt_lab" or name.startswith("ritt_lab.")]
        for mod_name, fnames in TARGETS.items():
            module = importlib.import_module(f"ritt_lab.{mod_name}")
            for fname in fnames:
                orig = getattr(module, fname, None)
                if orig is None:
                    continue
                wrapped = self._wrap_function(f"{mod_name}.{fname}", orig)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is orig:
                            self._set(owner, attr, wrapped)
        poly = importlib.import_module("ritt_lab.polynomials").Poly
        for attr, op in POLY_OPERATORS.items():
            self._set(poly, attr, self._wrap_operator(poly, op, getattr(poly, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.name_id)
        own = [self.end[i] - self.start[i] for i in range(n)]
        out = list(own)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                out[p] -= own[i]
        return out

    def root_seconds(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.name_id)) if self.parent[i] < 0)

    def summary(self) -> dict[str, float]:
        """Every per-layer metric; the caller fills in io_cli.stdout_bytes
        and trace.overhead_ratio, which the spans do not hold."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        search_ids = {self._ids[n] for n in SEARCHES if n in self._ids}
        verify_ids = {self._ids[n] for n in ("semigroup.verify_certificate",) if n in self._ids}
        eval_id = self._ids.get("polynomials.eval_point")
        compose_ids = {self._ids[n] for n in ("polynomials.compose", "polynomials.iterate") if n in self._ids}
        # inherited flags: 1 = under a search span, 2 = under a search or verify span
        flags = bytearray(len(self.name_id))
        prefilter = exact = 0
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += selfs[i]
            p = self.parent[i]
            if p >= 0:
                pid = self.name_id[p]
                flags[i] = flags[p] | (3 if pid in search_ids else 2 if pid in verify_ids else 0)
            if nid == eval_id and flags[i] & 1:
                prefilter += 1
            elif nid in compose_ids and flags[i] & 2:
                exact += 1
        out: dict[str, float] = {}
        for metric in layer_metrics():
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(base, 0)
            elif stat == "self_s":
                out[metric] = self_s.get(base, 0.0)
            else:
                out[metric] = self.counters.get(metric, 0)
        rf_calls = calls.get("decompose.right_factor", 0)
        out["decompose.right_factor.found_ratio"] = (
            self.counters.get("decompose.right_factor.found", 0) / rf_calls if rf_calls else 0.0)
        out["semigroup.search.prefilter_evals"] = prefilter
        out["semigroup.search.exact_composes"] = exact
        return out

    def write(self, path) -> int:
        """Write every span as a tab-separated line; returns the count."""
        with open(path, "w") as fh:
            fh.write("query\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, nid in enumerate(self.name_id):
                fh.write(f"{self.query[i]}\t{i}\t{self.parent[i]}\t{self.names[nid]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
        return len(self.name_id)
