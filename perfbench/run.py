"""ritt-lab benchmark: one closed-loop caller, three workloads.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
src/.  The caller issues each query only after the previous one returned,
in one process and one thread.  Queries come in blocks with a fixed mix
(see corpus.py) and a run stops at the first block boundary after
--seconds at which it holds MIN_SAMPLES queries, so every run measures the
same mix.  Timings are scaled to a reference speed (see calibrate).  Every
answer is checked; a query that raises, runs past the per-query limit,
contradicts a known answer or carries a certificate that
verify_certificate rejects counts as failed.

With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics from spans (spans.py): half the time is measured
untraced and half traced, which gives trace.overhead_ratio, and the spans
are written to perfbench/out/.  The lines above the last one print every
metric by name with its unit, and the run's context.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import exact  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

QUERY_LIMIT_S = 20.0    # a query running longer fails, and the run goes on
CAL_EVERY_S = 0.05      # time between calibrations
CAL_REF_S = 0.005       # calibration time that defines the reference speed
OVERRUN_S = 30.0        # stop mid-block this long after --seconds
SETUP_RUNS = 5          # set-ups per run (this process plus fresh ones)
PROBE_LIMIT_S = 20.0    # one fresh set-up; keeps a whole run under 180 s
MIN_SAMPLES = 100
CAL_POLY = [Fraction((7 * k) % 19 - 9, k % 8 + 1) for k in range(24)]
CAL_ODD = 999983 * 1000003
CAL_BIG = 3**40000


class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler swallows it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verdicts", "decompositions", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the corpus, print setup_s and exit")
    return ap.parse_args(argv)


def calibrate() -> float:
    """Time of a fixed kernel, with the garbage collector off.

    The kernel does the three kinds of work the library does, in about
    equal parts: rational arithmetic (exact.mul on 24 rationals), a small-
    integer loop like trial division, and big-integer products.  It is the
    benchmark's own code, so a change to the library never moves it.

    The host's speed drifts: on a shared 2-CPU machine a fixed kernel took
    1.9 ms or 3.5 ms from one run to the next, and one whole run of the
    verdicts loop came out 40% slower than another on the same inputs.
    Scaling each query by CAL_REF_S over the calibration time around it
    turns its latency into time at a fixed reference speed.  Repeating
    one query for 90 s, the spread of its latency (standard deviation over
    mean) fell from 15-26% raw to 9-16% scaled; the rational part alone
    gave 9-17%.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        exact.mul(CAL_POLY, CAL_POLY)
        k = 3
        while k < 40000:
            if CAL_ODD % k == 0:
                break
            k += 2
        for _ in range(2):
            CAL_BIG * CAL_BIG
        return time.perf_counter() - start
    finally:
        gc.enable()


class Tally:
    """Latencies and outcomes of the queries of one measured stretch.

    raw holds wall-clock latencies; latencies holds them scaled to the
    reference speed (see calibrate), which every timing metric uses.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.kind_seconds: dict[str, float] = {}
        self.failed = 0
        self.failures: list[str] = []
        self.decided = 0
        self.sides = 0
        self.stdout_bytes = 0
        self.blocks = 0

    def queries_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_one(query, tally, tracer, query_id):
    """Time one query under the per-query limit, then check its answer."""
    why = ""
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    start = time.perf_counter()
    try:
        result = tracer.run_query(query_id, query.run) if tracer else query.run()
    except QueryTimeout:
        why = f"over the {QUERY_LIMIT_S:g} s limit"
    except Exception as exc:  # any raise is a failed query; the run goes on
        why = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    tally.raw.append(elapsed)
    if not why:
        try:
            answer = query.check(result)
        except Exception as exc:  # a malformed answer is a wrong answer
            why = f"check raised {type(exc).__name__}: {exc}"
        else:
            tally.decided += answer.decided
            tally.sides += answer.sides
            tally.stdout_bytes += answer.stdout_bytes
            why = "" if answer.ok else answer.why
    if why:
        tally.failed += 1
        if len(tally.failures) < 10:
            tally.failures.append(f"{query.kind} [{query.label[:120]}]: {why}")


def measure(blocks, seconds, tracer=None, min_samples=MIN_SAMPLES) -> Tally:
    """Run whole blocks, cycling through the corpus, until `seconds` have
    passed and `min_samples` queries have run; stop mid-block only OVERRUN_S
    after `seconds`.  A calibration runs at least every CAL_EVERY_S between
    queries, and each query is scaled by the mean of the calibrations just
    before and just after it."""
    tally = Tally()
    pending: list = []

    def rescale():
        nonlocal last_cal, last_cal_at
        cal = calibrate()
        around = (last_cal + cal) / 2
        for query in pending:
            scaled = tally.raw[len(tally.latencies)] * CAL_REF_S / around
            tally.latencies.append(scaled)
            tally.calibrations.append(around)
            tally.kind_seconds[query.kind] = tally.kind_seconds.get(query.kind, 0.0) + scaled
        pending.clear()
        last_cal, last_cal_at = cal, time.perf_counter()

    last_cal, last_cal_at = calibrate(), time.perf_counter()
    start = last_cal_at
    hard_stop = start + seconds + OVERRUN_S
    query_id = 0
    while time.perf_counter() - start < seconds or len(tally.raw) < min_samples:
        block = blocks[tally.blocks % len(blocks)]
        for query in block:
            run_one(query, tally, tracer, query_id)
            pending.append(query)
            query_id += 1
            if time.perf_counter() - last_cal_at >= CAL_EVERY_S:
                rescale()
            if time.perf_counter() > hard_stop:
                break
        else:
            tally.blocks += 1
            continue
        break
    if pending:
        rescale()
    return tally


def quantile(values, q):
    """statistics.quantiles cut point for q in (0, 1), inclusive method."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def setup_probe(workload, seed) -> dict:
    """Set-up times of a fresh process, raw and scaled."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_LIMIT_S, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metric(value, unit):
    return {"value": value, "unit": unit}


END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
                    "query_p90_ms": "ms", "peak_rss_mb": "MB"}


def end_to_end(tally, setups) -> dict:
    lat_ms = [x * 1000 for x in tally.latencies]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "queries_per_s": tally.queries_per_s(),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": quantile(lat_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def context(args, tallies) -> dict:
    n = sum(len(t.latencies) for t in tallies)
    main = tallies[0]
    total = sum(main.kind_seconds.values())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "query_limit_s": QUERY_LIMIT_S,
        "blocks": [t.blocks for t in tallies],
        "samples": n,
        "samples_beyond_p90": sum(1 for x in main.latencies if x > quantile(main.latencies, 0.9)),
        "kind_time_share": {k: round(v / total, 4) for k, v in sorted(main.kind_seconds.items())},
        "failed_ratio": sum(t.failed for t in tallies) / n,
        "decided_ratio": (sum(t.decided for t in tallies) / sum(t.sides for t in tallies)
                          if any(t.sides for t in tallies) else None),
        "failures": [f for t in tallies for f in t.failures],
        "raw_queries_per_s": len(main.raw) / sum(main.raw),
        "raw_query_p50_ms": statistics.median(main.raw) * 1000,
        "raw_query_p90_ms": quantile(main.raw, 0.9) * 1000,
        "calibration_s": {"min": min(main.calibrations), "median": statistics.median(main.calibrations),
                          "max": max(main.calibrations), "reference": CAL_REF_S},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ritt_lab" / "__init__.py").is_file():
        print(f"error: ritt_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus  # imports ritt_lab from SRC

    if Path(corpus.rl.__file__).resolve().parent != SRC / "ritt_lab":
        print(f"error: ritt_lab imported from {corpus.rl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    blocks = corpus.build(args.workload, args.seed)
    raw_setup = time.perf_counter() - T0
    setup = {"setup_s": raw_setup * CAL_REF_S / calibrate(), "raw_setup_s": raw_setup}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        import spans

        # only qps is read from these halves, so they need no minimum count
        plain = measure(blocks, args.seconds / 2, min_samples=0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(blocks, args.seconds / 2, tracer, min_samples=0)
        finally:
            tracer.uninstall()
        tallies = [traced, plain]
        values = tracer.summary()
        values["io_cli.stdout_bytes"] = traced.stdout_bytes
        values["trace.overhead_ratio"] = traced.queries_per_s() / plain.queries_per_s()
        metrics = {name: metric(values[name], unit) for name, unit in spans.layer_metrics().items()}
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        count = tracer.write(span_file)
        info = context(args, tallies)
        info.update(spans_written=count, span_file=str(span_file.relative_to(ROOT)),
                    self_s_total=sum(tracer.self_times()), traced_query_s=sum(traced.raw))
    else:
        tally = measure(blocks, args.seconds)
        tallies = [tally]
        setups = [setup] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
        metrics = end_to_end(tally, setups)
        info = context(args, tallies)
        info["setup_runs"] = setups

    for name, m in metrics.items():
        print(f"{args.workload:>14}  {name:<44} {m['value']:.6g} {m['unit']}")
    if info["decided_ratio"] is not None:
        print(f"{args.workload:>14}  {'decided_ratio':<44} {info['decided_ratio']:.6g} ratio")
    print(f"{args.workload:>14}  {'failed_ratio':<44} {info['failed_ratio']:.6g} ratio")
    if info["samples"] < MIN_SAMPLES:
        print(f"warning: {info['samples']} samples, fewer than {MIN_SAMPLES}", file=sys.stderr)
    for line in info["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(info))
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
