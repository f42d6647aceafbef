"""Tests of the benchmark itself: seeded corpora, the answer checkers, the
per-query limit and the span bookkeeping.  Run with

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _first(workload, kind, seed=11):
    return next(q for block in corpus.build(workload, seed) for q in block if q.kind == kind)


def test_same_seed_same_corpus():
    for workload in corpus.WORKLOADS:
        labels = [[q.label for q in block] for block in corpus.build(workload, 5)]
        again = [[q.label for q in block] for block in corpus.build(workload, 5)]
        other = [[q.label for q in block] for block in corpus.build(workload, 6)]
        assert labels == again
        assert labels != other


def test_blocks_hold_the_same_mix():
    for workload in corpus.WORKLOADS:
        mixes = {tuple(sorted(q.kind for q in block)) for block in corpus.build(workload, 5)}
        assert len(mixes) == 1, workload


def test_verdict_checker_flags_wrong_answers():
    query = _first("verdicts", "b_sign")  # known: left No, right Yes
    verdict, rechecks = query.run()
    assert query.check((verdict, rechecks)).ok
    flipped = dataclasses.replace(
        verdict, left_amenable=dataclasses.replace(verdict.left_amenable, status="Yes"))
    assert not query.check((flipped, rechecks)).ok
    assert not query.check((verdict, rechecks[:-1] + [False])).ok
    unknown = dataclasses.replace(
        verdict, left_amenable=dataclasses.replace(verdict.left_amenable, status="Unknown"))
    answer = query.check((unknown, rechecks))
    assert answer.ok and answer.decided == 1 and answer.sides == 2


def test_decomposition_checker_flags_wrong_answers():
    query = _first("decompositions", "symmetric")
    decs, special, aut, gsym, conj, eq = query.run()
    assert query.check((decs, special, aut, gsym, conj, eq)).ok
    wrong_aut = dataclasses.replace(aut, order=aut.order + 1)
    assert not query.check((decs, special, wrong_aut, gsym, conj, eq)).ok
    wrong_g = dataclasses.replace(gsym, order=gsym.order * 2)
    assert not query.check((decs, special, aut, wrong_g, conj, eq)).ok
    assert not query.check((decs, special, aut, gsym, conj, None)).ok
    bad = dataclasses.replace(decs[-1], left=decs[-1].left + 1)
    assert not query.check((decs[:-1] + [bad], special, aut, gsym, conj, eq)).ok


def test_cli_checker_flags_wrong_answers():
    query = _first("cli", "chebyshev")
    code, out, err = query.run()
    assert query.check((code, out, err)).ok
    doc = json.loads(out)
    doc["result"]["degree"] += 1
    assert not query.check((0, json.dumps(doc), "")).ok
    assert not query.check((1, "", "error: no\n")).ok
    malformed = _first("cli", "malformed")
    assert malformed.check(malformed.run()).ok
    assert not malformed.check((0, out, "")).ok


def test_query_over_the_limit_fails_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(run, "QUERY_LIMIT_S", 0.05)
    slow = corpus.Query("slow", "sleeps", lambda: time.sleep(5), lambda r: corpus.Answer(True))
    quick = _first("cli", "chebyshev")
    old = run.signal.signal(run.signal.SIGALRM, run._alarm)
    try:
        start = time.perf_counter()
        tally = run.measure([[slow, quick]], 0.001, min_samples=0)
    finally:
        run.signal.signal(run.signal.SIGALRM, old)
    assert time.perf_counter() - start < 2
    assert len(tally.raw) == 2 and tally.failed == 1
    assert "limit" in tally.failures[0]


def test_traced_self_times_add_up_to_the_traced_pass():
    blocks = [corpus.build("cli", 3)[0][:12] + corpus.build("decompositions", 3)[0][:6]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally = run.measure(blocks, 0.001, tracer, min_samples=0)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    self_total = sum(tracer.self_times())
    roots = tracer.root_seconds()
    assert abs(self_total - roots) < 1e-6 * len(tracer.name_id)
    # the root spans sit inside the timed queries; the gap is the call into
    # the tracer, a small part of the traced pass
    traced_pass = sum(tally.raw)
    assert roots <= traced_pass
    assert traced_pass - roots < 0.05 * traced_pass
    summary = tracer.summary()
    assert summary["io_cli.main.calls"] == 12
    assert summary["polynomials.mul.calls"] > 0
    assert all(v >= 0 for k, v in summary.items() if k.endswith(".self_s"))


def test_tracing_leaves_the_library_as_it_was():
    import ritt_lab
    from ritt_lab import polynomials, semigroup

    before = (ritt_lab.compose, semigroup.compose, polynomials.Poly.__mul__, ritt_lab.io_cli.main)
    tracer = spans.Tracer()
    tracer.install()
    assert semigroup.compose is not before[1]
    tracer.uninstall()
    assert (ritt_lab.compose, semigroup.compose, polynomials.Poly.__mul__, ritt_lab.io_cli.main) == before


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.layer_metrics())
    assert [m["unit"] for m in spec["per_layer"]] == list(spans.layer_metrics().values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
