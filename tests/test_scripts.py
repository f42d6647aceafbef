import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ritt_lab.io_cli import parse_poly

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["classify_gallery.py", "folner_decay.py"])
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


PRIME = 100000000000000000000000000319  # sympy.nextprime(10**29)
PSI13 = 3317044064679887385961981
H16 = "z^16 + 2*z^5 - 3*z^4 + 5/2*z^3 - z^2 + z"
P256 = f"2*({H16})^16 + 3*({H16})^5 - 7/3*({H16})^2 + ({H16})"


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "ritt_lab", *argv],
                          env=env, capture_output=True, text=True, timeout=30)


def test_cli_classifies_large_prime_coefficient():
    # P and P o P for P = PRIME z^2 + z: the lc powers agree, so nothing is factored
    p, pp = f"{PRIME}*z^2 + z", f"{PRIME**3}*z^4 + {2 * PRIME**2}*z^3 + {2 * PRIME}*z^2 + z"
    done = _cli("classify", p, pp)
    assert done.returncode == 0, done.stderr
    verdict = json.loads(done.stdout)["result"]["verdict"]
    assert verdict["left_amenable"]["status"] == verdict["right_amenable"]["status"] == "Yes"


def test_cli_refuses_unprovable_prime():
    done = _cli("classify", f"{PSI13}*z^2", "z^2 + z")
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_decomposes_degree_256_composite():
    done = _cli("decompose", P256)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)["result"]["decompositions"]
    assert [parse_poly(d["right"]).degree for d in found] == [1, 16, 256]


def test_cli_classify_with_huge_tmax_returns():
    # the affine walk leaves at t = 1, so tmax costs nothing past it
    done = _cli("classify", "z^2 + 1", "z^2 + 2", "--tmax", "1000000")
    assert done.returncode == 0, done.stderr
    verdict = json.loads(done.stdout)["result"]["verdict"]
    assert verdict["left_amenable"]["status"] == verdict["right_amenable"]["status"] == "Unknown"


def test_bench_script_writes_file_and_deltas(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    base = {"workloads": {"cli": {"trace0": {"metrics": {"queries_per_s": {"value": 1.0, "unit": "1/s"}}}},
                          "verdicts": {"trace0": "timeout"}}}
    (tmp_path / "BENCH_1.json").write_text(json.dumps(base))
    assert bench.main(["--tag", "2", "--seconds", "0.2"]) == 0
    report = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert report["git_revision"] and report["python"]
    for workload, seed in bench.SEEDS.items():
        for trace, metric in (("trace0", "queries_per_s"), ("trace1", "polynomials.compose.calls")):
            run = report["workloads"][workload][trace]
            assert run["correct"] and metric in run["metrics"] and run["context"]["seed"] == seed
    lines = capsys.readouterr().out.splitlines()
    assert "deltas against BENCH_1.json" in lines
    assert [line.split()[:3] for line in lines if "queries_per_s" in line] == [["cli", "trace0", "queries_per_s"]]
    assert "verdicts        trace0  no deltas (baseline: timeout)" in lines
    broken = tmp_path / "run.py"
    broken.write_text("import sys; sys.exit('no result')")
    monkeypatch.setattr(bench, "RUN_PY", broken)
    failed = bench.run("cli", 0.2, 0)
    assert failed["error"] == 1 and "no result" in failed["stderr"] and bench.failure(failed) == "exit status 1"
