"""Run the three benchmark workloads at fixed seeds, untraced and traced, and
write BENCH_<tag>.json with deltas against the newest earlier file.

    python scripts/bench.py --tag 9

Each run is `perfbench/run.py --workload W --seed S --seconds X --trace T` in
a fresh process: --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones.  A run past CAP_S seconds is recorded as "timeout" (the
default 10-s runs stay well under it, while a 30-s verdicts run spends
about as long again in run.py's context line), and one that exits non-zero
or prints no result as its exit status and the tail of its stderr.  The
file, in the repository root, holds every metric, each run's context line,
the git revision and the Python version; the deltas go to stdout, against
the BENCH_*.json with the largest tag below this one, or "no baseline".
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # where the BENCH_*.json files live
RUN_PY = ROOT / "perfbench" / "run.py"
SEEDS = {"verdicts": 7, "decompositions": 21, "cli": 3}
CAP_S = 60


def run(workload: str, seconds: float, trace: int):
    """The parsed context and result lines of one run, "timeout", or the
    exit status and stderr tail of a run that gave no result."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(SEEDS[workload]), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=RUN_PY.parents[1], capture_output=True, text=True, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        return {"error": done.returncode, "stderr": done.stderr[-2000:]}
    return {"context": json.loads(lines[-2]), **json.loads(lines[-1])}


def failure(result) -> str | None:
    """Why a recorded run holds no metrics, or None."""
    if result == "timeout":
        return "timeout"
    return None if "metrics" in result else f"exit status {result['error']}"


def git_revision() -> str:
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=RUN_PY.parent,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def baseline(out_dir: Path, tag: int) -> Path | None:
    tags = {}
    for path in out_dir.glob("BENCH_*.json"):
        suffix = path.stem.removeprefix("BENCH_")
        if suffix.isdigit() and int(suffix) < tag:
            tags[int(suffix)] = path
    return tags[max(tags)] if tags else None


def deltas(old: dict, new: dict):
    """One line per metric present in both files."""
    for workload, runs in new["workloads"].items():
        for trace, now in runs.items():
            then = old.get("workloads", {}).get(workload, {}).get(trace)
            if then is None:
                continue
            why = [f"{side}: {f}" for side, r in (("baseline", then), ("this run", now)) if (f := failure(r))]
            if why:
                yield f"{workload:<15} {trace:<7} no deltas ({'; '.join(why)})"
                continue
            for name, m in now["metrics"].items():
                if name in then["metrics"]:
                    a, b = then["metrics"][name]["value"], m["value"]
                    change = f"{(b - a) / a:+.1%}" if a else "n/a"
                    yield f"{workload:<15} {trace:<7} {name:<44} {a:.6g} -> {b:.6g} {m['unit']} ({change})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", type=int, required=True, help="writes BENCH_<tag>.json")
    ap.add_argument("--seconds", type=float, default=10.0, help="per run (perfbench/run.py --seconds)")
    args = ap.parse_args(argv)
    report = {
        "tag": args.tag,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "seeds": SEEDS,
        "workloads": {w: {f"trace{t}": run(w, args.seconds, t) for t in (0, 1)} for w in SEEDS},
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for workload, runs in report["workloads"].items():
        for trace, result in runs.items():
            if why := failure(result):
                print(f"{workload:<15} {trace:<7} failed ({why})")
    base = baseline(ROOT, args.tag)
    if base is None:
        print("no baseline")
    else:
        print(f"deltas against {base.name}")
        for line in deltas(json.loads(base.read_text()), report):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
