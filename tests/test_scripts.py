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
