import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritt_lab.errors import ParseError
from ritt_lab.io_cli import REPORT_SCHEMA, bounds_from_env, main, parse_poly, render_poly
from ritt_lab.polynomials import Poly, Z
from ritt_lab.semigroup import SearchBounds

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def polys(draw):
    deg = draw(st.integers(0, 6))
    coeffs = [draw(fractions) for _ in range(deg + 1)]
    return Poly(coeffs)


# -- parsing -----------------------------------------------------------------

def test_parse_basic():
    assert parse_poly("z^4 + z^2") == Z**4 + Z**2
    assert parse_poly("z") == Z
    assert parse_poly("0") == Poly()
    assert parse_poly("-z") == -Z
    assert parse_poly("3/2") == Poly.constant(Fraction(3, 2))


def test_parse_spec_shape():
    p = parse_poly("-(2/3)*z^3 + 1/2")
    assert p.degree == 3
    assert p.lc == Fraction(-2, 3)
    assert p[0] == Fraction(1, 2)
    assert p[1] == 0 and p[2] == 0


def test_parse_precedence():
    assert parse_poly("2*z^3") == 2 * Z**3
    assert parse_poly("(2*z)^3") == 8 * Z**3
    assert parse_poly("-z^2 + 1") == -(Z**2) + 1
    assert parse_poly("1/2*z") == Fraction(1, 2) * Z
    assert parse_poly("z - z") == Poly()
    assert parse_poly("(z + 1)*(z - 1)") == Z**2 - 1
    assert parse_poly("-(z + 1)") == -Z - 1


def test_parse_whitespace_insignificant():
    assert parse_poly(" z ^ 2+ 1 ") == Z**2 + 1


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("z^")
    assert e.value.pos == 2
    with pytest.raises(ParseError) as e:
        parse_poly("z^-1")
    assert e.value.pos == 2
    with pytest.raises(ParseError) as e:
        parse_poly("x + 1")
    assert e.value.pos == 0
    with pytest.raises(ParseError) as e:
        parse_poly("(z + 1")
    assert e.value.pos == 6
    with pytest.raises(ParseError) as e:
        parse_poly("z z")
    assert e.value.pos == 2
    with pytest.raises(ParseError) as e:
        parse_poly("1/0")
    assert e.value.pos == 2
    with pytest.raises(ParseError) as e:
        parse_poly("")
    assert e.value.pos == 0
    with pytest.raises(ParseError) as e:
        parse_poly("z^2^2")
    assert e.value.pos == 3
    with pytest.raises(ParseError):
        parse_poly("2z")


def test_parse_error_message_carries_offset():
    with pytest.raises(ParseError) as e:
        parse_poly("z^")
    assert "offset 2" in str(e.value)


def test_render_frozen():
    assert render_poly(2 * Z**4 - Fraction(3, 2) * Z + 1) == "2*z^4 - 3/2*z + 1"
    assert render_poly(Poly()) == "0"
    assert render_poly(-Z) == "-z"
    assert render_poly(Poly.constant(Fraction(-1, 3))) == "-1/3"


@given(polys())
@settings(max_examples=200)
def test_render_parse_round_trip(p):
    assert parse_poly(render_poly(p)) == p


# -- env bounds --------------------------------------------------------------

def test_bounds_from_env():
    assert bounds_from_env({}) == SearchBounds()
    assert bounds_from_env({"RITT_LAB_BOUNDS": "2,3,4"}) == SearchBounds(2, 3, 4)
    from ritt_lab.errors import BadParams

    with pytest.raises(BadParams):
        bounds_from_env({"RITT_LAB_BOUNDS": "2,3"})
    with pytest.raises(BadParams):
        bounds_from_env({"RITT_LAB_BOUNDS": "a,b,c"})


# -- CLI ---------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_doc(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["schema"] == "ritt-lab/1"
    return doc


def test_cli_compose(capsys):
    doc = run_doc(capsys, "compose", "z^2", "z^3")
    assert doc["result"]["poly"] == "z^6"
    assert doc["command"] == "compose"


def test_cli_iterate(capsys):
    doc = run_doc(capsys, "iterate", "z^2 + 1", "2")
    assert doc["result"]["poly"] == "z^4 + 2*z^2 + 2"


def test_cli_chebyshev(capsys):
    doc = run_doc(capsys, "chebyshev", "3")
    assert doc["result"]["poly"] == "4*z^3 - 3*z"


def test_cli_decompose(capsys):
    doc = run_doc(capsys, "decompose", "z^6")
    degrees = [d["m"] for d in doc["result"]["decompositions"]]
    assert degrees == [1, 2, 3, 6]
    doc = run_doc(capsys, "decompose", "z^6 + z", "2")
    assert doc["result"] == {"m": 2, "found": False}


def test_cli_special(capsys):
    doc = run_doc(capsys, "special", "8*z^4 - 8*z^2 + 1")
    assert doc["result"]["type"] == "ChebyshevConjugate"
    assert doc["result"]["n"] == 4 and doc["result"]["sign"] == 1
    doc = run_doc(capsys, "special", "z^3 + z")
    assert doc["result"]["type"] == "NotSpecial"


def test_cli_symmetry(capsys):
    doc = run_doc(capsys, "aut", "z^3 + z")
    assert doc["result"]["order"] == 2
    doc = run_doc(capsys, "gsym", "z^4 + z^2")
    assert doc["result"]["order"] == 2 and doc["result"]["twist"] == 0
    doc = run_doc(capsys, "gsym", "z^4")
    assert doc["result"]["order"] is None


def test_cli_common_iterate_and_twisted(capsys):
    doc = run_doc(capsys, "common-iterate", "0 - z^3", "z^3")
    assert doc["result"]["outcome"]["status"] == "Yes"
    assert doc["result"]["outcome"]["certificate"]["type"] == "CommonIterate"
    doc = run_doc(capsys, "twisted", "z^2 + 1", "z^2 + 2")
    assert doc["result"]["outcome"]["status"] == "Unknown"
    assert doc["result"]["bounds"]["tmax"] == 6


def test_cli_classify(capsys):
    doc = run_doc(capsys, "classify", "z^2 + 1", "z^3 + 1")
    v = doc["result"]["verdict"]
    assert v["amenable"] == "No"
    assert v["left_amenable"]["status"] == "No"
    cert = v["left_amenable"]["findings"][1]["outcome"]["certificate"]
    assert cert["type"] == "DegreeObstruction"
    assert any("free subsemigroup" in n for n in v["notes"])


def test_cli_classify_bound_flags(capsys):
    doc = run_doc(capsys, "classify", "z^2 + 1", "z^2 + 2", "--tmax", "2", "--lmax", "3")
    assert doc["result"]["bounds"] == {"type": "SearchBounds", "tmax": 2, "lmax": 3, "wordmax": 8}


def test_cli_env_bounds(capsys, monkeypatch):
    monkeypatch.setenv("RITT_LAB_BOUNDS", "1,1,1")
    doc = run_doc(capsys, "classify", "z^2 + 1", "z^2 + 2")
    assert doc["result"]["bounds"]["tmax"] == 1
    # explicit flags win over the environment
    doc = run_doc(capsys, "classify", "z^2 + 1", "z^2 + 2", "--tmax", "4")
    assert doc["result"]["bounds"]["tmax"] == 4
    assert doc["result"]["bounds"]["lmax"] == 1


def test_cli_semidirect(capsys):
    doc = run_doc(capsys, "semidirect", "z^4 + z^2", "--d", "2", "--op", "mul", "--x", "1,1", "--y", "1,2")
    assert doc["result"]["product"] == {"type": "SemidirectElement", "j": 1, "s": 3}
    doc = run_doc(capsys, "semidirect", "z^4 + z^2", "--d", "2", "--op", "realize", "--x", "1,1")
    assert doc["result"]["poly"] == "-z^4 - z^2"
    doc = run_doc(capsys, "semidirect", "z^4 + z^2", "--d", "2", "--op", "left-amenable")
    assert doc["result"]["left_amenable"] is False


def test_cli_folner(capsys):
    doc = run_doc(capsys, "folner", "z^4 + z^2", "--d", "2", "--x", "0,1", "--n", "9")
    assert doc["result"]["ratio"] == "1/10"
    doc = run_doc(capsys, "folner", "z^4 + z^2", "--d", "2", "--x", "1,0", "--n", "9")
    assert doc["result"]["ratio"] == "0/1"


def test_cli_ritt1(capsys):
    doc = run_doc(capsys, "ritt1", "z^2", "z^3", "z^3", "z^2")
    assert doc["result"]["type"] == "RittFactorization"
    assert doc["result"]["u"] == "z"


def test_cli_ritt2(capsys):
    doc = run_doc(capsys, "ritt2-verify", "power", "--r", "z + 1", "--s", "2", "--n", "3")
    assert doc["result"]["verified"] is True
    doc = run_doc(capsys, "ritt2-verify", "chebyshev", "--m", "2", "--n", "3")
    assert doc["result"]["a"] == "2*z^2 - 1"


def test_cli_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "iterate", "z^", "2")
    assert code == 1
    assert out == ""
    assert "offset 2" in err


def test_cli_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "aut", "z + 1")
    assert code == 1
    assert "degree" in err.lower()


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["iterate", "z^2", "two"])
    assert e.value.code == 2


def test_cli_unknown_is_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "common-iterate", "z^2 + 1", "z^2 + 2")
    assert code == 0
    assert json.loads(out)["result"]["outcome"]["status"] == "Unknown"


def test_cli_byte_deterministic(capsys):
    a = run_cli(capsys, "classify", "0 - z^4 - z^2", "z^4 + z^2")
    b = run_cli(capsys, "classify", "0 - z^4 - z^2", "z^4 + z^2")
    assert a == b
    assert "LeadingCoeffObstruction" in a[1]


def test_cli_rationals_serialize_as_strings(capsys):
    doc = run_doc(capsys, "special", "z^2 - 2*z + 2")  # (z-1)^2 + 1
    assert doc["result"]["type"] == "PowerConjugate"
    assert doc["result"]["b"] == "1/1"


GOLDEN = Path(__file__).parent / "golden" / "gallery_cli.json"


def test_cli_gallery_stdout_is_pinned(capsys, monkeypatch):
    """`twisted` and `classify` on the scripts/classify_gallery.py rows print
    the pinned stdout byte for byte, however the searches are implemented."""
    monkeypatch.delenv("RITT_LAB_BOUNDS", raising=False)
    for case in json.loads(GOLDEN.read_text()):
        assert main(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"], case["argv"]
