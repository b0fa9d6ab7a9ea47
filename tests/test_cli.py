"""Problem-text parsing, mode dispatch, emission, and exit codes."""

import io
import json
import subprocess
import sys

import pytest

from grobfan.rational import QQ
from grobfan.cli import (parse_problem, ParseError, run, emit,
                         check_fan_document, main)

CUSP = "ring poly(x,y);\nideal: x^3 - y^2;\nmode: local-fan;\n"

BS = ("ring weyl(t1,t2,x,y);\n"
      "ideal: t1-y, t2-(y-(x-1)^2), (-2x+2)*dt2+dx, dt1+dt2+dy;\n"
      "subspace: rows [[-1,0,0,0,1,0,0,0],[0,-1,0,0,0,1,0,0]];\n"
      "mode: global-fan;\nhomogenization: h11;\nregion: wloc;\n")


def run_cli(argv, text):
    """Invoke the CLI in-process, capturing stdout bytes and the exit code."""
    old_stdin, old_stdout = sys.stdin, sys.stdout
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = main(argv)
        sys.stdout.flush()
        out = sys.stdout.buffer.getvalue()
    finally:
        sys.stdin, sys.stdout = old_stdin, old_stdout
    return code, out


def test_parse_principal_ideal():
    spec = parse_problem(CUSP)
    assert spec.sig.kind == "poly" and spec.sig.names == ("x", "y")
    assert len(spec.generators) == 1
    assert spec.mode == "local-fan"
    g = spec.generators[0]
    assert set(g.terms) == {(3, 0), (0, 2)}


def test_parse_differential_generators():
    spec = parse_problem(BS)
    assert spec.sig.kind == "weyl" and spec.sig.n == 4
    assert len(spec.generators) == 4
    # g1 = t1 - y
    assert set(spec.generators[0].terms) == {
        (1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0)}
    # g3 = (-2x+2) dt2 + dx: derivation slots are 4..7
    g3 = spec.generators[2]
    assert set(g3.terms) == {
        (0, 0, 1, 0, 0, 1, 0, 0),   # -2 x dt2
        (0, 0, 0, 0, 0, 1, 0, 0),   # 2 dt2
        (0, 0, 0, 0, 0, 0, 1, 0)}   # dx
    assert spec.rows is not None and len(spec.rows) == 2


def test_parse_rational_coefficients_and_optional_star():
    spec = parse_problem(
        "ring poly(x,y);\nideal: 1/2x^2 - 3*y + 2;\nmode: global-fan;\n")
    g = spec.generators[0]
    assert g.terms[(2, 0)] == QQ(1, 2)
    assert g.terms[(0, 1)] == QQ(-3)
    assert g.terms[(0, 0)] == QQ(2)


def test_parse_noncommutative_order_preserved():
    a = parse_problem("ring weyl(x);\nideal: dx x;\nmode: global-fan;\n")
    b = parse_problem("ring weyl(x);\nideal: x dx;\nmode: global-fan;\n")
    # dx*x = x*dx + 1
    ga, gb = a.generators[0], b.generators[0]
    assert ga.terms.get((0, 0)) == 1 and gb.terms.get((0, 0)) is None


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_problem("ring poly(x,y);\nideal: x^-1;\nmode: local-fan;\n")
    with pytest.raises(ParseError):
        parse_problem("ring poly(x,y);\nideal: z;\nmode: local-fan;\n")
    with pytest.raises(ParseError):
        parse_problem("ring poly(x,y);\nideal: x - x;\nmode: local-fan;\n")
    with pytest.raises(ParseError):
        parse_problem("ideal: x;\nmode: local-fan;\n")


def test_run_cusp_local_fan():
    doc = run(parse_problem(CUSP), text=CUSP)
    assert doc["mode"] == "local-fan"
    maximal = [c for c in doc["cones"] if c["dim"] == 2]
    assert len(maximal) == 2
    rays = {tuple(r) for c in maximal for r in c["rays"]}
    assert rays == {(-1, 0), (-2, -3), (0, -1)}


def test_emit_json_byte_stable():
    spec1 = parse_problem(CUSP)
    spec2 = parse_problem(CUSP)
    b1 = emit(run(spec1, text=CUSP), "json")
    b2 = emit(run(spec2, text=CUSP), "json")
    assert b1 == b2


def test_emit_summary_counts():
    out = emit(run(parse_problem(CUSP), text=CUSP), "summary").decode()
    assert "maximal cones: 2; rays: 3" in out


def test_check_fan_round_trip():
    doc = run(parse_problem(CUSP), text=CUSP)
    blob = emit(doc, "json")
    loaded = json.loads(blob)
    ok, problems = check_fan_document(loaded)
    assert ok, problems
    assert emit(loaded, "json") == blob


def test_check_fan_detects_broken_fan():
    doc = run(parse_problem(CUSP), text=CUSP)
    loaded = json.loads(emit(doc, "json"))
    # drop a face: axiom 1 violated
    loaded["cones"] = [c for c in loaded["cones"] if c["dim"] != 1]
    ok, problems = check_fan_document(loaded)
    assert not ok


def test_cli_exit_codes():
    code, _ = run_cli([], CUSP)
    assert code == 0
    code, _ = run_cli([], "ring poly(x,y);\nideal: x^-1;\nmode: local-fan;\n")
    assert code == 2
    code, _ = run_cli([], "ring poly(x,y);\nideal: x;\n")  # no mode anywhere
    assert code == 2
    with pytest.raises(SystemExit) as e:
        run_cli(["--emit", "nonsense"], CUSP)
    assert e.value.code == 1


def test_cli_check_fan_exit_code_on_bad_fan():
    doc = run(parse_problem(CUSP), text=CUSP)
    loaded = json.loads(emit(doc, "json"))
    loaded["cones"] = [c for c in loaded["cones"] if c["dim"] != 1]
    code, _ = run_cli(["--mode", "check-fan"], json.dumps(loaded))
    assert code == 4


def test_cli_compare_initials():
    text = ("ring poly(x,y);\nideal: x^3 - y^2;\nmode: compare-initials;\n"
            "weights: [[-1,-1],[-5,-2]];\n")
    code, out = run_cli(["--emit", "summary"], text)
    assert code == 0 and b"equal: yes" in out
    text2 = text.replace("[-5,-2]", "[-2,-5]")
    code, out = run_cli(["--emit", "summary"], text2)
    assert code == 0 and b"equal: no" in out
    # a weight of the wrong arity is a computation error, not a crash
    code, out = run_cli([], text.replace("[-5,-2]", "[-5]"))
    assert (code, out) == (3, b"")


def test_cli_base_point_flag():
    text = "ring poly(x,y);\nideal: 1+x+y;\nmode: local-fan;\n"
    code, out = run_cli(["--emit", "summary"], text)
    assert code == 0 and b"maximal cones: 1" in out
    code, out = run_cli(["--emit", "summary", "--base-point", "[1,-2]"], text)
    assert code == 0 and b"maximal cones: 2" in out


def test_cli_subprocess_entry():
    p = subprocess.run([sys.executable, "-m", "grobfan.cli",
                        "--emit", "summary"],
                       input=CUSP.encode(), capture_output=True)
    assert p.returncode == 0
    assert b"maximal cones: 2; rays: 3" in p.stdout


def test_differential_cli_global_fan():
    code, out = run_cli(["--emit", "summary"], BS)
    assert code == 0
    assert b"maximal cones: 2" in out


def test_cones_sorted_canonically():
    doc = run(parse_problem(CUSP), text=CUSP)
    dims = [c["dim"] for c in doc["cones"]]
    assert dims == sorted(dims, reverse=True)
    ids = [c["id"] for c in doc["cones"]]
    assert ids == list(range(len(ids)))


EULER = "ring weyl(x);\nideal: x*dx + 2;\nmode: local-fan;\n"


def test_cli_rejects_a_lift_the_run_does_not_use(capsys):
    # every (problem, setting) pair names a homogenization or alpha that
    # the run would ignore: exit 2 with a message naming it
    poly_global = CUSP.replace("local-fan", "global-fan")
    cases = [
        (EULER, "homogenization: alpha;", "alpha"),
        (EULER, "homogenization: h11;", "h11"),
        (EULER, "homogenization: h01;", "h01"),
        (EULER, "alpha: [1];", "alpha"),
        (BS, "alpha: [1,1,1,1];", "alpha"),
        (BS, "homogenization: alpha;", "alpha"),
        (poly_global, "homogenization: h11;", "h11"),
        (poly_global, "homogenization: double;", "double"),
        (poly_global, "homogenization: h01;", "h01"),
        (CUSP, "alpha: [5,7];", "alpha"),
        (CUSP, "homogenization: double;", "double"),
        (CUSP.replace("local-fan", "normal-fan"), "homogenization: alpha;",
         "alpha"),
    ]
    for text, stmt, name in cases:
        capsys.readouterr()
        code, out = run_cli([], text + stmt + "\n")
        err = capsys.readouterr().err
        assert (code, out) == (2, b""), (text, stmt)
        assert name in err, (text, stmt, err)
    capsys.readouterr()
    code, _ = run_cli(["--homogenization", "h11"], EULER)
    assert code == 2 and "h11" in capsys.readouterr().err


def test_cli_lifts_the_run_uses():
    # auto and the named lift agree; alpha weights reach the poly global fan
    for text, named in ((EULER, "double"), (CUSP, "alpha"),
                        (BS.replace("homogenization: h11;\n", ""), "h11")):
        code, auto = run_cli([], text)
        assert code == 0
        assert run_cli(["--homogenization", named], text) == (0, auto)
    code, out = run_cli(["--emit", "summary"], BS.replace("h11", "double"))
    assert code == 0 and b"maximal cones" in out
    poly_global = ("ring poly(x,y);\nideal: x^3 - y^2 + x*y;\n"
                   "mode: global-fan;\n")
    code, plain = run_cli([], poly_global)
    assert code == 0 and b"x*y*h\"" in plain
    code, ones = run_cli([], poly_global + "alpha: [1,1];\n")
    assert code == 0
    assert ({**json.loads(ones), "provenance": None}
            == {**json.loads(plain), "provenance": None})
    code, weighted = run_cli([], poly_global + "alpha: [5,7];\n")
    assert code == 0 and b"x*y*h^3\"" in weighted


def test_problem_file_cannot_ask_for_check_fan():
    code, out = run_cli([], CUSP.replace("local-fan", "check-fan"))
    assert (code, out) == (2, b"")
