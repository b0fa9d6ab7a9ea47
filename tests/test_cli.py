"""Problem-text parsing, mode dispatch, emission, and exit codes."""

import gc
import io
import json
import subprocess
import sys
import time

import pytest

from grobfan import cli, fans
from grobfan.rational import QQ
from grobfan.cli import (parse_problem, ParseError, run, emit,
                         check_fan_document, main, MAX_EXPONENT, MAX_TERMS,
                         _cone_record, _incidence)
from grobfan.polyhedra import cone_from_rays

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
    for text in (CUSP, BS):
        blob = emit(run(parse_problem(text), text=text), "json")
        loaded = json.loads(blob)
        ok, problems = check_fan_document(loaded)
        assert ok, problems
        assert emit(loaded, "json") == blob
        assert run_cli(["--mode", "check-fan"], blob.decode()) == (0, blob)


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


def test_cli_compare_initials(capsys):
    text = ("ring poly(x,y);\nideal: x^3 - y^2;\nmode: compare-initials;\n"
            "weights: [[-1,-1],[-5,-2]];\n")
    code, out = run_cli(["--emit", "summary"], text)
    assert code == 0 and b"equal: yes" in out
    text2 = text.replace("[-5,-2]", "[-2,-5]")
    code, out = run_cli(["--emit", "summary"], text2)
    assert code == 0 and b"equal: no" in out
    # a weight of the wrong arity is a parse error, caught before any
    # computation
    code, out = run_cli([], text.replace("[-5,-2]", "[-5]"))
    assert (code, out) == (2, b"")
    assert "weights must have 2 entries each" in capsys.readouterr().err


HYPERGEOMETRIC_N1 = ("ring weyl(x1);\n"
                     "ideal: dx1 - (1/2 + x1*dx1)*(x1*dx1 + 1/3);\n"
                     "mode: global-fan;\nregion: wglob;\n"
                     "homogenization: h11;\n")


@pytest.mark.parametrize("text", [CUSP.replace("local-fan", "global-fan"),
                                  HYPERGEOMETRIC_N1],
                         ids=["cusp", "hypergeometric-n1"])
def test_cli_validate_flag_keeps_the_bytes(text):
    code, out = run_cli([], text)
    assert code == 0 and out.startswith(b"{")
    assert run_cli(["--validate"], text) == (0, out)


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
    # h01 is never a run's lift, so the flag does not offer it
    with pytest.raises(SystemExit) as exc:
        run_cli(["--homogenization", "h01"], EULER)
    assert exc.value.code == 1 and "h01" in capsys.readouterr().err


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


def _cusp_document():
    return json.loads(emit(run(parse_problem(CUSP), text=CUSP), "json"))


def test_check_fan_rejects_contradicting_records(capsys):
    # each corruption contradicts the cones' own rays: exit 4, naming the
    # cone id and the field
    def facets(doc):
        doc["cones"][0]["facets"] = [[9, 9]]

    def dim(doc):
        doc["cones"][0]["dim"] = 7

    def rays(doc):
        doc["cones"][1]["rays"] = [[-2, -3], [0, -1], [-1, 0]]

    def equations(doc):
        doc["cones"][2]["equations"] = []

    def lineality(doc):
        doc["cones"][0]["lineality"] = [[1, 1]]

    def ident(doc):
        doc["cones"][3]["id"] = 0

    def incidence(doc):
        doc["incidence"] = [[0, 0]] + doc["incidence"]

    def every_cone(doc):
        for c in doc["cones"]:
            c["facets"], c["dim"] = [[9, 9]], 7
        doc["incidence"] = [[0, 0]]

    cases = [(facets, "cone 0: recorded facets"),
             (dim, "cone 0: recorded dim"), (rays, "cone 1:"),
             (equations, "cone 2: recorded equations"),
             (lineality, "cone 0:"), (ident, "cone 3: recorded id"),
             (incidence, "incidence: recorded pairs [[0, 0]]"),
             (every_cone, "cone 0: recorded dim 7")]
    for corrupt, message in cases:
        doc = _cusp_document()
        corrupt(doc)
        ok, problems = check_fan_document(doc)
        assert not ok and problems[0].startswith(message), (message, problems)
        capsys.readouterr()
        code, out = run_cli(["--mode", "check-fan"], json.dumps(doc))
        assert (code, out) == (4, b"")
        assert message in capsys.readouterr().err


def test_check_fan_rejects_an_empty_fan():
    doc = _cusp_document()
    doc["cones"], doc["incidence"] = [], []
    assert check_fan_document(doc) == (False, ["document has no cones"])
    assert run_cli(["--mode", "check-fan"], json.dumps(doc)) == (4, b"")


def test_parse_rejects_an_exponent_above_the_cap(capsys):
    code, _ = run_cli([], "ring poly(x);\nideal: x^%d;\nmode: local-fan;\n"
                      % MAX_EXPONENT)
    assert code == 0
    capsys.readouterr()
    t0 = time.monotonic()
    code, out = run_cli([], "ring poly(x);\nideal: x^99999999;\n"
                            "mode: local-fan;\n")
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, b"")
    err = capsys.readouterr().err
    assert "line 2, column 10" in err and str(MAX_EXPONENT) in err


@pytest.mark.parametrize("text, where", [
    # expands to 12,341 terms, one capped power at a time
    ("ring poly(x,y,z);\nideal: (1+x+y+z)^40;\nmode: local-fan;\n",
     "line 2, column 18"),
    # normally ordered, these powers would expand to 1,030,301 terms
    ("ring weyl(a,b,c); ideal: da^100*db^100*dc^100*a^100*b^100*c^100;",
     "line 1, column 53"),
], ids=["power", "weyl-product"])
def test_parse_rejects_a_product_above_the_term_cap(capsys, text, where):
    t0 = time.monotonic()
    code, out = run_cli([], text)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, b"")
    err = capsys.readouterr().err
    assert where in err and str(MAX_TERMS) in err


@pytest.mark.parametrize("argv, stmt, where, message", [
    ([], "weights: [[1/0],[1]];", "line 4, column 12", "zero denominator"),
    ([], "base-point: [1/0, 1];", "line 4, column 14", "zero denominator"),
    ([], "subspace: rows [[1/0, 1]];", "line 4, column 18",
     "zero denominator"),
    (["--base-point", "[1, 1/0]"], "", "line 1, column 5", "zero denominator"),
    ([], "alpha: [3/2, 1];", "line 4, column 9", "expected an integer"),
    ([], "alpha: [1, -1/2];", "line 4, column 12", "expected an integer"),
], ids=["weights", "base-point", "subspace", "base-point-flag",
        "alpha-3/2", "alpha-negative-half"])
def test_parse_rejects_a_hostile_vector_entry(capsys, argv, stmt, where,
                                              message):
    text = CUSP.replace("local-fan", "global-fan") + stmt + "\n"
    assert run_cli(argv, text) == (2, b"")
    err = capsys.readouterr().err
    assert where in err and message in err



@pytest.mark.parametrize("argv, stmt, message", [
    ([], "alpha: [0, 1];", "alpha must be 2 positive integers"),
    ([], "alpha: [1];", "alpha must be 2 positive integers"),
    ([], "base-point: [1];", "base-point must have 2 entries"),
    (["--base-point", "[1,2,3]"], "", "base-point must have 2 entries"),
], ids=["alpha-zero", "alpha-arity", "base-point", "base-point-flag"])
def test_cli_rejects_a_vector_of_the_wrong_shape(capsys, argv, stmt,
                                                 message):
    # caught before any computation: a parse error, not a computation error
    text = CUSP.replace("local-fan", "global-fan") + stmt + "\n"
    assert run_cli(argv, text) == (2, b"")
    assert message in capsys.readouterr().err


def test_check_fan_rejects_a_cone_listed_twice(capsys):
    # a repeated cone is not a second maximal cone: the summary of this
    # document would count 2 for a fan that has 1
    text = ("ring poly(x,y);\nideal: 1 + x^3 + y^2 + x*y + x^2*y^3;\n"
            "mode: normal-fan;\n")
    code, out = run_cli([], text)
    doc = json.loads(out)
    n = len(doc["cones"])
    doc["cones"].append(dict(doc["cones"][0], id=n))
    doc["incidence"] = _incidence([
        cone_from_rays(doc["parameter_dim"], c["rays"], c["lineality"])
        for c in doc["cones"]])
    capsys.readouterr()
    t0 = time.monotonic()
    code, out = run_cli(["--mode", "check-fan", "--emit", "summary"],
                        json.dumps(doc))
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (4, b"")
    assert ("cones 0 and %d are the same cone" % n
            in capsys.readouterr().err)


def _cusp_with_ray(ray):
    def make():
        doc = _cusp_document()
        doc["cones"][0]["rays"][0] = ray
        return json.dumps(doc)
    return make


@pytest.mark.parametrize("make, message", [
    # a large parameter_dim with no subspace rows behind it
    (lambda: '{"parameter_dim":60,"cones":[{"rays":[],"lineality":[]}],'
             '"incidence":[]}', "'subspace_rows'"),
    (lambda: '{"parameter_dim":120,"cones":[{"rays":[],"lineality":[]}],'
             '"incidence":[]}', "'subspace_rows'"),
    (_cusp_with_ray([float("inf"), 0]), "lists of 2 integers"),
    (_cusp_with_ray(["1/2", 0]), "lists of 2 integers"),
    (_cusp_with_ray([-2, -3, 0]), "lists of 2 integers"),
    (_cusp_with_ray([True, 0]), "lists of 2 integers"),
    (_cusp_with_ray([-2.0, -3]), "lists of 2 integers"),
], ids=["dim-60", "dim-120", "entry-infinity", "entry-string", "ray-arity",
        "entry-bool", "entry-float"])
def test_check_fan_rejects_a_hostile_document_at_its_boundary(capsys, make,
                                                              message):
    text = make()
    t0 = time.monotonic()
    code, out = run_cli(["--mode", "check-fan"], text)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, b"")
    err = capsys.readouterr().err
    assert "malformed fan document" in err and message in err


def test_check_fan_requires_one_subspace_row_per_parameter():
    doc = _cusp_document()
    doc["parameter_dim"] = 3
    with pytest.raises(ParseError, match="parameter_dim"):
        check_fan_document(doc)
    doc["parameter_dim"] = True
    with pytest.raises(ParseError, match="parameter_dim"):
        check_fan_document(doc)


def _cusp_with(edit):
    def make():
        doc = _cusp_document()
        edit(doc)
        return json.dumps(doc)
    return make


def _set(field, value):
    return _cusp_with(lambda doc: doc.__setitem__(field, value))


def _row_entry(value):
    return _cusp_with(lambda doc: doc["subspace_rows"][0].__setitem__(0,
                                                                     value))


@pytest.mark.parametrize("make", [
    _set("subspace_rows", [None, None]),
    _set("ambient_dim", "zz"),
    _set("ambient_dim", True),
    _set("ambient_dim", 3),
    _set("ambient_dim", -1),
    _row_entry("1/0"),
    _row_entry("2/4"),
    _row_entry("01"),
    _row_entry("-0"),
    _row_entry("1/1"),
    _row_entry(" 1"),
    _row_entry("1e-2000000"),
    _row_entry("9" * 5000),
    _row_entry(1),
    _row_entry(None),
    _cusp_with(lambda doc: doc["subspace_rows"][0].append("0")),
    _cusp_with(lambda doc: doc.pop("ambient_dim")),
], ids=["rows-null", "ambient-string", "ambient-bool", "ambient-arity",
        "ambient-negative", "entry-zero-denominator", "entry-not-lowest",
        "entry-leading-zero", "entry-minus-zero", "entry-unit-denominator",
        "entry-space", "entry-exponent", "entry-too-long", "entry-int",
        "entry-null", "row-arity", "ambient-missing"])
def test_check_fan_rejects_a_subspace_it_did_not_write(capsys, make):
    # ambient_dim and subspace_rows must have the shape the output writes:
    # an int, and parameter_dim rows of ambient_dim qstr strings
    text = make()
    t0 = time.monotonic()
    code, out = run_cli(["--mode", "check-fan"], text)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (2, b"")
    assert "malformed fan document" in capsys.readouterr().err


def test_check_fan_accepts_the_rational_rows_it_writes():
    text = CUSP + "subspace: rows [[1/2, 0], [-1, -3/4]];\n"
    code, out = run_cli([], text)
    assert code == 0
    doc = json.loads(out)
    assert doc["subspace_rows"] == [["1/2", "0"], ["-1", "-3/4"]]
    assert run_cli(["--mode", "check-fan"], out.decode()) == (0, out)


def _long_ray_document():
    doc = _cusp_document()
    doc["cones"][0]["rays"][0] = [-2, "LONG"]
    return json.dumps(doc).replace('"LONG"', "-" + "3" * 5001)


# each input hits a limit of Python itself, or fails in the computation,
# unless the parser or the document reader stops it first
HOSTILE = {
    "nested-parentheses": lambda: CUSP.replace(
        "x^3", "(" * 200000 + "x^3" + ")" * 200000),
    "nested-arrays": lambda: '{"cones": %s%s}' % ("[" * 200000,
                                                  "]" * 200000),
    "long-ray-entry": _long_ray_document,
    "long-coefficient": lambda: CUSP.replace("x^3", "7" * 5001 + "*x^3"),
    "exponent-cap": lambda: CUSP.replace("x^3", "x^%d" % (MAX_EXPONENT + 1)),
    "term-cap": lambda: "ring poly(x,y,z);\nideal: (1+x+y+z)^40;\n",
    "second-ring": lambda: ("ring poly(x); ideal: x; ring poly(x,y); "
                            "mode: global-fan;"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_is_a_parse_error(tmp_path, name):
    # through the installed entry point, as a user would run it: exit 2
    # with a short message, quickly, and nothing on stdout
    path = tmp_path / "input"
    path.write_text(HOSTILE[name](), encoding="utf-8")
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-m", "grobfan.cli", "--input",
                        str(path)], capture_output=True, timeout=60)
    assert time.monotonic() - t0 < 5.0
    assert (p.returncode, p.stdout) == (2, b"")
    assert p.stderr.startswith(b"parse error: ") and len(p.stderr) < 1024


@pytest.mark.parametrize("text,clash", [
    ("ring poly(x,x);\nideal: x;\nmode: local-fan;\n",
     "x is variable x and variable x"),
    ("ring weyl(x,dx);\nideal: dx;\nmode: global-fan;\n",
     "dx is the derivation of x and variable dx"),
    ("ring poly(h);\nideal: h^2-h;\nmode: global-fan;\n",
     "h is the homogenizer and variable h"),
], ids=["repeated-variable", "variable-named-as-a-derivation",
        "variable-named-as-the-homogenizer"])
def test_ring_names_that_clash_are_a_parse_error(tmp_path, text, clash):
    # a name that could read as two slots, in the ideal or in the printed
    # initial forms, is refused with the clash named
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    p = subprocess.run([sys.executable, "-m", "grobfan.cli", "--input",
                        str(path)], capture_output=True, timeout=60)
    assert (p.returncode, p.stdout) == (2, b"")
    assert p.stderr.decode() == "parse error: ring names clash: %s\n" % clash


def test_global_run_frees_every_basis_before_closing_the_fan(monkeypatch):
    # the enumeration's bases are read once, for the annotations; none is
    # alive while the fan is closed, validated and written
    alive = []

    def counting(original):
        def wrapper(*args):
            alive.append(sum(isinstance(o, fans.GroebnerCone)
                             for o in gc.get_objects()))
            return original(*args)
        return wrapper

    for name in ("assemble_closed_fan", "validate_fan", "_fan_document"):
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    doc = run(parse_problem(BS), validate=True)
    assert len(doc["cones"]) > 1 and alive == [0, 0, 0]


def test_check_fan_error_message_is_bounded(tmp_path):
    # a cone of a 150-dimensional parameter space whose recorded equations
    # are empty: the rebuilt basis has 150 rows of 150 entries, and the
    # message shows a few of each and their lengths
    doc = {"format": "grobfan-fan", "mode": "global-fan", "ambient_dim": 1,
           "parameter_dim": 150, "subspace_rows": [["0"]] * 150,
           "cones": [{"id": 0, "dim": 0, "equations": [], "facets": [],
                      "rays": [], "lineality": []}],
           "incidence": []}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-m", "grobfan.cli", "--input",
                        str(path)], capture_output=True, timeout=60)
    assert time.monotonic() - t0 < 5.0
    assert (p.returncode, p.stdout) == (4, b"")
    assert p.stderr.startswith(
        b"fan validation failed: cone 0: recorded equations [], rebuilt [[")
    assert b"150 entries" in p.stderr and len(p.stderr) < 1024


def test_fan_axiom_message_is_bounded(tmp_path):
    # a consistent document whose one cone, 2-dimensional in a
    # 150-dimensional parameter space, lacks its two ray faces: the fan
    # axioms fail, and the message names the cone by id and dimension
    # rather than writing out its 148 equations
    cone = cone_from_rays(150, [(1,) + (0,) * 149, (0, 1) + (0,) * 148])
    doc = {"format": "grobfan-fan", "mode": "global-fan", "ambient_dim": 1,
           "parameter_dim": 150, "subspace_rows": [["0"]] * 150,
           "cones": [dict(_cone_record(cone), id=0)],
           "incidence": _incidence([cone])}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-m", "grobfan.cli", "--input",
                        str(path)], capture_output=True, timeout=60)
    assert time.monotonic() - t0 < 5.0
    assert (p.returncode, p.stdout) == (4, b"")
    assert p.stderr.startswith(b"fan validation failed: missing face")
    assert b"of cone 0 (dim 2)" in p.stderr and len(p.stderr) < 1024


# Every module that importing grobfan.cli loads beyond a bare interpreter
# (python -S, CPython 3.11), recorded when divide imported heapq inside its
# body; an interpreter started with site loads some of these itself.
# Import time feeds every command-line run, so a new module here is a
# deliberate choice, not a side effect.
IMPORT_CLOSURE = frozenset("""
_blake2 _collections _collections_abc _decimal _functools _hashlib _json
_operator _sre _stat _weakrefset argparse collections collections.abc copy
copyreg decimal enum fractions functools genericpath gettext grobfan
grobfan.cli grobfan.division grobfan.fans grobfan.groebner grobfan.linalg
grobfan.localfan grobfan.orders grobfan.polyhedra grobfan.rational
grobfan.rings hashlib itertools json json.decoder json.encoder json.scanner
keyword math numbers operator os os.path posixpath re re._casefix
re._compiler re._constants re._parser reprlib stat types warnings weakref
""".split())


def test_importing_the_cli_loads_no_new_module():
    code = ("import sys\nbefore = set(sys.modules)\nimport grobfan.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       timeout=60, check=True)
    loaded = set(p.stdout.decode().split())
    assert "grobfan.cli" in loaded
    assert loaded <= IMPORT_CLOSURE, sorted(loaded - IMPORT_CLOSURE)
