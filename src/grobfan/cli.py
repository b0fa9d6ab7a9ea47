"""Problem parsing, pipeline dispatch, and deterministic fan output.

Input grammar (statements end with `;`, `#` starts a comment):

    ring poly(x,y);
    ring weyl(t1,t2,x,y);
    ideal: x^3 - y^2, (-2x+2)*dt2 + dx;
    subspace: rows [[-1,0,0,0,1,0,0,0],[0,-1,0,0,0,1,0,0]];
    mode: local-fan;
    base-point: [1, -2];
    weights: [[-1,0,1,0],[0,-1,0,1]];
    region: wloc;

`d<name>` denotes the derivation paired with variable `<name>`; rationals
are written `p/q`; `*` is optional between a coefficient and a variable.
"""

import argparse
import hashlib
import json
import re
import sys
from math import prod

from . import __version__
from .rational import QQ, qstr
from .rings import RingSignature, Element, POLY, WEYL, LIFTS
from .groebner import Ideal, homogenized_ideal
from .polyhedra import (HCone, cone_from_rays, validate_fan,
                        FanValidationError, newton_polyhedron, normal_fan)
from .fans import (WeightSubspace, full_subspace, region_cone,
                   enumerate_cones, assemble_closed_fan)
from .localfan import (assemble_local_fan, translate_base_point,
                       local_initials_equal)

MODES = ("global-fan", "local-fan", "normal-fan", "compare-initials",
         "check-fan")
REGIONS = ("uloc", "upos", "uglob", "wloc", "wglob")
HOMOGENIZATIONS = sum(LIFTS.values(), ()) + ("auto",)
# largest exponent `^k` the parser expands; higher powers are rejected
# before any multiplication
MAX_EXPONENT = 100
# most terms one product in the parser may produce before like terms
# combine; a larger product is rejected before it is multiplied out
MAX_TERMS = 10000
# deepest parenthesis nesting and longest digit string the parser accepts
MAX_NESTING = 100
MAX_DIGITS = 1000
# the shape of a rational as qstr writes it; a string of another shape
# (an exponent such as 1e-99999999 included) is never parsed
_QSTR = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


class ParseError(Exception):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = "line %d, column %d: %s" % (line, col, msg)
        super().__init__(msg)


class ComputationError(Exception):
    pass


# --- tokenizer -----------------------------------------------------------

_SYMBOLS = "+-*^()[],;:/"


def tokenize(text):
    toks = []
    line, col, depth = 1, 1, 0
    i, m = 0, len(text)
    while i < m:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < m and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < m and text[j].isdigit():
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError("a number of %d digits exceeds the cap of %d"
                                 % (j - i, MAX_DIGITS), line, col)
            toks.append(("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < m and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d (the cap)"
                                 % MAX_NESTING, line, col)
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(("eof", "", line, col))
    return toks


class _Stream:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, kind, what=None):
        t = self.next()
        if t[0] != kind:
            raise ParseError("expected %s, found %r" % (what or kind, t[1]),
                             t[2], t[3])
        return t

    def error(self, msg):
        t = self.peek()
        raise ParseError(msg, t[2], t[3])


def _dashed_name(ts):
    """A name possibly containing dashes, e.g. `local-fan`, `base-point`."""
    t = ts.expect("name")
    out = t[1]
    while ts.peek()[0] == "-" and ts.toks[ts.i + 1][0] == "name":
        ts.next()
        out += "-" + ts.next()[1]
    return out


# --- expression parsing --------------------------------------------------

def _multiply(a, b, t):
    """a * b, or a ParseError at token t if the product can produce more
    than MAX_TERMS terms before like terms combine: one per pair of terms,
    and for a Weyl pair prod(min(b_i, c_i) + 1), with b the d-exponents of
    the left term and c the x-exponents of the right."""
    size = len(a.terms) * len(b.terms)
    if a.sig.has_d and size <= MAX_TERMS:
        n = a.sig.n
        size = sum(prod(min(x, y) + 1 for x, y in zip(e1[n:2 * n], e2[:n]))
                   for e1 in a.terms for e2 in b.terms)
    if size > MAX_TERMS:
        raise ParseError("product can produce more than %d terms (the cap)"
                         % MAX_TERMS, t[2], t[3])
    return a * b


class _ExprParser:
    def __init__(self, ts, sig):
        self.ts = ts
        self.sig = sig
        self.vars = {}
        for i, nm in enumerate(sig.names):
            self.vars[nm] = i
            if sig.has_d:
                self.vars["d" + nm] = sig.n + i

    def expr(self):
        ts = self.ts
        neg = False
        if ts.peek()[0] in ("+", "-"):
            neg = ts.next()[0] == "-"
        out = self.term()
        if neg:
            out = -out
        while ts.peek()[0] in ("+", "-"):
            op = ts.next()[0]
            t = self.term()
            out = out - t if op == "-" else out + t
        return out

    def term(self):
        ts = self.ts
        out = self.factor()
        while True:
            k = ts.peek()[0]
            if k == "*":
                ts.next()
            elif k not in ("name", "num", "("):
                return out
            t = ts.peek()
            out = _multiply(out, self.factor(), t)

    def factor(self):
        ts = self.ts
        neg = False
        while ts.peek()[0] == "-":  # a loop, so a run of signs cannot recurse
            ts.next()
            neg = not neg
        out = self.atom()
        if ts.peek()[0] == "^":
            ts.next()
            t = ts.peek()
            if t[0] != "num":
                raise ParseError("exponent must be a nonnegative integer",
                                 t[2], t[3])
            k = int(ts.next()[1])
            if k > MAX_EXPONENT:
                raise ParseError("exponent %d exceeds the cap of %d"
                                 % (k, MAX_EXPONENT), t[2], t[3])
            base, out = out, Element.constant(self.sig, 1)
            for _ in range(k):
                out = _multiply(out, base, t)
        return -out if neg else out

    def atom(self):
        ts = self.ts
        t = ts.next()
        if t[0] == "num":
            num = int(t[1])
            if ts.peek()[0] == "/" and ts.toks[ts.i + 1][0] == "num":
                ts.next()
                den = int(ts.next()[1])
                if den == 0:
                    raise ParseError("zero denominator", t[2], t[3])
                return Element.constant(self.sig, QQ(num, den))
            return Element.constant(self.sig, QQ(num))
        if t[0] == "name":
            slot = self.vars.get(t[1])
            if slot is None:
                raise ParseError("unknown variable %r" % t[1], t[2], t[3])
            return Element.variable(self.sig, slot)
        if t[0] == "(":
            out = self.expr()
            ts.expect(")")
            return out
        raise ParseError("expected a term, found %r" % t[1], t[2], t[3])


def _rational_token(ts):
    sign = 1
    if ts.peek()[0] == "-":
        ts.next()
        sign = -1
    t = ts.expect("num", "a number")
    num = int(t[1])
    if ts.peek()[0] == "/":
        ts.next()
        den = int(ts.expect("num", "a denominator")[1])
        if den == 0:
            raise ParseError("zero denominator", t[2], t[3])
        return QQ(sign * num, den)
    return sign * num


def _integer_token(ts):
    t = ts.peek()
    q = _rational_token(ts)
    if q.denominator != 1:
        raise ParseError("expected an integer, found %s" % q, t[2], t[3])
    return int(q)


def _vector(ts, entry=_rational_token):
    ts.expect("[")
    out = []
    if ts.peek()[0] != "]":
        out.append(entry(ts))
        while ts.peek()[0] == ",":
            ts.next()
            out.append(entry(ts))
    ts.expect("]")
    return tuple(out)


def _matrix(ts):
    ts.expect("[")
    rows = [_vector(ts)]
    while ts.peek()[0] == ",":
        ts.next()
        rows.append(_vector(ts))
    ts.expect("]")
    return rows


# --- problem specification -----------------------------------------------

class ProblemSpec:
    __slots__ = ("sig", "generators", "rows", "mode", "base_point",
                 "weights", "region", "homogenization", "alpha")

    def __init__(self):
        self.sig = None
        self.generators = []
        self.rows = None
        self.mode = None
        self.base_point = None
        self.weights = None
        self.region = None
        self.homogenization = "auto"
        self.alpha = None


def parse_problem(text):
    ts = _Stream(tokenize(text))
    spec = ProblemSpec()
    while ts.peek()[0] != "eof":
        kw = _dashed_name(ts)
        if kw == "ring":
            kind = ts.expect("name", "poly or weyl")[1]
            if kind not in (POLY, WEYL):
                ts.error("ring kind must be poly or weyl")
            ts.expect("(")
            names = [ts.expect("name", "a variable name")[1]]
            while ts.peek()[0] == ",":
                ts.next()
                names.append(ts.expect("name", "a variable name")[1])
            ts.expect(")")
            ts.expect(";")
            spec.sig = RingSignature(len(names), kind, names=names)
            continue
        ts.expect(":", "':'")
        if kw == "ideal":
            if spec.sig is None:
                ts.error("ring must be declared before the ideal")
            ep = _ExprParser(ts, spec.sig)
            spec.generators.append(ep.expr())
            while ts.peek()[0] == ",":
                ts.next()
                spec.generators.append(ep.expr())
        elif kw == "subspace":
            word = ts.expect("name", "'rows'")[1]
            if word != "rows":
                ts.error("subspace expects `rows [[...],[...]]`")
            spec.rows = _matrix(ts)
        elif kw == "mode":
            mode = _dashed_name(ts)
            if mode not in MODES:
                ts.error("unknown mode %r" % mode)
            spec.mode = mode
        elif kw == "base-point":
            spec.base_point = _vector(ts)
        elif kw == "weights":
            spec.weights = _matrix(ts)
        elif kw == "region":
            region = ts.expect("name", "a region name")[1]
            if region not in REGIONS:
                ts.error("unknown region %r" % region)
            spec.region = region
        elif kw == "homogenization":
            h = ts.expect("name", "a homogenization name")[1]
            if h not in HOMOGENIZATIONS:
                ts.error("unknown homogenization %r" % h)
            spec.homogenization = h
        elif kw == "alpha":
            spec.alpha = _vector(ts, _integer_token)
        else:
            ts.error("unknown statement %r" % kw)
        ts.expect(";")
    if spec.sig is None:
        raise ParseError("no ring declared")
    if not spec.generators:
        raise ParseError("no ideal generators given")
    for g in spec.generators:
        if g.is_zero():
            raise ParseError("zero generator in the ideal")
    return spec


# --- pipeline ------------------------------------------------------------

def _default_region(sig, mode):
    if sig.kind == POLY:
        return "uloc"
    if mode == "global-fan":
        return "wglob"
    return "wloc"


def _subspace(spec, mode):
    sig = spec.sig
    wd = sig.weight_dim
    region = spec.region or _default_region(sig, mode)
    if spec.rows is None:
        return full_subspace(sig, region)
    for r in spec.rows:
        if len(r) != wd:
            raise ParseError("subspace rows must have arity %d" % wd)
    return WeightSubspace(wd, spec.rows, region_cone(sig, region))


def _lift(spec, mode):
    """The lift the run computes in (`auto`: the first allowed; None for
    normal-fan).  A global fan takes any lift of its ring kind in
    rings.LIFTS, by default the last (h11 for a Weyl ring); a local run
    lifts by the first, the local lift, so only a poly global fan takes
    `alpha:`.  An unused setting is a ParseError."""
    kind = spec.sig.kind
    if mode == "normal-fan":
        lifts = ()
    elif mode == "global-fan":
        lifts = LIFTS[kind][::-1]
    else:
        lifts = LIFTS[kind][:1]
    h = spec.homogenization
    if h != "auto" and h not in lifts:
        raise ParseError("homogenization %s is not used by %s on a %s ring "
                         "(it uses %s)" % (h, mode, kind,
                                           " or ".join(lifts) or "none"))
    if spec.alpha is not None:
        if (kind, mode) != (POLY, "global-fan"):
            raise ParseError("alpha is used only by global-fan on a poly ring")
        if len(spec.alpha) != spec.sig.n or min(spec.alpha) <= 0:
            raise ParseError("alpha must be %d positive integers" % spec.sig.n)
    return next(iter(lifts), None) if h == "auto" else h


def _ivec(v):
    return [int(x) for x in v]


def _cone_record(c):
    return {
        "dim": int(c.dim),
        "equations": [_ivec(e) for e in c.equation_basis()],
        "facets": [_ivec(f) for f in c.facet_covectors()],
        "rays": [_ivec(r) for r in c.rays()],
        "lineality": [_ivec(l) for l in c.lineality()],
    }


def _provenance(text):
    return {
        "input_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "tool": "grobfan",
        "version": __version__,
    }


def _incidence(cones):
    """Facet-of pairs [i, j], sorted: cone j is a facet of cone i, for
    cones listed in id order."""
    key_to_id = {c.key(): i for i, c in enumerate(cones)}
    return sorted([i, key_to_id[k]] for i, c in enumerate(cones)
                  for k in c.facet_keys() if k in key_to_id)


def _fan_document(mode, S, cones, annotations, classes, text):
    """Canonical document: cones sorted by (dim desc, facets lex) with ids,
    facet-of incidence pairs, and per-cone annotations keyed by cone key."""
    records = []
    for c in cones:
        rec = _cone_record(c)
        ann = annotations.get(c.key())
        if ann:
            rec.update(ann)
        records.append((c, rec))
    records.sort(key=lambda cr: (-cr[1]["dim"], cr[1]["facets"],
                                 cr[1]["equations"]))
    for i, (c, rec) in enumerate(records):
        rec["id"] = i
    doc = {
        "format": "grobfan-fan",
        "mode": mode,
        "ambient_dim": S.ambient,
        "parameter_dim": S.dim,
        "subspace_rows": [[qstr(x) for x in r] for r in S.rows],
        "cones": [rec for _, rec in records],
        "incidence": _incidence([c for c, _ in records]),
        "provenance": _provenance(text),
    }
    if classes is not None:
        doc["classes"] = classes
    return doc


def run(spec, text="", validate=False):
    """Dispatch the parsed problem and return the result document."""
    mode = spec.mode
    if mode is None:
        raise ParseError("no mode given (statement `mode:` or flag --mode)")
    if mode == "check-fan":
        raise ParseError("check-fan reads a fan document, not a problem")
    lift = _lift(spec, mode)
    sig = spec.sig
    ideal = Ideal(sig, spec.generators)
    if spec.base_point is not None:
        if len(spec.base_point) != sig.n:
            raise ParseError("base-point must have %d entries" % sig.n)
        ideal = translate_base_point(ideal, spec.base_point)

    if mode == "compare-initials":
        if not spec.weights or len(spec.weights) != 2:
            raise ParseError("compare-initials needs `weights: [[w],[w']];`")
        if any(len(w) != sig.weight_dim for w in spec.weights):
            raise ParseError("weights must have %d entries each"
                             % sig.weight_dim)
        w1, w2 = (tuple(QQ(x) for x in w) for w in spec.weights)
        try:
            equal = local_initials_equal(ideal, w1, w2)
        except ValueError as e:
            raise ComputationError(str(e))
        return {
            "format": "grobfan-report",
            "mode": mode,
            "weights": [[qstr(x) for x in w] for w in (w1, w2)],
            "equal": bool(equal),
            "provenance": _provenance(text),
        }

    S = _subspace(spec, mode)

    if mode == "normal-fan":
        if len(ideal.generators) != 1:
            raise ParseError("normal-fan needs exactly one generator")
        g = ideal.generators[0]
        np = newton_polyhedron(g)
        dual = HCone(np.ambient, [tuple(-x for x in r) for r in np.rays])
        cones = normal_fan(np, dual)
        Sfull = WeightSubspace(
            np.ambient,
            [tuple(1 if j == i else 0 for j in range(np.ambient))
             for i in range(np.ambient)],
            dual)
        return _fan_document(mode, Sfull, cones, {}, None, text)

    if mode == "local-fan":
        lf = assemble_local_fan(ideal, S)
        annotations = {}
        classes = []
        for ci, cl in enumerate(sorted(
                lf.classes, key=lambda c: tuple(qstr(x) for x in c.witness))):
            annotations.setdefault(cl.closure.key(), {}).update({
                "class": ci,
                "witness": [qstr(x) for x in cl.witness],
            })
            classes.append({
                "id": ci,
                "members": len(cl.members),
                "stratum": [sorted(int(i) for i in part)
                            for part in cl.stratum],
                "witness": [qstr(x) for x in cl.witness],
            })
        return _fan_document(mode, S, lf.cones, annotations, classes, text)

    # global-fan
    hid = homogenized_ideal(ideal, mode=lift, alpha=spec.alpha)
    maximal = enumerate_cones(hid, S)
    cones = assemble_closed_fan([gc.cone for gc in maximal])
    if validate:
        ok, problems = validate_fan(cones)
        if not ok:
            raise FanValidationError(problems[0])
    annotations = {}
    for gc in maximal:
        annotations[gc.key()] = {
            "witness": [qstr(x) for x in gc.witness],
            "initials": sorted(str(g) for g in gc.initials),
        }
    return _fan_document(mode, S, cones, annotations, None, text)


# --- output --------------------------------------------------------------

def emit(doc, fmt="json"):
    if fmt == "json":
        return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
    lines = ["mode: %s" % doc["mode"]]
    if doc.get("format") == "grobfan-report":
        lines.append("equal: %s" % ("yes" if doc["equal"] else "no"))
        return ("\n".join(lines) + "\n").encode("utf-8")
    cones = doc.get("cones", [])
    bydim = {}
    for c in cones:
        bydim[c["dim"]] = bydim.get(c["dim"], 0) + 1
    maxdim = max(bydim) if bydim else 0
    rays = {tuple(r) for c in cones if c["dim"] == maxdim for r in c["rays"]}
    lines.append("maximal cones: %d; rays: %d"
                 % (bydim.get(maxdim, 0), len(rays)))
    for d in sorted(bydim, reverse=True):
        lines.append("cones of dimension %d: %d" % (d, bydim[d]))
    for cl in doc.get("classes", []) or []:
        lines.append("class %d: %d member cone(s), witness (%s)"
                     % (cl["id"], cl["members"], ", ".join(cl["witness"])))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _clip(value, depth=2):
    """A short repr of a recorded or rebuilt value for an error message:
    each list shows its first 3 entries and its length, lists nest at most
    depth deep, and any other repr is cut to 40 characters."""
    if type(value) is list:
        if depth == 0 and value:
            return "[... %d entries]" % len(value)
        parts = [_clip(x, depth - 1) for x in value[:3]]
        if len(value) > 3:
            parts.append("... %d entries" % len(value))
        return "[%s]" % ", ".join(parts)
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _is_qstr(s):
    """True iff s is a string qstr writes: the rational it parses to."""
    return (type(s) is str and _QSTR.fullmatch(s) is not None
            and qstr(QQ(s)) == s)


def check_fan_document(doc):
    """Rebuild the cones of a fan document from their rays, check that the
    recorded cone data and incidence agree with the rebuilt cones, and
    revalidate the fan axioms.  Returns (ok, list of problem strings)."""
    try:
        ambient = doc["parameter_dim"]
        rows = doc["subspace_rows"]
        if type(ambient) is not int or ambient != len(rows):
            raise ValueError("parameter_dim must be the number of "
                             "subspace rows")
        n = doc["ambient_dim"]
        if type(n) is not int or n < 0 or any(
                type(r) is not list or len(r) != n
                or not all(map(_is_qstr, r)) for r in rows):
            raise ValueError("ambient_dim must be a nonnegative int and "
                             "subspace_rows lists of %r rationals written "
                             "p or p/q in lowest terms" % (n,))
        for rec in doc["cones"]:
            for v in rec["rays"] + rec["lineality"]:
                if (type(v) is not list or len(v) != ambient
                        or any(type(x) is not int for x in v)):
                    raise ValueError("rays and lineality must be lists of "
                                     "%d integers" % ambient)
        cones = [cone_from_rays(ambient, rec["rays"], rec["lineality"])
                 for rec in doc["cones"]]
        recorded = list(doc["incidence"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError("malformed fan document: %s" % e)
    if not cones:
        return False, ["document has no cones"]
    problems = []
    first = {}
    for i, (c, rec) in enumerate(zip(cones, doc["cones"])):
        j = first.setdefault(c.key(), i)
        if j != i:
            problems.append("cones %d and %d are the same cone" % (j, i))
        expected = dict(_cone_record(c), id=i)
        for field, value in expected.items():
            if rec.get(field) != value:
                problems.append("cone %d: recorded %s %s, rebuilt %s"
                                % (i, field, _clip(rec.get(field)),
                                   _clip(value)))
    incidence = _incidence(cones)
    if recorded != incidence:
        extra = [p for p in recorded if p not in incidence]
        missing = [p for p in incidence if p not in recorded]
        problems.append("incidence: recorded pairs %s are not facet pairs, "
                        "facet pairs %s are not recorded (or out of order)"
                        % (_clip(extra), _clip(missing)))
    ok, fan_problems = validate_fan(cones)
    problems.extend(fan_problems)
    return (not problems), problems


# --- entry point ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _parse_inline_rows(textval):
    toks = _Stream(tokenize(textval))
    rows = _matrix(toks)
    toks.expect("eof")
    return rows


def _parse_inline_vector(textval):
    textval = textval.strip()
    if not textval.startswith("["):
        textval = "[" + textval + "]"
    toks = _Stream(tokenize(textval))
    v = _vector(toks)
    toks.expect("eof")
    return v


def main(argv=None):
    ap = _Parser(prog="grobfan",
                 description="Groebner fans of polynomial and differential "
                             "ideals in exact arithmetic.")
    ap.add_argument("--mode", choices=MODES)
    ap.add_argument("--input", help="problem file (default: stdin)")
    ap.add_argument("--subspace", help="rows, inline `[[...],[...]]` or file")
    ap.add_argument("--base-point", dest="base_point",
                    help="rational point, e.g. `[1,-2]`")
    ap.add_argument("--homogenization", choices=HOMOGENIZATIONS)
    ap.add_argument("--emit", choices=("json", "summary"), default="json")
    ap.add_argument("--validate", action="store_true",
                    help="run fan validation even in global mode")
    ap.add_argument("--version", action="version",
                    version="grobfan " + __version__)
    args = ap.parse_args(argv)

    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1

    try:
        if args.mode == "check-fan" or (args.mode is None
                                        and text.lstrip().startswith("{")):
            try:  # deep nesting and over-long integers hit Python's limits
                doc = json.loads(text)
            except (RecursionError, ValueError) as e:
                raise ParseError("malformed fan document: %s" % e)
            ok, problems = check_fan_document(doc)
            if not ok:
                sys.stderr.write("fan validation failed: %s\n" % problems[0])
                return 4
            sys.stdout.buffer.write(emit(doc, args.emit))
            return 0
        spec = parse_problem(text)
        if args.mode:
            spec.mode = args.mode
        if args.subspace:
            sub = args.subspace
            try:
                with open(sub, "r", encoding="utf-8") as fh:
                    sub = fh.read()
            except OSError:
                pass
            spec.rows = _parse_inline_rows(sub)
        if args.base_point:
            spec.base_point = _parse_inline_vector(args.base_point)
        if args.homogenization:
            spec.homogenization = args.homogenization
        doc = run(spec, text=text, validate=args.validate)
        sys.stdout.buffer.write(emit(doc, args.emit))
        return 0
    except ParseError as e:
        sys.stderr.write("parse error: %s\n" % e)
        return 2
    except FanValidationError as e:
        sys.stderr.write("fan validation failed: %s\n" % e)
        return 4
    except (ComputationError, RuntimeError, ValueError,
            ArithmeticError) as e:
        sys.stderr.write("computation error: %s\n" % e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
