"""Elements of polynomial rings and (homogenized) Weyl algebras.

A signature names a ring kind, `poly` (k[x1..xn]) or `weyl` (the Weyl
algebra, di*xi = xi*di + 1), and a homogenization: `none`, or one of the
lifts in LIFT_TABLE.  A lift adds one slot to the ring it starts from.
The table records, for each lift, its source ring (kind and
homogenization), its grading (the weights under which every lifted element
is homogeneous: each x by alpha or by a constant, each d and each h slot
by 1) and its commutator (the power of each h slot in di*xi - xi*di):

    lift     source      grading on x, d, h, h'    di*xi - xi*di
    alpha    poly/none   alpha, -, 1, -            (no d)
    h01      weyl/none   0, 1, 1, -                h
    h11      weyl/none   1, 1, 1, -                h^2
    double   weyl/h01    1, 1, 1, 1                h*h'

`RingSignature.grading` and `.commutator` are read from the table, and
every layer reads them rather than the lift's name.  LIFTS lists the lifts
each ring kind computes in; the first is the default and the local lift.
h01 is computed in only as the first step of `double`.

Elements store a finite map from normally ordered exponent vectors
(x-block, d-block, h, h') to nonzero ints or QQ rationals (quotients are
taken in QQ, so never a float), and are immutable by convention; the
constructor drops zeros.  h' is the second homogenization variable.
"""

from collections import namedtuple
from math import comb, factorial
from itertools import product
from operator import mul

from .rational import QQ, qstr
from .linalg import primitive

POLY = "poly"
WEYL = "weyl"

# One row per homogenization: the ring kind it lifts, the homogenization of
# its source ring, the grading weight of each x (None: the signature's alpha
# weights; each d and each h slot weighs 1), and the power of each h slot of
# the lifted ring (h, then h') in d_i*x_i - x_i*d_i.
Lift = namedtuple("Lift", "kind source x_weight commutator")
LIFT_TABLE = {
    "alpha": Lift(POLY, "none", None, (0,)),
    "h01": Lift(WEYL, "none", 0, (1,)),
    "h11": Lift(WEYL, "none", 1, (2,)),
    "double": Lift(WEYL, "h01", 1, (1, 1)),
}
LIFTS = {POLY: ("alpha",), WEYL: ("double", "h11")}


class RingSignature:
    __slots__ = ("n", "kind", "homog", "alpha", "names", "grading",
                 "commutator")

    def __init__(self, n, kind, homog="none", alpha=None, names=None):
        lift = LIFT_TABLE.get(homog)
        known = lift.kind == kind if lift else homog == "none"
        if kind not in LIFTS or not known:
            raise ValueError("bad ring signature %s/%s" % (kind, homog))
        if lift and lift.x_weight is None:
            if alpha is None:
                alpha = (1,) * n
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a <= 0 for a in alpha):
                raise ValueError("alpha must be %d positive integers" % n)
        elif alpha is not None:
            raise ValueError("a %s/%s ring takes no alpha" % (kind, homog))
        self.n = n
        self.kind = kind
        self.homog = homog
        self.alpha = alpha
        self.names = tuple(names) if names else tuple("x%d" % (i + 1) for i in range(n))
        if len(self.names) != n:
            raise ValueError("need %d variable names" % n)
        self.commutator = lift.commutator if lift else ()
        self.grading = None
        if lift:
            xs = alpha if lift.x_weight is None else (lift.x_weight,) * n
            self.grading = xs + (1,) * (self.nslots - n)

    # --- slot layout ------------------------------------------------
    @property
    def has_d(self):
        return self.kind == WEYL

    @property
    def has_h2(self):
        return len(self.commutator) == 2

    @property
    def nslots(self):
        return self.weight_dim + len(self.commutator)

    @property
    def h_slot(self):
        return self.weight_dim if self.commutator else None

    @property
    def weight_dim(self):
        """Dimension of the weight space acting on x/d blocks (h slots always
        carry weight zero)."""
        return 2 * self.n if self.has_d else self.n

    def slot_names(self):
        out = list(self.names)
        if self.has_d:
            out += ["d" + s for s in self.names]
        return out + ["h", "h'"][:len(self.commutator)]

    def slot_weight(self, w):
        """Extend an (x,d)-block weight vector by zeros on h slots."""
        w = tuple(w)
        if len(w) != self.weight_dim:
            raise ValueError("weight vector has arity %d, expected %d"
                             % (len(w), self.weight_dim))
        return w + (0,) * len(self.commutator)

    def key(self):
        return (self.n, self.kind, self.homog, self.alpha, self.names)

    def __eq__(self, other):
        return isinstance(other, RingSignature) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "RingSignature(n=%d, %s/%s)" % (self.n, self.kind, self.homog)


def _term_str(sig, exp, coeff):
    names = sig.slot_names()
    parts = []
    for e, nm in zip(exp, names):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append("%s^%d" % (nm, e))
    body = "*".join(parts)
    c = qstr(coeff)
    if not body:
        return c
    if c == "1":
        return body
    if c == "-1":
        return "-" + body
    return c + "*" + body


class Element:
    """A normally ordered element with exact rational coefficients."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig, terms):
        self.sig = sig
        self.terms = {e: c for e, c in terms.items() if c}

    # --- constructors ----------------------------------------------
    @classmethod
    def zero(cls, sig):
        return cls(sig, {})

    @classmethod
    def monomial(cls, sig, exp, coeff=1):
        exp = tuple(int(e) for e in exp)
        if len(exp) != sig.nslots or any(e < 0 for e in exp):
            raise ValueError("bad exponent vector %r" % (exp,))
        return cls(sig, {exp: QQ(coeff)})

    @classmethod
    def constant(cls, sig, c):
        return cls(sig, {(0,) * sig.nslots: QQ(c)})

    @classmethod
    def variable(cls, sig, slot):
        exp = [0] * sig.nslots
        exp[slot] = 1
        return cls.monomial(sig, tuple(exp))

    # --- basic queries ----------------------------------------------
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Element) and self.sig == other.sig
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    # --- arithmetic -------------------------------------------------
    def _check(self, other):
        if self.sig != other.sig:
            raise ValueError("ring signature mismatch")

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + sign * c
        return Element(self.sig, terms)

    def __neg__(self):
        return Element(self.sig, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return Element.zero(self.sig)
        return Element(self.sig, {e: c * k for e, k in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        self._check(other)
        sig = self.sig
        out = {}
        if not sig.has_d:
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
            return Element(sig, out)
        n = sig.n
        # each h slot gains its commutator power per commutation
        hslots = tuple(zip(range(2 * n, sig.nslots), sig.commutator))
        for e1, c1 in self.terms.items():
            b = e1[n:2 * n]
            for e2, c2 in other.terms.items():
                cc = e2[:n]
                base = c1 * c2
                ranges = [range(min(bi, ci) + 1) for bi, ci in zip(b, cc)]
                for k in product(*ranges):
                    coeff = base
                    for bi, ci, ki in zip(b, cc, k):
                        if ki:
                            coeff *= comb(bi, ki) * comb(ci, ki) * factorial(ki)
                    e = list(e1)
                    for i in range(n):
                        e[i] += cc[i] - k[i]
                        e[n + i] += e2[n + i] - k[i]
                    tot = sum(k)
                    for j, c in hslots:
                        e[j] += e2[j] + c * tot
                    e = tuple(e)
                    out[e] = out.get(e, 0) + coeff
        return Element(sig, out)

    __rmul__ = scale

    # --- degrees and weights ----------------------------------------
    def is_homogeneous(self):
        """True iff all terms have one degree under the signature's grading;
        in an unlifted ring, only zero is."""
        g = self.sig.grading
        if g is None:
            return not self.terms
        return len({sum(map(mul, g, e)) for e in self.terms}) <= 1

    def initial_form(self, slot_w):
        """The top-weight terms, weighed once by the primitive slot weight."""
        w = primitive(slot_w)
        weights = {e: sum(map(mul, w, e)) for e in self.terms}
        top = max(weights.values(), default=0)
        return Element(self.sig, {e: c for e, c in self.terms.items()
                                  if weights[e] == top})

    # --- printing ---------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))
        out = _term_str(self.sig, *items[0])
        for e, c in items[1:]:
            t = _term_str(self.sig, e, c)
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    __repr__ = __str__


# --- homogenization maps -------------------------------------------------

def homogenize(p, mode, alpha=None):
    """Lift p by the homogenization `mode` of LIFT_TABLE into the ring it
    names: the added slot pads each term up to the top degree under the
    lift's grading.  alpha weights are for the alpha lift; any other lift
    rejects them."""
    lift = LIFT_TABLE.get(mode)
    if lift is None:
        raise ValueError("unknown homogenization mode %r" % (mode,))
    sig = p.sig
    if (sig.kind, sig.homog) != (lift.kind, lift.source):
        raise ValueError("%s homogenization expects a %s/%s element"
                         % (mode, lift.kind, lift.source))
    tgt = RingSignature(sig.n, sig.kind, mode, alpha=alpha, names=sig.names)
    degs = {e: sum(map(mul, tgt.grading, e)) for e in p.terms}
    top = max(degs.values(), default=0)
    return Element(tgt, {e + (top - degs[e],): c for e, c in p.terms.items()})


def dehomogenize(p):
    """Invert the lift of p's signature: substitute 1 for the slot it added
    (the last one) and land in its source ring."""
    sig = p.sig
    lift = LIFT_TABLE.get(sig.homog)
    if lift is None:
        raise ValueError("%r is not a lifted ring" % (sig,))
    tgt = RingSignature(sig.n, sig.kind, lift.source, names=sig.names)
    out = {}
    for e, c in p.terms.items():
        out[e[:-1]] = out.get(e[:-1], 0) + c
    return Element(tgt, out)


def translate(p, point):
    """Substitute x_i -> x_i + point_i (derivations are unaffected).  In a
    normally ordered term every x stands left of every d, so the term
    becomes its x-free part multiplied from the left by each x_i + point_i
    as often as x_i occurs."""
    sig = p.sig
    point = [QQ(c) for c in point]
    if len(point) != sig.n:
        raise ValueError("base point arity mismatch")
    if all(c == 0 for c in point):
        return p
    shifts = [Element.variable(sig, i) + Element.constant(sig, c)
              for i, c in enumerate(point)]
    out = Element.zero(sig)
    for e, c in p.terms.items():
        term = Element.monomial(sig, (0,) * sig.n + e[sig.n:], c)
        for shift, k in zip(shifts, e[:sig.n]):
            for _ in range(k):
                term = shift * term
        out += term
    return out
