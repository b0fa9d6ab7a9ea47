"""Elements of polynomial rings and (homogenized) Weyl algebras.

Supported rings, selected by a signature:

  * poly/none    k[x1..xn]
  * poly/alpha   k[x1..xn, h]        (weighted homogenization variable)
  * weyl/none    the Weyl algebra,   di*xi = xi*di + 1
  * weyl/h01     homogenized,        di*xi = xi*di + h
  * weyl/h11     homogenized,        di*xi = xi*di + h^2
  * weyl/double  doubly homogenized, di*xi = xi*di + h*h2

Elements store a finite map from normally ordered exponent vectors
(x-block, d-block, h, h2) to nonzero rational coefficients and are
immutable by convention.  h2 denotes the second homogenization variable
(printed as h').
"""

from math import comb, factorial
from itertools import product

from .rational import QQ, qstr

POLY = "poly"
WEYL = "weyl"

_VALID = {
    (POLY, "none"), (POLY, "alpha"),
    (WEYL, "none"), (WEYL, "h01"), (WEYL, "h11"), (WEYL, "double"),
}


class RingSignature:
    __slots__ = ("n", "kind", "homog", "alpha", "names")

    def __init__(self, n, kind, homog="none", alpha=None, names=None):
        if (kind, homog) not in _VALID:
            raise ValueError("bad ring signature %s/%s" % (kind, homog))
        if homog == "alpha":
            if alpha is None:
                alpha = (1,) * n
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a <= 0 for a in alpha):
                raise ValueError("alpha must be %d positive integers" % n)
        else:
            alpha = None
        self.n = n
        self.kind = kind
        self.homog = homog
        self.alpha = alpha
        self.names = tuple(names) if names else tuple("x%d" % (i + 1) for i in range(n))
        if len(self.names) != n:
            raise ValueError("need %d variable names" % n)

    # --- slot layout ------------------------------------------------
    @property
    def has_d(self):
        return self.kind == WEYL

    @property
    def has_h(self):
        return self.homog != "none"

    @property
    def has_h2(self):
        return self.homog == "double"

    @property
    def nslots(self):
        base = 2 * self.n if self.has_d else self.n
        return base + (1 if self.has_h else 0) + (1 if self.has_h2 else 0)

    @property
    def h_slot(self):
        if not self.has_h:
            return None
        return 2 * self.n if self.has_d else self.n

    @property
    def h2_slot(self):
        return self.h_slot + 1 if self.has_h2 else None

    @property
    def weight_dim(self):
        """Dimension of the weight space acting on x/d blocks (h, h2 always
        carry weight zero)."""
        return 2 * self.n if self.has_d else self.n

    def slot_names(self):
        out = list(self.names)
        if self.has_d:
            out += ["d" + s for s in self.names]
        if self.has_h:
            out.append("h")
        if self.has_h2:
            out.append("h'")
        return out

    def slot_weight(self, w):
        """Extend an (x,d)-block weight vector by zeros on h slots."""
        w = tuple(w)
        if len(w) != self.weight_dim:
            raise ValueError("weight vector has arity %d, expected %d"
                             % (len(w), self.weight_dim))
        return w + (0,) * (self.nslots - self.weight_dim)

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
        self.terms = {e: QQ(c) for e, c in terms.items() if c != 0}

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
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Element(self.sig, terms)

    def __sub__(self, other):
        return self + (-other)

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
                    s = out.get(e, 0) + c1 * c2
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
            return Element(sig, out)
        n = sig.n
        hs, h2s = sig.h_slot, sig.h2_slot
        homog = sig.homog
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
                    if hs is not None:
                        e[hs] += e2[hs]
                    if h2s is not None:
                        e[h2s] += e2[h2s]
                    if tot:
                        if homog == "h01":
                            e[hs] += tot
                        elif homog == "h11":
                            e[hs] += 2 * tot
                        elif homog == "double":
                            e[hs] += tot
                            e[h2s] += tot
                    e = tuple(e)
                    s = out.get(e, 0) + coeff
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
        return Element(sig, out)

    __rmul__ = scale

    # --- degrees and weights ----------------------------------------
    def deg01(self, exp):
        """|d-block| + h exponent (the grading used by the h01 lift)."""
        sig = self.sig
        s = sum(exp[sig.n:2 * sig.n]) if sig.has_d else 0
        if sig.has_h:
            s += exp[sig.h_slot]
        return s

    def is_homogeneous(self):
        sig = self.sig
        if not self.terms:
            return True
        if sig.homog == "h01":
            degs = {self.deg01(e) for e in self.terms}
        elif sig.homog in ("h11", "double"):
            degs = {sum(e) for e in self.terms}
        elif sig.homog == "alpha":
            a = sig.alpha + (1,)
            degs = {sum(x * y for x, y in zip(e, a)) for e in self.terms}
        else:
            return False
        return len(degs) == 1

    def weight_order(self, slot_w):
        if not self.terms:
            raise ValueError("weight order of zero is undefined")
        return max(sum(wi * ei for wi, ei in zip(slot_w, e)) for e in self.terms)

    def initial_form(self, slot_w):
        if not self.terms:
            return self
        m = self.weight_order(slot_w)
        return Element(self.sig, {
            e: c for e, c in self.terms.items()
            if sum(wi * ei for wi, ei in zip(slot_w, e)) == m})

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

def _map_sig(sig, homog, alpha=None):
    return RingSignature(sig.n, sig.kind, homog, alpha=alpha, names=sig.names)


def homogenize(p, mode, alpha=None):
    """Homogenize an element into the matching homogenized ring.

    h01:   pad with h so every term has d-degree + h-degree = max d-degree.
    h11:   pad with h up to the maximal total degree.
    double: input must live in the h01 ring; pad with h' up to the maximal
            total degree (h' and h both count 1).
    alpha: weighted homogenization of a commutative polynomial.
    """
    sig = p.sig
    if mode in ("h01", "h11"):
        if sig.kind != WEYL or sig.homog != "none":
            raise ValueError("h01/h11 homogenization expects a plain Weyl element")
        tgt = _map_sig(sig, mode)
        n = sig.n
        if not p.terms:
            return Element.zero(tgt)
        if mode == "h01":
            deg = max(sum(e[n:2 * n]) for e in p.terms)
            return Element(tgt, {e + (deg - sum(e[n:2 * n]),): c
                                 for e, c in p.terms.items()})
        deg = max(sum(e) for e in p.terms)
        return Element(tgt, {e + (deg - sum(e),): c for e, c in p.terms.items()})
    if mode == "double":
        if sig.kind != WEYL or sig.homog != "h01":
            raise ValueError("double homogenization expects an h01 element")
        tgt = _map_sig(sig, "double")
        if not p.terms:
            return Element.zero(tgt)
        deg = max(sum(e) for e in p.terms)
        return Element(tgt, {e + (deg - sum(e),): c for e, c in p.terms.items()})
    if mode == "alpha":
        if sig.kind != POLY or sig.homog != "none":
            raise ValueError("alpha homogenization expects a commutative polynomial")
        if alpha is None:
            alpha = (1,) * sig.n
        tgt = _map_sig(sig, "alpha", alpha=alpha)
        if not p.terms:
            return Element.zero(tgt)
        deg = max(sum(a * x for a, x in zip(alpha, e)) for e in p.terms)
        return Element(tgt, {
            e + (deg - sum(a * x for a, x in zip(alpha, e)),): c
            for e, c in p.terms.items()})
    raise ValueError("unknown homogenization mode %r" % (mode,))


def dehomogenize(p, which="h"):
    """Substitute 1 for h (or h') and drop the slot."""
    sig = p.sig
    if which == "h":
        if not sig.has_h or sig.has_h2:
            raise ValueError("no h to substitute here")
        tgt = _map_sig(sig, "none")
        drop = sig.h_slot
    elif which == "h2":
        if not sig.has_h2:
            raise ValueError("no h' to substitute here")
        tgt = _map_sig(sig, "h01")
        drop = sig.h2_slot
    else:
        raise ValueError("which must be 'h' or 'h2'")
    out = {}
    for e, c in p.terms.items():
        k = e[:drop] + e[drop + 1:]
        s = out.get(k, 0) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return Element(tgt, out)


def translate(p, point):
    """Substitute x_i -> x_i + point_i (derivations are unaffected)."""
    sig = p.sig
    point = [QQ(c) for c in point]
    if len(point) != sig.n:
        raise ValueError("base point arity mismatch")
    if all(c == 0 for c in point):
        return p
    out = Element.zero(sig)
    for e, c in p.terms.items():
        term = Element.monomial(sig, (0,) * sig.n + e[sig.n:], c)
        shifted = term
        for i, (ei, ci) in enumerate(zip(e[:sig.n], point)):
            if ei == 0:
                continue
            if ci == 0:
                mono = [0] * sig.nslots
                mono[i] = ei
                shifted = Element.monomial(sig, tuple(mono)) * shifted
                continue
            acc = Element.zero(sig)
            for j in range(ei + 1):
                mono = [0] * sig.nslots
                mono[i] = j
                acc += Element.monomial(sig, tuple(mono),
                                        comb(ei, j) * ci ** (ei - j))
            shifted = acc * shifted
        out += shifted
    return out
