"""Matrix term orders on exponent vectors.

An order is a list of integer weight rows compared lexicographically, with a
final graded reverse-lexicographic tie-break so the comparison is always total.
Each row is stored as its primitive integer vector: a positive scaling keeps
the order.  `MatrixOrder.key` is the one ranking routine; every comparison in
the package sorts or maximizes by it.  Each order memoizes its keys; orders
are built per completion (and per local merge), so a memo lives exactly as
long as the work that fills it.
"""

from operator import mul

from .linalg import primitive


class MatrixOrder:
    __slots__ = ("nslots", "rows", "_keys")

    def __init__(self, nslots, rows):
        self.nslots = nslots
        self._keys = {}
        self.rows = []
        for row in rows:
            row = tuple(row)
            if len(row) != nslots:
                raise ValueError("order row arity mismatch")
            if any(x != 0 for x in row):
                self.rows.append(primitive(row))

    def key(self, e):
        """Sort key of the exponent e: the row products, then the total
        degree, then the negated exponents read from the last slot (graded
        revlex).  Injective, so distinct exponents never tie.  Memoized on
        the order, so the memo lives as long as the order: one completion
        or one merge."""
        k = self._keys.get(e)
        if k is None:
            k = self._keys[e] = (
                *[sum(map(mul, row, e)) for row in self.rows], sum(e),
                *[-x for x in reversed(e)])
        return k

    def compare(self, a, b):
        """1 if a is greater, -1 if smaller, 0 iff equal."""
        if len(a) != self.nslots or len(b) != self.nslots:
            raise ValueError("exponent arity mismatch")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def __repr__(self):
        return "MatrixOrder(%d, %r)" % (self.nslots, self.rows)


def _beta_k_row(sig):
    # counts the d-block together with h
    return tuple(1 if sig.n <= i <= 2 * sig.n else 0 for i in range(sig.nslots))


def _beta_row(sig):
    return tuple(1 if sig.n <= i < 2 * sig.n else 0 for i in range(sig.nslots))


def _neg_alpha_row(sig):
    return tuple(-1 if i < sig.n else 0 for i in range(sig.nslots))


def grading_row(sig):
    """The grading of a lifted signature, under which its lifted generators
    are homogeneous.  It must weigh every slot positively: then each degree
    holds finitely many monomials and an order led by it is a well order.
    Unlifted and h01 signatures have no such grading."""
    g = sig.grading
    if g is None or min(g) <= 0:
        raise ValueError("Groebner orders need a grading positive on every "
                         "slot; %r has none" % (sig,))
    return g


def groebner_order(sig, *ws):
    """Well order on a homogenized signature privileging the weights ws in
    turn (each lives on the x/d blocks; h slots weigh zero).  Used for all
    reduced Groebner basis computations."""
    rows = [grading_row(sig)] + [sig.slot_weight(w) for w in ws]
    if sig.has_h2:
        rows += [_beta_k_row(sig), _beta_row(sig), _neg_alpha_row(sig)]
    return MatrixOrder(sig.nslots, rows)


def local_order(sig, w):
    """Weight-refined local (commutative) or admissible (differential)
    order, used for ecart division of dehomogenized data."""
    ws = sig.slot_weight(w)
    m = sig.nslots
    if not sig.has_d:
        rows = [ws, tuple(-1 for _ in range(m))]
    else:
        # h-degree-plus-d-degree first, then an admissible comparison on the
        # (x, d) part alone, so that x_i*d_i ranks above the commutator h.
        rows = [ws,
                _beta_k_row(sig),
                tuple(-1 if i < sig.n else (1 if i < 2 * sig.n else 0)
                      for i in range(m)),
                _beta_row(sig)]
    return MatrixOrder(m, rows)


def leading_data(p, order):
    """(exponent, coefficient) of the greatest term."""
    if p.is_zero():
        raise ValueError("leading data of zero")
    e = max(p.terms, key=order.key)
    return e, p.terms[e]
