"""Matrix term orders on exponent vectors.

An order is a list of rational weight rows compared lexicographically, with a
final graded reverse-lexicographic tie-break so the comparison is always total.
Classification flags (well order / local / admissible / degree-first block
order) are derived by probing unit vectors.
"""


def _revlex(a, b):
    """Graded revlex: larger total degree wins; on ties the last nonzero
    entry of a-b decides (negative means a is greater)."""
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


class MatrixOrder:
    __slots__ = ("nslots", "rows", "_flags")

    def __init__(self, nslots, rows):
        self.nslots = nslots
        self.rows = []
        for row in rows:
            row = tuple(row)
            if len(row) != nslots:
                raise ValueError("order row arity mismatch")
            if any(x != 0 for x in row):
                self.rows.append(row)
        self._flags = None

    def compare(self, a, b):
        """1 if a is greater, -1 if smaller, 0 iff equal."""
        if len(a) != self.nslots or len(b) != self.nslots:
            raise ValueError("exponent arity mismatch")
        if a == b:
            return 0
        for row in self.rows:
            s = 0
            for w, x, y in zip(row, a, b):
                s += w * (x - y)
            if s != 0:
                return 1 if s > 0 else -1
        return _revlex(a, b)

    def greater(self, a, b):
        return self.compare(a, b) > 0

    def max(self, exps):
        it = iter(exps)
        best = next(it)
        for e in it:
            if self.compare(e, best) > 0:
                best = e
        return best

    # --- classification ---------------------------------------------
    def _unit(self, i):
        return tuple(1 if j == i else 0 for j in range(self.nslots))

    def _probe(self, sig):
        zero = (0,) * self.nslots
        well = all(self.compare(self._unit(i), zero) > 0
                   for i in range(self.nslots))
        local = all(self.compare(self._unit(i), zero) < 0
                    for i in range(sig.n))
        admissible = False
        if sig.has_d:
            admissible = local and all(
                self.compare(
                    tuple((1 if j in (i, sig.n + i) else 0)
                          for j in range(self.nslots)), zero) > 0
                for i in range(sig.n))
        block = bool(self.rows) and all(x == 1 for x in self.rows[0])
        return {"isWellOrder": well, "isLocal": local,
                "isAdmissible": admissible, "isBlockOnHPrime": block}

    def flags(self, sig):
        if self._flags is None:
            self._flags = self._probe(sig)
        return self._flags

    def __repr__(self):
        return "MatrixOrder(%d, %r)" % (self.nslots, self.rows)


def degrevlex(nslots):
    """Pure graded reverse-lexicographic order."""
    return MatrixOrder(nslots, [])


def _ones(sig):
    return (1,) * sig.nslots


def _beta_k_row(sig):
    # counts the d-block together with h
    return tuple(1 if sig.n <= i <= 2 * sig.n else 0 for i in range(sig.nslots))


def _beta_row(sig):
    return tuple(1 if sig.n <= i < 2 * sig.n else 0 for i in range(sig.nslots))


def _neg_alpha_row(sig):
    return tuple(-1 if i < sig.n else 0 for i in range(sig.nslots))


def lift_to_h(sig, base_rows=()):
    """Prepend the homogenization-degree comparison appropriate for the
    signature, yielding a terminating comparison on homogeneous data."""
    m = sig.nslots
    if sig.homog == "alpha":
        first = tuple(sig.alpha) + (1,)
        return MatrixOrder(m, [first] + list(base_rows))
    if sig.homog == "h01":
        return MatrixOrder(m, [_beta_k_row(sig)] + list(base_rows))
    if sig.homog in ("h11", "double"):
        return MatrixOrder(m, [_ones(sig)] + list(base_rows))
    raise ValueError("no homogenization slot in this signature")


def groebner_order(sig, w):
    """Well order on a homogenized signature privileging the weight w
    (w lives on the x/d blocks; h slots weigh zero).  Used for all reduced
    Groebner basis computations."""
    ws = sig.slot_weight(w)
    if sig.homog == "alpha":
        rows = [tuple(sig.alpha) + (1,), ws]
    elif sig.homog == "h11":
        rows = [_ones(sig), ws]
    elif sig.homog == "double":
        rows = [_ones(sig), ws, _beta_k_row(sig), _beta_row(sig),
                _neg_alpha_row(sig)]
    else:
        raise ValueError("Groebner orders exist only on homogenized signatures")
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
    e = order.max(p.terms)
    return e, p.terms[e]
