"""Groebner cones of a homogenized ideal and their enumeration by facet
flipping, restricted to a linearly parametrized subspace of weights.
Each cone, a flip's too, is one completion of the ideal's generators: a
flip ranks by a point inside the facet, then by the crossing direction.  A
facet's far side, once found, is looked up by its face's key.
"""

from copy import copy
from itertools import count

from .rational import QQ
from .linalg import vdot, is_zero_vec, nullspace
from .orders import groebner_order
from .groebner import buchberger, initial_ideal
from .polyhedra import HCone, assemble_closed_fan  # re-exported

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
           59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]

START_BUDGET = 64


def region_cone(sig, kind, ambient=None):
    """Standard closed weight regions, as H-cones on the x/d weight block."""
    n = sig.n
    m = ambient if ambient is not None else sig.weight_dim
    def unit(i, s=1):
        return tuple(s if j == i else 0 for j in range(m))
    if kind == "uloc":
        return HCone(m, [unit(i, -1) for i in range(n)])
    if kind == "upos":
        return HCone(m, [unit(i) for i in range(n)])
    if kind == "uglob":
        return HCone(m, [])
    if kind == "wloc":
        ineqs = [unit(i, -1) for i in range(n)]
        ineqs += [tuple((1 if j in (i, n + i) else 0) for j in range(m))
                  for i in range(n)]
        return HCone(m, ineqs)
    if kind == "wglob":
        return HCone(m, [tuple((1 if j in (i, n + i) else 0) for j in range(m))
                         for i in range(n)])
    raise ValueError("unknown region %r" % (kind,))


class WeightSubspace:
    """A parametrized linear subspace of the ambient weight space together
    with the pulled-back region constraints.  Cones live in parameter
    space."""

    __slots__ = ("ambient", "rows", "region")

    def __init__(self, ambient, rows, region):
        self.ambient = ambient
        self.rows = [tuple(r) for r in rows]
        for r in self.rows:
            if len(r) != ambient:
                raise ValueError("subspace row arity mismatch")
        self.region = HCone(self.dim,
                            [self.pullback(c) for c in region.ineqs],
                            [self.pullback(c) for c in region.eqs])

    @property
    def dim(self):
        return len(self.rows)

    def to_ambient(self, y):
        out = [0] * self.ambient
        for yi, row in zip(y, self.rows):
            out = [a + yi * b for a, b in zip(out, row)]
        return tuple(out)

    def pullback(self, covector):
        return tuple(vdot(covector, row) for row in self.rows)

    def restrict(self, face):
        """The same parametrization over a face of the parameter region."""
        sub = copy(self)
        sub.region = face
        return sub


def full_subspace(sig, region_kind):
    m = sig.weight_dim
    rows = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    return WeightSubspace(m, rows, region_cone(sig, region_kind))


class GroebnerCone:
    __slots__ = ("cone", "witness", "basis", "initials")

    def __init__(self, cone, witness, basis, initials):
        self.cone = cone
        self.witness = witness
        self.basis = basis
        self.initials = initials

    def key(self):
        return self.cone.key()


def groebner_cone(hideal, y, S, check=False, d=None):
    """The closed equivalence-class cone of the parameter point y: weights
    whose initial forms of the reduced basis all agree with those at y,
    intersected with the subspace region.  With a direction d it is the
    cone of y + eps*d for all small eps > 0: the basis is computed under the
    order ranking by y, then by d, and the witness is the first of y + d,
    y + d/2, ... inside the cone, at which the initials are taken.  A basis
    element adds e0 - a for each term a, with e0 any top-weight term: the
    lead is one, and another shifts each e0 - a by one of the equations."""
    sig = hideal.sig
    ws = [S.to_ambient(v) for v in (y, d) if v is not None]
    order = groebner_order(sig, *ws)
    basis = buchberger(hideal.generators, order, check=check)
    rows = [sig.slot_weight(w) for w in ws]
    wd = sig.weight_dim

    def weight(e):
        return tuple(sum(wi * ei for wi, ei in zip(r, e)) for r in rows)

    eqs, ineqs = [], []
    for g in basis:
        e0 = max(g.terms, key=weight)
        top = weight(e0)
        for a in g.terms:
            pc = S.pullback(tuple(x - z for x, z in zip(e0[:wd], a[:wd])))
            if not is_zero_vec(pc):  # e0 itself pulls back to zero
                (eqs if weight(a) == top else ineqs).append(pc)
    cone = HCone(S.dim, ineqs, eqs).intersect(S.region)
    witness = tuple(QQ(c) for c in y)
    if d is not None:
        steps = (tuple(a + QQ(1, 2 ** k) * b for a, b in zip(y, d))
                 for k in count())
        witness = next(x for x in steps if cone.strictly_contains(x))
    w = S.to_ambient(witness)
    return GroebnerCone(cone, witness, basis, initial_ideal(basis, sig, w))


def _candidate_points(S):
    """Deterministic interior candidates: the region's relative-interior
    point, then prime-coefficient perturbations along the region's affine
    hull (so candidates on lower-dimensional faces stay inside them)."""
    base = S.region.relint_point()
    p = S.dim
    yield base
    dirs = nullspace(S.region.equation_basis(), p)
    if not dirs:
        return
    for k in range(START_BUDGET):
        pert = [QQ(0)] * p
        for i, d in enumerate(dirs):
            c = QQ(_PRIMES[(i + k) % len(_PRIMES)],
                   (k % 7) + 2) * (1 if (i + k) % 3 else -1)
            pert = [a + c * b for a, b in zip(pert, d)]
        # keep the perturbation small against the (integer) base point so
        # region strictness is preserved; cones are scale invariant
        cand = tuple(1000 * b + x for b, x in zip(base, pert))
        if S.region.strictly_contains(cand):
            yield cand


def _projected_direction(covector, eq_rows):
    """A direction with negative pairing against the covector inside the
    common equation space: minus the projection of the covector onto the
    orthogonal complement of the equations."""
    p = len(covector)
    d = [0] * p
    for nvec in nullspace(eq_rows, p):
        c = vdot(covector, nvec)
        d = [a - c * b for a, b in zip(d, nvec)]
    return tuple(d)


def facet_on_border(cone, facet, S):
    """True iff the facet of a maximal cone lies on a facet of the region.
    Both covectors are reduced modulo the same equation space, so this is
    equality."""
    return facet in S.region.facet_covectors()


def flip(gc, facet, hideal, S, check=False):
    """Cross a facet of a maximal cone to the adjacent maximal cone: one
    completion of the generators, not of the old basis, under the order
    ranking by a point inside the facet and then by the crossing direction."""
    face = gc.cone.facet_faces()[facet]
    d = _projected_direction(facet, gc.cone.equation_basis())
    if is_zero_vec(d):
        raise RuntimeError("degenerate flip direction")
    nb = groebner_cone(hideal, face.relint_point(), S, check=check, d=d)
    if (nb.cone.dim != S.region.dim
            or gc.cone.intersect(nb.cone).key() != face.key()):
        raise RuntimeError("the cone past facet %r is not adjacent across it"
                           % (facet,))
    return nb


def enumerate_cones(hideal, S, check=False):
    """All maximal Groebner cones of the homogenized ideal restricted to the
    subspace, by breadth-first facet flipping from a generic start.  Each
    interior facet is flipped from one side only: a facet whose face another
    found cone also has is skipped, so every flip finds a new cone."""
    rdim = S.region.dim
    start = None
    for y in _candidate_points(S):
        gc = groebner_cone(hideal, y, S, check=check)
        if gc.cone.dim == rdim and gc.cone.strictly_contains(y):
            start = gc
            break
    if start is None:
        raise RuntimeError("no full-dimensional starting cone found")
    found, queue = set(), []
    holders = {}  # facet-face key -> the found cones with that facet

    def add(gc):
        found.add(gc.key())
        queue.append(gc)
        for key in gc.cone.facet_keys():
            holders.setdefault(key, []).append(gc)

    add(start)
    for gc in queue:  # breadth first: found cones are appended
        for facet, key in zip(gc.cone.facet_covectors(),
                              gc.cone.facet_keys()):
            if facet_on_border(gc.cone, facet, S) or len(holders[key]) > 1:
                continue
            nb = flip(gc, facet, hideal, S, check=check)
            if nb.key() not in found:
                add(nb)
    return queue
