"""Groebner cones of a homogenized ideal and their enumeration by facet
flipping, restricted to a linearly parametrized subspace of weights."""

from copy import copy

from .rational import QQ
from .linalg import vdot, is_zero_vec, nullspace
from .orders import groebner_order, leading_data
from .groebner import buchberger, initial_ideal
from .polyhedra import HCone, assemble_closed_fan  # re-exported

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
           59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]

START_BUDGET = 64
FLIP_HALVINGS = 64


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
        self.rows = [tuple(QQ(x) for x in r) for r in rows]
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
        out = [QQ(0)] * self.ambient
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
    __slots__ = ("cone", "witness", "basis", "initials", "order")

    def __init__(self, cone, witness, basis, initials, order):
        self.cone = cone
        self.witness = witness
        self.basis = basis
        self.initials = initials
        self.order = order

    def key(self):
        return self.cone.key()


def groebner_cone(hideal, y, S, seed=None, check=False):
    """The closed equivalence-class cone of the parameter point y: weights
    whose initial forms of the reduced basis all agree with those at y,
    intersected with the subspace region."""
    sig = hideal.sig
    w = S.to_ambient(y)
    order = groebner_order(sig, w)
    basis = buchberger(hideal.generators, order, seed=seed, check=check)
    ws = sig.slot_weight(w)
    wd = sig.weight_dim
    eqs, ineqs = [], []
    for g in basis:
        top = max(sum(wi * ei for wi, ei in zip(ws, e)) for e in g.terms)
        e0, _ = leading_data(g, order)
        for a in g.terms:
            if a == e0:
                continue
            cov = tuple(x - y2 for x, y2 in zip(e0[:wd], a[:wd]))
            pc = S.pullback(cov)
            if is_zero_vec(pc):
                continue
            wt = sum(wi * ei for wi, ei in zip(ws, a))
            if wt == top:
                eqs.append(pc)
            else:
                ineqs.append(pc)
    cone = HCone(S.dim, ineqs, eqs).intersect(S.region)
    initials = initial_ideal(basis, sig, w)
    return GroebnerCone(cone, tuple(QQ(c) for c in y), basis, initials, order)


def _span_basis(eq_rows, p):
    """A basis of the kernel of the equation rows (unit vectors if none)."""
    if eq_rows:
        return nullspace(list(eq_rows), p)
    return [tuple(1 if j == i else 0 for j in range(p)) for i in range(p)]


def _candidate_points(S):
    """Deterministic interior candidates: the region's relative-interior
    point, then prime-coefficient perturbations along the region's affine
    hull (so candidates on lower-dimensional faces stay inside them)."""
    base = S.region.relint_point()
    p = S.dim
    yield base
    dirs = _span_basis(S.region.equation_basis(), p)
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
        cand = tuple(1000 * QQ(b) + x for b, x in zip(base, pert))
        if S.region.strictly_contains(cand):
            yield cand


def _projected_direction(covector, eq_rows):
    """A direction with negative pairing against the covector inside the
    common equation space: minus the projection of the covector onto the
    orthogonal complement of the equations."""
    p = len(covector)
    d = [QQ(0)] * p
    for nvec in _span_basis(eq_rows, p):
        c = vdot(covector, nvec)
        d = [a - c * b for a, b in zip(d, nvec)]
    return tuple(d)


def facet_on_border(cone, facet, S):
    """True iff the facet lies inside a supporting hyperplane of the region
    that does not contain the whole cone."""
    face = cone.facet_face(facet)
    gens = face.lineality() + face.rays()
    cgens = cone.lineality() + cone.rays()
    for r in S.region.facet_covectors():
        if all(vdot(r, g) == 0 for g in gens):
            if any(vdot(r, g) != 0 for g in cgens):
                return True
    return False


def flip(gc, facet, hideal, S, check=False):
    """Cross a facet of a maximal cone to the adjacent maximal cone, using
    exact shrinking perturbations of a relative-interior facet point."""
    face = gc.cone.facet_face(facet)
    p = face.relint_point()
    d = _projected_direction(facet, gc.cone.equation_basis())
    if is_zero_vec(d):
        raise RuntimeError("degenerate flip direction")
    eps = QQ(1)
    for _ in range(FLIP_HALVINGS):
        y = tuple(a + eps * b for a, b in zip(p, d))
        if S.region.contains(y) and vdot(facet, y) < 0:
            nb = groebner_cone(hideal, y, S, seed=gc.basis, check=check)
            if nb.cone.dim == S.region.dim and nb.cone.strictly_contains(y):
                cap = gc.cone.intersect(nb.cone)
                if cap.key() == face.key():
                    return nb
        eps = eps / 2
    raise RuntimeError("flip failed to settle after shrinking perturbations")


def _found_across(gc, face, found):
    """Whether a found cone meets gc in exactly the facet face.  The fan has
    one maximal cone across each interior facet, so flipping there would
    only find that cone again."""
    p = face.relint_point()
    key = face.key()
    return any(c is not gc and c.cone.contains(p)
               and gc.cone.intersect(c.cone).key() == key
               for c in found)


def enumerate_cones(hideal, S, check=False):
    """All maximal Groebner cones of the homogenized ideal restricted to the
    subspace, by breadth-first facet flipping from a generic start.  Each
    interior facet is flipped from one side only: a facet whose far side
    is already found is skipped, so every flip finds a new cone."""
    rdim = S.region.dim
    start = None
    for y in _candidate_points(S):
        gc = groebner_cone(hideal, y, S, check=check)
        if gc.cone.dim == rdim and gc.cone.strictly_contains(y):
            start = gc
            break
    if start is None:
        raise RuntimeError("no full-dimensional starting cone found")
    found = {start.key(): start}
    queue = [start]
    while queue:
        gc = queue.pop(0)
        for facet in gc.cone.facet_covectors():
            if facet_on_border(gc.cone, facet, S):
                continue
            face = gc.cone.facet_face(facet)
            if _found_across(gc, face, found.values()):
                continue
            nb = flip(gc, facet, hideal, S, check=check)
            if nb.key() not in found:
                found[nb.key()] = nb
                queue.append(nb)
    return list(found.values())
