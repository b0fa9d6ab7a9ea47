"""Reference polyhedra for the tests: Newton polyhedra as conv(E) + a
recession cone, with dominated points dropped by one double description,
and their faces, normal cones and Minkowski sums.

`grobfan.polyhedra` keeps only the orthant case, as a staircase of support
exponents, and `normal_fan`; the tests check both against this module.
"""

from grobfan.linalg import vdot, primitive
from grobfan.polyhedra import HCone, cone_from_rays

ORTHANT = "orthant"
WLOC_STAR = "wlocstar"


def contains(cone, x):
    """x satisfies the cone's H-form as given: its equations and its
    inequalities, read without canonicalizing."""
    return (all(vdot(c, x) == 0 for c in cone.eqs)
            and all(vdot(c, x) >= 0 for c in cone.ineqs))


class RationalPolyhedron:
    """conv(E) + cone(recession rays), with E kept minimal."""

    __slots__ = ("ambient", "E", "rays")

    def __init__(self, ambient, points, rays):
        self.ambient = ambient
        self.rays = [primitive(r) for r in rays]
        # the recession cones in use are pointed, so dominance is a strict
        # partial order and dropping dominated points is unambiguous
        rcone = cone_from_rays(ambient, self.rays)
        pts = sorted(set(points))
        self.E = [v for v in pts if not any(
            u != v and contains(rcone, tuple(x - y for x, y in zip(v, u)))
            for u in pts)]

    def __eq__(self, other):
        return (isinstance(other, RationalPolyhedron)
                and self.E == other.E
                and sorted(self.rays) == sorted(other.rays))

    def __repr__(self):
        return "RationalPolyhedron(E=%r, rays=%r)" % (self.E, self.rays)


def recession_rays(ambient, kind, n=None):
    if kind == ORTHANT:
        return [tuple(1 if j == i else 0 for j in range(ambient))
                for i in range(ambient)]
    if kind == WLOC_STAR:
        if n is None or ambient != 2 * n:
            raise ValueError("dual recession cone needs ambient 2n")
        out = []
        for i in range(n):
            out.append(tuple(1 if j == i else 0 for j in range(ambient)))
        for i in range(n):
            out.append(tuple(-1 if j in (i, n + i) else 0
                             for j in range(ambient)))
        return out
    raise ValueError("unknown recession kind %r" % (kind,))


def rational_newton_polyhedron(g, recession=ORTHANT):
    """Newton polyhedron of an element: the hull of its support (for the
    dual-recession differential case, supports are projected by dropping the
    h slot) plus the prescribed recession cone."""
    if g.is_zero():
        raise ValueError("Newton polyhedron of zero")
    sig = g.sig
    if recession == ORTHANT:
        pts = list(g.terms)
        ambient = sig.nslots
        rays = recession_rays(ambient, ORTHANT)
    else:
        if len(sig.commutator) != 1:
            raise ValueError("dual recession expects an h01 element")
        ambient = 2 * sig.n
        pts = [e[:ambient] for e in g.terms]
        rays = recession_rays(ambient, WLOC_STAR, n=sig.n)
    return RationalPolyhedron(ambient, pts, rays)


def face_of(p, w):
    """The face selected by the weight w (maximizing convention)."""
    for r in p.rays:
        if vdot(w, r) > 0:
            raise ValueError("weight unbounded above on the recession cone")
    m = max(vdot(w, e) for e in p.E)
    ew = [e for e in p.E if vdot(w, e) == m]
    tight = [r for r in p.rays if vdot(w, r) == 0]
    return RationalPolyhedron(p.ambient, ew, tight)


def normal_cone(p, w, region=None):
    """Closed cone of weights selecting the same face as w, inside the
    region."""
    for r in p.rays:
        if vdot(w, r) > 0:
            raise ValueError("weight outside the region dual to recession")
    m = max(vdot(w, e) for e in p.E)
    ew = [e for e in p.E if vdot(w, e) == m]
    rest = [e for e in p.E if vdot(w, e) != m]
    e0 = ew[0]
    eqs = [tuple(a - b for a, b in zip(e0, e)) for e in ew[1:]]
    ineqs = [tuple(a - b for a, b in zip(e0, e)) for e in rest]
    for r in p.rays:
        if vdot(w, r) == 0:
            eqs.append(r)
        else:
            ineqs.append(tuple(-x for x in r))
    cone = HCone(p.ambient, ineqs, eqs)
    if region is not None:
        cone = cone.intersect(region)
    return cone


def minkowski_sum(a, b):
    if a.ambient != b.ambient or sorted(a.rays) != sorted(b.rays):
        raise ValueError("polyhedra are not compatible")
    pts = [tuple(x + y for x, y in zip(p, q)) for p in a.E for q in b.E]
    return RationalPolyhedron(a.ambient, pts, a.rays)
