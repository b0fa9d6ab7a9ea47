"""Exact rational cones, polyhedra, Newton polyhedra and fan validation.

Cones are stored in H-form (integer covectors; inequalities mean c.x >= 0).
Canonicalization runs a double description pass to obtain generators, from
which dimension, lineality, implicit equalities and irredundant facets are
derived; two cones are equal iff their canonical forms coincide.
"""

from itertools import combinations

from .rational import QQ
from .linalg import (vdot, primitive, primitive_signed, rref, rank, nullspace,
                     reduce_mod_rowspace, is_zero_vec)


def _dd_generators(ambient, eqs, ineqs):
    """Double description: return (lines, rays) spanning the cone given by
    the equalities and inequalities.  Rays carry tight-constraint bitmasks
    for the combinatorial adjacency test."""
    lines = [tuple(QQ(1) if j == i else QQ(0) for j in range(ambient))
             for i in range(ambient)]
    rays = []  # list of [vector, tight-mask]
    constraints = [(c, True) for c in eqs] + [(c, False) for c in ineqs]
    nproc = 0
    for c, is_eq in constraints:
        vals = [vdot(c, l) for l in lines]
        pivot = next((i for i, v in enumerate(vals) if v != 0), None)
        if pivot is not None:
            l0 = lines.pop(pivot)
            v0 = vals.pop(pivot)
            lines = [tuple(x - vdot(c, l) / v0 * y for x, y in zip(l, l0))
                     for l in lines]
            for r in rays:
                f = vdot(c, r[0]) / v0
                r[0] = tuple(x - f * y for x, y in zip(r[0], l0))
            if is_eq:
                for r in rays:
                    r[1] |= 1 << nproc
            else:
                if v0 < 0:
                    l0 = tuple(-x for x in l0)
                for r in rays:
                    r[1] |= 1 << nproc
                # the former line was tight on every earlier constraint
                rays.append([l0, (1 << nproc) - 1])
            nproc += 1
            continue
        P, Z, N = [], [], []
        for r in rays:
            v = vdot(c, r[0])
            (P if v > 0 else Z if v == 0 else N).append(r)
        new = []
        for p in P:
            for n in N:
                common = p[1] & n[1]
                ok = True
                for r in rays:
                    if r is p or r is n:
                        continue
                    if common & r[1] == common:
                        ok = False
                        break
                if not ok:
                    continue
                vp, vn = vdot(c, p[0]), vdot(c, n[0])
                vec = tuple(vp * y - vn * x for x, y in zip(p[0], n[0]))
                new.append([vec, common | (1 << nproc)])
        for r in Z:
            r[1] |= 1 << nproc
        if is_eq:
            rays = Z + new
        else:
            rays = P + Z + new
        nproc += 1
    out_lines = [primitive_signed(l) for l in lines]
    out_rays = []
    seen = set()
    for r in rays:
        v = primitive(r[0])
        if not is_zero_vec(v) and v not in seen:
            seen.add(v)
            out_rays.append(v)
    return out_lines, out_rays


class FanValidationError(RuntimeError):
    """A collection of cones failed the polyhedral-fan axioms."""


class HCone:
    """A rational polyhedral cone {x : eqs.x = 0, ineqs.x >= 0}."""

    __slots__ = ("ambient", "ineqs", "eqs", "_canon")

    def __init__(self, ambient, ineqs=(), eqs=()):
        self.ambient = ambient
        self.ineqs = []
        seen = set()
        for c in ineqs:
            c = primitive(c)
            if len(c) != ambient:
                raise ValueError("covector arity mismatch")
            if not is_zero_vec(c) and c not in seen:
                seen.add(c)
                self.ineqs.append(c)
        self.eqs = []
        seen = set()
        for c in eqs:
            c = primitive_signed(c)
            if len(c) != ambient:
                raise ValueError("covector arity mismatch")
            if not is_zero_vec(c) and c not in seen:
                seen.add(c)
                self.eqs.append(c)
        self._canon = None

    # --- canonical data ---------------------------------------------
    def _canonicalize(self):
        if self._canon is not None:
            return self._canon
        lines, rays = _dd_generators(self.ambient, self.eqs, self.ineqs)
        gens = lines + rays
        dim = rank(gens) if gens else 0
        # implicit equalities: inequalities tight on every generator
        all_eqs = list(self.eqs)
        facets_src = []
        for c in self.ineqs:
            if all(vdot(c, g) == 0 for g in gens):
                all_eqs.append(c)
            else:
                facets_src.append(c)
        red, pivots = rref(all_eqs) if all_eqs else ([], [])
        eq_basis = sorted(primitive_signed(r) for r in red)
        facets = []
        seen = set()
        for c in facets_src:
            # facet iff its tight generators span a (dim-1)-space
            tight = [g for g in gens if vdot(c, g) == 0]
            tight_rank = rank(tight) if tight else 0
            if tight_rank == dim - 1:
                key = primitive(reduce_mod_rowspace(c, red, pivots))
                if not is_zero_vec(key) and key not in seen:
                    seen.add(key)
                    facets.append(key)
        facets.sort()
        self._canon = {
            "dim": dim,
            "lines": sorted(lines),
            "rays": sorted(rays),
            "eqs": eq_basis,
            "facets": facets,
        }
        return self._canon

    @property
    def dim(self):
        return self._canonicalize()["dim"]

    def rays(self):
        return self._canonicalize()["rays"]

    def lineality(self):
        return self._canonicalize()["lines"]

    def facet_covectors(self):
        return self._canonicalize()["facets"]

    def equation_basis(self):
        return self._canonicalize()["eqs"]

    def key(self):
        c = self._canonicalize()
        return (self.ambient, c["dim"], tuple(c["eqs"]), tuple(c["facets"]))

    def __eq__(self, other):
        return isinstance(other, HCone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # --- queries ----------------------------------------------------
    def contains(self, x):
        return (all(vdot(c, x) == 0 for c in self.eqs)
                and all(vdot(c, x) >= 0 for c in self.ineqs))

    def strictly_contains(self, x):
        """x in the relative interior: all facets strictly positive."""
        c = self._canonicalize()
        if not self.contains(x):
            return False
        if any(vdot(f, x) != 0 for f in c["eqs"]):
            return False
        return all(vdot(f, x) > 0 for f in c["facets"])

    def relint_point(self):
        """Sum of the extreme rays (the origin for a linear subspace)."""
        c = self._canonicalize()
        pt = [QQ(0)] * self.ambient
        for r in c["rays"]:
            pt = [a + b for a, b in zip(pt, r)]
        return tuple(pt)

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return HCone(self.ambient, self.ineqs + other.ineqs,
                     self.eqs + other.eqs)

    def faces(self):
        """All faces (including the cone itself), via facet subsets."""
        c = self._canonicalize()
        out = {}
        fl = c["facets"]
        for k in range(len(fl) + 1):
            for sub in combinations(fl, k):
                f = HCone(self.ambient, self.ineqs + list(fl),
                          self.eqs + list(sub))
                out.setdefault(f.key(), f)
        return list(out.values())

    def is_face_of(self, other):
        return self.key() in {f.key() for f in other.faces()}

    def __repr__(self):
        c = self._canonicalize()
        return "HCone(dim=%d, eqs=%r, facets=%r)" % (
            c["dim"], c["eqs"], c["facets"])


def cone_from_rays(ambient, rays, lines=()):
    """V-to-H conversion by double description in the dual: the polar of a
    finitely generated cone is an H-cone, so its generators are the facets."""
    gens = [tuple(QQ(x) for x in r) for r in rays]
    lsp = [tuple(QQ(x) for x in l) for l in lines]
    # polar: {c : c.l = 0, c.r >= 0}
    plines, prays = _dd_generators(ambient, lsp, gens)
    # polar generators give inequalities (rays) and equalities (lines)
    ineqs = list(prays)
    eqs = list(plines)
    return HCone(ambient, ineqs, eqs)


def assemble_closed_fan(cones):
    """Closures of the given cones together with all their faces, as a
    deduplicated list of H-cones."""
    out = {}
    for c in cones:
        for f in c.faces():
            out.setdefault(f.key(), f)
    return list(out.values())


def validate_fan(cones):
    """Check the two fan axioms plus disjointness of maximal relative
    interiors.  Returns (ok, list of violation strings)."""
    problems = []
    keys = {c.key() for c in cones}
    uniq = {}
    for c in cones:
        uniq.setdefault(c.key(), c)
    cones = list(uniq.values())
    for c in cones:
        for f in c.faces():
            if f.key() not in keys:
                problems.append("missing face %r of %r" % (f, c))
    for a, b in combinations(cones, 2):
        cap = a.intersect(b)
        if not cap.is_face_of(a) or not cap.is_face_of(b):
            problems.append("intersection of %r and %r is not a common face"
                            % (a, b))
        elif cap.dim == a.dim == b.dim and a.key() != b.key():
            problems.append("distinct cones %r, %r share relative interior"
                            % (a, b))
    return (not problems), problems


# --- Newton polyhedra ----------------------------------------------------

ORTHANT = "orthant"
WLOC_STAR = "wlocstar"


class RationalPolyhedron:
    """conv(E) + cone(recession rays), with E kept minimal."""

    __slots__ = ("ambient", "E", "rays")

    def __init__(self, ambient, points, rays, minimize=True):
        self.ambient = ambient
        self.rays = [primitive(r) for r in rays]
        pts = [tuple(QQ(x) for x in p) for p in points]
        if minimize:
            pts = self._minimize(pts)
        self.E = sorted(set(pts))

    def _minimize(self, pts):
        # the recession cones in use are pointed, so dominance is a strict
        # partial order and dropping dominated points is unambiguous
        rcone = cone_from_rays(self.ambient, self.rays)
        pts = sorted(set(pts))
        out = []
        for v in pts:
            if not any(u != v and rcone.contains(
                    tuple(x - y for x, y in zip(v, u))) for u in pts):
                out.append(v)
        return out

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


def newton_polyhedron(g, recession=ORTHANT):
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
        if not sig.has_h or sig.has_h2:
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


def normal_fan(p, region):
    """All normal cones of a polyhedron within the region, assembled as a
    closed fan (maximal cones at vertices, lower cones as faces)."""
    rdim = region.dim
    maximal = {}
    for v in p.E:
        ineqs = [tuple(a - b for a, b in zip(v, e)) for e in p.E if e != v]
        ineqs += [tuple(-x for x in r) for r in p.rays]
        c = HCone(p.ambient, ineqs).intersect(region)
        if c.dim == rdim:
            maximal.setdefault(c.key(), c)
    return assemble_closed_fan(maximal.values())
