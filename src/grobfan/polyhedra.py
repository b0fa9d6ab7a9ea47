"""Exact rational cones, fan validation, and normal fans of Newton polyhedra.

Cones are stored in H-form (integer covectors; inequalities mean c.x >= 0).
Canonicalization runs a fraction-free double description pass to obtain
generators (primitive integer rays and lines), from which dimension,
lineality, implicit equalities and irredundant facets are derived by
integer elimination; two cones are equal iff their canonical forms
coincide.  Faces are built from those generators, not by further passes:
the face on a facet keeps the lines and the rays the facet covector
vanishes on.  The faces of a cone, a closed fan and fan validation all
read `face_lattice`, one walk down the facets of a family of cones.
"""

from itertools import combinations
from operator import le

from .linalg import (vdot, primitive, primitive_signed, rref, rank,
                     reduce_mod_rowspace, is_zero_vec)


def _dd_generators(ambient, eqs, ineqs):
    """Double description (Fukuda and Prodon, 1996) on integer vectors:
    return (lines, rays) spanning the cone given by the equalities and
    inequalities.  Each new line or ray is a primitive integer combination
    of two old ones.  Rays carry tight-constraint bitmasks for the
    combinatorial adjacency test."""
    lines = [tuple(1 if j == i else 0 for j in range(ambient))
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
            lines = [primitive([v0 * x - v * y for x, y in zip(l, l0)])
                     for l, v in zip(lines, vals)]
            # a positive multiple of r - (c.r / v0) l0
            s0 = 1 if v0 > 0 else -1
            for r in rays:
                f = s0 * vdot(c, r[0])
                r[0] = primitive([s0 * v0 * x - f * y
                                  for x, y in zip(r[0], l0)])
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
            if v == 0:
                Z.append(r)
            else:
                (P if v > 0 else N).append((r, v))
        new = []
        for p, vp in P:
            for n, vn in N:
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
                vec = primitive([vp * y - vn * x
                                 for x, y in zip(p[0], n[0])])
                new.append([vec, common | (1 << nproc)])
        for r in Z:
            r[1] |= 1 << nproc
        if is_eq:
            rays = Z + new
        else:
            rays = [r for r, _ in P] + Z + new
        nproc += 1
    out_lines = [primitive_signed(l) for l in lines]
    out_rays = []
    seen = set()
    for r in rays:
        v = r[0]
        if not is_zero_vec(v) and v not in seen:
            seen.add(v)
            out_rays.append(v)
    return out_lines, out_rays


class FanValidationError(RuntimeError):
    """A collection of cones failed the polyhedral-fan axioms."""


class HCone:
    """A rational polyhedral cone {x : eqs.x = 0, ineqs.x >= 0}."""

    __slots__ = ("ambient", "ineqs", "eqs", "_canon", "_facet_faces")

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
        self._facet_faces = None

    # --- canonical data ---------------------------------------------
    def _canonicalize(self):
        if self._canon is None:
            self._canon = self._derive(
                *_dd_generators(self.ambient, self.eqs, self.ineqs))
        return self._canon

    def _derive(self, lines, rays):
        """Canonical data from the cone's generators and its H-form."""
        gens = lines + rays
        dim = rank(gens)
        # implicit equalities: inequalities tight on every generator
        all_eqs = list(self.eqs)
        facets_src = []
        for c in self.ineqs:
            if all(vdot(c, g) == 0 for g in gens):
                all_eqs.append(c)
            else:
                facets_src.append(c)
        red, pivots = rref(all_eqs)
        eq_basis = sorted(primitive_signed(r) for r in red)
        facets = []
        seen = set()
        for c in facets_src:
            # facet iff its tight generators span a (dim-1)-space
            tight = [g for g in gens if vdot(c, g) == 0]
            if rank(tight) == dim - 1:
                key = primitive(reduce_mod_rowspace(c, red, pivots))
                if not is_zero_vec(key) and key not in seen:
                    seen.add(key)
                    facets.append(key)
        facets.sort()
        return {
            "dim": dim,
            "lines": sorted(lines),
            "rays": sorted(rays),
            "eqs": eq_basis,
            "facets": facets,
        }

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
    def strictly_contains(self, x):
        """x in the relative interior: on the linear span (every canonical
        equation vanishes) and strictly positive on every facet."""
        c = self._canonicalize()
        return (all(vdot(f, x) == 0 for f in c["eqs"])
                and all(vdot(f, x) > 0 for f in c["facets"]))

    def relint_point(self):
        """Sum of the extreme rays (the origin for a linear subspace)."""
        c = self._canonicalize()
        pt = [0] * self.ambient
        for r in c["rays"]:
            pt = [a + b for a, b in zip(pt, r)]
        return tuple(pt)

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return HCone(self.ambient, self.ineqs + other.ineqs,
                     self.eqs + other.eqs)

    def facet_faces(self):
        """{facet covector f: the face {f = 0}}, derived once.  A face is
        determined by the extreme rays it contains, and double description
        gives the same lines and ray representatives for every H-form of a
        cone: the face keeps the cone's lines and the rays f vanishes on,
        and no pass runs."""
        if self._facet_faces is None:
            c = self._canonicalize()
            self._facet_faces = {}
            for f in c["facets"]:
                face = HCone(self.ambient, c["facets"], c["eqs"] + [f])
                face._canon = face._derive(
                    c["lines"], [r for r in c["rays"] if vdot(f, r) == 0])
                self._facet_faces[f] = face
        return self._facet_faces

    def facet_keys(self):
        """The keys of the facet faces, in facet covector order: two
        maximal cones of a fan meet in a facet iff both have its key."""
        return [face.key() for face in self.facet_faces().values()]

    def faces(self):
        """All faces, the cone itself first: its face lattice's cones."""
        return [face for face, _ in face_lattice([self]).values()]

    def __repr__(self):
        c = self._canonicalize()
        return "HCone(dim=%d, eqs=%r, facets=%r)" % (
            c["dim"], c["eqs"], c["facets"])


def cone_from_rays(ambient, rays, lines=()):
    """V-to-H conversion by double description in the dual: the polar of a
    finitely generated cone is an H-cone, so its generators are the facets."""
    # polar: {c : c.l = 0, c.r >= 0}; its rays give the inequalities and
    # its lines the equalities
    plines, prays = _dd_generators(ambient, lines, rays)
    return HCone(ambient, prays, plines)


def face_lattice(cones):
    """{key: (face, keys of its facets)} for the given cones and all their
    faces, by one breadth-first walk down facets from all the given cones
    together: every face ends a chain of facets (Ziegler, Lectures on
    Polytopes, 1995, ch. 2).  Each distinct face has its facets derived
    once, and the first cone found under a key is kept.  Which one is kept
    does not change a face's lines and rays: double description gives the
    same ones for every H-form of a cone, and a facet face keeps them."""
    lattice = {}
    todo = list(cones)
    for c in todo:
        if c.key() not in lattice:
            lattice[c.key()] = (c, c.facet_keys())
            todo.extend(c.facet_faces().values())
    return lattice


def assemble_closed_fan(cones):
    """Closures of the given cones together with all their faces, as a
    deduplicated list of H-cones."""
    return [face for face, _ in face_lattice(cones).values()]


def validate_fan(cones):
    """Check the fan axioms: every face of a cone is in the family, and
    every two cones meet in a common face.  Returns (ok, list of violation
    strings).

    Closure is checked through facets, read from the family's face
    lattice.  Every face ends a chain of facets, so a family holding every
    facet of each of its cones holds all their faces, and in such a family
    a cone is a proper face of a member iff it is a facet of a member.

    Only pairs of maximal cones are intersected; in a face-closed family
    that is enough (Ziegler, Lectures on Polytopes, 1995, ch. 7).  Write &
    for intersection.  Let A and B be maximal with A & B = F a face of
    both, and let s, t be faces of A and B.  Then s & t = (s & F) & (t & F)
    is an intersection of two faces of F, so a face of F.  It is therefore
    a face of A and of B, and so a face of s and of t.  Every cone of a
    face-closed family is a face of some maximal cone, so every pair of
    cones is covered.

    A problem names a cone by its first position in `cones` and its
    dimension, and a missing face by its facet position in its cone, so a
    message stays short however large the cones are."""
    family, pos = {}, {}
    for i, c in enumerate(cones):
        if c.key() not in family:
            family[c.key()], pos[c.key()] = c, i

    def name(k):
        return "cone %d (dim %d)" % (pos[k], family[k].dim)

    lattice = face_lattice(family.values())
    problems = ["missing face: facet %d (dim %d) of %s"
                % (j, lattice[f][0].dim, name(k))
                for k in family for j, f in enumerate(lattice[k][1])
                if f not in family]
    facets = {f for _, keys in lattice.values() for f in keys}
    maximal = [k for k in family if k not in facets]
    faces = {}  # the face keys of each entry, facets first
    for k in sorted(lattice, key=lambda k: lattice[k][0].dim):
        faces[k] = {k}.union(*(faces[f] for f in lattice[k][1]))
    for a, b in combinations(maximal, 2):
        cap = family[a].intersect(family[b]).key()
        if cap not in faces[a] or cap not in faces[b]:
            problems.append("intersection of %s and %s is not a common face"
                            % (name(a), name(b)))
    return (not problems), problems


# --- Newton polyhedra ----------------------------------------------------

def newton_polyhedron(g):
    """The staircase of an element, sorted: the support exponents that no
    other support exponent divides.  They fix its Newton polyhedron
    conv(supp g) + R>=0^n, because the orthant is that polyhedron's
    recession cone (Sturmfels, Groebner Bases and Convex Polytopes, 1996,
    ch. 2)."""
    if g.is_zero():
        raise ValueError("Newton polyhedron of zero")
    pts = g.terms
    return sorted(v for v in pts
                  if not any(u != v and all(map(le, u, v)) for u in pts))


def normal_fan(points, region):
    """The normal fan of conv(points) + R>=0^n within the region, closed:
    the maximal cones, one at each vertex, and their faces.  A vertex's
    cone holds the weights w with w.v >= w.e for every point e and w <= 0,
    the dual of the recession orthant."""
    n = region.ambient
    neg_units = [tuple(-1 if j == i else 0 for j in range(n))
                 for i in range(n)]
    rdim = region.dim
    maximal = {}
    for v in points:
        ineqs = [tuple(a - b for a, b in zip(v, e)) for e in points if e != v]
        c = HCone(n, ineqs + neg_units).intersect(region)
        if c.dim == rdim:
            maximal.setdefault(c.key(), c)
    return assemble_closed_fan(maximal.values())
