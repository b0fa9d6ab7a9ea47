"""Local Groebner fans: support strata of the weight region, equality tests
for local initial ideals via restricted ecart division, gluing of enumerated
cones into classes, and assembly of the validated closed fan."""

from collections import Counter

from .rings import translate
from .orders import local_order
from .division import mora_divide
from .groebner import (Ideal, local_standard_basis, homogenized_ideal,
                       dehomogenized_basis)
from .polyhedra import (cone_from_rays, validate_fan, FanValidationError,
                        assemble_closed_fan)
from .fans import enumerate_cones


def stratum_of(sig, w):
    """Support stratum of an ambient weight: the strictly negative x-weights
    and, differentially, the strictly positive total x+d weights."""
    n = sig.n
    M = frozenset(i for i in range(n) if w[i] < 0)
    if not sig.has_d:
        return (M,)
    P = frozenset(i for i in range(n) if w[i] + w[n + i] > 0)
    return (M, P)


def allowed_block(sig, stratum):
    """x variables of weight zero: multipliers in them remain units of the
    graded local ring."""
    return frozenset(range(sig.n)) - stratum[0]


def _initials_equal(sig, w, g1, wp, g2, check=False):
    """Whether the standard bases g1 at w and g2 at wp, in one support
    stratum, cut the same local initial ideal: each side's initial forms
    reduce to zero against the other's by block-restricted ecart division."""
    st = stratum_of(sig, w)
    if st != stratum_of(sig, wp):
        raise ValueError("weights lie in different support strata")
    block = allowed_block(sig, st)
    if not g1 or not g2:
        return (not g1) == (not g2)
    dsig = g1[0].sig

    def one_sided(src, src_w, dst, dst_w):
        ws = dsig.slot_weight(src_w)
        dst_ws = dsig.slot_weight(dst_w)
        dst_in = [g.initial_form(dst_ws) for g in dst]
        order = local_order(dsig, dst_w)
        for g in src:
            f = g.initial_form(ws)
            _, _, r = mora_divide(f, dst_in, order, block, check=check)
            if not r.is_zero():
                return False
        return True

    return (one_sided(g1, w, g2, wp) and one_sided(g2, wp, g1, w))


def local_initials_equal(ideal, w, wp, check=False):
    """Whether the two weights, in one support stratum, cut the same initial
    ideal of the local (resp. h-homogenized differential) ideal."""
    g1 = local_standard_basis(ideal, w, check=check)
    g2 = local_standard_basis(ideal, wp, check=check)
    return _initials_equal(ideal.sig, w, g1, wp, g2, check=check)


class LocalFanClass:
    __slots__ = ("stratum", "members", "closure", "witness")

    def __init__(self, stratum, members, closure, witness):
        self.stratum = stratum
        self.members = members
        self.closure = closure
        self.witness = witness


def _glue(members, pdim):
    """Convex union of the member cones: the hull of their generators,
    verified by checking that every member facet off the hull's boundary is
    a facet of another member.  Members and hull span one space, so a
    member facet is on the boundary iff it is a facet covector of the hull."""
    if len(members) == 1:
        return members[0].cone
    rays, lines = [], []
    for gc in members:
        rays.extend(gc.cone.rays())
        lines.extend(gc.cone.lineality())
    hull = cone_from_rays(pdim, rays, lines)
    shared = Counter(k for gc in members for k in gc.cone.facet_keys())
    for gc in members:
        for f, key in zip(gc.cone.facet_covectors(), gc.cone.facet_keys()):
            if f not in hull.facet_covectors() and shared[key] < 2:
                raise RuntimeError(
                    "glued class is not convex: facet %r of a member is "
                    "neither on the hull boundary nor shared" % (f,))
    return hull


def merge_classes(cones, ideal, S, check=False):
    """Union-find over the cones enumerate_cones found for homogenized_ideal
    (ideal) on one stratum, merging cones whose witnesses give equal local
    initial ideals; a dehomogenized cone basis is the standard basis.  A
    class is convex, so its members are connected through shared facets:
    only the two cones on each facet face are compared."""
    parent = list(range(len(cones)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    sig = ideal.sig
    witnesses = [S.to_ambient(c.witness) for c in cones]
    bases = [dehomogenized_basis(c.basis) for c in cones]
    sharing = {}
    for i, c in enumerate(cones):
        for key in c.cone.facet_keys():
            sharing.setdefault(key, []).append(i)
    for i, j in (pair for pair in sharing.values() if len(pair) == 2):
        if find(i) != find(j) and _initials_equal(
                sig, witnesses[i], bases[i], witnesses[j], bases[j],
                check=check):
            parent[find(j)] = find(i)
    groups = {}
    for i, c in enumerate(cones):
        groups.setdefault(find(i), []).append(c)
    out = []
    for members in groups.values():
        stratum = stratum_of(sig, S.to_ambient(members[0].witness))
        closure = _glue(members, S.dim)
        witness = min(tuple(m.witness) for m in members)
        out.append(LocalFanClass(stratum, members, closure, witness))
    out.sort(key=lambda c: c.witness)
    return out


class LocalFan:
    __slots__ = ("classes", "cones")

    def __init__(self, classes, cones):
        self.classes = classes
        self.cones = cones


def assemble_local_fan(ideal, S, check=False):
    """The closed local fan over the subspace: enumerate and merge on the
    full stratum and on every proper face of the region, then collect all
    class closures with their faces and validate the fan axioms."""
    hid = homogenized_ideal(ideal)
    classes = []
    for face in S.region.faces():
        Sf = S.restrict(face)
        cones = enumerate_cones(hid, Sf, check=check)
        classes.extend(merge_classes(cones, ideal, Sf, check=check))
    cones = assemble_closed_fan([cl.closure for cl in classes])
    ok, problems = validate_fan(cones)
    if not ok:
        raise FanValidationError("assembled local fan fails validation: %s"
                                 % problems[0])
    return LocalFan(classes, cones)


def translate_base_point(ideal, point):
    """Recenters the ideal at a rational base point by substituting
    x -> x + point; derivations are unchanged."""
    return Ideal(ideal.sig, [translate(g, point) for g in ideal.generators])
