"""Cones, canonical forms, faces, fan validation, Newton polyhedra and
normal fans; normal cones and Minkowski sums of the reference polyhedra."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grobfan.rational import QQ
from grobfan.linalg import vdot, primitive
from grobfan.rings import RingSignature, Element
from grobfan import polyhedra
from grobfan.cli import _cone_record, parse_problem, run
from grobfan.polyhedra import (HCone, cone_from_rays, validate_fan,
                               newton_polyhedron, normal_fan,
                               assemble_closed_fan)
from reference_polyhedra import (RationalPolyhedron, face_of, normal_cone,
                                 minkowski_sum, contains, WLOC_STAR,
                                 rational_newton_polyhedron)


def test_orthant_canonical_form():
    c = HCone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert c.dim == 3
    assert c.equation_basis() == []
    assert sorted(c.facet_covectors()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert sorted(c.rays()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert c.lineality() == []


def test_halfspace_has_lineality():
    c = HCone(2, [(1, 0)])
    assert c.dim == 2
    assert c.lineality() == [(0, 1)]
    assert c.facet_covectors() == [(1, 0)]


def test_implicit_equality_detected():
    c = HCone(2, [(1, 0), (-1, 0)])
    assert c.dim == 1
    assert c.equation_basis() == [(1, 0)]
    assert c.facet_covectors() == []


def test_redundant_inequality_dropped():
    c1 = HCone(2, [(1, 0), (0, 1), (1, 1)])
    c2 = HCone(2, [(1, 0), (0, 1)])
    assert c1.key() == c2.key()


def test_zero_cone():
    c = HCone(2, [], [(1, 0), (0, 1)])
    assert c.dim == 0
    assert c.rays() == [] and c.lineality() == []


def test_full_space():
    c = HCone(3, [])
    assert c.dim == 3
    assert len(c.lineality()) == 3
    assert c.facet_covectors() == []


def test_containment_and_relint():
    c = HCone(2, [(1, 0), (0, 1)])
    assert contains(c, (1, 1)) and contains(c, (0, 0))
    assert c.strictly_contains((1, 1))
    assert not c.strictly_contains((0, 1))
    p = c.relint_point()
    assert c.strictly_contains(p)


def test_faces_of_quadrant():
    c = HCone(2, [(1, 0), (0, 1)])
    faces = c.faces()
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 1, 1, 2]
    ok, problems = validate_fan(faces)
    assert ok, problems


def test_face_relation():
    c = HCone(2, [(1, 0), (0, 1)])
    face_keys = {f.key() for f in c.faces()}
    assert HCone(2, [(0, 1)], [(1, 0)]).key() in face_keys
    assert HCone(2, [(1, 1)], [(1, -1)]).key() not in face_keys


def _random_cone(rng, trial):
    """A seeded random H-cone in dimension 2 to 4: every second one has
    equations, every third is a few half-spaces (so usually not pointed)."""
    a = rng.choice([2, 3, 4])
    def cov(r):
        return tuple(rng.randint(-r, r) for _ in range(a))
    nineqs = rng.randint(1, 2) if trial % 3 == 0 else rng.randint(3, 6)
    eqs = [cov(1)] if trial % 2 else []
    return HCone(a, [cov(3) for _ in range(nineqs)], eqs)


def _oracle_faces(c):
    """Faces of c by the facet-subset enumeration: one double description
    per subset of facets set to equations."""
    fl = c.facet_covectors()
    out = {}
    for k in range(len(fl) + 1):
        for sub in combinations(fl, k):
            f = HCone(c.ambient, c.ineqs + fl, c.eqs + list(sub))
            out.setdefault(f.key(), f)
    return out


def _shape(c):
    return c.key(), c.rays(), c.lineality()


def test_facet_face_and_faces_match_double_description():
    rng = random.Random(11)
    lineal = with_eqs = 0
    for trial in range(150):
        c = _random_cone(rng, trial)
        lineal += bool(c.lineality())
        with_eqs += bool(c.equation_basis())
        fl = c.facet_covectors()
        for f in fl:
            oracle = HCone(c.ambient, c.ineqs + fl, c.eqs + [f])
            assert _shape(c.facet_faces()[f]) == _shape(oracle)
        oracle = _oracle_faces(c)
        faces = {f.key(): f for f in c.faces()}
        assert set(faces) == set(oracle)
        for key, f in faces.items():
            assert _shape(f) == _shape(oracle[key])
    assert lineal >= 20 and with_eqs >= 20


def test_strictly_contains_needs_no_scan_of_the_h_form():
    # the canonical equations and facets decide relative-interior
    # membership: the same answer as also testing the raw H-form first, on
    # relint points, rays, lines, sums of two rays and random points
    rng = random.Random(11)
    cones = [_random_cone(rng, trial) for trial in range(150)]
    prng = random.Random(12)
    inside = outside = 0
    for c in cones:
        rays, lines = c.rays(), c.lineality()
        pts = [c.relint_point()] + rays + lines
        pts += [tuple(-x for x in v) for v in rays + lines]
        pts += [tuple(a + b for a, b in zip(r, s))
                for r, s in combinations(rays, 2)]
        pts += [tuple(prng.randint(-3, 3) for _ in range(c.ambient))
                for _ in range(10)]
        for x in pts:
            raw = (contains(c, x)
                   and all(vdot(f, x) == 0 for f in c.equation_basis())
                   and all(vdot(f, x) > 0 for f in c.facet_covectors()))
            assert c.strictly_contains(x) == raw, (c, x)
            inside += raw
            outside += not raw
    assert inside >= 150 and outside >= 150


def test_facet_face_rejects_a_non_facet():
    c = HCone(2, [(1, 0), (0, 1), (1, 1)])
    assert c.facet_faces()[(1, 0)].dim == 1
    for f in [(1, 1), (0, 0), (-1, 0)]:
        assert f not in c.facet_faces()


def test_faces_of_a_canonicalized_cone_run_no_double_description(
        monkeypatch):
    c = cone_from_rays(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0),
                           (0, 1, 1, 1)], lines=[(1, -1, 1, -1)])
    c.key()
    calls = []
    dd = polyhedra._dd_generators

    def counting(*args):
        calls.append(args)
        return dd(*args)

    monkeypatch.setattr(polyhedra, "_dd_generators", counting)
    faces = c.faces()
    assert len(faces) > 2 and calls == []
    assert {f.key() for f in c.faces()} == set(_oracle_faces(c))


def test_double_description_reads_each_pairing_once(monkeypatch):
    # 40 unit equations in ambient 40: equation k pairs with the 40 - k
    # lines left, 40 * 41 / 2 = 820 products in all, and eliminating a
    # line reuses its pairing
    n = 40
    calls = []
    dot = polyhedra.vdot

    def counting(a, b):
        calls.append(None)
        return dot(a, b)

    monkeypatch.setattr(polyhedra, "vdot", counting)
    eqs = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    lines, rays = polyhedra._dd_generators(n, eqs, [])
    assert (lines, rays) == ([], [])
    assert len(calls) <= n * (n + 1) // 2


def test_double_description_returns_primitive_integer_generators():
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randint(2, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(a))
                for _ in range(rng.randint(0, 5))]
        lines, rays = polyhedra._dd_generators(a, rows[:1], rows[1:])
        for v in lines + rays:
            assert all(type(x) is int for x in v) and v == primitive(v)


def test_intersection():
    a = HCone(2, [(1, 0)])
    b = HCone(2, [(-1, 1)])
    cap = a.intersect(b)
    assert cap.dim == 2
    assert sorted(cap.facet_covectors()) == [(-1, 1), (1, 0)]


def test_validate_fan_rejects_overlap():
    a = HCone(2, [(1, 0), (0, 1)])                # first quadrant
    b = HCone(2, [(1, -1), (0, 1)])               # overlapping wedge
    all_cones = []
    for c in (a, b):
        all_cones.extend(c.faces())
    ok, problems = validate_fan(all_cones)
    assert not ok


def test_validate_fan_rejects_missing_face():
    a = HCone(2, [(1, 0), (0, 1)])
    ok, problems = validate_fan([a])
    assert not ok and any("missing face" in p for p in problems)


def test_validate_fan_computes_faces_once_per_cone(monkeypatch):
    # the cones as check-fan rebuilds them, so no facet face is derived yet
    fan = [cone_from_rays(2, c.rays(), c.lineality())
           for c in normal_fan(newton_polyhedron(_cusp()),
                               HCone(2, [(-1, 0), (0, -1)]))]
    for c in fan:
        c.key()
    walks, derived = [], []
    facet_faces = HCone.facet_faces

    def counting(self):
        if self._facet_faces is None:
            derived.append(self.key())
        return facet_faces(self)

    monkeypatch.setattr(HCone, "faces", lambda self: walks.append(self))
    monkeypatch.setattr(HCone, "facet_faces", counting)
    # a repeated cone is one cone of the fan
    ok, problems = validate_fan(fan + fan[:2])
    assert ok, problems
    assert walks == []
    # the facet faces of each distinct cone are derived once
    assert sorted(derived) == sorted(c.key() for c in fan)
    ok, problems = validate_fan(fan)
    assert ok and len(derived) == len(fan) == 6


def _closed(*cones):
    return [f for c in cones for f in c.faces()]


def _all_pairs_fan(cones):
    """Reference check: the family holds every face of its cones, and every
    two cones, faces included, meet in a common face."""
    uniq = {c.key(): c for c in cones}
    face_keys = {k: {f.key() for f in c.faces()} for k, c in uniq.items()}
    if any(f not in uniq for fk in face_keys.values() for f in fk):
        return False
    return all(
        a.intersect(b).key() in face_keys[a.key()] & face_keys[b.key()]
        for a, b in combinations(uniq.values(), 2))


def _random_families():
    """300 seeded families of 2 or 3 random cones in dimension 2 or 3,
    each as (ambient, list of ray lists)."""
    rng = random.Random(1)
    for _ in range(300):
        a = rng.choice([2, 3])
        yield a, [[tuple(rng.randint(-2, 2) for _ in range(a))
                   for _ in range(rng.randint(1, 3))]
                  for _ in range(rng.randint(2, 3))]


def _families():
    for a, cones in _random_families():
        yield assemble_closed_fan([cone_from_rays(a, r) for r in cones])


def test_validate_fan_agrees_with_all_pairs_on_random_families():
    non_fans = 0
    for family in _families():
        expected = _all_pairs_fan(family)
        assert validate_fan(family)[0] == expected, family
        non_fans += not expected
    assert non_fans >= 100


def _walk_faces(c):
    """The faces of one cone by a walk of that cone alone, breadth first
    down its facets, keeping the first face found under each key."""
    out = {c.key(): c}
    todo = [c]
    for d in todo:
        for f in d.facet_covectors():
            face = d.facet_faces()[f]
            if out.setdefault(face.key(), face) is face:
                todo.append(face)
    return list(out.values())


def test_closed_fan_is_the_union_of_per_cone_walks():
    # the shared walk may keep a face found under another given cone than
    # the per-cone walks do, with the same lines and rays; fresh cones on
    # each side share no memoised faces
    shared = 0
    for a, rays in _random_families():
        ref = {}
        for c in (cone_from_rays(a, r) for r in rays):
            for f in _walk_faces(c):
                ref.setdefault(f.key(), f)
        fan = assemble_closed_fan([cone_from_rays(a, r) for r in rays])
        assert sorted(f.key() for f in fan) == sorted(ref)
        for f in fan:
            assert _cone_record(f) == _cone_record(ref[f.key()])
        shared += len(fan) < sum(len(_walk_faces(cone_from_rays(a, r)))
                                 for r in rays)
    assert shared >= 100


def test_validate_fan_finds_a_dropped_face():
    rng = random.Random(2)
    dropped = 0
    for family in _families():
        proper = [f for c in family for f in c.faces()[1:]]
        if not proper:
            continue
        gone = rng.choice(proper).key()
        rest = [c for c in family if c.key() != gone]
        ok, problems = validate_fan(rest)
        assert not ok and any("missing face" in p for p in problems)
        assert not _all_pairs_fan(rest)
        dropped += 1
    assert dropped >= 250


QUADRANT = HCone(2, [(1, 0), (0, 1)])


@pytest.mark.parametrize("family", [
    _closed(QUADRANT, cone_from_rays(2, [(1, 1)])),
    _closed(HCone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            cone_from_rays(3, [(1, 1, 0)])),
    _closed(QUADRANT, cone_from_rays(2, [(1, 1), (1, 2)])),
], ids=["ray-in-a-2-cone", "ray-in-a-facet", "2-cone-in-a-2-cone"])
def test_validate_fan_rejects_a_cone_inside_another(family):
    ok, problems = validate_fan(family)
    assert not ok and "not a common face" in problems[0]


def test_validate_fan_intersects_only_maximal_pairs(monkeypatch):
    sig = RingSignature(3, "poly")
    g = Element.zero(sig)
    for e in [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 0), (0, 1, 1),
              (1, 0, 1)]:
        g = g + Element.monomial(sig, e)
    fan = normal_fan(newton_polyhedron(g),
                     HCone(3, [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]))
    m = sum(c.dim == 3 for c in fan)
    calls = []
    intersect = HCone.intersect

    def counting(self, other):
        calls.append(other)
        return intersect(self, other)

    monkeypatch.setattr(HCone, "intersect", counting)
    ok, problems = validate_fan(fan)
    assert ok, problems
    assert m == 6 and len(calls) == m * (m - 1) // 2


def test_cone_from_rays_round_trip_simple():
    c = cone_from_rays(2, [(2, 3), (0, 1)])
    assert c.dim == 2
    assert sorted(c.rays()) == [(0, 1), (2, 3)]


def test_cone_from_rays_with_lineality():
    c = cone_from_rays(3, [(1, 0, 0)], lines=[(0, 1, 0)])
    assert c.dim == 2
    assert c.lineality() == [(0, 1, 0)]
    assert c.rays() == [(1, 0, 0)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                          st.integers(-4, 4)),
                min_size=1, max_size=5))
def test_h_v_round_trip_random(rays):
    rays = [r for r in rays if any(r)]
    if not rays:
        return
    c = cone_from_rays(3, rays)
    c2 = cone_from_rays(3, [list(r) for r in c.rays()],
                        [list(l) for l in c.lineality()])
    assert c.key() == c2.key()
    for r in rays:
        assert contains(c, r)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=4))
def test_faces_form_valid_fan_random(rays):
    rays = [r for r in rays if any(r)]
    if not rays:
        return
    c = cone_from_rays(4, rays)
    ok, problems = validate_fan(c.faces())
    assert ok, problems


# --- Newton polyhedra ----------------------------------------------------

def _cusp():
    sig = RingSignature(2, "poly")
    x, y = Element.variable(sig, 0), Element.variable(sig, 1)
    return x * x * x - y * y


def test_newton_polyhedron_cusp_vertices():
    p = newton_polyhedron(_cusp())
    assert sorted(tuple(int(a) for a in e) for e in p) == [(0, 2), (3, 0)]


def test_newton_polyhedron_monomial():
    sig = RingSignature(2, "poly")
    g = Element.monomial(sig, (2, 5), 3)
    p = newton_polyhedron(g)
    assert [tuple(int(a) for a in e) for e in p] == [(2, 5)]


def test_generator_minimization_by_dominance():
    sig = RingSignature(2, "poly")
    x, y = Element.variable(sig, 0), Element.variable(sig, 1)
    g = x + x * x * y + x * y * y
    p = newton_polyhedron(g)
    assert [tuple(int(a) for a in e) for e in p] == [(1, 0)]


def test_face_of_cusp_edge():
    p = rational_newton_polyhedron(_cusp())
    f = face_of(p, (QQ(-2), QQ(-3)))
    assert sorted(tuple(int(a) for a in e) for e in f.E) == [(0, 2), (3, 0)]
    assert f.rays == []


def test_face_of_cusp_vertical_edge():
    p = rational_newton_polyhedron(_cusp())
    f = face_of(p, (QQ(-1), QQ(0)))
    assert [tuple(int(a) for a in e) for e in f.E] == [(0, 2)]
    assert [tuple(int(a) for a in r) for r in f.rays] == [(0, 1)]


def test_face_of_zero_weight_is_whole():
    p = rational_newton_polyhedron(_cusp())
    f = face_of(p, (QQ(0), QQ(0)))
    assert f == p


def test_normal_cone_cusp_ray():
    p = rational_newton_polyhedron(_cusp())
    region = HCone(2, [(-1, 0), (0, -1)])
    c = normal_cone(p, (QQ(-2), QQ(-3)), region)
    assert c.dim == 1
    assert c.rays() == [primitive((-2, -3))]


def test_normal_cone_cusp_sector():
    p = rational_newton_polyhedron(_cusp())
    region = HCone(2, [(-1, 0), (0, -1)])
    # w=(-1,-1) selects the vertex (0,2); its normal sector spans
    # (-2,-3) and (-1,0)
    c = normal_cone(p, (QQ(-1), QQ(-1)), region)
    assert c.dim == 2
    assert sorted(c.rays()) == sorted([primitive((-2, -3)),
                                       primitive((-1, 0))])
    # w=(-1,-2) selects the vertex (3,0); its sector spans (-2,-3),(0,-1)
    c2 = normal_cone(p, (QQ(-1), QQ(-2)), region)
    assert sorted(c2.rays()) == sorted([primitive((-2, -3)),
                                        primitive((0, -1))])


def test_normal_fan_cusp():
    p = newton_polyhedron(_cusp())
    region = HCone(2, [(-1, 0), (0, -1)])
    fan = normal_fan(p, region)
    dims = sorted(c.dim for c in fan)
    assert dims == [0, 1, 1, 1, 2, 2]
    rays = {r for c in fan if c.dim == 2 for r in c.rays()}
    assert rays == {primitive((-1, 0)), primitive((-2, -3)),
                    primitive((0, -1))}
    ok, problems = validate_fan(fan)
    assert ok, problems


def test_minkowski_with_point_is_identity():
    p = rational_newton_polyhedron(_cusp())
    sig = RingSignature(2, "poly")
    origin = rational_newton_polyhedron(Element.constant(sig, 1))
    assert minkowski_sum(p, origin) == p


def test_minkowski_single_vertices():
    sig = RingSignature(2, "poly")
    a = rational_newton_polyhedron(Element.variable(sig, 0))
    b = rational_newton_polyhedron(Element.variable(sig, 1))
    s = minkowski_sum(a, b)
    assert [tuple(int(x) for x in e) for e in s.E] == [(1, 1)]


def _random_poly(rng, sig, nterms=3, deg=4):
    out = Element.zero(sig)
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(sig.n))
        out = out + Element.monomial(sig, e, rng.choice([1, -1, 2]))
    if out.is_zero():
        out = Element.constant(sig, 1)
    return out


def test_minkowski_normal_cone_intersection_property():
    # the normal cone of a Minkowski sum is the intersection of the
    # summands' normal cones, over >= 100 random pairs
    rng = random.Random(5)
    sig = RingSignature(2, "poly")
    region = HCone(2, [(-1, 0), (0, -1)])
    checked = 0
    while checked < 100:
        a = rational_newton_polyhedron(_random_poly(rng, sig))
        b = rational_newton_polyhedron(_random_poly(rng, sig))
        w = (QQ(-rng.randint(0, 5)), QQ(-rng.randint(0, 5)))
        s = minkowski_sum(a, b)
        lhs = normal_cone(s, w, region)
        rhs = normal_cone(a, w, region).intersect(normal_cone(b, w, region))
        assert lhs.key() == rhs.key()
        checked += 1


def test_minkowski_face_additivity():
    rng = random.Random(9)
    sig = RingSignature(2, "poly")
    for _ in range(100):
        a = rational_newton_polyhedron(_random_poly(rng, sig))
        b = rational_newton_polyhedron(_random_poly(rng, sig))
        w = (QQ(-rng.randint(0, 5)), QQ(-rng.randint(0, 5)))
        s = minkowski_sum(a, b)
        fa, fb, fs = face_of(a, w), face_of(b, w), face_of(s, w)
        fsum = RationalPolyhedron(
            2, [tuple(x + y for x, y in zip(p, q))
                for p in fa.E for q in fb.E], fa.rays + fb.rays)
        assert sorted(fs.E) == sorted(fsum.E)


def test_normal_cones_tile_region():
    rng = random.Random(3)
    sig = RingSignature(2, "poly")
    region = HCone(2, [(-1, 0), (0, -1)])
    p = rational_newton_polyhedron(_random_poly(rng, sig, nterms=4))
    seen = {}
    for _ in range(100):
        w = (QQ(-rng.randint(0, 9)), QQ(-rng.randint(0, 9)))
        c = normal_cone(p, w, region)
        seen.setdefault(c.key(), c)
    ok, problems = validate_fan(
        [f for c in seen.values() for f in c.faces()])
    assert ok, problems


def test_dual_recession_newton_polyhedron():
    sig = RingSignature(1, "weyl")
    x, d = Element.variable(sig, 0), Element.variable(sig, 1)
    from grobfan.rings import homogenize
    g = homogenize(x * d + Element.constant(sig, 1), "h01")
    p = rational_newton_polyhedron(g, recession=WLOC_STAR)
    # (0,0) lies in (1,1) + cone((1,0),(-1,-1)), so only (1,1) survives
    assert sorted(tuple(int(a) for a in e) for e in p.E) == [(1, 1)]
    assert sorted(p.rays) == sorted([primitive((1, 0)),
                                     primitive((-1, -1))])


def _cone_set(doc):
    return sorted((c["rays"], c["lineality"]) for c in doc["cones"])


def _near_a_simplex(rng, sig):
    """A random polynomial whose terms have total degree 3 to 6, so that
    few of them divide another and its staircase has several points."""
    f = Element.zero(sig)
    while f.is_zero():
        for _ in range(rng.randint(3, 7)):
            e = [0] * sig.n
            for _ in range(rng.randint(3, 6)):
                e[rng.randrange(sig.n)] += 1
            f = f + Element.monomial(sig, tuple(e), rng.choice([1, -1, 2]))
    return f


def test_local_fan_of_a_principal_ideal_is_its_newton_normal_fan():
    # independent oracle: the local fan of <f> is the normal fan of f's
    # Newton polyhedron (Sturmfels, Groebner Bases and Convex Polytopes,
    # 1996, ch. 2); the local-fan mode reaches it through standard bases,
    # the normal-fan mode through the staircase alone
    rng = random.Random(24)
    widest = not_vertices = 0
    for trial in range(25):
        sig = RingSignature(2 + trial % 2, "poly")
        f = _near_a_simplex(rng, sig)
        staircase = newton_polyhedron(f)
        assert staircase == rational_newton_polyhedron(f).E
        docs = {}
        for mode in ("local-fan", "normal-fan"):
            spec = parse_problem("ring poly(%s);\nideal: %s;\nmode: %s;\n"
                                 % (",".join(sig.names), f, mode))
            docs[mode] = run(spec)
        assert _cone_set(docs["local-fan"]) == _cone_set(docs["normal-fan"])
        maximal = sum(c["dim"] == sig.n for c in docs["normal-fan"]["cones"])
        widest = max(widest, maximal)
        not_vertices += maximal < len(staircase)
    assert widest >= 5 and not_vertices >= 3
