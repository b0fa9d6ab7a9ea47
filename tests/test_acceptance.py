"""End-to-end acceptance suite: seven gated results, one per test, each
ending in a single printed pass/fail line with the measured values."""

import random
import time
from itertools import combinations

from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element
from grobfan.linalg import vdot
from grobfan.orders import groebner_order, leading_data
from grobfan.division import divide
from grobfan.groebner import (Ideal, buchberger, homogenized_ideal, s_pair,
                              saturate_h)
from grobfan.polyhedra import HCone, validate_fan
from grobfan.fans import (WeightSubspace, full_subspace, region_cone,
                          enumerate_cones, groebner_cone,
                          assemble_closed_fan)
from grobfan.localfan import assemble_local_fan, translate_base_point

# bench/tests/test_bench.py reads the builder from this module by this name
from conftest import hypergeometric_ideal as _hypergeometric_ideal


def V(sig, i):
    return Element.variable(sig, i)


def C(sig, c):
    return Element.constant(sig, QQ(c))


def M(sig, exp, c=1):
    return Element.monomial(sig, exp, QQ(c))


def test_cusp_local_fan_two_sectors_three_rays():
    t0 = time.monotonic()
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [x * x * x - y * y])
    lf = assemble_local_fan(I, full_subspace(sig, "uloc"), check=True)
    maximal = [c for c in lf.cones if c.dim == 2]
    rays = {r for c in maximal for r in c.rays()}
    dt = time.monotonic() - t0
    ok = (len(maximal) == 2
          and rays == {(-1, 0), (-2, -3), (0, -1)}
          and dt < 1.0)
    print("criterion 1 (cusp local fan): %s — %d maximal, rays %s, %.2fs"
          % ("PASS" if ok else "FAIL", len(maximal), sorted(rays), dt))
    assert len(maximal) == 2
    assert rays == {(-1, 0), (-2, -3), (0, -1)}
    assert dt < 1.0


def test_border_subspace_global_six_local_four():
    t0 = time.monotonic()
    sig = RingSignature(3, "poly")
    x1, x2, x3 = (V(sig, i) for i in range(3))
    I = Ideal(sig, [C(sig, 1) - x3, x1 + x2])
    S = WeightSubspace(3, [(1, 0, 0), (0, 1, 0)], region_cone(sig, "uloc"))
    gmax = enumerate_cones(homogenized_ideal(I), S, check=True)
    gfan = assemble_closed_fan([gc.cone for gc in gmax])
    lf = assemble_local_fan(I, S, check=True)
    dt = time.monotonic() - t0
    ok = len(gfan) == 6 and len(lf.cones) == 4 and dt < 5.0
    print("criterion 2 (border subspace): %s — global %d, local %d, %.2fs"
          % ("PASS" if ok else "FAIL", len(gfan), len(lf.cones), dt))
    assert len(gfan) == 6
    assert len(lf.cones) == 4
    assert dt < 5.0


def test_translated_local_fans_four_vs_six():
    t0 = time.monotonic()
    sig = RingSignature(2, "poly")
    x1, x2 = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [C(sig, 1) + x1 + x2])
    S = full_subspace(sig, "uloc")
    generic = assemble_local_fan(
        translate_base_point(I, (QQ(1), QQ(1))), S, check=True)
    special = assemble_local_fan(
        translate_base_point(I, (QQ(1), QQ(-2))), S, check=True)
    dt = time.monotonic() - t0
    ok = (len(generic.cones) == 4 and len(special.cones) == 6 and dt < 5.0)
    print("criterion 3 (translated local fans): %s — generic %d, "
          "special %d, %.2fs"
          % ("PASS" if ok else "FAIL", len(generic.cones),
             len(special.cones), dt))
    assert len(generic.cones) == 4
    assert len(special.cones) == 6
    assert dt < 5.0


def _bs_ideal():
    # t1, t2, x, y with derivations dt1, dt2, dx, dy
    sig = RingSignature(4, "weyl", names=("t1", "t2", "x", "y"))
    t1, t2, x, y = (V(sig, i) for i in range(4))
    dt1, dt2, dx, dy = (V(sig, 4 + i) for i in range(4))
    one = C(sig, 1)
    g1 = t1 - y
    g2 = t2 - (y - (x - one) * (x - one))
    g3 = (C(sig, -2) * x + C(sig, 2)) * dt2 + dx
    g4 = dt1 + dt2 + dy
    return Ideal(sig, [g1, g2, g3, g4])


def _bs_subspace(region_kind="wloc"):
    sig = RingSignature(4, "weyl")
    rows = [(-1, 0, 0, 0, 1, 0, 0, 0), (0, -1, 0, 0, 0, 1, 0, 0)]
    return WeightSubspace(8, rows, region_cone(sig, region_kind))


def _expected_initial_sets(hsig):
    """Slot order: t1 t2 x y dt1 dt2 dx dy h."""
    def e(**kw):
        slots = {"t1": 0, "t2": 1, "x": 2, "y": 3, "dt1": 4, "dt2": 5,
                 "dx": 6, "dy": 7, "h": 8}
        out = [0] * 9
        for k, v in kw.items():
            out[slots[k]] = v
        return tuple(out)

    minus_y = M(hsig, e(y=1), -1)
    quad = (M(hsig, e(x=2), -1) + M(hsig, e(h=1, x=1), 2)
            + M(hsig, e(h=2), -1))
    f1 = [
        minus_y, quad,
        M(hsig, e(h=1, t2=1, dt2=1), 2) + M(hsig, e(h=1, x=1, dx=1), 1)
        + M(hsig, e(h=2, dx=1), -1) + M(hsig, e(h=3), 2),
        M(hsig, e(x=1, dt2=1), -2) + M(hsig, e(h=1, dt2=1), 2),
        M(hsig, e(dt1=1), 1),
    ]
    f2 = [
        minus_y, quad,
        M(hsig, e(h=1, t1=1, dt1=1), 2) + M(hsig, e(h=1, x=1, dx=1), 1)
        + M(hsig, e(h=2, dx=1), -1) + M(hsig, e(h=3), 2),
        M(hsig, e(x=1, dt1=1), -2) + M(hsig, e(h=1, dt1=1), 2),
        M(hsig, e(dt2=1), 1),
    ]
    l12 = [
        minus_y, quad,
        M(hsig, e(h=1, t1=1, dt2=1), 2) + M(hsig, e(h=1, t2=1, dt2=1), -2)
        + M(hsig, e(h=1, x=1, dx=1), -1) + M(hsig, e(h=2, dx=1), 1)
        + M(hsig, e(h=3), -2),
        M(hsig, e(x=1, dt2=1), -2) + M(hsig, e(h=1, dt2=1), 2),
        M(hsig, e(dt1=1), 1) + M(hsig, e(dt2=1), 1),
    ]
    return f1, f2, l12


def _same_ideal(gens_a, gens_b, order):
    basis_a = buchberger(gens_a, order)
    basis_b = buchberger(gens_b, order)
    for g in gens_b:
        _, r = divide(g, basis_a, order)
        if not r.is_zero():
            return False
    for g in gens_a:
        _, r = divide(g, basis_b, order)
        if not r.is_zero():
            return False
    return True


def test_weighted_initial_ideals_and_merged_local_class():
    t0 = time.monotonic()
    I = _bs_ideal()
    S = _bs_subspace()
    hid = homogenized_ideal(I, mode="h11")
    cones = enumerate_cones(hid, S, check=True)
    # (a) exactly the sectors w1 >= w2 >= 0 and w2 >= w1 >= 0
    expect_f1 = HCone(2, [(1, -1), (0, 1)])
    expect_f2 = HCone(2, [(-1, 1), (1, 0)])
    keys = {gc.key() for gc in cones}
    part_a = keys == {expect_f1.key(), expect_f2.key()}
    by_key = {gc.key(): gc for gc in cones}
    gc1, gc2 = by_key[expect_f1.key()], by_key[expect_f2.key()]
    shared = gc1.cone.intersect(gc2.cone)
    expect_l12 = HCone(2, [(1, 0)], [(1, -1)])
    part_a = part_a and shared.key() == expect_l12.key()

    # (b) computed initial forms generate the expected ideals
    hsig = hid.sig
    f1, f2, l12 = _expected_initial_sets(hsig)
    gl = groebner_cone(hid, (QQ(1), QQ(1)), S)
    checks = []
    for gc, expected, w in ((gc1, f1, (QQ(2), QQ(1))),
                            (gc2, f2, (QQ(1), QQ(2))),
                            (gl, l12, (QQ(1), QQ(1)))):
        order = groebner_order(hsig, S.to_ambient(w))
        checks.append(_same_ideal(list(gc.initials), expected, order))
    part_b = all(checks)

    # (c) the second-homogenization local route glues the two sectors
    lf = assemble_local_fan(I, S, check=True)
    top = [cl for cl in lf.classes if cl.closure.dim == 2]
    quadrant = HCone(2, [(1, 0), (0, 1)])
    part_c = (len(top) == 1 and len(top[0].members) == 2
              and top[0].closure.key() == quadrant.key())
    dt = time.monotonic() - t0
    ok = part_a and part_b and part_c and dt < 60.0
    print("criterion 4 (two-parameter differential example): %s — "
          "sectors %s, initial ideals %s, glued class %s, %.2fs"
          % ("PASS" if ok else "FAIL", part_a, part_b, part_c, dt))
    assert part_a
    assert part_b
    assert part_c
    assert dt < 60.0


def _on_region_border(face, S):
    """True iff the face lies in a supporting hyperplane of the region."""
    gens = face.lineality() + face.rays()
    return any(all(vdot(r, g) == 0 for g in gens)
               for r in S.region.facet_covectors())


def _interiors_disjoint(a, b, rdim):
    """A facet hyperplane of a with b on its other side separates them;
    failing that, intersect."""
    for f in a.facet_covectors():
        if (all(vdot(f, r) <= 0 for r in b.rays())
                and all(vdot(f, v) == 0 for v in b.lineality())):
            return True
    return a.intersect(b).dim < rdim


def _assert_recomputed(hid, gc, y, S):
    """The Groebner cone of hid at the weight y, computed afresh from
    hid's generators, has gc's reduced basis and is gc's cone."""
    fresh = groebner_cone(hid, y, S)
    assert fresh.basis == gc.basis
    assert fresh.key() == gc.key()


def _assert_cones_tile_region(hid, cones, S, samples):
    """Evidence, independent of the flip walk, that the cones are the
    maximal Groebner cones of hid over the region:

    * at a point inside each cone, the reduced basis computed afresh from
      hid's generators is the cone's basis, and the Groebner cone built
      from it there is the cone itself; the basis closes under S-pairs
      checked with no criteria and reduces hid's generators to zero;
    * the leading-monomial sets are distinct;
    * no two cones share interior points;
    * every facet inside the region is shared by exactly two cones and
      every other facet lies on the region's border;
    * every cone has a facet inside the region, so dropping any one cone
      leaves a facet counted once;
    * each sampled generic weight lies inside exactly one cone, and the
      Groebner cone computed afresh at it is that cone.

    The fresh computations use groebner_cone (Buchberger at one weight,
    then the cone of the reduced basis), not the flip walk."""
    rdim = S.region.dim
    assert all(gc.cone.dim == rdim for gc in cones)
    leads = set()
    for gc in cones:
        y = gc.cone.relint_point()
        assert gc.cone.strictly_contains(y)
        _assert_recomputed(hid, gc, y, S)
        basis = gc.basis
        order = groebner_order(hid.sig, S.to_ambient(gc.witness))
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                _, r = divide(s_pair(basis[i], basis[j], order), basis, order)
                assert r.is_zero()
        for f in hid.generators:
            assert divide(f, basis, order)[1].is_zero()
        leads.add(frozenset(leading_data(g, order)[0] for g in basis))
    assert len(leads) == len(cones)
    for a, b in combinations(cones, 2):
        assert _interiors_disjoint(a.cone, b.cone, rdim)
    facets, cone_facets = {}, []
    for gc in cones:
        keys = []
        for f in gc.cone.facet_covectors():
            face = gc.cone.intersect(HCone(S.dim, [], [f]))
            facets.setdefault(face.key(), [face, 0])[1] += 1
            keys.append(face.key())
        cone_facets.append(keys)
    border = {k for k, (face, _) in facets.items()
              if _on_region_border(face, S)}
    for k, (_, count) in facets.items():
        assert count == (1 if k in border else 2)
    assert all(set(keys) - border for keys in cone_facets)
    for y in samples:
        assert S.region.strictly_contains(y)
        holders = [gc for gc in cones if gc.cone.strictly_contains(y)]
        assert len(holders) == 1
        _assert_recomputed(hid, holders[0], y, S)


def _generic_weights(S, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        y = tuple(rng.randint(-1000, 1000) for _ in range(S.dim))
        if S.region.strictly_contains(y):
            out.append(y)
    return out


def test_hypergeometric_maximal_cone_counts(flip_calls):
    t0 = time.monotonic()
    I1 = _hypergeometric_ideal(1)
    c1 = enumerate_cones(homogenized_ideal(I1, mode="h11"),
                         full_subspace(I1.sig, "wglob"))
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    I2 = _hypergeometric_ideal(2)
    J = homogenized_ideal(I2, mode="h11")
    S = full_subspace(I2.sig, "wglob")
    del flip_calls[:]
    c2 = enumerate_cones(J, S)
    t2 = time.monotonic() - t0
    n2_flips = len(flip_calls)
    # J = <H(f_1), H(f_2)> is the generator lift, not H(I) = J : h^inf
    Jsat = saturate_h(J)
    c2sat = enumerate_cones(Jsat, S)
    ok = (len(c1) == 2 and len(c2) == 40 and len(c2sat) == 30
          and t1 < 5.0 and t2 < 1800.0)
    print("criterion 5 (hypergeometric counts): %s — n=1: %d (%.2fs), "
          "n=2: %d (%.2fs), n=2 saturated: %d; expected 2, 40 and 30"
          % ("PASS" if ok else "FAIL", len(c1), t1, len(c2), t2,
             len(c2sat)))
    assert len(c1) == 2
    assert t1 < 5.0
    assert t2 < 1800.0
    # 40 is the count for J, checked here by an oracle that does not rely
    # on the flip walk.  An external reference gives 39 for "the n=2
    # hypergeometric fan" without naming its ideal.  It is neither J (40)
    # nor J : h^inf (30) over wglob, both checked here; two more objects
    # were measured once through the CLI and are not asserted by any test:
    # J over wloc (36 cones) and the double lift over wglob (40 cones).
    samples = _generic_weights(S, 51, 7)
    assert len(c2) == 40, "expected 40 maximal cones, found %d" % len(c2)
    # one flip per pair of adjacent cones, each finding a new cone
    assert n2_flips == 39
    _assert_cones_tile_region(J, c2, S, samples)
    # the h-saturated object H(I) has a coarser fan
    assert len(c2sat) == 30
    _assert_cones_tile_region(Jsat, c2sat, S, samples)
    # both closed fans pass the fan axioms
    for cones in (c2, c2sat):
        ok, problems = validate_fan(
            assemble_closed_fan([gc.cone for gc in cones]))
        assert ok, problems


def test_same_global_fans_different_local_fans():
    t0 = time.monotonic()
    sig = RingSignature(2, "poly")
    x1, x2 = V(sig, 0), V(sig, 1)
    g = x1 + x2 + x1 * x2 * x2 + x1 * x1 * x2
    I1 = Ideal(sig, [g])
    I2 = Ideal(sig, [C(sig, 1) + g])
    Spos = full_subspace(sig, "upos")
    fans = []
    for I in (I1, I2):
        cones = enumerate_cones(homogenized_ideal(I), Spos, check=True)
        fans.append({c.key() for c in
                     assemble_closed_fan([gc.cone for gc in cones])})
    global_equal = fans[0] == fans[1]
    Sloc = full_subspace(sig, "uloc")
    lf1 = assemble_local_fan(I1, Sloc, check=True)
    lf2 = assemble_local_fan(I2, Sloc, check=True)
    local_keys1 = {c.key() for c in lf1.cones}
    local_keys2 = {c.key() for c in lf2.cones}
    local_differ = local_keys1 != local_keys2
    dt = time.monotonic() - t0
    ok = global_equal and local_differ and dt < 10.0
    print("criterion 6 (same global, different local): %s — global equal "
          "%s (%d cones), local %d vs %d cones, %.2fs"
          % ("PASS" if ok else "FAIL", global_equal, len(fans[0]),
             len(lf1.cones), len(lf2.cones), dt))
    assert global_equal
    assert local_differ
    assert dt < 10.0


def test_property_suite_bundle():
    t0 = time.monotonic()
    import test_localfan
    import test_polyhedra
    test_localfan.test_random_local_fans_validate()          # >= 50 fans
    test_polyhedra.test_minkowski_normal_cone_intersection_property()
    test_polyhedra.test_minkowski_face_additivity()          # >= 100 pairs
    test_localfan.test_interior_agreement()                  # >= 100 weights
    test_localfan.test_homogeneous_ideals_need_no_gluing()   # >= 20 ideals
    # division identities: every check=True call in the suite re-verifies
    # the re-expansion identity and the divisor-support conditions; run one
    # more division here with checking enabled as a sentinel
    sig = RingSignature(2, "poly", "alpha")
    x, y, h = (V(sig, i) for i in range(3))
    divide(x * x * y - h * h * h, [x * y - h * h, y * y - x * h],
           groebner_order(sig, (1, 2)), check=True)
    dt = time.monotonic() - t0
    ok = dt < 900.0
    print("criterion 7 (randomized property suite): %s — %.2fs"
          % ("PASS" if ok else "FAIL", dt))
    assert ok
