"""Groebner cones and their enumeration by facet flipping."""

import random

from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element
from grobfan.groebner import Ideal, homogenized_ideal
from grobfan.polyhedra import HCone, validate_fan
from grobfan.fans import (WeightSubspace, full_subspace, region_cone,
                          groebner_cone, enumerate_cones,
                          assemble_closed_fan, facet_on_border, flip)


def V(sig, i):
    return Element.variable(sig, i)


def C(sig, c):
    return Element.constant(sig, QQ(c))


def cusp_hideal():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    return homogenized_ideal(Ideal(sig, [x * x * x - y * y]))


def test_region_cones():
    sig = RingSignature(1, "weyl")
    assert region_cone(sig, "wglob").facet_covectors() == [(1, 1)]
    wloc = region_cone(sig, "wloc")
    assert sorted(wloc.facet_covectors()) == [(-1, 0), (1, 1)]
    psig = RingSignature(2, "poly")
    assert region_cone(psig, "uglob").dim == 2
    assert region_cone(psig, "uloc").contains((-1, -2))
    assert not region_cone(psig, "uloc").contains((1, 0))


def test_subspace_pullback():
    rows = [(-1, 0, 0, 0, 1, 0, 0, 0), (0, -1, 0, 0, 0, 1, 0, 0)]
    sig4 = RingSignature(4, "weyl")
    S = WeightSubspace(8, rows, region_cone(sig4, "wloc"))
    # pulled-back region: -w1 <= 0 and -w2 <= 0, i.e. the positive quadrant
    assert S.region.contains((1, 2))
    assert not S.region.contains((-1, 2))
    assert S.to_ambient((QQ(2), QQ(3)))[0] == -2


def test_subspace_restrict_to_face():
    sig = RingSignature(2, "poly")
    S = WeightSubspace(2, [(-2, -3)], region_cone(sig, "uloc"))
    face = HCone(1, [], [(1,)])
    Sf = S.restrict(face)
    assert (Sf.ambient, Sf.rows, Sf.region) == (S.ambient, S.rows, face)
    assert S.region.dim == 1 and Sf.region.dim == 0


def test_cusp_cones_over_uloc():
    hid = cusp_hideal()
    S = full_subspace(RingSignature(2, "poly"), "uloc")
    cones = enumerate_cones(hid, S, check=True)
    assert len(cones) == 2
    keyset = {c.key() for c in cones}
    s1 = HCone(2, [(-1, 0), (3, -2)])    # between (-1,0)... sector of -y^2
    s2 = HCone(2, [(-3, 2), (0, -1)])
    assert {s1.key(), s2.key()} == keyset


def test_witness_consistency():
    hid = cusp_hideal()
    S = full_subspace(RingSignature(2, "poly"), "uloc")
    for gc in enumerate_cones(hid, S):
        again = groebner_cone(hid, gc.witness, S)
        assert again.cone.key() == gc.cone.key()
        assert again.basis == gc.basis


def test_flip_involution():
    hid = cusp_hideal()
    S = full_subspace(RingSignature(2, "poly"), "uloc")
    cones = enumerate_cones(hid, S)
    gc = cones[0]
    interior_facets = [f for f in gc.cone.facet_covectors()
                       if not facet_on_border(gc.cone, f, S)]
    assert interior_facets
    f = interior_facets[0]
    nb = flip(gc, f, hid, S)
    assert nb.cone.key() != gc.cone.key()
    back_facets = [g for g in nb.cone.facet_covectors()
                   if not facet_on_border(nb.cone, g, S)]
    assert len(back_facets) == 1
    again = flip(nb, back_facets[0], hid, S)
    assert again.cone.key() == gc.cone.key()


def test_cover_property_sampling():
    hid = cusp_hideal()
    S = full_subspace(RingSignature(2, "poly"), "uloc")
    keys = {c.key() for c in enumerate_cones(hid, S)}
    rng = random.Random(2)
    for _ in range(60):
        y = (QQ(-rng.randint(1, 30)), QQ(-rng.randint(1, 30)))
        gc = groebner_cone(hid, y, S)
        if gc.cone.dim == 2:
            assert gc.key() in keys
            # the point lies in exactly one maximal cone's interior
            assert gc.cone.strictly_contains(y)


def test_closed_fan_assembly_validates():
    hid = cusp_hideal()
    S = full_subspace(RingSignature(2, "poly"), "uloc")
    cones = enumerate_cones(hid, S)
    fan = assemble_closed_fan([gc.cone for gc in cones])
    assert len(fan) == 6
    ok, problems = validate_fan(fan)
    assert ok, problems


def test_initials_distinguish_cones():
    hid = cusp_hideal()
    S = full_subspace(RingSignature(2, "poly"), "uloc")
    cones = enumerate_cones(hid, S)
    inis = [frozenset(frozenset(g.terms) for g in gc.initials)
            for gc in cones]
    assert len(set(inis)) == len(cones)


def test_enumeration_restricted_to_line():
    # restrict the cusp fan to the line w = t(-2,-3): single maximal cone
    hid = cusp_hideal()
    sig = RingSignature(2, "poly")
    S = WeightSubspace(2, [(-2, -3)], region_cone(sig, "uloc"))
    cones = enumerate_cones(hid, S)
    assert len(cones) == 1
    assert cones[0].cone.dim == 1


def test_differential_global_fan_h11():
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    ideal = Ideal(sig, [x * d * x * d + d + C(sig, 1)])
    hid = homogenized_ideal(ideal, mode="h11")
    S = full_subspace(sig, "wglob")
    cones = enumerate_cones(hid, S, check=True)
    fan = assemble_closed_fan([gc.cone for gc in cones])
    ok, problems = validate_fan(fan)
    assert ok, problems
    assert all(gc.cone.dim == 2 for gc in cones)
