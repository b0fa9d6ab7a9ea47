"""Groebner cones and their enumeration by facet flipping."""

import random
import re
import sys

import pytest

from grobfan import fans, orders
from grobfan.rational import QQ
from grobfan.linalg import vdot
from grobfan.rings import RingSignature, Element
from grobfan.groebner import Ideal, homogenized_ideal
from grobfan.polyhedra import HCone, validate_fan
from grobfan.fans import (WeightSubspace, full_subspace, region_cone,
                          groebner_cone, enumerate_cones,
                          assemble_closed_fan, facet_on_border, flip,
                          _projected_direction)

from conftest import hypergeometric_ideal
from reference_polyhedra import contains
from test_localfan import _random_ideal


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
    assert contains(region_cone(psig, "uloc"), (-1, -2))
    assert not contains(region_cone(psig, "uloc"), (1, 0))


def test_subspace_pullback():
    rows = [(-1, 0, 0, 0, 1, 0, 0, 0), (0, -1, 0, 0, 0, 1, 0, 0)]
    sig4 = RingSignature(4, "weyl")
    S = WeightSubspace(8, rows, region_cone(sig4, "wloc"))
    # pulled-back region: -w1 <= 0 and -w2 <= 0, i.e. the positive quadrant
    assert contains(S.region, (1, 2))
    assert not contains(S.region, (-1, 2))
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


def _walk_cases():
    """(homogenized ideal, subspace) pairs: the cusp over uloc,
    hypergeometric n=1 under h11 over wglob, and every stratum the local
    fan enumerates for the first 16 ideals of Random(5), which include fans
    of 2 to 5 cones."""
    I1 = hypergeometric_ideal(1)
    cases = [(cusp_hideal(), full_subspace(RingSignature(2, "poly"), "uloc")),
             (homogenized_ideal(I1, mode="h11"),
              full_subspace(I1.sig, "wglob"))]
    rng = random.Random(5)
    for _ in range(16):
        I = _random_ideal(rng, rng.choice([1, 2, 2, 3]))
        S = full_subspace(I.sig, "uloc")
        cases += [(homogenized_ideal(I), S.restrict(face))
                  for face in S.region.faces()]
    return cases


def test_each_flip_finds_a_new_cone(flip_calls):
    # one flip per pair of adjacent maximal cones: every cone but the
    # starting one is found by exactly one flip, and no flip is wasted
    sizes = []
    for hid, S in _walk_cases():
        del flip_calls[:]
        cones = enumerate_cones(hid, S)
        assert len(flip_calls) == len(cones) - 1
        sizes.append(len(cones))
    assert max(sizes) >= 5 and sum(n > 1 for n in sizes) >= 10


# --- the walk against its earlier definitions ----------------------------

def _halving_flip(gc, facet, hideal, S):
    """The flip by shrinking perturbations: the cone of the first
    p + eps*d, eps = 1, 1/2, ..., that is full-dimensional, holds that point
    in its relative interior and meets gc in exactly the facet face."""
    face = gc.cone.facet_faces()[facet]
    p = face.relint_point()
    d = _projected_direction(facet, gc.cone.equation_basis())
    eps = QQ(1)
    for _ in range(64):
        y = tuple(a + eps * b for a, b in zip(p, d))
        if contains(S.region, y) and vdot(facet, y) < 0:
            nb = groebner_cone(hideal, y, S)
            if (nb.cone.dim == S.region.dim and nb.cone.strictly_contains(y)
                    and gc.cone.intersect(nb.cone).key() == face.key()):
                return nb
        eps = eps / 2
    raise AssertionError("the halving flip did not settle")


def _generator_facet_on_border(cone, facet, S):
    """Whether the facet lies inside a supporting hyperplane of the region
    that does not contain the whole cone, tested on generators."""
    face = cone.facet_faces()[facet]
    gens = face.lineality() + face.rays()
    cgens = cone.lineality() + cone.rays()
    return any(all(vdot(r, g) == 0 for g in gens)
               and any(vdot(r, g) != 0 for g in cgens)
               for r in S.region.facet_covectors())


def test_flip_is_one_completion_and_matches_the_halving_flip(monkeypatch):
    completions = []
    buchberger = fans.buchberger

    def counting(*args, **kwargs):
        completions.append(args)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(fans, "buchberger", counting)
    flips = 0
    for hid, S in _walk_cases():
        for gc in enumerate_cones(hid, S):
            for facet in gc.cone.facet_covectors():
                if facet_on_border(gc.cone, facet, S):
                    continue
                del completions[:]
                nb = flip(gc, facet, hid, S)
                assert len(completions) == 1
                ref = _halving_flip(gc, facet, hid, S)
                assert nb.key() == ref.key()
                assert nb.witness == ref.witness
                assert nb.basis == ref.basis
                assert nb.initials == ref.initials
                flips += 1
    assert flips >= 36


def test_leads_are_scanned_only_inside_completions(monkeypatch):
    # a completion finds each basis element's lead once; the cone takes
    # each element's top-weight terms from the weights it evaluates and
    # scans no lead again
    depth, inside, outside = [0], [], []
    buchberger, scan = fans.buchberger, orders.leading_data

    def completing(*args, **kwargs):
        depth[0] += 1
        try:
            return buchberger(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counting(p, order):
        (inside if depth[0] else outside).append(p)
        return scan(p, order)

    monkeypatch.setattr(fans, "buchberger", completing)
    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "grobfan"
                and getattr(mod, "leading_data", None) is scan):
            monkeypatch.setattr(mod, "leading_data", counting)
    for hid, S in _walk_cases():
        enumerate_cones(hid, S)
    assert inside and not outside


def test_a_flip_completes_the_generators_alone(monkeypatch):
    # the cone past a facet comes from the ideal's generators and from
    # nothing of the old cone's basis: the reduced basis under an order is
    # unique, so the old basis can only repeat work
    received, current = [], []
    buchberger, flip_ = fans.buchberger, fans.flip

    def completing(*args, **kwargs):
        if current:
            current[-1].append([g for v in args + tuple(kwargs.values())
                                if isinstance(v, (list, tuple))
                                for g in v if isinstance(g, Element)])
        return buchberger(*args, **kwargs)

    def flipping(gc, facet, hideal, *args, **kwargs):
        current.append([])
        try:
            return flip_(gc, facet, hideal, *args, **kwargs)
        finally:
            received.append((hideal.generators, current.pop()))

    monkeypatch.setattr(fans, "buchberger", completing)
    monkeypatch.setattr(fans, "flip", flipping)
    for hid, S in _walk_cases():
        enumerate_cones(hid, S)
    assert len(received) >= 15
    for gens, inputs in received:
        assert inputs == [gens]


def test_facet_on_border_matches_the_generator_test():
    seen = set()
    for hid, S in _walk_cases():
        for gc in enumerate_cones(hid, S):
            for facet in gc.cone.facet_covectors():
                on = facet_on_border(gc.cone, facet, S)
                assert on == _generator_facet_on_border(gc.cone, facet, S)
                seen.add(on)
    assert seen == {True, False}


def test_flip_rejects_a_cone_not_adjacent_across_the_facet(monkeypatch):
    hid = cusp_hideal()
    S = full_subspace(RingSignature(2, "poly"), "uloc")
    gc = enumerate_cones(hid, S)[0]
    facet = next(f for f in gc.cone.facet_covectors()
                 if not facet_on_border(gc.cone, f, S))
    # a walk that lands back in gc has not crossed the facet
    monkeypatch.setattr(fans, "groebner_cone", lambda *args, **kw: gc)
    with pytest.raises(RuntimeError, match=re.escape(repr(facet))):
        flip(gc, facet, hid, S)
