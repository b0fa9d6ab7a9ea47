"""Local fans: strata, equality of local initial ideals, gluing, assembly,
and the randomized property suite."""

import random
from types import SimpleNamespace

import pytest

from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element, homogenize
from grobfan.groebner import (Ideal, homogenized_ideal, dehomogenized_basis,
                              local_standard_basis)
from grobfan.polyhedra import validate_fan, cone_from_rays
from grobfan.fans import (WeightSubspace, full_subspace, region_cone,
                          enumerate_cones, groebner_cone)
from grobfan import localfan
from grobfan.localfan import (stratum_of, allowed_block,
                              local_initials_equal, merge_classes,
                              assemble_local_fan, translate_base_point,
                              _initials_equal)

from test_acceptance import _bs_ideal, _bs_subspace


def V(sig, i):
    return Element.variable(sig, i)


def C(sig, c):
    return Element.constant(sig, QQ(c))


def test_stratum_commutative():
    sig = RingSignature(3, "poly")
    assert stratum_of(sig, (QQ(-1), QQ(0), QQ(-2))) == (frozenset({0, 2}),)
    assert stratum_of(sig, (QQ(0), QQ(0), QQ(0))) == (frozenset(),)
    assert allowed_block(sig, (frozenset({0, 2}),)) == frozenset({1})


def test_stratum_differential():
    sig = RingSignature(2, "weyl")
    w = (QQ(-1), QQ(0), QQ(2), QQ(0))
    assert stratum_of(sig, w) == (frozenset({0}), frozenset({0}))


def test_local_initials_equal_requires_same_stratum():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [x * x * x - y * y])
    import pytest
    with pytest.raises(ValueError):
        local_initials_equal(I, (QQ(-1), QQ(-1)), (QQ(0), QQ(-1)))


def test_local_initials_cusp():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [x * x * x - y * y])
    # same normal sector: equal; across the wall: different
    assert local_initials_equal(I, (QQ(-1), QQ(-1)), (QQ(-5), QQ(-2)),
                                check=True)
    assert not local_initials_equal(I, (QQ(-1), QQ(-1)), (QQ(-2), QQ(-5)),
                                    check=True)


def test_unit_ideal_has_trivial_local_fan():
    # 1 + x is invertible near the origin: one maximal class, 4 cones total
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [C(sig, 1) + x + y])
    lf = assemble_local_fan(I, full_subspace(sig, "uloc"), check=True)
    assert len(lf.cones) == 4
    maximal = [c for c in lf.cones if c.dim == 2]
    assert len(maximal) == 1


def test_cusp_local_fan():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [x * x * x - y * y])
    lf = assemble_local_fan(I, full_subspace(sig, "uloc"))
    assert len(lf.cones) == 6
    assert sorted(c.dim for c in lf.cones) == [0, 1, 1, 1, 2, 2]


def test_translate_base_point_identity_and_shift():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [C(sig, 1) + x + y])
    J = translate_base_point(I, (QQ(0), QQ(0)))
    assert J.generators == I.generators
    K = translate_base_point(I, (QQ(1), QQ(-2)))
    assert K.generators == [x + y]


def test_differential_local_fan_validates():
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [x * d + C(sig, 2)])
    lf = assemble_local_fan(I, full_subspace(sig, "wloc"), check=True)
    ok, problems = validate_fan(lf.cones)
    assert ok, problems


# --- randomized property suite -------------------------------------------

def _random_ideal(rng, n, max_gens=3, max_terms=3, deg=4):
    sig = RingSignature(n, "poly")
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        g = Element.zero(sig)
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, deg) for _ in range(n))
            if sum(e) > deg:
                e = tuple(x % 2 for x in e)
            g = g + Element.monomial(sig, e, rng.choice([1, -1, 2, -3]))
        if not g.is_zero():
            gens.append(g)
    if not gens:
        gens = [Element.constant(sig, 1)]
    return Ideal(sig, gens)


def test_random_local_fans_validate():
    # >= 50 randomized small ideals; every assembled closed local fan
    # passes the fan axioms (assemble_local_fan raises otherwise)
    rng = random.Random(42)
    done = 0
    while done < 50:
        n = rng.choice([1, 2, 2, 3])
        I = _random_ideal(rng, n)
        S = full_subspace(I.sig, "uloc")
        lf = assemble_local_fan(I, S)
        ok, problems = validate_fan(lf.cones)
        assert ok, problems
        done += 1


def test_interior_agreement():
    # for weights in the open negative region, equality of local initial
    # ideals coincides with equality of the global (homogenized) cones
    rng = random.Random(7)
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    ideals = [
        Ideal(sig, [x * x * x - y * y]),
        Ideal(sig, [x * x - y * y * y, x * y]),
        Ideal(sig, [x + y + x * x * y]),
    ]
    S = full_subspace(sig, "uloc")
    checked = 0
    while checked < 100:
        I = ideals[checked % len(ideals)]
        hid = homogenized_ideal(I)
        w1 = (QQ(-rng.randint(1, 9)), QQ(-rng.randint(1, 9)))
        w2 = (QQ(-rng.randint(1, 9)), QQ(-rng.randint(1, 9)))
        g1 = groebner_cone(hid, w1, S)
        g2 = groebner_cone(hid, w2, S)
        global_equal = {frozenset(g.terms) for g in g1.initials} == \
            {frozenset(g.terms) for g in g2.initials}
        local_equal = local_initials_equal(I, w1, w2)
        assert global_equal == local_equal, (w1, w2)
        checked += 1


def test_homogeneous_ideals_need_no_gluing():
    # >= 20 random ideals with homogeneous generators: merging inside the
    # open stratum never glues two distinct cones
    rng = random.Random(13)
    done = 0
    while done < 20:
        n = rng.choice([2, 2, 3])
        sig = RingSignature(n, "poly")
        gens = []
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(1, 3)
            g = Element.zero(sig)
            for _ in range(rng.randint(2, 3)):
                e = [0] * n
                left = d
                for i in range(n - 1):
                    e[i] = rng.randint(0, left)
                    left -= e[i]
                e[n - 1] = left
                g = g + Element.monomial(sig, tuple(e),
                                         rng.choice([1, -1, 2]))
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        I = Ideal(sig, gens)
        S = full_subspace(sig, "uloc")
        cones = enumerate_cones(homogenized_ideal(I), S)
        classes = merge_classes(cones, I, S)
        assert all(len(cl.members) == 1 for cl in classes)
        done += 1


def test_refinement_each_cone_in_one_class():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [C(sig, 1) + x + y + x * y * y])
    S = full_subspace(sig, "uloc")
    cones = enumerate_cones(homogenized_ideal(I), S)
    classes = merge_classes(cones, I, S)
    assignment = {}
    for ci, cl in enumerate(classes):
        for m in cl.members:
            assert m.key() not in assignment
            assignment[m.key()] = ci
    assert len(assignment) == len(cones)


# --- gluing reuses the enumeration's bases -------------------------------

def _reuse_cases():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    yield Ideal(sig, [x * x * x - y * y]), full_subspace(sig, "uloc")
    rng = random.Random(5)
    for _ in range(4):
        I = _random_ideal(rng, rng.choice([1, 2, 2, 3]))
        yield I, full_subspace(I.sig, "uloc")
    wsig = RingSignature(1, "weyl")
    xd = V(wsig, 0) * V(wsig, 1)
    yield Ideal(wsig, [xd + C(wsig, 2)]), full_subspace(wsig, "wloc")


def test_enumerated_bases_are_local_standard_bases():
    # merge_classes glues from each cone's dehomogenized reduced basis; it
    # must be the local standard basis recomputed at the cone's witness, on
    # every face of the region
    checked = 0
    for I, S in _reuse_cases():
        hid = homogenized_ideal(I)
        for face in S.region.faces():
            Sf = S.restrict(face)
            for gc in enumerate_cones(hid, Sf):
                w = Sf.to_ambient(gc.witness)
                assert (dehomogenized_basis(gc.basis)
                        == local_standard_basis(I, w)), (I.generators, w)
                checked += 1
    assert checked >= 20


def test_gluing_computes_no_standard_basis(monkeypatch):
    def recompute(*args, **kwargs):
        raise AssertionError("local standard basis recomputed")
    monkeypatch.setattr(localfan, "local_standard_basis", recompute)
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [y - 3 * x, C(sig, 2) * x - x * x * x - y * y * y * y])
    lf = assemble_local_fan(I, full_subspace(sig, "uloc"))
    assert any(len(cl.members) > 1 for cl in lf.classes)


# --- merging compares facet-adjacent cones only --------------------------

def _all_pairs_classes(cones, ideal, S):
    """The classes as sets of cone keys, by a union-find that compares every
    pair of cones."""
    parent = list(range(len(cones)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    witnesses = [S.to_ambient(c.witness) for c in cones]
    bases = [dehomogenized_basis(c.basis) for c in cones]
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            if find(i) != find(j) and _initials_equal(
                    ideal.sig, witnesses[i], bases[i], witnesses[j],
                    bases[j]):
                parent[find(j)] = find(i)
    classes = {}
    for i, c in enumerate(cones):
        classes.setdefault(find(i), set()).add(c.key())
    return {frozenset(keys) for keys in classes.values()}


def _merge_cases():
    """The cusp and the first 16 ideals of Random(5) over uloc, and the
    two-parameter local example over wloc."""
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    yield Ideal(sig, [x * x * x - y * y]), full_subspace(sig, "uloc")
    rng = random.Random(5)
    for _ in range(16):
        I = _random_ideal(rng, rng.choice([1, 2, 2, 3]))
        yield I, full_subspace(I.sig, "uloc")
    yield _bs_ideal(), _bs_subspace()


def test_merge_classes_matches_all_pairs_merging():
    glued = 0
    for I, S in _merge_cases():
        hid = homogenized_ideal(I)
        for face in S.region.faces():
            Sf = S.restrict(face)
            cones = enumerate_cones(hid, Sf)
            classes = merge_classes(cones, I, Sf)
            assert ({frozenset(m.key() for m in cl.members)
                     for cl in classes}
                    == _all_pairs_classes(cones, I, Sf))
            glued += sum(len(cl.members) > 1 for cl in classes)
    assert glued >= 8


def test_glue_checks_convexity_on_a_proper_stratum():
    # cones of the plane x3 = 0: the hull's equation vanishes on every
    # generator, so only a facet's covector tells whether it bounds the hull
    def member(*rays):
        return SimpleNamespace(cone=cone_from_rays(3, rays))

    a = member((1, 0, 0), (1, 1, 0))
    glued = localfan._glue([a, member((1, 1, 0), (0, 1, 0))], 3)
    assert glued.key() == cone_from_rays(3, [(1, 0, 0), (0, 1, 0)]).key()
    with pytest.raises(RuntimeError, match="not convex"):
        localfan._glue([a, member((0, 1, 0), (-1, 1, 0))], 3)
