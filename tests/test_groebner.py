"""Buchberger completion, reduced bases, initial ideals, and standard
bases through dehomogenization."""

import random

import pytest

from hypothesis import given, settings

from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element, homogenize, dehomogenize
from grobfan.orders import groebner_order, local_order, leading_data
from grobfan.division import divide, _divides
from grobfan.groebner import (Ideal, buchberger, s_pair, initial_ideal,
                              membership, homogenized_ideal,
                              local_standard_basis, saturate_h,
                              saturation_order)

from conftest import elements, weights, hypergeometric_ideal


def V(sig, i):
    return Element.variable(sig, i)


def C(sig, c):
    return Element.constant(sig, QQ(c))


def test_principal_ideal_basis_is_monic_generator():
    sig = RingSignature(2, "poly", "alpha")
    x, y, h = V(sig, 0), V(sig, 1), V(sig, 2)
    g = x * x * x - y * y * h
    basis = buchberger([g.scale(QQ(-7, 3))], groebner_order(sig, (1, 1)),
                       check=True)
    assert len(basis) == 1
    assert basis[0] in (g, -g)


def test_single_variable_ideal():
    sig = RingSignature(2, "poly", "alpha")
    x = V(sig, 0)
    basis = buchberger([x, x * x], groebner_order(sig, (0, 0)), check=True)
    assert basis == [x]


def test_textbook_commutative_groebner_basis():
    # <x^2 - y, x^3 - x> has reduced degrevlex basis {x^2 - y, xy - x, y^2 - y}
    # (computed in the h-free subring: zero weight, h never enters)
    sig = RingSignature(2, "poly", "alpha")
    x, y = V(sig, 0), V(sig, 1)
    g1 = x * x - y
    g2 = x * x * x - x
    order = groebner_order(sig, (0, 0))
    basis = buchberger([g1, g2], order, check=True)
    assert sorted(str(b) for b in basis) == sorted(
        ["x1^2 - x2", "x1*x2 - x1", "x2^2 - x2"])


def test_spairs_of_output_reduce_to_zero():
    sig = RingSignature(3, "poly", "alpha")
    x, y, z, h = (V(sig, i) for i in range(4))
    gens = [x * y - z * h, y * z - x * h, x * z - y * h]
    order = groebner_order(sig, (1, 2, 3))
    basis = buchberger(gens, order, check=True)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            sp = s_pair(basis[i], basis[j], order)
            if not sp.is_zero():
                _, r = divide(sp, basis, order)
                assert r.is_zero()
    for g in gens:
        assert membership(g, basis, order)


def test_reduced_basis_is_unique_under_generator_shuffle():
    sig = RingSignature(3, "poly", "alpha")
    x, y, z, h = (V(sig, i) for i in range(4))
    gens = [x * y - z * h, y * z - x * h, x * z - y * h, x * x - y * y]
    order = groebner_order(sig, (0, 0, 0))
    ref = buchberger(gens, order)
    rng = random.Random(11)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, order) == ref


def test_seed_warm_start_agrees():
    sig = RingSignature(3, "poly", "alpha")
    x, y, z, h = (V(sig, i) for i in range(4))
    gens = [x * y - z * h, y * z - x * h, x * z - y * h]
    o1 = groebner_order(sig, (1, 2, 3))
    o2 = groebner_order(sig, (3, 2, 1))
    b1 = buchberger(gens, o1)
    assert buchberger(gens, o2, seed=b1) == buchberger(gens, o2)


def test_homogeneous_input_gives_homogeneous_basis():
    sig = RingSignature(2, "poly", "alpha")
    x, y, h = V(sig, 0), V(sig, 1), V(sig, 2)
    gens = [x * x - y * h, x * y - h * h]
    basis = buchberger(gens, groebner_order(sig, (2, 1)))
    assert all(b.is_homogeneous() for b in basis)


def test_weyl_h11_basis_closes():
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    gens = [homogenize(x * d + C(sig, 2), "h11"),
            homogenize(d * d + x, "h11")]
    hsig = gens[0].sig
    order = groebner_order(hsig, (1, 1))
    basis = buchberger(gens, order, check=True)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            sp = s_pair(basis[i], basis[j], order)
            if not sp.is_zero():
                _, r = divide(sp, basis, order)
                assert r.is_zero()


def test_exponent_set_consistency():
    # leading exponents under the w-refined order equal the leading
    # exponents of the initial ideal's basis under the same order
    sig = RingSignature(2, "poly", "alpha")
    x, y, h = V(sig, 0), V(sig, 1), V(sig, 2)
    gens = [x * x - y * h, x * y * y - h * h * h]
    w = (QQ(2), QQ(1))
    order = groebner_order(sig, w)
    basis = buchberger(gens, order, check=True)
    ini = initial_ideal(basis, sig, w)
    ibasis = buchberger(ini, order, check=True)
    lhs = sorted(leading_data(g, order)[0] for g in basis)
    rhs = sorted(leading_data(g, order)[0] for g in ibasis)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(elements(RingSignature(2, "poly", "alpha"), max_terms=3, max_deg=2),
       elements(RingSignature(2, "poly", "alpha"), max_terms=3, max_deg=2),
       weights(2, lo=-3, hi=3))
def test_buchberger_fixpoint_random(g1, g2, w):
    order = groebner_order(g1.sig, w)
    basis = buchberger([g1, g2], order)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            sp = s_pair(basis[i], basis[j], order)
            if not sp.is_zero():
                _, r = divide(sp, basis, order)
                assert r.is_zero()
    assert membership(g1, basis, order)
    assert membership(g2, basis, order)


def test_reduced_basis_tails_irreducible():
    sig = RingSignature(2, "poly", "alpha")
    x, y, h = V(sig, 0), V(sig, 1), V(sig, 2)
    gens = [x * x - y * h, x * y - h * h, y * y - x * h]
    order = groebner_order(sig, (1, 1))
    basis = buchberger(gens, order)
    lexps = [leading_data(g, order)[0] for g in basis]
    for k, g in enumerate(basis):
        # monic
        assert leading_data(g, order)[1] == 1
        # minimal: no other lead divides this lead
        assert not any(j != k and _divides(lexps[j], lexps[k])
                       for j in range(len(basis)))
        # tails reduced
        for e in g.terms:
            if e != lexps[k]:
                assert all(not _divides(le, e) for le in lexps)


# --- homogenized ideals and standard bases -------------------------------

def test_homogenized_ideal_routes():
    psig = RingSignature(2, "poly")
    x, y = V(psig, 0), V(psig, 1)
    hid = homogenized_ideal(Ideal(psig, [x * x * x - y * y]))
    assert hid.sig.homog == "alpha"
    wsig = RingSignature(1, "weyl")
    xd = V(wsig, 0) * V(wsig, 1)
    hid2 = homogenized_ideal(Ideal(wsig, [xd + C(wsig, 1)]))
    assert hid2.sig.homog == "double"
    hid3 = homogenized_ideal(Ideal(wsig, [xd + C(wsig, 1)]), mode="h11")
    assert hid3.sig.homog == "h11"


def test_homogenized_ideal_rejects_lifts_it_cannot_honour():
    # a poly ring lifts by alpha only, a Weyl ring by h11 or double and
    # never with alpha weights
    psig = RingSignature(2, "poly")
    P = Ideal(psig, [V(psig, 0) + C(psig, 1)])
    assert homogenized_ideal(P, mode="alpha").sig.homog == "alpha"
    for mode in ("h11", "double", "h01", "bogus"):
        with pytest.raises(ValueError):
            homogenized_ideal(P, mode=mode)
    wsig = RingSignature(1, "weyl")
    W = Ideal(wsig, [V(wsig, 0) * V(wsig, 1) + C(wsig, 1)])
    assert homogenized_ideal(W, mode="double").sig.homog == "double"
    for mode in ("alpha", "h01", "bogus"):
        with pytest.raises(ValueError):
            homogenized_ideal(W, mode=mode)
    for mode in (None, "h11", "double"):
        with pytest.raises(ValueError):
            homogenized_ideal(W, mode=mode, alpha=(1,))


def test_generator_lift_is_not_h_saturated():
    # J = <H(f_1), H(f_2)> for n=2: three of the five elements of its
    # reduced basis with h last are divisible by h, so J != J : h^inf
    hid = homogenized_ideal(hypergeometric_ideal(2), mode="h11")
    basis = buchberger(hid.generators, saturation_order(hid.sig))
    hs = hid.sig.h_slot
    assert len(basis) == 5
    assert sum(all(e[hs] > 0 for e in g.terms) for g in basis) == 3
    sat = saturate_h(hid)
    assert sat.sig == hid.sig
    assert not any(all(e[hs] > 0 for e in g.terms) for g in sat.generators)
    assert all(g.is_homogeneous() for g in sat.generators)
    order = saturation_order(hid.sig)
    for g in hid.generators:
        assert membership(g, sat.generators, order)
    assert buchberger(sat.generators, order) != basis


def test_saturation_is_idempotent():
    sat = saturate_h(homogenized_ideal(hypergeometric_ideal(2), mode="h11"))
    assert saturate_h(sat).generators == sat.generators


def test_saturation_depends_on_the_ideal_only():
    # the dehomogenized saturated basis generates the same ideal I of D as
    # the original generators; as new generators it gives the same H(I)
    I = hypergeometric_ideal(2)
    sat = saturate_h(homogenized_ideal(I, mode="h11"))
    gens = [dehomogenize(g) for g in sat.generators]
    other = saturate_h(homogenized_ideal(Ideal(I.sig, gens), mode="h11"))
    assert other.generators == sat.generators
    # while the two generator lifts differ
    order = saturation_order(sat.sig)
    plain = homogenized_ideal(I, mode="h11")
    plain_other = homogenized_ideal(Ideal(I.sig, gens), mode="h11")
    assert (buchberger(plain.generators, order)
            != buchberger(plain_other.generators, order))


def test_saturation_leaves_n1_unchanged():
    # one generator: J is principal and already h-saturated
    hid = homogenized_ideal(hypergeometric_ideal(1), mode="h11")
    sat = saturate_h(hid)
    assert len(sat.generators) == 1
    assert sat.generators[0] in (hid.generators[0], -hid.generators[0])


def test_saturation_commutative_alpha():
    # the generator lift <x*h - y*h + x^2 - y^2, x^2 - y^2> holds h*(x - y)
    # but not x - y; its saturation holds x - y
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    I = Ideal(sig, [x - y + x * x - y * y, x * x - y * y])
    hid = homogenized_ideal(I)
    sat = saturate_h(hid)
    hx, hy = V(hid.sig, 0), V(hid.sig, 1)
    order = saturation_order(hid.sig)
    assert not membership(hx - hy, buchberger(hid.generators, order), order)
    assert membership(hx - hy, sat.generators, order)
    wsat = saturate_h(homogenized_ideal(I, alpha=(2, 1)))
    assert wsat.sig.alpha == (2, 1)
    assert all(g.is_homogeneous() for g in wsat.generators)


def test_saturation_rejects_other_ideals():
    # only homogeneous ideals of the alpha and h11 lifts are saturated:
    # not the double lift, not an unlifted ideal, not inhomogeneous input
    wsig = RingSignature(1, "weyl")
    I = Ideal(wsig, [V(wsig, 0) * V(wsig, 1) + C(wsig, 1)])
    hsig = RingSignature(1, "weyl", "h11")
    for bad in (homogenized_ideal(I), I,
                Ideal(hsig, [V(hsig, 0) + C(hsig, 1)])):
        with pytest.raises(ValueError):
            saturate_h(bad)


def test_local_standard_basis_unit_ideal():
    # 1 + x is a unit locally: the basis element leads with the constant
    # term, so the local ideal is the whole ring
    sig = RingSignature(1, "poly")
    x = V(sig, 0)
    sb = local_standard_basis(Ideal(sig, [C(sig, 1) + x]), (QQ(-1),))
    assert len(sb) == 1
    e, c = leading_data(sb[0], local_order(sig, (QQ(-1),)))
    assert e == (0,) and c == 1


def test_local_standard_basis_cusp():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    sb = local_standard_basis(Ideal(sig, [x * x * x - y * y]), (QQ(-2), QQ(-3)))
    assert len(sb) == 1
    assert sb[0] in (x * x * x - y * y, y * y - x * x * x)
