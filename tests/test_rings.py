"""Ring arithmetic: normal ordering, homogenization, dehomogenization,
translation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grobfan.rational import QQ
from grobfan.rings import (RingSignature, Element, homogenize, dehomogenize,
                           translate, LIFT_TABLE, LIFTS)

from conftest import element_from, elements


def V(sig, i):
    return Element.variable(sig, i)


def C(sig, c):
    return Element.constant(sig, QQ(c))


# --- commutation relations per ring -------------------------------------

def test_commutator_plain_weyl():
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    assert d * x == x * d + C(sig, 1)


def test_commutator_h01():
    sig = RingSignature(1, "weyl", "h01")
    x, d, h = V(sig, 0), V(sig, 1), V(sig, 2)
    assert d * x == x * d + h


def test_commutator_h11():
    sig = RingSignature(1, "weyl", "h11")
    x, d, h = V(sig, 0), V(sig, 1), V(sig, 2)
    assert d * x == x * d + h * h


def test_commutator_double():
    sig = RingSignature(1, "weyl", "double")
    x, d, h, h2 = (V(sig, i) for i in range(4))
    assert d * x == x * d + h * h2


def test_leibniz_powers():
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    lhs = d * d * (x * x)
    rhs = x * x * d * d + C(sig, 4) * x * d + C(sig, 2)
    assert lhs == rhs


def test_central_variables_commute():
    sig = RingSignature(1, "weyl", "double")
    x, d, h, h2 = (V(sig, i) for i in range(4))
    assert h * d == d * h and h2 * d == d * h2 and h * x == x * h


def test_multiplication_is_associative_commutative_example():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y


@settings(max_examples=60, deadline=None)
@given(elements(RingSignature(1, "weyl", "h11"), max_terms=3, max_deg=2),
       elements(RingSignature(1, "weyl", "h11"), max_terms=3, max_deg=2),
       elements(RingSignature(1, "weyl", "h11"), max_terms=3, max_deg=2))
def test_multiplication_associative(f, g, k):
    assert (f * g) * k == f * (g * k)


@settings(max_examples=60, deadline=None)
@given(elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2),
       elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2),
       elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2))
def test_multiplication_left_distributive(f, g, k):
    assert f * (g + k) == f * g + f * k


# --- homogenization ------------------------------------------------------

def test_alpha_homogenize_cusp():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    p = x * x * x - y * y
    ph = homogenize(p, "alpha")
    assert ph.is_homogeneous()
    assert str(ph) in ("x1^3 - x2^2*h", "-x2^2*h + x1^3")
    assert dehomogenize(ph) == p


def test_alpha_weighted():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    p = x * x * x - y * y
    ph = homogenize(p, "alpha", alpha=(2, 3))
    assert ph.is_homogeneous()
    assert dehomogenize(ph) == p


def test_h01_pads_by_d_degree():
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    p = d * d + x * d + C(sig, 1)
    ph = homogenize(p, "h01")
    assert ph.is_homogeneous()
    # exponents: d^2 stays, x*d gets h, 1 gets h^2
    assert set(ph.terms) == {(0, 2, 0), (1, 1, 1), (0, 0, 2)}
    assert dehomogenize(ph) == p


def test_h11_pads_by_total_degree():
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    p = x * x * d * d + d + C(sig, 1)
    ph = homogenize(p, "h11")
    assert ph.is_homogeneous()
    assert set(ph.terms) == {(2, 2, 0), (0, 1, 3), (0, 0, 4)}


def test_double_homogenize_round_trip():
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    p = x * d * d + d + x + C(sig, 7)
    p01 = homogenize(p, "h01")
    pdd = homogenize(p01, "double")
    assert pdd.is_homogeneous()
    assert dehomogenize(pdd) == p01
    assert dehomogenize(dehomogenize(pdd)) == p


@settings(max_examples=50, deadline=None)
@given(elements(RingSignature(2, "weyl"), max_terms=4, max_deg=3))
def test_homogenize_dehomogenize_inverse(p):
    assert dehomogenize(homogenize(p, "h01")) == p
    assert dehomogenize(homogenize(p, "h11")) == p


@settings(max_examples=50, deadline=None)
@given(elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2),
       elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2))
def test_h11_homogenization_respects_products_up_to_h(f, g):
    # h11 of a product equals the product of h11 lifts up to an h power
    sig = RingSignature(2, "weyl", "h11")
    lhs = homogenize(f * g, "h11")
    rhs = homogenize(f, "h11") * homogenize(g, "h11")
    if lhs == rhs:
        return
    # pad the lower-degree side by h^k
    dl = max(sum(e) for e in lhs.terms)
    dr = max(sum(e) for e in rhs.terms)
    h = Element.variable(sig, sig.h_slot)
    for _ in range(abs(dl - dr)):
        if dl < dr:
            lhs = lhs * h
        else:
            rhs = rhs * h
    assert lhs == rhs


# --- the lift table ------------------------------------------------------

def _per_mode_padding(p, mode, alpha=None):
    """The terms of the lift of p as the per-mode homogenization wrote
    them: h01 pads by d-degree, h11 and double by total degree, alpha by
    alpha-weighted degree."""
    n = p.sig.n
    if mode == "h01":
        def deg(e):
            return sum(e[n:2 * n])
    elif mode in ("h11", "double"):
        deg = sum
    else:
        a = alpha or (1,) * n

        def deg(e):
            return sum(x * y for x, y in zip(a, e))
    top = max(deg(e) for e in p.terms)
    return {e + (top - deg(e),): c for e, c in p.terms.items()}


@settings(max_examples=40, deadline=None)
@given(elements(RingSignature(2, "poly"), max_terms=4, max_deg=3),
       st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(1, 4))),
       elements(RingSignature(2, "weyl"), max_terms=4, max_deg=3),
       elements(RingSignature(2, "weyl", "h01"), max_terms=4, max_deg=3))
def test_homogenize_pads_as_each_mode_did(f, alpha, g, g01):
    cases = [(f, "alpha", alpha), (g, "h01", None), (g, "h11", None),
             (g01, "double", None)]
    for p, mode, a in cases:
        ph = homogenize(p, mode, alpha=a)
        assert ph.sig.homog == mode
        assert ph.terms == _per_mode_padding(p, mode, a)
        assert ph.is_homogeneous()
        assert dehomogenize(ph) == p


def _lift(p, mode):
    source = LIFT_TABLE[mode].source
    return homogenize(homogenize(p, source) if source != "none" else p, mode)


def _unlift(p):
    while p.sig.homog != "none":
        p = dehomogenize(p)
    return p


@settings(max_examples=40, deadline=None)
@given(elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2),
       elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2))
def test_lifted_products_are_homogeneous_and_dehomogenize(f, g):
    # the commutator power of each lift has the degree of d_i*x_i under
    # its grading, so products of homogeneous lifts stay homogeneous, and
    # substituting 1 for the h slots is a ring map back to D
    for mode in ("h01", "h11", "double"):
        prod = _lift(f, mode) * _lift(g, mode)
        assert prod.sig.homog == mode
        assert prod.is_homogeneous()
        assert _unlift(prod) == f * g


def test_lift_table_shapes_the_signatures():
    assert set(LIFTS) == {"poly", "weyl"}
    for kind, lifts in LIFTS.items():
        assert all(LIFT_TABLE[m].kind == kind for m in lifts)
    for mode, lift in LIFT_TABLE.items():
        sig = RingSignature(2, lift.kind, mode)
        source = RingSignature(2, lift.kind, lift.source)
        assert sig.nslots == source.nslots + 1
        assert sig.commutator == lift.commutator
        assert len(sig.grading) == sig.nslots
        assert sig.grading[sig.weight_dim:] == (1,) * len(sig.commutator)
    assert RingSignature(2, "poly", "alpha", alpha=(2, 3)).grading == (2, 3, 1)
    assert RingSignature(2, "weyl", "h01").grading == (0, 0, 1, 1, 1)
    assert RingSignature(2, "weyl").grading is None
    for bad in (("poly", "h11"), ("weyl", "alpha"), ("weyl", "h2"),
                ("ring", "none")):
        with pytest.raises(ValueError):
            RingSignature(1, *bad)
    with pytest.raises(ValueError):
        RingSignature(1, "weyl", "h11", alpha=(1,))


# --- translation ---------------------------------------------------------

def test_translate_line():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    p = C(sig, 1) + x + y
    q = translate(p, (1, -2))
    assert q == x + y


def test_translate_zero_is_identity():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    p = x * x * x - y * y
    assert translate(p, (0, 0)) == p


def test_translate_weyl_leaves_derivations():
    sig = RingSignature(1, "weyl")
    x, d = V(sig, 0), V(sig, 1)
    p = x * d
    q = translate(p, (QQ(3),))
    assert q == x * d + C(sig, 3) * d


@settings(max_examples=60, deadline=None)
@given(st.one_of(elements(RingSignature(2, "poly"), max_terms=4, max_deg=3),
                 elements(RingSignature(2, "weyl"), max_terms=4, max_deg=2)))
def test_translate_inverse(p):
    pt = (QQ(1), QQ(-1, 2))
    back = tuple(-c for c in pt)
    assert translate(translate(p, pt), back) == p


@settings(max_examples=40, deadline=None)
@given(elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2),
       elements(RingSignature(2, "weyl"), max_terms=3, max_deg=2))
def test_translate_is_multiplicative_on_weyl(p, q):
    # x -> x + c, d -> d preserves d*x - x*d = 1, so it is a ring map
    pt = (QQ(2), QQ(-1, 3))
    assert translate(p * q, pt) == translate(p, pt) * translate(q, pt)


def test_initial_form():
    # the top weight of x^3 - y^2 under (-1, -1) is -2, reached by y^2 only
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    p = x * x * x - y * y
    w = sig.slot_weight((QQ(-1), QQ(-1)))
    assert p.initial_form(w) == -(y * y)
    assert p.initial_form(sig.slot_weight((QQ(-2, 3), QQ(-1)))) == p
    assert Element.zero(sig).initial_form(w).is_zero()


@settings(max_examples=60, deadline=None)
@given(elements(RingSignature(2, "weyl", "h11"), max_terms=5, max_deg=3),
       st.tuples(*[st.fractions(-5, 5, max_denominator=6)] * 4),
       st.fractions(min_value=0, max_denominator=9).filter(lambda k: k > 0))
def test_initial_form_is_invariant_under_positive_scaling(p, w, k):
    ws = p.sig.slot_weight(w)
    top = p.initial_form(ws)
    assert top == p.initial_form(tuple(k * x for x in ws))
    assert not top.is_zero() and all(p.terms[e] == c
                                     for e, c in top.terms.items())
    weigh = [sum(a * b for a, b in zip(ws, e)) for e in p.terms]
    assert len(top.terms) == weigh.count(max(weigh))
