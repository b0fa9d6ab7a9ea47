"""Division: global multi-divisor division and ecart division with
restricted multipliers, all self-checked by the re-expansion identity."""

import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element, homogenize
from grobfan.orders import groebner_order, local_order
from grobfan.division import divide, mora_divide, delta_index

from conftest import degrevlex, elements, weights


def V(sig, i):
    return Element.variable(sig, i)


def C(sig, c):
    return Element.constant(sig, QQ(c))


def test_delta_index_first_divisor_partition():
    exps = [(1, 0), (0, 1)]
    assert delta_index(exps, (2, 3)) == 0
    assert delta_index(exps, (0, 3)) == 1
    assert delta_index(exps, (0, 0)) is None


def test_divide_univariate():
    sig = RingSignature(1, "poly")
    x = V(sig, 0)
    p = x * x * x - C(sig, 1)
    qs, r = divide(p, [x - C(sig, 1)], degrevlex(1), check=True)
    assert r.is_zero()
    assert qs[0] == x * x + x + C(sig, 1)


def test_divide_remainder_irreducible():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    p = x * x * y + x * y * y + y * y
    qs, r = divide(p, [x * y - C(sig, 1), y * y - C(sig, 1)],
                   degrevlex(2), check=True)
    # classic textbook division result
    assert r == x + y + C(sig, 1)


def test_divide_order_dependence_is_deterministic():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    p = x * x * y + x * y * y + y * y
    qs1, r1 = divide(p, [x * y - C(sig, 1), y * y - C(sig, 1)], degrevlex(2))
    qs2, r2 = divide(p, [x * y - C(sig, 1), y * y - C(sig, 1)], degrevlex(2))
    assert r1 == r2 and qs1 == qs2


def test_divide_rejects_zero_divisor():
    sig = RingSignature(1, "poly")
    with pytest.raises(ValueError):
        divide(V(sig, 0), [Element.zero(sig)], degrevlex(1))


@settings(max_examples=80, deadline=None)
@given(elements(RingSignature(2, "poly", "alpha"), max_terms=4, max_deg=3),
       elements(RingSignature(2, "poly", "alpha"), max_terms=3, max_deg=2),
       elements(RingSignature(2, "poly", "alpha"), max_terms=3, max_deg=2),
       weights(2))
def test_divide_identity_random_commutative(p, g1, g2, w):
    order = groebner_order(p.sig, w)
    divide(p, [g1, g2], order, check=True)  # check raises on violation


@settings(max_examples=60, deadline=None)
@given(elements(RingSignature(1, "weyl", "h11"), max_terms=3, max_deg=2),
       elements(RingSignature(1, "weyl", "h11"), max_terms=3, max_deg=2),
       weights(2, lo=-4, hi=4))
def test_divide_identity_random_differential(p, g, w):
    assume(w[0] + w[1] >= 0)
    order = groebner_order(p.sig, w)
    divide(p, [g], order, check=True)


# --- ecart division ------------------------------------------------------

def test_mora_unit_example():
    # dividing x by x - x^2 in the local ring forces a unit 1 - x
    sig = RingSignature(1, "poly")
    x = V(sig, 0)
    order = local_order(sig, (QQ(-1),))
    u, qs, r = mora_divide(x, [x - x * x], order, {0}, check=True)
    assert r.is_zero()
    # u*x = q*(x - x^2): with u = 1 - x, q = 1
    assert u * x == qs[0] * (x - x * x)


def test_mora_irreducible_stays():
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    order = local_order(sig, (QQ(-1), QQ(-1)))
    u, qs, r = mora_divide(y, [x], order, set(), check=True)
    assert r == y and u == C(sig, 1)


def test_mora_respects_allowed_block():
    # with an empty allowed block no intermediate multipliers are available,
    # but original divisors still apply with any monomial multiplier
    sig = RingSignature(2, "poly")
    x, y = V(sig, 0), V(sig, 1)
    order = local_order(sig, (QQ(-1), QQ(-1)))
    u, qs, r = mora_divide(x * y, [x], order, set(), check=True)
    assert r.is_zero()


@settings(max_examples=60, deadline=None)
@given(elements(RingSignature(2, "poly"), max_terms=4, max_deg=3),
       elements(RingSignature(2, "poly"), max_terms=3, max_deg=3),
       weights(2, lo=-4, hi=0))
def test_mora_identity_random_local(f, g, w):
    order = local_order(f.sig, w)
    block = frozenset(i for i in range(2) if w[i] == 0)
    mora_divide(f, [g], order, block, check=True)  # check raises on violation


@settings(max_examples=40, deadline=None)
@given(elements(RingSignature(1, "weyl"), max_terms=3, max_deg=2),
       elements(RingSignature(1, "weyl"), max_terms=2, max_deg=2),
       st.tuples(st.integers(-3, 0), st.integers(0, 5)).map(
           lambda t: (QQ(t[0]), QQ(t[1] - t[0]))))
def test_mora_identity_random_differential(f, g, w):
    f01 = homogenize(f, "h01")
    g01 = homogenize(g, "h01")
    order = local_order(f01.sig, w)
    block = frozenset(i for i in range(1) if w[i] == 0)
    mora_divide(f01, [g01], order, block, check=True)
