"""Matrix term orders: comparisons, well-order and local properties, and
multiplicativity of leading exponents on the admissible regions."""

import pytest
from hypothesis import given, settings

from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element
from grobfan.orders import (MatrixOrder, groebner_order, grading_row,
                            local_order, leading_data)

from hypothesis import strategies as st

from conftest import degrevlex, elements, exponents, weights


def wglob_weights_1():
    """(u, v) with u + v >= 0."""
    return st.tuples(st.integers(-5, 5), st.integers(0, 8)).map(
        lambda t: (QQ(t[0]), QQ(t[1] - t[0])))


def wloc_weights_1():
    """(u, v) with u <= 0 <= u + v."""
    return st.tuples(st.integers(-5, 0), st.integers(0, 8)).map(
        lambda t: (QQ(t[0]), QQ(t[1] - t[0])))


def test_degrevlex_oracle():
    o = degrevlex(3)
    # higher total degree wins
    assert o.compare((1, 1, 1), (2, 0, 0)) == 1
    # on equal degree the last nonzero of a-b negative means greater
    assert o.compare((1, 1, 0), (1, 0, 1)) == 1
    assert o.compare((2, 0, 0), (0, 2, 0)) == 1
    assert o.compare((0, 2, 0), (2, 0, 0)) == -1
    assert o.compare((1, 0, 1), (1, 0, 1)) == 0


def _reference_compare(rows, a, b):
    """The matrix order compared row by row on the rational rows as given,
    then graded revlex: the definition the sort key must reproduce."""
    for row in rows:
        s = sum(w * (x - y) for w, x, y in zip(row, a, b))
        if s != 0:
            return 1 if s > 0 else -1
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def _rational_rows(nslots):
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    row = st.one_of(st.just((QQ(0),) * nslots),
                    st.tuples(*([entry] * nslots)))
    return st.lists(row, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m), _rational_rows(m),
    st.lists(st.tuples(*([st.integers(0, 3)] * m)), min_size=2,
             max_size=6))))
def test_sort_key_reproduces_row_by_row_comparison(case):
    m, rows, exps = case
    o = MatrixOrder(m, rows)
    for a in exps:
        for b in exps:
            assert o.compare(a, b) == _reference_compare(rows, a, b)
    best = exps[0]
    for e in exps[1:]:
        if _reference_compare(rows, e, best) > 0:
            best = e
    p = Element(RingSignature(m, "poly"),
                {e: QQ(k + 1) for k, e in enumerate(exps)})
    assert leading_data(p, o)[0] == best


def _key_formula(rows, e):
    return (*[sum(w * x for w, x in zip(row, e)) for row in rows], sum(e),
            *[-x for x in reversed(e)])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m), _rational_rows(m), _rational_rows(m),
    st.lists(st.tuples(*([st.integers(0, 3)] * m)), min_size=1,
             max_size=8))))
def test_memoized_key_equals_the_formula(case):
    # each order memoizes its own keys: two orders asked about the same
    # exponents, in turn and twice over, each answer by their own rows
    m, rows_a, rows_b, exps = case
    a, b = MatrixOrder(m, rows_a), MatrixOrder(m, rows_b)
    for e in exps + exps:
        for o in (a, b):
            assert o.key(e) == _key_formula(o.rows, e)
    assert a._keys is not b._keys and set(a._keys) == set(exps)


def test_comparison_is_total_and_antisymmetric():
    o = MatrixOrder(2, [(1, 1)])
    pts = [(i, j) for i in range(3) for j in range(3)]
    for a in pts:
        for b in pts:
            ca, cb = o.compare(a, b), o.compare(b, a)
            assert ca == -cb
            assert (ca == 0) == (a == b)


def _unit(nslots, *slots):
    return tuple(1 if j in slots else 0 for j in range(nslots))


def _above_one(o, e):
    return o.key(e) > o.key((0,) * o.nslots)


def test_flags_well_order():
    sig = RingSignature(2, "poly", "alpha")
    o = groebner_order(sig, (QQ(1), QQ(2)))
    # a well order, not a local one
    assert all(_above_one(o, _unit(sig.nslots, i))
               for i in range(sig.nslots))
    assert any(_above_one(o, _unit(sig.nslots, i)) for i in range(sig.n))


def test_flags_local_order():
    sig = RingSignature(2, "poly")
    o = local_order(sig, (QQ(-1), QQ(-1)))
    # a local order, not a well order
    assert not any(_above_one(o, _unit(sig.nslots, i))
                   for i in range(sig.n))
    assert not all(_above_one(o, _unit(sig.nslots, i))
                   for i in range(sig.nslots))


def test_flags_admissible_differential():
    # x_i below 1, x_i d_i above 1
    sig = RingSignature(2, "weyl", "h01")
    o = local_order(sig, (QQ(-1), QQ(-1), QQ(1), QQ(1)))
    for i in range(sig.n):
        assert not _above_one(o, _unit(sig.nslots, i))
        assert _above_one(o, _unit(sig.nslots, i, sig.n + i))


def test_block_flag_on_total_degree_first():
    # the first row is the total degree: it weighs every slot one
    sig = RingSignature(1, "weyl", "double")
    o = groebner_order(sig, (QQ(0), QQ(0)))
    assert all(o.key(_unit(sig.nslots, i))[0] == 1
               for i in range(sig.nslots))


def test_commutator_stays_below_classical_lead_h01():
    # under the admissible local order, x*d must beat the commutator h
    sig = RingSignature(1, "weyl", "h01")
    o = local_order(sig, (QQ(-1), QQ(1)))
    x, d = Element.variable(sig, 0), Element.variable(sig, 1)
    e, _ = leading_data(d * x, o)
    assert e == (1, 1, 0)


def test_commutator_stays_below_classical_lead_h11():
    sig = RingSignature(1, "weyl", "h11")
    o = groebner_order(sig, (QQ(1), QQ(1)))
    x, d = Element.variable(sig, 0), Element.variable(sig, 1)
    e, _ = leading_data(d * x, o)
    assert e == (1, 1, 0)


def test_commutator_stays_below_classical_lead_double():
    sig = RingSignature(1, "weyl", "double")
    o = groebner_order(sig, (QQ(-1), QQ(1)))
    x, d = Element.variable(sig, 0), Element.variable(sig, 1)
    e, _ = leading_data(d * x, o)
    assert e == (1, 1, 0, 0)


@settings(max_examples=80, deadline=None)
@given(elements(RingSignature(1, "weyl", "h11"), max_terms=3, max_deg=2),
       elements(RingSignature(1, "weyl", "h11"), max_terms=3, max_deg=2),
       wglob_weights_1())
def test_leading_exponents_multiplicative_h11(f, g, w):
    # on the region u+v >= 0 the h11 orders are multiplicative
    o = groebner_order(f.sig, w)
    ef, _ = leading_data(f, o)
    eg, _ = leading_data(g, o)
    efg, _ = leading_data(f * g, o)
    assert efg == tuple(a + b for a, b in zip(ef, eg))


@settings(max_examples=80, deadline=None)
@given(elements(RingSignature(1, "weyl", "double"), max_terms=3, max_deg=2),
       elements(RingSignature(1, "weyl", "double"), max_terms=3, max_deg=2),
       wloc_weights_1())
def test_leading_exponents_multiplicative_double(f, g, w):
    # on the region u <= 0 <= u+v the doubly homogenized block order is
    # multiplicative
    o = groebner_order(f.sig, w)
    ef, _ = leading_data(f, o)
    eg, _ = leading_data(g, o)
    efg, _ = leading_data(f * g, o)
    assert efg == tuple(a + b for a, b in zip(ef, eg))


@settings(max_examples=80, deadline=None)
@given(elements(RingSignature(2, "poly", "alpha"), max_terms=3, max_deg=3),
       elements(RingSignature(2, "poly", "alpha"), max_terms=3, max_deg=3),
       weights(2))
def test_leading_exponents_multiplicative_commutative(f, g, w):
    o = groebner_order(f.sig, w)
    ef, _ = leading_data(f, o)
    eg, _ = leading_data(g, o)
    efg, _ = leading_data(f * g, o)
    assert efg == tuple(a + b for a, b in zip(ef, eg))


_HOMOGENIZED = [RingSignature(2, "poly", "alpha"),
                RingSignature(3, "poly", "alpha", alpha=(1, 2, 1)),
                RingSignature(1, "weyl", "h11"),
                RingSignature(2, "weyl", "double")]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_HOMOGENIZED).flatmap(lambda sig: st.tuples(
    st.just(sig), weights(sig.weight_dim, -5, 5),
    weights(sig.weight_dim, -5, 5),
    st.lists(exponents(sig.nslots), min_size=2, max_size=6))))
def test_order_past_a_point_is_the_order_of_a_nearby_weight(case):
    # p is integral, so p.(a-b) is 0 or at least 1 in size, while
    # |d.(a-b)| <= 5*3*weight_dim < 1/eps: p + eps*d ranks by p, then by d
    sig, p, d, exps = case
    eps = QQ(1, 1 + 15 * sig.weight_dim)
    past = groebner_order(sig, p, d)
    near = groebner_order(sig, tuple(a + eps * b for a, b in zip(p, d)))
    for a in exps:
        for b in exps:
            assert past.compare(a, b) == near.compare(a, b)


def test_grading_row_is_the_lift_grading_and_positive():
    # an order led by a grading positive on every slot is a well order;
    # unlifted and h01 signatures (x weighs 0) have no Groebner order
    assert grading_row(_HOMOGENIZED[1]) == (1, 2, 1, 1)
    assert grading_row(_HOMOGENIZED[3]) == (1,) * 6
    for sig in (RingSignature(1, "weyl", "h01"), RingSignature(1, "weyl"),
                RingSignature(2, "poly")):
        with pytest.raises(ValueError):
            grading_row(sig)
        with pytest.raises(ValueError):
            groebner_order(sig, (0,) * sig.weight_dim)
