"""The fraction-free reduction kernel against the rational reference in
reference_kernel.py: equal quotients, remainders and reduced bases, no float
coefficient anywhere, and one leading-term scan per divisor."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from grobfan import division
from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element
from grobfan.orders import groebner_order, local_order
from grobfan.division import divide, mora_divide
from grobfan.groebner import (Ideal, buchberger, interreduce, s_pair,
                              initial_ideal, homogenized_ideal)

from conftest import elements, weights
from test_groebner import _reduced_basis_inputs


def _exact(*elts):
    """True iff every coefficient is an int or a QQ rational."""
    return all(type(c) is int or isinstance(c, QQ)
               for p in elts for c in p.terms.values())


def test_reduced_bases_equal_the_reference():
    # poly/alpha, weyl/h11 and weyl/double ideals under their regions'
    # weights, and a warm start from the basis of the previous order
    previous = (None, None)
    for gens, order in _reduced_basis_inputs():
        basis = buchberger(gens, order)
        assert basis == ref.buchberger(gens, order) and _exact(*basis)
        if previous[0] is gens:
            seed = previous[1]
            assert (buchberger(gens, order, seed=seed)
                    == ref.buchberger(gens, order, seed=seed))
        previous = (gens, basis)


def test_interreduce_equals_the_reference():
    for gens, order in _reduced_basis_inputs():
        basis = buchberger(gens, order)
        # a redundant, unreduced generating set of the same ideal
        noisy = [g.scale(QQ(-3, 2 + k)) + basis[0] * Element.variable(
            g.sig, 0) for k, g in enumerate(basis)] + basis
        assert interreduce(noisy, order) == ref.interreduce(noisy, order)


@settings(max_examples=80, deadline=None)
@given(elements(RingSignature(2, "poly", "alpha"), max_terms=5, max_deg=3),
       st.lists(elements(RingSignature(2, "poly", "alpha"), max_terms=3,
                         max_deg=2), min_size=1, max_size=3),
       weights(2))
def test_divide_equals_the_reference_commutative(p, divisors, w):
    order = groebner_order(p.sig, w)
    qs, r = divide(p, divisors, order, check=True)
    rqs, rr = ref.divide(p, divisors, order)
    assert r == rr and qs == rqs and _exact(r, *qs)


@settings(max_examples=60, deadline=None)
@given(elements(RingSignature(1, "weyl", "h11"), max_terms=4, max_deg=3),
       st.lists(elements(RingSignature(1, "weyl", "h11"), max_terms=3,
                         max_deg=2), min_size=1, max_size=2),
       st.tuples(st.integers(-3, 3), st.integers(0, 4)))
def test_divide_equals_the_reference_differential(p, divisors, uv):
    u, v = uv
    order = groebner_order(p.sig, (QQ(u), QQ(v - u)))
    qs, r = divide(p, divisors, order, check=True)
    rqs, rr = ref.divide(p, divisors, order)
    assert r == rr and qs == rqs and _exact(r, *qs)


def test_no_float_coefficient_from_int_input():
    # with int coefficients in, every division has an int numerator and
    # denominator: a true division anywhere would make a float
    rng = random.Random(3)
    for n, kind, mode in ((2, "poly", "alpha"), (1, "weyl", "h11"),
                          (1, "weyl", "double")):
        sig = RingSignature(n, kind)
        for _ in range(12):
            def draw(k):
                return Element(sig, {
                    tuple(rng.randint(0, 2) for _ in range(sig.nslots)):
                    rng.choice([2, -3, 4, 6, -9]) for _ in range(k)})
            hid = homogenized_ideal(Ideal(sig, [draw(3), draw(2)]), mode)
            hsig, gens = hid.sig, hid.generators
            w = tuple(rng.randint(0, 3) for _ in range(hsig.weight_dim))
            order = groebner_order(hsig, w)
            p = homogenized_ideal(Ideal(sig, [draw(4)]), mode).generators[0]
            qs, r = divide(p, gens, order, check=True)
            assert _exact(p, r, *qs)
            assert _exact(s_pair(gens[0], gens[-1], order))
            basis = buchberger(gens, order, check=True)
            assert _exact(*basis)
            assert _exact(*initial_ideal(basis, hsig, w))
    sig = RingSignature(2, "poly")
    x, y = (Element(sig, {e: 1}) for e in ((1, 0), (0, 1)))
    f = Element(sig, {(1, 1): 6, (2, 1): -4, (0, 3): 9})
    g = Element(sig, {(1, 0): 2, (2, 0): -3})
    u, qs, r = mora_divide(f, [g, y * y * 3 - x * 2], local_order(
        sig, (-1, -1)), {0, 1}, check=True)
    assert _exact(u, r, *qs)


def test_divide_scans_each_divisor_once(monkeypatch):
    # the work's leading terms come from its heap, so leading_data runs
    # once per divisor however many steps the division takes
    calls = []
    scan = division.leading_data

    def counting(p, order):
        calls.append(p)
        return scan(p, order)

    monkeypatch.setattr(division, "leading_data", counting)
    steps = []
    for gens, order in _reduced_basis_inputs():
        basis = ref.buchberger(gens, order)
        for g in gens:
            del calls[:]
            qs, r = divide(g * g * g + g, basis, order)
            assert len(calls) == len(basis) and r.is_zero()
            steps.append(sum(len(q.terms) for q in qs) / len(basis))
    assert max(steps) > 10
