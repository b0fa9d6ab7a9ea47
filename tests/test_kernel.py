"""The fraction-free reduction kernel against the rational reference in
reference_kernel.py: equal quotients, remainders and reduced bases, no float
coefficient anywhere, one leading-term scan per divisor, each basis element
prepared once per completion, and the product step's exponent shift equal to
the Element product."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from grobfan import division, groebner
from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element
from grobfan.orders import groebner_order, local_order
from grobfan.division import divide, mora_divide
from grobfan.groebner import (Ideal, buchberger, interreduce, s_pair,
                              initial_ideal, homogenized_ideal)

from conftest import elements, exponents, weights
from test_groebner import _reduced_basis_inputs


def _exact(*elts):
    """True iff every coefficient is an int or a QQ rational."""
    return all(type(c) is int or isinstance(c, QQ)
               for p in elts for c in p.terms.values())


def test_reduced_bases_equal_the_reference():
    # poly/alpha, weyl/h11 and weyl/double ideals under their regions'
    # weights, and the generators behind the basis of the previous order,
    # which the reference reads as its warm start
    previous = (None, None)
    for gens, order in _reduced_basis_inputs():
        basis = buchberger(gens, order)
        assert basis == ref.buchberger(gens, order) and _exact(*basis)
        if previous[0] is gens:
            seed = previous[1]
            assert (buchberger(seed + gens, order)
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


def test_a_completion_prepares_each_basis_element_once(monkeypatch):
    # buchberger scans and scales each element once, as it adds it; every
    # later division, S-pair and the final interreduce read that Reducer
    calls = Counter()
    for module in (division, groebner):
        for name in ("integral", "leading_data"):
            def counting(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counting)
    sizes = []
    reduce = groebner.interreduce

    def recording(basis, order, check=False):
        out = reduce(basis, order, check=check)
        sizes.append((len(basis), len(out)))
        return out

    monkeypatch.setattr(groebner, "interreduce", recording)
    for gens, order in _reduced_basis_inputs():
        calls.clear()
        del sizes[:]
        basis = buchberger(gens, order)
        [(added, kept)] = sizes
        assert kept == len(basis)
        assert calls["leading_data"] <= added + kept
        assert calls["integral"] <= added + kept


SHIFT_SIGS = (RingSignature(2, "poly", "alpha"),
              RingSignature(1, "weyl", "h11"),
              RingSignature(2, "weyl", "h11"),
              RingSignature(1, "weyl", "double"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shift_equals_the_element_product(data):
    # x^a h^c times a normally ordered element: adding exponents is the
    # product, in the commutative ring and in both Weyl lifts
    sig = data.draw(st.sampled_from(SHIFT_SIGS))
    g = data.draw(elements(sig, max_terms=5, max_deg=3))
    m = data.draw(exponents(sig.nslots, max_deg=3))
    if sig.has_d:
        m = m[:sig.n] + (0,) * sig.n + m[2 * sig.n:]
    assert division._shift(m, g) == (Element(sig, {m: 1}) * g).terms


def test_shift_is_not_the_product_past_a_derivation():
    # the reason divide multiplies by a monomial with a d part in full
    sig = RingSignature(1, "weyl", "h11")
    x, d = (1, 0, 0), (0, 1, 0)
    g = Element(sig, {x: 1})
    assert division._shift(d, g) != (Element(sig, {d: 1}) * g).terms
