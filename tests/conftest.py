"""Shared builders for the test suite."""

import pytest
from hypothesis import strategies as st

from grobfan import fans
from grobfan.rational import QQ
from grobfan.rings import RingSignature, Element
from grobfan.orders import MatrixOrder
from grobfan.division import divide
from grobfan.groebner import Ideal


def make_sig(n, kind, homog="none", alpha=None):
    return RingSignature(n, kind, homog, alpha=alpha)


def degrevlex(nslots):
    """Pure graded reverse-lexicographic order."""
    return MatrixOrder(nslots, [])


def membership(p, basis, order, check=False):
    """Whether p reduces to zero by division by the basis."""
    if p.is_zero():
        return True
    _, r = divide(p, basis, order, check=check)
    return r.is_zero()


def element_from(sig, terms):
    """terms: iterable of (exponent tuple, coefficient)."""
    out = Element.zero(sig)
    for e, c in terms:
        out = out + Element.monomial(sig, e, QQ(c))
    return out


def coeffs():
    return st.fractions(min_value=-9, max_value=9).filter(lambda c: c != 0)


def exponents(nslots, max_deg=3):
    return st.tuples(*([st.integers(min_value=0, max_value=max_deg)]
                       * nslots))


def elements(sig, max_terms=4, max_deg=3):
    """Random nonzero elements of the given ring."""
    return st.lists(
        st.tuples(exponents(sig.nslots, max_deg), coeffs()),
        min_size=1, max_size=max_terms,
    ).map(lambda ts: element_from(sig, ts)).filter(lambda p: not p.is_zero())


def hypergeometric_ideal(n):
    """The hypergeometric system in n variables of the acceptance suite:
    d_k - (1/2 + sum_i x_i d_i) * (x_k d_k + 1/(2k+3)) for k < n."""
    sig = RingSignature(n, "weyl")
    xs = [Element.variable(sig, i) for i in range(n)]
    ds = [Element.variable(sig, n + i) for i in range(n)]
    euler = Element.constant(sig, QQ(1, 2))
    for xi, di in zip(xs, ds):
        euler = euler + xi * di
    gens = [ds[k] - euler * (xs[k] * ds[k]
                             + Element.constant(sig, QQ(1, 2 * k + 3)))
            for k in range(n)]
    return Ideal(sig, gens)


def weights(dim, lo=-6, hi=6):
    return st.tuples(*([st.integers(min_value=lo, max_value=hi)] * dim)) \
        .map(lambda w: tuple(QQ(x) for x in w))


@pytest.fixture
def flip_calls(monkeypatch):
    """The facets fans.flip is called on, appended as enumeration runs."""
    calls = []
    flip = fans.flip

    def counting(gc, facet, *args, **kwargs):
        calls.append(facet)
        return flip(gc, facet, *args, **kwargs)

    monkeypatch.setattr(fans, "flip", counting)
    return calls
