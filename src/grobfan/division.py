"""Division algorithms.

Global division in a ring carrying a terminating (well) order, organized by
the first-divisor partition of the exponent lattice, and ecart (Mora style)
division for local orders, where the multipliers applied to stored
intermediate results are restricted to a designated block of weight-zero x
variables so the accumulated denominator stays invertible in the graded local
ring.  Global division is fraction-free: see divide.  Its divisors are
prepared once into Reducers (leading exponent, coprime integer terms,
leading coefficient, scale); a completion prepares each basis element as it
adds it and passes the same Reducers to every division.
"""

from math import gcd, lcm
from operator import add, le, neg, sub

from .rational import QQ
from .rings import Element
from .orders import leading_data
from .linalg import primitive

MORA_STEP_CAP = 200000


def _divides(a, b):
    """Componentwise a <= b."""
    return all(map(le, a, b))


def delta_index(exps, v):
    """Index of the region of v in the first-divisor partition generated by
    the exponents, or None if no exponent divides v."""
    for j, e in enumerate(exps):
        if _divides(e, v):
            return j
    return None


def integral(p):
    """(terms of s * p, s) for the rational s > 0 making them coprime ints."""
    cs = list(p.terms.values())
    ints = primitive(cs)
    s = QQ(ints[0]) / cs[0] if cs and ints[0] != cs[0] else 1
    return dict(zip(p.terms, ints)), s


class Reducer:
    """A divisor g prepared for division under one order: element is
    scale * g with coprime integer coefficients, lexp and lc are its
    leading exponent and coefficient, and scale is a rational > 0.  An
    element that is already primitive is its own Reducer, with scale 1."""

    __slots__ = ("element", "lexp", "lc", "scale")

    def __init__(self, element, lexp, lc, scale):
        self.element, self.lexp, self.lc, self.scale = element, lexp, lc, scale


def prepare(g, order):
    """The Reducer of a nonzero divisor: one leading_data scan and one
    integral.  A Reducer is returned as it is."""
    if isinstance(g, Reducer):
        return g
    if g.is_zero():
        raise ValueError("zero divisor")
    e = leading_data(g, order)[0]
    terms, s = integral(g)
    return Reducer(Element(g.sig, terms), e, terms[e], s)


def _shift(m, g):
    """The terms of x^m * g for an m with no d part: left multiplication by
    x^a h^c of a normally ordered term only adds exponents."""
    return {tuple(map(add, m, f)): v for f, v in g.terms.items()}


def _check_division(p, reducers, quotients, remainder):
    total = remainder
    for q, g in zip(quotients, reducers):
        total = total + q * g.element.scale(1 / QQ(g.scale))
    if total != p:
        raise AssertionError("division identity failed to re-expand")
    lexps = [g.lexp for g in reducers]
    for j, (q, e) in enumerate(zip(quotients, lexps)):
        for m in q.terms:
            v = tuple(x + y for x, y in zip(m, e))
            if delta_index(lexps, v) != j:
                raise AssertionError("quotient support escapes its region")
    for v in remainder.terms:
        if delta_index(lexps, v) is not None:
            raise AssertionError("remainder support is reducible")


def divide(p, divisors, order, check=False):
    """Divide p by the list of divisors under a terminating order.

    Returns (quotients, remainder) with p = sum(q_j * g_j) + r; each quotient
    term, shifted by its divisor's leading exponent, stays in that divisor's
    region of the first-divisor partition, and no remainder term is divisible
    by any leading exponent.  A divisor is an Element, prepared here, or a
    Reducer prepared once by the caller (a completion keeps its basis as
    Reducers); the quotients are those of the divisors the Reducers stand
    for.  The work is one {exponent: int} map, s times the true one, whose
    terms wait in a heap ranked by order.key; a step scales it by
    lc_j / gcd and subtracts (c / gcd) * m * g_j in place; m * g_j is a
    shift of g_j's exponents when m has no d part (see _shift), and an
    Element product otherwise.
    """
    from heapq import heapify, heappop, heappush  # kept off import time
    sig = p.sig
    if not divisors:
        return [], p
    reducers = [prepare(g, order) for g in divisors]
    lexps = [g.lexp for g in reducers]
    quotients, remainder = [{} for _ in reducers], {}
    # work is s * p on ints; a cancelled term stays, as a zero, until popped
    s = lcm(*(c.denominator for c in p.terms.values()))
    work = {e: int(c * s) for e, c in p.terms.items()}
    key = order.key
    heap = [(tuple(map(neg, key(e))), e) for e in work]
    heapify(heap)
    d_part = slice(sig.n, 2 * sig.n) if sig.has_d else slice(0)
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        j = delta_index(lexps, e)
        if j is None:
            remainder[e] = c if s == 1 else QQ(c) / s
            continue
        r = reducers[j]
        g, lc = r.element, r.lc
        t = gcd(c, lc) if lc > 0 else -gcd(c, lc)
        a, b = lc // t, c // t
        if a != 1:
            s *= a
            for f in work:
                work[f] *= a
        m = tuple(map(sub, e, r.lexp))
        quotients[j][m] = b * r.scale if s == 1 else QQ(b * r.scale) / s
        prod = ((Element(sig, {m: 1}) * g).terms if any(m[d_part])
                else _shift(m, g))
        del prod[e]  # a * c - b * lc = 0
        for f, v in prod.items():
            if f not in work:
                heappush(heap, (tuple(map(neg, key(f))), f))
            work[f] = work.get(f, 0) - b * v
    quotients = [Element(sig, q) for q in quotients]
    remainder = Element(sig, remainder)
    if check:
        _check_division(p, reducers, quotients, remainder)
    return quotients, remainder


def _ecart(p, e):
    """Ecart of p with leading exponent e: its top total degree minus e's."""
    return max(map(sum, p.terms)) - sum(e)


def _unit_multiplier(sig, m, allowed_block, order):
    """True iff m may multiply a stored intermediate: a pure x-monomial that
    is either supported on the allowed block or strictly below 1 under the
    order, so the accumulated unit stays invertible in the order's
    localization."""
    if any(m[sig.n:]):
        return False
    if all(i in allowed_block for i, x in enumerate(m) if x):
        return True
    return order.key(m) < order.key((0,) * sig.nslots)


def mora_divide(f, divisors, order, allowed_block, check=False):
    """Ecart division of f by the divisors under a local/admissible order.

    Returns (unit, quotients, remainder) with unit * f = sum(q_j * g_j) + r,
    where unit = 1 + pure-x terms each lying in the allowed block or strictly
    below 1 under the order (hence invertible in the order's localization)
    and the remainder's leading exponent is divisible by no divisor's leading
    exponent.  Reduction picks an eligible reducer of minimal ecart, divisors
    first; when the choice has larger ecart than the current element, that
    element is stored and may later serve as a reducer itself, with its
    multiplier restricted to unit-safe x-monomials.
    """
    sig = f.sig
    allowed_block = frozenset(allowed_block)
    one = Element.constant(sig, 1)
    zero = Element.zero(sig)
    if f.is_zero():
        return one, [zero] * len(divisors), zero
    dlexps = []
    for g in divisors:
        if g.is_zero():
            raise ValueError("zero divisor")
        dlexps.append(leading_data(g, order)[0])
    decarts = [_ecart(g, ge) for g, ge in zip(divisors, dlexps)]
    # stored intermediates as (element, lexp, ecart, unit-part, quotient-parts)
    inter = []
    h = f
    uh = one
    qh = [zero] * len(divisors)
    steps = 0
    while not h.is_zero():
        steps += 1
        if steps > MORA_STEP_CAP:
            raise RuntimeError("ecart division exceeded its step budget")
        e, c = leading_data(h, order)
        best = None  # (ecart, class, idx)
        for j, (ge, ec) in enumerate(zip(dlexps, decarts)):
            if _divides(ge, e) and (best is None or ec < best[0]):
                best = (ec, 0, j)
        for j, (t, te, tec, _, _) in enumerate(inter):
            if _divides(te, e) and _unit_multiplier(
                    sig, tuple(x - y for x, y in zip(e, te)), allowed_block,
                    order):
                if best is None or tec < best[0]:
                    best = (tec, 1, j)
        if best is None:
            break
        ec_h = _ecart(h, e)
        if best[0] > ec_h:
            inter.append((h, e, ec_h, uh, list(qh)))
        j = best[2]
        if best[1]:
            t, te, _, ut, qt = inter[j]
        else:
            t, te = divisors[j], dlexps[j]
        fac = Element(sig, {tuple(map(sub, e, te)): QQ(c) / t.terms[te]})
        h = h - fac * t
        if best[1]:
            uh = uh - fac * ut
            qh = [a - fac * b for a, b in zip(qh, qt)]
        else:
            qh = qh[:j] + [qh[j] + fac] + qh[j + 1:]
    if check:
        lhs = uh * f
        rhs = h
        for q, g in zip(qh, divisors):
            rhs = rhs + q * g
        if lhs != rhs:
            raise AssertionError("ecart division identity failed to re-expand")
        uterms = dict(uh.terms)
        const = uterms.pop((0,) * sig.nslots, None)
        if const != 1 or any(
                not _unit_multiplier(sig, m, allowed_block, order)
                for m in uterms):
            raise AssertionError("ecart division produced a non-invertible "
                                 "unit part")
        if not h.is_zero():
            he = leading_data(h, order)[0]
            if any(_divides(ge, he) for ge in dlexps):
                raise AssertionError("reducible remainder from ecart division")
    return uh, qh, h
