"""Buchberger completion and reduced bases in the homogenized rings, plus
standard bases of local ideals obtained by dehomogenization.  Completion
starts from the generators alone and keeps each basis element primitive
with a positive lead, prepared once as a division.Reducer that every later
division, S-pair and the final interreduce reuse, and forms S-pairs with
integer cofactors; only interreduce makes the unique reduced basis monic."""

from .rational import QQ
from .rings import Element, LIFTS, LIFT_TABLE, homogenize, dehomogenize
from .orders import leading_data, groebner_order, grading_row, MatrixOrder
from .division import Reducer, divide, integral, prepare, _divides


class Ideal:
    """A (left) ideal given by a nonzero generator list."""

    __slots__ = ("sig", "generators")

    def __init__(self, sig, generators):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise ValueError("ideal needs at least one nonzero generator")
        for g in gens:
            if g.sig != sig:
                raise ValueError("generator signature mismatch")
        self.sig = sig
        self.generators = gens


def _lead(g, order):
    """(element, leading exponent, leading coefficient) of an Element, by
    one scan, or of a Reducer's element, as it stored them."""
    if isinstance(g, Reducer):
        return g.element, g.lexp, g.lc
    return (g, *leading_data(g, order))


def s_pair(g1, g2, order):
    """c2 * m1 * g1 - c1 * m2 * g2: c_i is g_i's leading coefficient and
    m_i lifts its lead to the lcm of the two leads.  For a Reducer, g_i is
    its element and its lead is the stored one."""
    (g1, e1, c1), (g2, e2, c2) = _lead(g1, order), _lead(g2, order)
    lcm = tuple(max(a, b) for a, b in zip(e1, e2))
    m1 = Element(g1.sig, {tuple(a - b for a, b in zip(lcm, e1)): c2})
    m2 = Element(g2.sig, {tuple(a - b for a, b in zip(lcm, e2)): c1})
    return m1 * g1 - m2 * g2


def interreduce(basis, order, check=False):
    """The reduced basis of a Groebner basis: minimal, monic and
    tail-reduced, sorted by leading exponent.  The basis holds Elements,
    prepared here, or the Reducers a completion keeps."""
    work = [prepare(g, order) for g in basis
            if isinstance(g, Reducer) or not g.is_zero()]
    keep = sorted((g for i, g in enumerate(work)
                   if not any(j != i and _divides(h.lexp, g.lexp)
                              and (h.lexp != g.lexp or j < i)
                              for j, h in enumerate(work))),
                  key=lambda g: g.lexp)
    # with minimal leads, the remainder of each element modulo the others
    # is its lead plus standard monomials: the reduced element of that lead
    out = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = divide(g.element, others, order, check=check)[1] if others \
            else g.element
        out.append(r.scale(1 / QQ(r.terms[g.lexp])))
    return out


def buchberger(gens, order, check=False):
    """Unique reduced basis of the (left) ideal generated by gens.

    Pair selection uses the normal strategy (smallest lcm degree); the chain
    criterion always applies, the coprimality criterion only in commutative
    signatures (monomial commutators break it otherwise).  Each basis
    element is prepared once, as it is added: kept primitive with a
    positive lead, it is its own Reducer, which every later division,
    S-pair and the final interreduce read instead of scanning it again.
    """
    commutative = not gens[0].sig.has_d
    basis, pairs = [], []

    def reduce_and_add(g):
        r = divide(g, basis, order, check=check)[1] if basis else g
        if r.is_zero():
            return
        e, c = leading_data(r, order)
        r = Element(r.sig, integral(r)[0])
        if c < 0:
            r = -r
        basis.append(Reducer(r, e, r.terms[e], 1))
        k = len(basis) - 1
        pairs.extend((i, k) for i in range(k))
        pairs.sort(key=lambda ij: sum(map(max, basis[ij[0]].lexp,
                                          basis[ij[1]].lexp)))

    for g in gens:
        if not g.is_zero():
            reduce_and_add(g)
    done = set()
    while pairs:
        i, j = pairs.pop(0)
        done.add((i, j))
        li, lj = basis[i].lexp, basis[j].lexp
        if commutative and all(min(a, b) == 0 for a, b in zip(li, lj)):
            continue
        lij = tuple(map(max, li, lj))
        if not any(k not in (i, j) and _divides(g.lexp, lij)
                   and (min(i, k), max(i, k)) in done
                   and (min(j, k), max(j, k)) in done
                   for k, g in enumerate(basis)):
            sp = s_pair(basis[i], basis[j], order)
            if not sp.is_zero():
                reduce_and_add(sp)
    return interreduce(basis, order, check=check)


def initial_ideal(basis, sig, w):
    """Initial forms of the basis; they generate the initial ideal when the
    basis was computed under a w-refined order."""
    ws = sig.slot_weight(w)
    return [g.initial_form(ws) for g in basis]


def homogenized_ideal(ideal, mode=None, alpha=None):
    """Lift an ideal into the homogenized signature used for basis
    computations: mode is one of the lifts rings.LIFTS lists for the ring
    kind (default its first: alpha for commutative input, double for Weyl
    input), reached through the lift's source (h01 before double).  Any
    other mode, or alpha weights for a lift graded without them, raise
    ValueError.

    The result is the generator lift J = <H(f_1), ..., H(f_r)> of the
    given generators f_i.  It depends on the generating set: two
    generating sets of one ideal I can lift to different ideals with
    different Groebner fans.  saturate_h(J) gives H(I) = J : h^inf, which
    depends on I only."""
    lifts = LIFTS[ideal.sig.kind]
    mode = mode or lifts[0]
    if mode not in lifts:
        raise ValueError("a %s ring has no lift %r (it has %s)"
                         % (ideal.sig.kind, mode, " and ".join(lifts)))
    gens = ideal.generators
    source = LIFT_TABLE[mode].source
    if source != "none":
        gens = [homogenize(g, source) for g in gens]
    gens = [homogenize(g, mode, alpha=alpha) for g in gens]
    return Ideal(gens[0].sig, gens)


def saturation_order(hsig):
    """The homogenizing grading, then fewer powers of h first: on
    homogeneous elements h divides the leading term only if it divides
    every term, which is what Bayer's saturation needs."""
    fewer_h = tuple(-1 if i == hsig.h_slot else 0
                    for i in range(hsig.nslots))
    return MatrixOrder(hsig.nslots, [grading_row(hsig), fewer_h])


def saturate_h(ideal):
    """H(I) = J : h^inf for a homogeneous ideal J of an alpha or h11
    signature, such as homogenized_ideal(I) or homogenized_ideal(I,
    mode="h11"): the ideal of the homogenizations of all elements of I
    (Saito-Sturmfels-Takayama, ch. 1).  Its generators are its reduced
    basis under saturation_order.

    Bayer's method: take the reduced basis of J under saturation_order
    and divide each element by the largest power of h dividing it.  This
    holds in the homogenized Weyl algebra too, because h is central.  The
    double lift has two homogenization variables and is rejected, and an
    h01 signature has no saturation_order."""
    sig = ideal.sig
    if len(sig.commutator) != 1:
        raise ValueError("saturation needs a lift with one h slot, not %s/%s"
                         % (sig.kind, sig.homog))
    if not all(g.is_homogeneous() for g in ideal.generators):
        raise ValueError("saturation needs homogeneous generators")
    order = saturation_order(sig)
    hs = sig.h_slot
    out = []
    for g in buchberger(ideal.generators, order):
        k = min(e[hs] for e in g.terms)
        out.append(Element(sig, {
            e[:hs] + (e[hs] - k,) + e[hs + 1:]: c
            for e, c in g.terms.items()}))
    return Ideal(sig, interreduce(out, order))


def dehomogenized_basis(basis):
    """The nonzero images of a lifted basis under substituting 1 for the
    variable the lift added last (h for alpha and h11, h' for double)."""
    out = (dehomogenize(g) for g in basis)
    return [d for d in out if not d.is_zero()]


def local_standard_basis(ideal, w, check=False):
    """Standard basis of the local (resp. h-homogenized differential) ideal
    for the weight w: reduced basis of the homogenized ideal under the
    w-refined well order, then substitution of 1 for the added variable."""
    hid = homogenized_ideal(ideal)
    order = groebner_order(hid.sig, w)
    return dehomogenized_basis(buchberger(hid.generators, order, check=check))
