"""Buchberger completion and reduced bases in the homogenized rings, plus
standard bases of local ideals obtained by dehomogenization."""

from .rational import QQ
from .rings import Element, POLY, WEYL, homogenize, dehomogenize
from .orders import leading_data, groebner_order, lift_to_h
from .division import divide, _divides


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


def s_pair(g1, g2, order):
    e1, c1 = leading_data(g1, order)
    e2, c2 = leading_data(g2, order)
    lcm = tuple(max(a, b) for a, b in zip(e1, e2))
    m1 = Element(g1.sig, {tuple(a - b for a, b in zip(lcm, e1)): 1 / QQ(c1)})
    m2 = Element(g2.sig, {tuple(a - b for a, b in zip(lcm, e2)): 1 / QQ(c2)})
    return m1 * g1 - m2 * g2


def _monic(g, order):
    _, c = leading_data(g, order)
    return g.scale(1 / QQ(c))


def interreduce(basis, order, check=False):
    """Minimal, monic, tail-reduced basis in a deterministic element order."""
    work = [g for g in basis if not g.is_zero()]
    lexps = [leading_data(g, order)[0] for g in work]
    keep = []
    for i, e in enumerate(lexps):
        if any(j != i and _divides(lexps[j], e)
               and (lexps[j] != e or j < i) for j in range(len(work))):
            continue
        keep.append(i)
    work = [work[i] for i in keep]
    out = []
    for i, g in enumerate(work):
        others = [h for j, h in enumerate(work) if j != i]
        if others:
            _, r = divide(g, others, order, check=check)
            g = r
        if not g.is_zero():
            out.append(_monic(g, order))
    out.sort(key=lambda g: leading_data(g, order)[0])
    # one more tail sweep against the minimal set gives the reduced basis
    final = []
    for i, g in enumerate(out):
        others = out[:i] + out[i + 1:]
        if others:
            _, r = divide(g, others, order, check=check)
            g = _monic(r, order) if not r.is_zero() else r
        if not g.is_zero():
            final.append(g)
    final.sort(key=lambda g: leading_data(g, order)[0])
    return final


def buchberger(gens, order, seed=None, check=False):
    """Unique reduced basis of the (left) ideal generated by gens.

    Pair selection uses the normal strategy (smallest lcm degree); the chain
    criterion always applies, the coprimality criterion only in commutative
    signatures (monomial commutators break it otherwise).  An optional seed
    basis warm-starts the completion.
    """
    sig = gens[0].sig
    commutative = not sig.has_d
    basis = []
    lexps = []

    def add(g):
        basis.append(_monic(g, order))
        lexps.append(leading_data(g, order)[0])

    todo = list(gens)
    if seed:
        todo = list(seed) + todo
    pairs = []

    def push_pairs(k):
        for i in range(k):
            pairs.append((i, k))
        pairs.sort(key=lambda ij: sum(
            max(a, b) for a, b in zip(lexps[ij[0]], lexps[ij[1]])))

    for g in todo:
        if g.is_zero():
            continue
        _, r = divide(g, basis, order, check=check) if basis else ([], g)
        if not r.is_zero():
            add(r)
            push_pairs(len(basis) - 1)

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(lexps[i], lexps[j]))

    done = set()
    while pairs:
        i, j = pairs.pop(0)
        done.add((i, j))
        li, lj = lexps[i], lexps[j]
        if commutative and all(min(a, b) == 0 for a, b in zip(li, lj)):
            continue
        lij = lcm(i, j)
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(lexps[k], lij):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        sp = s_pair(basis[i], basis[j], order)
        if sp.is_zero():
            continue
        _, r = divide(sp, basis, order, check=check)
        if not r.is_zero():
            add(r)
            push_pairs(len(basis) - 1)
    return interreduce(basis, order, check=check)


def initial_ideal(basis, sig, w):
    """Initial forms of the basis; they generate the initial ideal when the
    basis was computed under a w-refined order."""
    ws = sig.slot_weight(w)
    return [g.initial_form(ws) for g in basis]


def membership(p, basis, order, check=False):
    if p.is_zero():
        return True
    _, r = divide(p, basis, order, check=check)
    return r.is_zero()


def homogenized_ideal(ideal, mode=None, alpha=None):
    """Lift an ideal into the homogenized signature used for basis
    computations: alpha for commutative input, h11 or h01+double for Weyl
    input (mode picks which; default alpha / double).  Any other mode, or
    alpha weights for a Weyl ring, raise ValueError.

    The result is the generator lift J = <H(f_1), ..., H(f_r)> of the
    given generators f_i.  It depends on the generating set: two
    generating sets of one ideal I can lift to different ideals with
    different Groebner fans.  saturate_h(J) gives H(I) = J : h^inf, which
    depends on I only."""
    sig = ideal.sig
    if sig.kind == POLY and mode in (None, "alpha"):
        gens = [homogenize(g, "alpha", alpha=alpha) for g in ideal.generators]
    elif sig.kind == WEYL and alpha is None and mode == "h11":
        gens = [homogenize(g, "h11") for g in ideal.generators]
    elif sig.kind == WEYL and alpha is None and mode in (None, "double"):
        gens = [homogenize(homogenize(g, "h01"), "double")
                for g in ideal.generators]
    else:
        raise ValueError("a %s ring has no lift for mode %r, alpha %r"
                         % (sig.kind, mode, alpha))
    return Ideal(gens[0].sig, gens)


def saturation_order(hsig):
    """The homogenizing grading, then fewer powers of h first: on
    homogeneous elements h divides the leading term only if it divides
    every term, which is what Bayer's saturation needs."""
    fewer_h = tuple(-1 if i == hsig.h_slot else 0
                    for i in range(hsig.nslots))
    return lift_to_h(hsig, [fewer_h])


def saturate_h(ideal):
    """H(I) = J : h^inf for a homogeneous ideal J of an alpha or h11
    signature, such as homogenized_ideal(I) or homogenized_ideal(I,
    mode="h11"): the ideal of the homogenizations of all elements of I
    (Saito-Sturmfels-Takayama, ch. 1).  Its generators are its reduced
    basis under saturation_order.

    Bayer's method: take the reduced basis of J under saturation_order
    and divide each element by the largest power of h dividing it.  This
    holds in the homogenized Weyl algebra too, because h is central.  The
    double lift has two homogenization variables and is rejected."""
    sig = ideal.sig
    if sig.homog not in ("alpha", "h11"):
        raise ValueError("saturation is defined for the alpha and h11 "
                         "lifts, not for %s/%s" % (sig.kind, sig.homog))
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
    variable the lift added last (h for alpha and h11, h2 for double)."""
    which = "h2" if basis[0].sig.has_h2 else "h"
    out = (dehomogenize(g, which) for g in basis)
    return [d for d in out if not d.is_zero()]


def local_standard_basis(ideal, w, check=False):
    """Standard basis of the local (resp. h-homogenized differential) ideal
    for the weight w: reduced basis of the homogenized ideal under the
    w-refined well order, then substitution of 1 for the added variable."""
    hid = homogenized_ideal(ideal)
    order = groebner_order(hid.sig, w)
    return dehomogenized_basis(buchberger(hid.generators, order, check=check))
