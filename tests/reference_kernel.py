"""The rational reduction kernel grobfan used before its division became
fraction-free, kept as a reference: division that scans for the leading
term at every step and subtracts Element products, and a completion that
keeps every basis element monic.  Its reduced bases are the ones the
package must reproduce coefficient for coefficient."""

from grobfan.rational import QQ
from grobfan.rings import Element
from grobfan.orders import leading_data
from grobfan.division import delta_index, _divides


def divide(p, divisors, order):
    """(quotients, remainder) with p = sum(q_j * g_j) + r: the leading term
    of the working element goes to the first divisor whose leading exponent
    divides it, or to the remainder."""
    sig = p.sig
    lexps, lcs = [], []
    for g in divisors:
        e, c = leading_data(g, order)
        lexps.append(e)
        lcs.append(c)
    quotients = [Element.zero(sig) for _ in divisors]
    remainder = Element.zero(sig)
    work = p
    while not work.is_zero():
        e, c = leading_data(work, order)
        j = delta_index(lexps, e)
        if j is None:
            t = Element(sig, {e: c})
            remainder += t
            work -= t
        else:
            m = tuple(x - y for x, y in zip(e, lexps[j]))
            q = Element(sig, {m: QQ(c) / lcs[j]})
            quotients[j] += q
            work -= q * divisors[j]
    return quotients, remainder


def _monic(g, order):
    return g.scale(1 / QQ(leading_data(g, order)[1]))


def s_pair(g1, g2, order):
    e1, c1 = leading_data(g1, order)
    e2, c2 = leading_data(g2, order)
    lcm = tuple(max(a, b) for a, b in zip(e1, e2))
    m1 = Element(g1.sig, {tuple(a - b for a, b in zip(lcm, e1)): 1 / QQ(c1)})
    m2 = Element(g2.sig, {tuple(a - b for a, b in zip(lcm, e2)): 1 / QQ(c2)})
    return m1 * g1 - m2 * g2


def interreduce(basis, order):
    """Minimal, monic and tail-reduced, sorted by leading exponent."""
    work = [g for g in basis if not g.is_zero()]
    lexps = [leading_data(g, order)[0] for g in work]
    keep = [i for i, e in enumerate(lexps)
            if not any(j != i and _divides(lexps[j], e)
                       and (lexps[j] != e or j < i)
                       for j in range(len(work)))]
    work = [work[i] for i in keep]
    out = []
    for i, g in enumerate(work):
        others = work[:i] + work[i + 1:]
        if others:
            g = divide(g, others, order)[1]
        out.append(_monic(g, order))
    out.sort(key=lambda g: leading_data(g, order)[0])
    return out


def buchberger(gens, order, seed=None):
    """The reduced basis by the normal strategy with the chain criterion
    (and the coprimality criterion in commutative signatures)."""
    commutative = not gens[0].sig.has_d
    basis, lexps, pairs = [], [], []

    def add(g):
        basis.append(_monic(g, order))
        lexps.append(leading_data(g, order)[0])
        k = len(basis) - 1
        pairs.extend((i, k) for i in range(k))
        pairs.sort(key=lambda ij: sum(
            max(a, b) for a, b in zip(lexps[ij[0]], lexps[ij[1]])))

    for g in list(seed or []) + list(gens):
        if g.is_zero():
            continue
        r = divide(g, basis, order)[1] if basis else g
        if not r.is_zero():
            add(r)
    done = set()
    while pairs:
        i, j = pairs.pop(0)
        done.add((i, j))
        li, lj = lexps[i], lexps[j]
        if commutative and all(min(a, b) == 0 for a, b in zip(li, lj)):
            continue
        lij = tuple(max(a, b) for a, b in zip(li, lj))
        if any(k not in (i, j) and _divides(lexps[k], lij)
               and (min(i, k), max(i, k)) in done
               and (min(j, k), max(j, k)) in done
               for k in range(len(basis))):
            continue
        sp = s_pair(basis[i], basis[j], order)
        if sp.is_zero():
            continue
        r = divide(sp, basis, order)[1]
        if not r.is_zero():
            add(r)
    return interreduce(basis, order)
