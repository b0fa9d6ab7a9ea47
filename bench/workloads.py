"""The benchmark's problem corpora, as problem-file texts.

Each workload is a list of (problem id, text) pairs.  The program sees only
these texts; everything below builds them.

Every workload has a fixed base corpus, drawn once from its default seed.
``--seed`` then varies the texts without changing the mathematics:

* the order in which the problems run is shuffled;
* in the two random workloads each generator is multiplied by a random
  nonzero rational, or (normal fans) every coefficient is redrawn.

Scaling a generator leaves the ideal, and so the fan, unchanged, and a
Newton polyhedron depends only on the support.  So every seed does the same
mathematical work, the seed-to-seed spread of a timing is host noise rather
than the luck of the draw, and every seed's output can be checked against
the golden fans of the base corpus.  The default seed keeps the base texts
verbatim, so the goldens also pin their exact bytes.
"""

import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

# Default seeds, one per workload, and why each workload exists.
DEFAULT_SEED = {
    # Large 9-slot homogenized Weyl rings, hard Buchberger completions and
    # many flips; hypergeometric n=2 dominates (136 flips, 398
    # completions).  Polyhedral validation is almost absent.  The corpus is
    # fixed; the seed only reorders it.
    "weyl_fixtures": 42,
    # Small commutative rings with many strata, each enumerated: the only
    # workload that runs merge_classes, local_standard_basis and the
    # validate_fan inside assemble_local_fan at scale.  Seed 42 and the
    # draw below are those of tests/test_localfan.py, so the corpus is the
    # randomized property suite's 50 ideals.
    "poly_local_random": 42,
    # The polyhedral layer with no Groebner work at all: double
    # description H->V for the normal fan, then V->H and pairwise
    # validation in check-fan.  A Groebner-side change should not move it.
    "polyhedral_roundtrip": 2004,
}

WORKLOADS = tuple(DEFAULT_SEED)

WEYL_FIXTURES = ("hypergeometric_n1", "hypergeometric_n2",
                 "two_parameter_global", "two_parameter_local",
                 "euler_local")

LOCAL_IDEALS = 50
NORMAL_FAN_POLYS = 6
NORMAL_FAN_TERMS = 10
NORMAL_FAN_DEGREE = 6

_SCALES = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
           Fraction(-2, 3), Fraction(5, 7))


def _random_ideal(rng, n, max_gens=3, max_terms=3, deg=4):
    """Generators of a random ideal, drawn exactly as
    tests/test_localfan.py::_random_ideal draws them."""
    from grobfan.rings import RingSignature, Element
    sig = RingSignature(n, "poly")
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        g = Element.zero(sig)
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, deg) for _ in range(n))
            if sum(e) > deg:
                e = tuple(x % 2 for x in e)
            g = g + Element.monomial(sig, e, rng.choice([1, -1, 2, -3]))
        if not g.is_zero():
            gens.append(g)
    if not gens:
        gens = [Element.constant(sig, 1)]
    return sig, gens


def _local_ideals():
    """(signature, generators) pairs in the order of the property suite:
    n drawn from (1, 2, 2, 3), then the ideal, from one stream."""
    rng = random.Random(DEFAULT_SEED["poly_local_random"])
    out = []
    for _ in range(LOCAL_IDEALS):
        n = rng.choice([1, 2, 2, 3])
        out.append(_random_ideal(rng, n))
    return out


def _local_text(sig, gens):
    return ("ring poly(%s);\nideal: %s;\nmode: local-fan;\n"
            % (",".join(sig.names), ", ".join(str(g) for g in gens)))


def _normal_fan_supports():
    """Supports of random trivariate polynomials: NORMAL_FAN_TERMS distinct
    nonconstant monomials of total degree at most NORMAL_FAN_DEGREE."""
    rng = random.Random(DEFAULT_SEED["polyhedral_roundtrip"])
    out = []
    for _ in range(NORMAL_FAN_POLYS):
        mons = set()
        while len(mons) < NORMAL_FAN_TERMS:
            e = tuple(rng.randint(0, NORMAL_FAN_DEGREE) for _ in range(3))
            if 0 < sum(e) <= NORMAL_FAN_DEGREE:
                mons.add(e)
        out.append(sorted(mons))
    return out


def _normal_fan_text(support, coeffs):
    terms = []
    for e, c in zip(support, coeffs):
        mon = "*".join("%s^%d" % (v, k) for v, k in zip("xyz", e) if k)
        terms.append("%s*%s" % (c, mon))
    return ("ring poly(x,y,z);\nideal: %s;\nmode: normal-fan;\n"
            % " + ".join(terms).replace("+ -", "- "))


def corpus(workload, seed):
    """The workload's problems for this seed, as (problem id, text)."""
    if workload not in DEFAULT_SEED:
        raise ValueError("unknown workload %r" % (workload,))
    verbatim = seed == DEFAULT_SEED[workload]
    rng = random.Random(seed)
    out = []
    if workload == "weyl_fixtures":
        for name in WEYL_FIXTURES:
            with open(os.path.join(FIXTURES, name + ".gf"),
                      encoding="utf-8") as fh:
                out.append((name, fh.read()))
    elif workload == "poly_local_random":
        for i, (sig, gens) in enumerate(_local_ideals()):
            if not verbatim:
                gens = [g.scale(rng.choice(_SCALES)) for g in gens]
            out.append(("plr-%02d" % i, _local_text(sig, gens)))
    else:
        for i, support in enumerate(_normal_fan_supports()):
            if verbatim:
                coeffs = [(1, -1, 2, -3, 5)[j % 5]
                          for j in range(len(support))]
            else:
                coeffs = [rng.choice((1, -1, 2, -3, 5, -7))
                          for _ in support]
            out.append(("prt-%02d" % i, _normal_fan_text(support, coeffs)))
    if not verbatim:
        rng.shuffle(out)
    return out
