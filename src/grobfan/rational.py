"""Exact rational scalars.

Uses gmpy2.mpq when available (much faster), falling back to the stdlib
Fraction.  Both store lowest terms with positive denominator and interoperate
with Python ints.
"""

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ


def qstr(q):
    """Render a rational as 'p' or 'p/q'."""
    q = QQ(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%s/%s" % (q.numerator, q.denominator)
