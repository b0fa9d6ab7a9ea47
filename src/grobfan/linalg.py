"""Small exact linear algebra helpers over the rationals.

Vectors are tuples (entries are ints or rationals); matrices are sequences of
such tuples.  Everything is exact; no floats anywhere.
"""

from math import gcd

from .rational import QQ


def vdot(a, b):
    s = 0
    for x, y in zip(a, b):
        s += x * y
    return s


def is_zero_vec(a):
    return all(x == 0 for x in a)


def primitive(vec):
    """Scale a rational vector by a positive constant to a coprime integer
    vector.  Returns a tuple of ints (all zero stays all zero)."""
    fracs = [QQ(x) for x in vec]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, int(f.denominator))
    ints = [int(f.numerator) * (den // int(f.denominator)) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def primitive_signed(vec):
    """Like primitive but also normalizes the sign so the first nonzero entry
    is positive (canonical form for equations / undirected lines)."""
    p = primitive(vec)
    for x in p:
        if x < 0:
            return tuple(-y for y in p)
        if x > 0:
            break
    return p


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns) with the rows
    as tuples of rationals; zero rows dropped."""
    mat = [[QQ(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Basis of the right null space, as primitive integer vectors."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty system")
        ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [QQ(0)] * ncols
        vec[fc] = QQ(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(primitive_signed(vec))
    return basis


def reduce_mod_rowspace(vec, red_rows, pivots):
    """Reduce vec modulo the row space given in rref form (canonical coset
    representative: pivot coordinates become zero)."""
    out = [QQ(x) for x in vec]
    for row, pc in zip(red_rows, pivots):
        if out[pc] != 0:
            f = out[pc]
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)
