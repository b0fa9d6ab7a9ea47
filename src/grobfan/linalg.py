"""Small exact linear algebra helpers on integer vectors.

Vectors are tuples; matrices are sequences of such tuples.  Covectors, rays
and lines are integer vectors, and elimination is fraction-free: a row
operation multiplies by the pivot instead of dividing by it, and each new
row is divided by the gcd of its entries.  Rational entries are accepted
where a vector enters (`primitive` clears their denominators).  No floats
anywhere.
"""

from math import gcd, lcm


def vdot(a, b):
    s = 0
    for x, y in zip(a, b):
        s += x * y
    return s


def is_zero_vec(a):
    return all(x == 0 for x in a)


def primitive(vec):
    """Scale an integer or rational vector by a positive constant to a
    coprime integer vector.  Returns a tuple of ints (all zero stays all
    zero)."""
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if g > 1:
        return tuple(x // g for x in ints)
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
    """Integer reduced row echelon form.  Returns (rows, pivot_columns);
    each row is primitive, positive at its pivot and zero at the other
    pivots, so it is a positive multiple of the rational rref row.  Zero
    rows are dropped."""
    mat = [primitive(row) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0),
                     None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        if mat[r][c] < 0:
            mat[r] = tuple(-x for x in mat[r])
        prow, pv = mat[r], mat[r][c]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i] = primitive([pv * x - f * y
                                    for x, y in zip(mat[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols):
    """Basis of the right null space, as primitive integer vectors with a
    positive first nonzero entry (unit vectors for no rows)."""
    red, pivots = rref(rows)
    scale = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(primitive_signed(vec))
    return basis


def reduce_mod_rowspace(vec, red_rows, pivots):
    """Reduce the integer vector vec modulo the row space given in integer
    rref form: a positive multiple of the canonical coset representative,
    whose pivot coordinates are zero."""
    out = vec
    for row, pc in zip(red_rows, pivots):
        f = out[pc]
        if f != 0:
            p = row[pc]
            out = [p * x - f * y for x, y in zip(out, row)]
    return tuple(out)
