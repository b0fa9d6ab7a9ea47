"""Fraction-free elimination against the rational reference it replaces."""

import random
from fractions import Fraction

from grobfan.linalg import (primitive, primitive_signed, rref, rank,
                            nullspace, reduce_mod_rowspace)


# --- rational reference: elimination over Fraction ------------------------

def ref_rref(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
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


def ref_nullspace(rows, ncols):
    red, pivots = ref_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(primitive_signed(vec))
    return basis


def ref_reduce_mod_rowspace(vec, red_rows, pivots):
    out = [Fraction(x) for x in vec]
    for row, pc in zip(red_rows, pivots):
        if out[pc] != 0:
            f = out[pc]
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


# --- random systems ---------------------------------------------------------

def _entry(rng):
    if rng.random() < 0.4:
        return 0
    if rng.random() < 0.3:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-9, 9)


def _matrix(rng, ncols):
    """Random rows with rational entries, zero rows and, often, rows that
    are combinations of the others (rank-deficient)."""
    rows = [tuple(_entry(rng) for _ in range(ncols))
            for _ in range(rng.randint(0, 5))]
    if rows and rng.random() < 0.5:
        a, b = rng.choice(rows), rng.choice(rows)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        t = rng.randint(-2, 2)
        rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    if rng.random() < 0.2:
        rows.insert(rng.randint(0, len(rows)), (0,) * ncols)
    rng.shuffle(rows)
    return rows


def _ints(vecs):
    return all(type(x) is int for v in vecs for x in v)


def test_integer_elimination_matches_the_rational_reference():
    rng = random.Random(7)
    kinds = {"empty": 0, "zero row": 0, "deficient": 0, "rational": 0}
    for _ in range(400):
        ncols = rng.randint(1, 6)
        rows = _matrix(rng, ncols)
        red, pivots = rref(rows)
        ref_red, ref_pivots = ref_rref(rows)
        assert pivots == ref_pivots, rows
        assert red == [primitive(r) for r in ref_red], rows
        assert _ints(red)
        assert rank(rows) == len(ref_red)
        for row, pc in zip(red, pivots):
            assert row[pc] > 0
            assert all(row[q] == 0 for q in pivots if q != pc)
        ns = nullspace(rows, ncols)
        assert ns == ref_nullspace(rows, ncols), rows
        assert _ints(ns)
        for _ in range(3):
            vec = tuple(rng.randint(-9, 9) for _ in range(ncols))
            out = reduce_mod_rowspace(vec, red, pivots)
            assert _ints([out])
            assert primitive(out) == primitive(
                ref_reduce_mod_rowspace(vec, ref_red, ref_pivots))
        kinds["empty"] += not rows
        kinds["zero row"] += any(all(x == 0 for x in r) for r in rows)
        kinds["deficient"] += len(red) < len(rows)
        kinds["rational"] += any(type(x) is Fraction for r in rows for x in r)
    assert all(n >= 20 for n in kinds.values()), kinds


def test_primitive_on_ints_and_rationals():
    assert primitive((Fraction(1, 2), Fraction(-1, 3), 0)) == (3, -2, 0)
    assert primitive((4, -6, 8)) == (2, -3, 4)
    assert primitive((0, 0)) == (0, 0)
    assert primitive(()) == ()
    assert _ints([primitive((Fraction(4, 2), 6))])
    assert primitive_signed((0, -2, 4)) == (0, 1, -2)


def test_nullspace_of_no_rows_is_the_unit_basis():
    assert nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
