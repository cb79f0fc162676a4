"""The fraction-free Gauss-Jordan kernel against the Fraction eliminations."""

import random
from fractions import Fraction

import pytest

from helpers import (
    _independent_indices,
    _int_inverse,
    _scaled_inverse_columns,
    fraction_coords_in_basis,
    fraction_int_inverse,
    fraction_mat_rank,
    random_unimodular,
)
from newtonzeta.lattice import (
    InvariantViolation,
    _gauss_jordan,
    coords_in_basis,
    int_det,
    mat_rank,
)


def _random_matrix(rng, rows, cols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def _low_rank_matrix(rng, rows, cols, rank):
    """A rows x cols product of random rows x rank and rank x cols factors."""
    left = _random_matrix(rng, rows, rank, 3)
    right = _random_matrix(rng, rank, cols, 3)
    return [[sum(l[t] * right[t][j] for t in range(rank)) for j in range(cols)]
            for l in left]


def _unit_column_matrix(rng, rows, cols):
    """Mostly unit and zero columns, the rest sparse: the transposed
    generators of a Newton polyhedron look like this, and their pivots
    are mostly 1, so most steps leave most rows as they are."""
    out = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        kind = rng.random()
        if kind < 0.6:
            out[rng.randrange(rows)][j] = rng.choice([1, 1, 1, -1, 2])
        elif kind < 0.9:
            for i in rng.sample(range(rows), rng.randint(1, min(rows, 2))):
                out[i][j] = rng.randint(-3, 3)
    return out


def _matrices(rng, cases):
    """Random, low-rank and (a further half of ``cases``) unit-column
    matrices."""
    out = []
    for k in range(cases):
        rows, cols = rng.randint(0, 7), rng.randint(1, 7)
        if k % 2:
            out.append(_low_rank_matrix(rng, rows, cols, rng.randint(1, 3)))
        else:
            out.append(_random_matrix(rng, rows, cols))
    for _ in range(cases // 2):
        out.append(_unit_column_matrix(rng, rng.randint(1, 7), rng.randint(1, 9)))
    return out


def _fraction_rref(M):
    """Pivot columns and nonzero rows of the reduced row echelon form."""
    m = [[Fraction(x) for x in r] for r in M]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        k = len(pivots)
        piv = next((i for i in range(k, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][c] for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[k])]
        pivots.append(c)
    return pivots, m[:len(pivots)]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_rank_matches_fraction_elimination():
    rng = random.Random(301)
    for M in _matrices(rng, 300):
        assert mat_rank(M) == fraction_mat_rank(M)


def test_kernel_shape():
    # all pivots equal p, the other pivot columns are zero, and the rows
    # past the pivots vanish on the eliminated columns
    rng = random.Random(302)
    for M in _matrices(rng, 200):
        cols = len(M[0]) if M else 0
        width = rng.randint(0, cols)
        pivots, a, p = _gauss_jordan(M, width)
        assert pivots == sorted(pivots) and all(c < width for c in pivots)
        assert p != 0
        for i, row in enumerate(a):
            for k, c in enumerate(pivots):
                assert row[c] == (p if i == k else 0)
            if i >= len(pivots):
                assert not any(row[:width])


def test_reduced_rows_are_the_pivot_times_the_echelon_form():
    # the whole output, not only its shape: p times the Fraction reduced
    # echelon form and zero rows below it, also where unit pivots leave
    # rows untouched
    rng = random.Random(309)
    unit_pivots = 0
    for M in _matrices(rng, 300):
        pivots, a, p = _gauss_jordan(M)
        want_pivots, rref = _fraction_rref(M)
        assert pivots == want_pivots
        assert a[:len(pivots)] == [[p * x for x in r] for r in rref]
        assert not any(any(r) for r in a[len(pivots):])
        unit_pivots += p == 1 and len(pivots) > 1
    assert unit_pivots > 15


def test_pivot_is_the_determinant_up_to_sign():
    rng = random.Random(303)
    for _ in range(100):
        n = rng.randint(1, 6)
        M = _random_matrix(rng, n, n)
        pivots, _, p = _gauss_jordan(M)
        det = int_det(M)
        if det:
            assert len(pivots) == n and abs(p) == abs(det)
        else:
            assert len(pivots) < n


def test_coordinates_match_fraction_elimination():
    rng = random.Random(304)
    seen = set()
    for _ in range(400):
        d = rng.randint(1, 6)
        r = rng.randint(1, d)
        B = _random_matrix(rng, r, d, 4)
        if fraction_mat_rank(B) < r:
            continue
        kind = rng.randrange(3)
        if kind == 0:  # an integer combination: inside the lattice
            c = [rng.randint(-5, 5) for _ in range(r)]
            v = [sum(ci * b[j] for ci, b in zip(c, B)) for j in range(d)]
        elif kind == 1:  # a half-integer combination, in the span
            c = [Fraction(rng.randint(-5, 5), 2) for _ in range(r)]
            v = [sum(ci * b[j] for ci, b in zip(c, B)) for j in range(d)]
            if any(x.denominator != 1 for x in v):
                continue
            v = [int(x) for x in v]
        else:  # anything
            v = [rng.randint(-6, 6) for _ in range(d)]
        got = _outcome(coords_in_basis, B, v)
        assert got == _outcome(fraction_coords_in_basis, B, v)
        seen.add(got if isinstance(got[0], str) else "inside")
    assert seen == {"inside",
                    ("ValueError", "vector outside the span"),
                    ("ValueError",
                     "vector outside the lattice generated by the basis")}


def test_coordinates_of_vector_lists_match_fraction_elimination():
    # lists of lattice vectors, some with one vector outside the span or
    # outside the lattice: each vector gets equal coordinates or the same
    # ValueError
    rng = random.Random(305)
    seen = set()
    for _ in range(300):
        d = rng.randint(1, 6)
        r = rng.randint(1, d)
        B = _random_matrix(rng, r, d, 4)
        if fraction_mat_rank(B) < r:
            continue
        vs = []
        for _ in range(rng.randint(0, 6)):
            c = [rng.randint(-5, 5) for _ in range(r)]
            vs.append([sum(ci * b[j] for ci, b in zip(c, B)) for j in range(d)])
        if vs and rng.random() < 0.6:
            c = [Fraction(rng.randint(-5, 5), 2) for _ in range(r)]
            v = [sum(ci * b[j] for ci, b in zip(c, B)) for j in range(d)]
            if rng.random() < 0.5 or any(x.denominator != 1 for x in v):
                v = [rng.randint(-6, 6) for _ in range(d)]
            vs[rng.randrange(len(vs))] = [int(x) for x in v]
        for v in vs:
            got = _outcome(coords_in_basis, B, v)
            assert got == _outcome(fraction_coords_in_basis, B, v)
            if isinstance(got[0], str):
                seen.add(got[1])
    assert seen == {"vector outside the span",
                    "vector outside the lattice generated by the basis"}


def test_coordinates_in_the_empty_basis():
    assert coords_in_basis([], (0, 0)) == fraction_coords_in_basis([], (0, 0)) == ()
    with pytest.raises(ValueError, match="outside the span"):
        coords_in_basis([], (0, 1))


def test_inverse_of_unimodular_matches_fraction_elimination():
    rng = random.Random(306)
    for _ in range(150):
        d = rng.randint(1, 6)
        M = random_unimodular(rng, d, steps=rng.randint(0, 14))
        inv = _int_inverse(M)
        assert inv == fraction_int_inverse(M)
        assert [[sum(M[i][k] * inv[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)] == [[int(i == j) for j in range(d)]
                                       for i in range(d)]


@pytest.mark.parametrize("M", [[[2, 0], [0, 1]], [[1, 2], [3, 4]]])
def test_inverse_of_non_unimodular_raises(M):
    with pytest.raises(InvariantViolation):
        fraction_int_inverse(M)
    with pytest.raises(InvariantViolation):
        _int_inverse(M)


def test_inverse_of_singular_raises():
    with pytest.raises(InvariantViolation):
        _int_inverse([[1, 1], [1, 1]])


def test_independent_indices_are_the_greedy_echelon():
    rng = random.Random(307)
    for M in _matrices(rng, 300):
        greedy = []
        for i, row in enumerate(M):
            if fraction_mat_rank([M[j] for j in greedy] + [row]) > len(greedy):
                greedy.append(i)
        assert _independent_indices(M) == greedy


def test_scaled_inverse_columns():
    rng = random.Random(308)
    for _ in range(100):
        n = rng.randint(1, 6)
        B = _random_matrix(rng, n, n)
        if int_det(B) == 0:
            with pytest.raises(InvariantViolation, match="singular"):
                _scaled_inverse_columns(B)
            continue
        cols = _scaled_inverse_columns(B)
        lam = sum(B[0][k] * cols[0][k] for k in range(n))
        assert lam != 0
        for j, r in enumerate(cols):
            assert [sum(B[i][k] * r[k] for k in range(n)) for i in range(n)] == \
                [lam if i == j else 0 for i in range(n)]


def test_scaled_inverse_of_a_singular_basis_raises():
    with pytest.raises(InvariantViolation, match="singular"):
        _scaled_inverse_columns([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
