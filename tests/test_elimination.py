"""The fraction-free Gauss-Jordan kernel against the Fraction eliminations."""

import random
from fractions import Fraction

import pytest

from helpers import (
    fraction_coords_in_basis,
    fraction_int_inverse,
    fraction_mat_rank,
    fraction_solve_poly_values,
    random_unimodular,
)
from newtonzeta.lattice import (
    InvariantViolation,
    _gauss_jordan,
    _independent_indices,
    _scaled_inverse_columns,
    _solve_poly_values,
    coords_in_basis,
    int_det,
    mat_rank,
)
from newtonzeta.nondegeneracy import _int_inverse


def _random_matrix(rng, rows, cols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def _low_rank_matrix(rng, rows, cols, rank):
    """A rows x cols product of random rows x rank and rank x cols factors."""
    left = _random_matrix(rng, rows, rank, 3)
    right = _random_matrix(rng, rank, cols, 3)
    return [[sum(l[t] * right[t][j] for t in range(rank)) for j in range(cols)]
            for l in left]


def _matrices(rng, cases):
    out = []
    for k in range(cases):
        rows, cols = rng.randint(0, 7), rng.randint(1, 7)
        if k % 2:
            out.append(_low_rank_matrix(rng, rows, cols, rng.randint(1, 3)))
        else:
            out.append(_random_matrix(rng, rows, cols))
    return out


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


def test_coordinates_in_the_empty_basis():
    assert coords_in_basis([], (0, 0)) == fraction_coords_in_basis([], (0, 0)) == ()
    with pytest.raises(ValueError, match="outside the span"):
        coords_in_basis([], (0, 1))


def test_interpolation_matches_fraction_elimination():
    rng = random.Random(305)
    for _ in range(150):
        n = rng.randint(1, 7)
        vals = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for _ in range(n)]
        coeffs = _solve_poly_values(vals)
        assert coeffs == fraction_solve_poly_values(vals)
        assert all(isinstance(c, Fraction) for c in coeffs)
        for s, v in enumerate(vals):
            assert sum(c * s ** t for t, c in enumerate(coeffs)) == v


def test_interpolation_recovers_a_polynomial():
    coeffs = [Fraction(1, 6), Fraction(-2, 3), Fraction(0), Fraction(5, 4)]
    vals = [sum(c * s ** t for t, c in enumerate(coeffs)) for s in range(4)]
    assert _solve_poly_values(vals) == coeffs


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
