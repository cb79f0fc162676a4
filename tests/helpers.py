"""Shared generators and small independent oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from newtonzeta.factored import FactoredZeta, factor, one
from newtonzeta.germ import GermSeries, make_germ
from newtonzeta.lattice import (
    InvariantViolation,
    Vector,
    _cross_normal,
    _dot,
    _neg,
    _sub,
    int_det,
    mat_rank,
    primitive,
)
from newtonzeta.randomized import (  # noqa: F401 (re-exported for tests)
    random_convenient_germ,
    random_nonzero_fraction,
    random_z_germ,
)


def random_lattice_simplex(rng, d, l, coord_bound=6):
    """l-dimensional simplex in Z^d: l+1 affinely independent points."""
    while True:
        pts = [tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d))
               for _ in range(l + 1)]
        diffs = [tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]]
        if mat_rank(diffs) == l:
            return pts


def random_point_set(rng, d, count, bound, flat_share=0.0, line_share=0.0):
    """Distinct integer points in [-bound, bound]^d.

    A share ``flat_share`` of them is pushed into the hyperplane x_d = 0,
    and a share ``line_share`` onto the line through 0 and (1, 2, ..., d),
    so that many points are coplanar or collinear.
    """
    count = min(count, (2 * bound + 1) ** d)
    pts = set()
    while len(pts) < count:
        u = rng.random()
        if u < line_share:
            k = rng.randint(-bound, bound)
            p = tuple(k * (i + 1) for i in range(d))
        else:
            p = [rng.randint(-bound, bound) for _ in range(d)]
            if u < line_share + flat_share:
                p[-1] = 0
            p = tuple(p)
        pts.add(p)
    return sorted(pts)


def brute_facet_enum_full(pts, d):
    """Sorted (inner normal, offset) pairs of a full-dimensional point set.

    Reference for the double-description engine: every d-subset of the
    points spans a candidate hyperplane, kept when all points lie on one
    side of it.
    """
    found = set()
    for combo in itertools.combinations(range(len(pts)), d):
        p0 = pts[combo[0]]
        a = _cross_normal([_sub(pts[i], p0) for i in combo[1:]], d)
        if a is None:
            continue
        a = primitive(a)
        c = _dot(a, p0)
        values = [_dot(a, p) for p in pts]
        if min(values) >= c:
            found.add((a, c))
        elif max(values) <= c:
            found.add((_neg(a), -c))
    return sorted(found)


def rank_vertices(pts, plane_facets, d):
    """Points whose incident facet normals span R^d (the rank rule)."""
    verts = []
    for p in pts:
        active = [a for a, c in plane_facets if _dot(a, p) == c]
        if len(active) >= d and mat_rank(active) == d:
            verts.append(p)
    return verts


def brute_newton_polyhedron_facets(points, d):
    """Reference for ``newton_polyhedron_facets``: facets of
    conv(points) + R_+^d through t points and d - t unit directions, over
    every choice of both."""
    pts = sorted(set(tuple(p) for p in points))
    units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    found = set()
    for size_t in range(1, min(d, len(pts)) + 1):
        for T in itertools.combinations(range(len(pts)), size_t):
            base = pts[T[0]]
            tv = [_sub(pts[i], base) for i in T[1:]]
            for E in itertools.combinations(range(d), d - size_t):
                a = _cross_normal(tv + [units[i] for i in E], d)
                if a is None:
                    continue
                a = primitive(a)
                for cand in (a, _neg(a)):
                    c = _dot(cand, base)
                    if all(x >= 0 for x in cand) and \
                            all(_dot(cand, p) >= c for p in pts):
                        found.add((cand, c))
                        break
    out = []
    for a, c in sorted(found):
        on = frozenset(p for p in pts if _dot(a, p) == c)
        axes = frozenset(i for i in range(d) if a[i] == 0)
        out.append((a, c, on, axes))
    return out


def random_unimodular(rng, d, steps=8):
    """Random unimodular integer matrix built from elementary operations."""
    M = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        op = rng.randrange(3)
        if op == 0 and d > 1:
            q = rng.randint(-2, 2)
            M[i] = [x + q * y for x, y in zip(M[i], M[j])]
        elif op == 1 and d > 1:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-x for x in M[i]]
    assert abs(int_det(M)) == 1
    return M


def apply_matrix(M, p):
    return tuple(sum(M[i][j] * p[j] for j in range(len(p))) for i in range(len(M)))


def simplex_nvol_oracle(pts):
    """Normalized volume of a lattice simplex via the gcd of maximal minors.

    Independent of the Smith-normal-form / triangulation path: the l-th
    determinantal divisor of the edge matrix equals the index of the edge
    lattice in its saturation, which is the normalized simplex volume.
    """
    edges = [tuple(x - y for x, y in zip(p, pts[0])) for p in pts[1:]]
    l = len(edges)
    d = len(pts[0])
    g = 0
    for cols in itertools.combinations(range(d), l):
        minor = [[e[c] for c in cols] for e in edges]
        g = gcd(g, abs(int_det(minor)))
    return g


def random_deformation_germ(rng, n, max_exp=5, terms_count=4) -> GermSeries:
    """Random germ involving both sigma and the z-variables."""
    terms = {}
    while len(terms) < terms_count:
        e = [rng.randint(0, 2)] + [rng.randint(0, max_exp) for _ in range(n)]
        if any(e):
            terms[tuple(e)] = random_nonzero_fraction(rng)
    return make_germ(n + 1, terms.items())


def permutation_zeta(cycle_lengths) -> FactoredZeta:
    """Zeta function of a permutation of a finite set, from its cycle type.

    For a finite fibre the monodromy acts on 0-th homology by the
    permutation matrix, and det(Id - t P) is the product of (1 - t^c) over
    the cycle lengths c.
    """
    z = one()
    for c in cycle_lengths:
        z = z * factor(c, 1)
    return z


def _euler_phi(d):
    out, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def _primitive_root_product(d) -> FactoredZeta:
    # prod over primitive d-th roots w of (1 - t*w), written in the
    # (1-t^m) basis via Moebius inversion of 1-t^d = prod_{e|d} Phi-parts
    z = one()
    for e in range(1, d + 1):
        if d % e == 0:
            mu = _mobius(d // e)
            if mu:
                z = z * factor(e, mu)
    return z


def brieskorn_zeta(exponents) -> FactoredZeta:
    """Zeta function of z1^a1 + ... + zn^an from its monodromy eigenvalues.

    The middle homology of the Milnor fibre has eigenvalue multiset
    {exp(2 pi i sum(k_j/a_j)) : 1 <= k_j <= a_j - 1}; zero-th homology
    contributes 1 - t.  Entirely independent of the Newton-diagram code.
    """
    from collections import Counter

    n = len(exponents)
    counts = Counter()
    for ks in itertools.product(*[range(1, a) for a in exponents]):
        r = sum(Fraction(k, a) for k, a in zip(ks, exponents)) % 1
        counts[r.denominator] += 1
    sign = 1 if (n - 1) % 2 == 0 else -1
    z = factor(1, 1)
    for d, c in counts.items():
        assert c % _euler_phi(d) == 0
        z = z * _primitive_root_product(d) ** (sign * (c // _euler_phi(d)))
    return z


def nvol_boundary_recursion(points) -> int:
    """Normalized volume via lattice distances to boundary facets.

    l! Vol(P) = sum over facets F of |a_F . q - c_F| * nvol(F) for any
    fixed vertex q, with primitive inner normals a_F; facets recurse in
    the saturation lattices of their direction spaces.  Independent of the
    fan-triangulation decomposition used by the library.
    """
    from newtonzeta.lattice import convex_hull, coords_in_basis, saturation_basis

    def to_full_dim(pts):
        base = pts[0]
        diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
        B = saturation_basis(diffs)
        return [coords_in_basis(B, tuple(x - y for x, y in zip(p, base)))
                for p in pts]

    def rec(pts, l):
        if l == 0:
            return 1
        verts, dim, facets = convex_hull(pts)
        assert dim == l
        if l == 1:
            return max(p[0] for p in verts) - min(p[0] for p in verts)
        q = verts[0]
        total = 0
        for f in facets:
            dist = sum(a * x for a, x in zip(f.inner_normal, q)) - f.offset
            if dist == 0:
                continue
            fpts = [p for p in verts
                    if sum(a * x for a, x in zip(f.inner_normal, p)) == f.offset]
            total += dist * rec(to_full_dim(fpts), l - 1)
        return total

    pts = sorted(set(tuple(p) for p in points))
    _, dim, _ = convex_hull(pts)
    if dim == 0:
        return 1
    return rec(to_full_dim(pts), dim)


# ---------------------------------------------------------------------------
# Fraction Gauss-Jordan eliminations: the routines the fraction-free kernel
# ``lattice._gauss_jordan`` replaced, kept as oracles for test_elimination


def fraction_mat_rank(rows) -> int:
    """Rank over the rationals of a list of integer row vectors."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def fraction_coords_in_basis(basis, v) -> Vector:
    """Integer coordinates of v in a basis of independent integer rows.

    Raises ValueError if v is outside the span or outside the lattice the
    rows generate.
    """
    r = len(basis)
    if r == 0:
        if any(v):
            raise ValueError("vector outside the span")
        return ()
    d = len(v)
    aug = [[Fraction(basis[i][j]) for i in range(r)] + [Fraction(v[j])]
           for j in range(d)]
    row = 0
    pivots = []
    for c in range(r):
        pr = next((i for i in range(row, d) if aug[i][c]), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        inv = Fraction(1) / aug[row][c]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(d):
            if i != row and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append((row, c))
        row += 1
    sol = [Fraction(0)] * r
    for rr, c in pivots:
        sol[c] = aug[rr][r]
    for j in range(d):
        if sum(sol[i] * basis[i][j] for i in range(r)) != v[j]:
            raise ValueError("vector outside the span")
    if any(x.denominator != 1 for x in sol):
        raise ValueError("vector outside the lattice generated by the basis")
    return tuple(int(x) for x in sol)


def fraction_solve_poly_values(vals) -> list[Fraction]:
    """Coefficients of the polynomial taking the given values at 0..len-1."""
    n = len(vals)
    aug = [[Fraction(s ** t) for t in range(n)] + [Fraction(vals[s])]
           for s in range(n)]
    for c in range(n):
        pr = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def fraction_int_inverse(M):
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise InvariantViolation("unimodular matrix has a non-integer inverse")
    return [[int(x) for x in row] for row in out]
