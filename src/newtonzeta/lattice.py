"""Exact integer and rational polyhedral geometry.

Convex hulls with primitive inner normals, Smith normal form, saturation
lattices, normalized lattice volumes, Minkowski sums, and mixed volumes.
Everything runs on Python ints; ``fractions.Fraction`` appears only in the
mixed-volume results.  No floating point enters this module, so all
results are exact.

Every exact elimination (rank, coordinates in a basis, scaled inverses,
the interpolation solve) is one fraction-free Gauss-Jordan routine,
``_gauss_jordan`` (Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22, 1968).

Facets come from one integer double-description routine (``cone_facets``,
after Fukuda & Prodon, *Double description method revisited*, 1996): a
bounded hull is the cone over its points lifted to height one, a Newton
polyhedron the same cone plus its recession rays at height zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

Vector = tuple[int, ...]


class InvariantViolation(Exception):
    """An internal invariant of the exact geometry does not hold.

    Not a ``ValueError``: it signals a defect in the program, never bad
    input, and the command line reports it as an internal error.
    """


# ---------------------------------------------------------------------------
# integer vectors and small exact linear algebra

def vector_gcd(v) -> int:
    """gcd of the absolute values of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def primitive(v) -> Vector:
    """Divide an integer covector by the gcd of its entries, keeping signs.

    >>> primitive((4, 6))
    (2, 3)
    >>> primitive((-3, -6))
    (-1, -2)
    """
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(int(x) // g for x in v)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _neg(a) -> Vector:
    return tuple(-x for x in a)


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [[int(x) for x in r] for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = (a[j][k] * a[i][i] - a[j][i] * a[i][k]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def _gauss_jordan(rows, width=None):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    Pivots are taken left to right in the first ``width`` columns (all by
    default), each in the first remaining row that is nonzero there.  Every
    step replaces each row off the pivot by (pivot * row - entry * pivot
    row) / previous pivot, which divides exactly.  Returns ``(pivots, a,
    p)``: the pivot columns, the reduced rows, reordered so that row i
    holds the pivot of column ``pivots[i]``, and the common pivot value
    ``p`` (1 without pivots).  Row i is ``p`` in column ``pivots[i]`` and
    0 in the other pivot columns; the rows past ``len(pivots)`` are 0 in
    the first ``width`` columns.  A nonsingular ``[B | I]`` thus ends as
    ``[p I | p B^-1]``.

    >>> _gauss_jordan([[2, 1, 1], [4, 3, 5]])
    ([0, 1], [[2, 0, -2], [0, 2, 6]], 2)
    >>> _gauss_jordan([[1, 2], [2, 4]])
    ([0], [[1, 2], [0, 0]], 1)
    """
    a = [list(r) for r in rows]
    n = len(a)
    if width is None:
        width = len(a[0]) if a else 0
    pivots: list[int] = []
    prev = 1
    for c in range(width):
        k = len(pivots)
        if k == n:
            break
        piv = next((i for i in range(k, n) if a[i][c]), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        rk = a[k]
        p = rk[c]
        for i in range(n):
            if i != k:
                ri = a[i]
                f = ri[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
        prev = p
        pivots.append(c)
    return pivots, a, prev


def mat_rank(rows) -> int:
    """Rank over the rationals of a list of integer row vectors."""
    return len(_gauss_jordan(rows)[0])


def _independent_indices(rows) -> list[int]:
    """Indices of a greedy maximal independent subset of integer rows, in
    input order: the pivot columns of the transpose."""
    return _gauss_jordan(list(zip(*rows)))[0]


def _cross_normal(vecs, d: int) -> Vector | None:
    """Generalized cross product of d-1 vectors in Z^d (None if dependent)."""
    a = []
    for j in range(d):
        minor = [[v[t] for t in range(d) if t != j] for v in vecs]
        a.append((-1) ** j * int_det(minor))
    if not any(a):
        return None
    return tuple(a)


def orthocomplement_line(vectors, d: int) -> Vector:
    """Primitive integer normal to a (d-1)-dimensional span of integer vectors."""
    rows = [tuple(int(x) for x in v) for v in vectors]
    ind = [rows[i] for i in _independent_indices(rows)]
    if len(ind) != d - 1:
        raise ValueError("span does not have codimension one")
    a = _cross_normal(ind, d)
    if a is None:
        raise InvariantViolation("independent rows gave a zero normal")
    return primitive(a)


# ---------------------------------------------------------------------------
# Smith normal form and saturation lattices

def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M):
    """Smith normal form decomposition of an integer matrix.

    Returns ``(U, D, V)`` with ``M = U @ D @ V``, ``U`` and ``V`` unimodular
    and ``D`` diagonal with nonnegative entries, each dividing the next.
    """
    k = len(M)
    d = len(M[0]) if k else 0
    A = [[int(x) for x in row] for row in M]
    for row in A:
        if len(row) != d:
            raise ValueError("ragged matrix")
    U = _identity(k)
    V = _identity(d)

    # Row operations on A are compensated on U's columns and column
    # operations on V's rows so that M == U @ A @ V holds throughout.
    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        for r in U:
            r[i], r[j] = r[j], r[i]

    def row_sub(i, q, j):  # row_i -= q * row_j
        A[i] = [x - q * y for x, y in zip(A[i], A[j])]
        for r in U:
            r[j] += q * r[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        for r in U:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        V[i], V[j] = V[j], V[i]

    def col_sub(i, q, j):  # col_i -= q * col_j
        for r in A:
            r[i] -= q * r[j]
        V[j] = [x + q * y for x, y in zip(V[j], V[i])]

    s = 0
    limit = min(k, d)
    while s < limit:
        best = None
        pr = pc = -1
        for i in range(s, k):
            for j in range(s, d):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pr, pc = i, j
        if best is None:
            break
        if pr != s:
            row_swap(s, pr)
        if pc != s:
            col_swap(s, pc)
        while True:
            if A[s][s] < 0:
                row_neg(s)
            # clear column s, re-pivoting on any nonzero remainder
            while True:
                for i in range(s + 1, k):
                    if A[i][s]:
                        row_sub(i, A[i][s] // A[s][s], s)
                rem = [i for i in range(s + 1, k) if A[i][s]]
                if rem:
                    row_swap(s, min(rem, key=lambda i: abs(A[i][s])))
                    if A[s][s] < 0:
                        row_neg(s)
                    continue
                for j in range(s + 1, d):
                    if A[s][j]:
                        col_sub(j, A[s][j] // A[s][s], s)
                rem = [j for j in range(s + 1, d) if A[s][j]]
                if rem:
                    col_swap(s, min(rem, key=lambda j: abs(A[s][j])))
                    if A[s][s] < 0:
                        row_neg(s)
                    continue
                break
            viol = None
            for i in range(s + 1, k):
                for j in range(s + 1, d):
                    if A[i][j] % A[s][s] != 0:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            row_sub(s, -1, viol)  # pull a non-divisible entry into row s
        s += 1
    return U, A, V


def saturation_basis(vectors) -> list[Vector]:
    """Basis of (R-span of the vectors) intersected with Z^d.

    Every integer point of the real span is an integer combination of the
    returned rows; they realize the lattice in which face volumes are
    normalized.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if not vecs:
        return []
    _, D, V = smith_normal_form([list(v) for v in vecs])
    r = sum(1 for i in range(min(len(vecs), len(vecs[0]))) if D[i][i] != 0)
    return [tuple(V[i]) for i in range(r)]


def coords_in_basis(basis, v) -> Vector:
    """Integer coordinates of v in a basis of independent integer rows.

    Raises ValueError if v is outside the span or outside the lattice the
    rows generate.
    """
    r = len(basis)
    if r == 0:
        if any(v):
            raise ValueError("vector outside the span")
        return ()
    aug = [[b[j] for b in basis] + [x] for j, x in enumerate(v)]
    pivots, a, p = _gauss_jordan(aug, r)
    if any(row[r] for row in a[len(pivots):]):
        raise ValueError("vector outside the span")
    sol = [0] * r
    for row, c in zip(a, pivots):
        q, rem = divmod(row[r], p)
        if rem:
            raise ValueError("vector outside the lattice generated by the basis")
        sol[c] = q
    return tuple(sol)


# ---------------------------------------------------------------------------
# convex hulls

@dataclass(frozen=True)
class HullFacet:
    """A supporting hyperplane of the hull with its primitive inner normal.

    ``inner_normal . p >= offset`` holds for every input point, with
    equality exactly for the points listed in ``point_indices`` (indices
    into the input list).
    """
    point_indices: tuple[int, ...]
    inner_normal: Vector
    offset: int


def _scaled_inverse_columns(B) -> list[list[int]]:
    """Columns r_j of lam * B^-1 for a nonsingular square integer B, where
    lam is a nonzero integer; ``B r_j = lam e_j`` for every j.  They are
    the right block of ``[B | I]`` after ``_gauss_jordan``.
    """
    n = len(B)
    pivots, a, _ = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(B)], n)
    if len(pivots) < n:
        raise InvariantViolation("basis matrix is singular")
    return [[a[i][n + j] for i in range(n)] for j in range(n)]


def cone_facets(gens) -> list[tuple[Vector, int]]:
    """Facets of the cone spanned by integer generators that span R^D.

    Returns ``(y, zeros)`` pairs: ``y`` is a primitive inner facet normal
    (``y . g >= 0`` for every generator ``g``) and ``zeros`` the bitmask of
    the generators (bit i for ``gens[i]``) on which ``y`` vanishes.  A
    point ``p`` enters as ``(1, p)``, a recession ray ``r`` as ``(0, r)``.

    Double description on the dual cone {y : y . g >= 0}: start from the
    simplicial cone of D independent generators, whose extreme rays are the
    columns of a scaled inverse, then add the remaining generators in
    sorted order.  A ray on the positive and one on the negative side of
    the new constraint are adjacent when their common zero set Z has at
    least D - 2 generators and no third ray vanishes on all of Z; each
    adjacent pair gives one new ray in the new hyperplane.  Integers only.
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    D = len(gens[0])
    basis = _independent_indices(gens)
    if len(basis) < D:
        raise InvariantViolation("cone generators do not span the ambient space")
    full = 0
    for i in basis:
        full |= 1 << i
    B = [gens[i] for i in basis]
    rays = []
    for j, r in enumerate(_scaled_inverse_columns(B)):
        if _dot(B[j], r) < 0:
            r = _neg(r)
        rays.append((primitive(r), full & ~(1 << basis[j])))
    chosen = set(basis)
    for g, k in sorted((g, i) for i, g in enumerate(gens) if i not in chosen):
        bit = 1 << k
        pos, neg, kept = [], [], []
        for r, z in rays:
            s = _dot(g, r)
            if s > 0:
                pos.append((r, z, s))
                kept.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                kept.append((r, z | bit))
        if neg:
            masks = [z for _, z in rays]
            for p, zp, sp in pos:
                for n, zn, sn in neg:
                    z = zp & zn
                    if z.bit_count() < D - 2 or \
                            sum(1 for m in masks if m & z == z) > 2:
                        continue
                    v = [sp * x - sn * y for x, y in zip(n, p)]
                    c = gcd(*v)
                    kept.append((tuple(x // c for x in v), z | bit))
        rays = kept
    return rays


def _facet_enum_full(pts) -> list[tuple[Vector, int]]:
    """Sorted (inner normal, offset) pairs for a full-dimensional point set."""
    lifted = [(1,) + tuple(p) for p in pts]
    return sorted((y[1:], -y[0]) for y, _ in cone_facets(lifted))


def _vertices_from_facets(pts, plane_facets) -> list[Vector]:
    """The corners among distinct points of a full-dimensional set.

    A point is a vertex iff no other point lies on every facet through it
    (an interior point lies on no facet, so every other point qualifies).
    """
    incident = [sum(1 << k for k, (a, c) in enumerate(plane_facets)
                    if _dot(a, p) == c) for p in pts]
    verts = []
    for p, mp in zip(pts, incident):
        if sum(1 for mq in incident if mq & mp == mp) == 1:
            verts.append(p)
    return verts


def convex_hull(points):
    """Exact hull of integer points: (vertices, affine_dim, facets).

    Facets are reported for affine dimension >= 1 only: a full-dimensional
    hull gets its proper facets with primitive inner normals; a hull of
    codimension one is itself the single degenerate facet, reported once
    per sign of the primitive normal of its affine span; lower-dimensional
    hulls get no facets.
    """
    pts_in = [tuple(int(x) for x in p) for p in points]
    if not pts_in:
        raise ValueError("convex_hull needs at least one point")
    d = len(pts_in[0])
    if d < 1 or any(len(p) != d for p in pts_in):
        raise ValueError("points must share a positive ambient dimension")
    uniq = sorted(set(pts_in))
    base = uniq[0]
    diffs = [_sub(p, base) for p in uniq[1:]]
    dim = mat_rank(diffs)
    if dim == 0:
        return [base], 0, []
    if dim == d:
        planes = _facet_enum_full(uniq)
        vertices = _vertices_from_facets(uniq, planes)
        facets = [
            HullFacet(
                tuple(i for i, p in enumerate(pts_in) if _dot(a, p) == c),
                a, c)
            for a, c in planes
        ]
        return vertices, dim, facets
    # degenerate: recurse inside the saturation lattice of the direction span
    B = saturation_basis(diffs)
    sat = [coords_in_basis(B, _sub(p, base)) for p in uniq]
    backmap = dict(zip(sat, uniq))
    sverts, _, _ = convex_hull(sat)
    vertices = sorted(backmap[v] for v in sverts)
    facets = []
    if dim == d - 1:
        w = orthocomplement_line(diffs, d)
        c = _dot(w, base)
        every = tuple(range(len(pts_in)))
        facets = [HullFacet(every, w, c), HullFacet(every, _neg(w), -c)]
    return vertices, dim, facets


# ---------------------------------------------------------------------------
# lattice polytopes and volumes

@dataclass(frozen=True)
class LatticePolytope:
    """Hull of finitely many integer points, stored by its vertex list.

    Build through ``from_points`` (which reduces to the true vertices) or
    ``empty``; the cached affine dimension is revalidated on construction.
    """
    vertices: tuple[Vector, ...]
    affine_dim: int
    ambient_dim: int

    def __post_init__(self):
        if not self.vertices:
            if self.affine_dim != -1:
                raise ValueError("empty polytope must have affine_dim -1")
            return
        base = self.vertices[0]
        if any(len(v) != self.ambient_dim for v in self.vertices):
            raise ValueError("vertex dimension mismatch")
        if mat_rank([_sub(v, base) for v in self.vertices[1:]]) != self.affine_dim:
            raise ValueError("cached affine dimension is wrong")

    @classmethod
    def from_points(cls, points) -> "LatticePolytope":
        pts = list(points)
        if not pts:
            raise ValueError("use LatticePolytope.empty for the empty polytope")
        verts, dim, _ = convex_hull(pts)
        return cls(tuple(verts), dim, len(verts[0]))

    @classmethod
    def empty(cls, ambient_dim: int) -> "LatticePolytope":
        return cls((), -1, ambient_dim)

    @property
    def is_empty(self) -> bool:
        return not self.vertices


def minimizing_face(points, alpha) -> LatticePolytope:
    """Hull of the points where the strictly positive covector is minimal."""
    pts = [tuple(int(x) for x in p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    if len(alpha) != len(pts[0]):
        raise ValueError("covector dimension mismatch")
    if any(a <= 0 for a in alpha):
        raise ValueError("covector must be strictly positive in all components")
    best = min(_dot(alpha, p) for p in pts)
    return LatticePolytope.from_points([p for p in pts if _dot(alpha, p) == best])


def _triangulate_full(pts, l: int):
    """Fan triangulation (apex = lexicographically smallest vertex) of a
    full-dimensional point set in Z^l; yields (l+1)-tuples of vertices."""
    if l == 0:
        return [(pts[0],)]
    planes = _facet_enum_full(pts)
    verts = _vertices_from_facets(pts, planes)
    if len(verts) == l + 1:
        return [tuple(verts)]
    apex = verts[0]
    simplices = []
    for a, c in planes:
        if _dot(a, apex) == c:
            continue
        fverts = [p for p in verts if _dot(a, p) == c]
        fbase = fverts[0]
        B = saturation_basis([_sub(p, fbase) for p in fverts[1:]])
        spts = sorted(coords_in_basis(B, _sub(p, fbase)) for p in fverts)
        backmap = {coords_in_basis(B, _sub(p, fbase)): p for p in fverts}
        for fs in _triangulate_full(spts, l - 1):
            simplices.append((apex,) + tuple(backmap[q] for q in fs))
    return simplices


def _nvol_full(pts, l: int) -> int:
    total = 0
    for simplex in _triangulate_full(sorted(pts), l):
        rows = [_sub(q, simplex[0]) for q in simplex[1:]]
        total += abs(int_det(rows))
    return total


def normalized_volume(P: LatticePolytope) -> int:
    """l! times the lattice volume of P, l = affine dimension.

    The lattice volume is measured in the saturation lattice of the
    direction space, i.e. normalized so the minimal parallelepiped with
    integer vertices has volume 1.  A point gives 1, the empty polytope 0.
    """
    if P.is_empty:
        return 0
    l = P.affine_dim
    if l == 0:
        return 1
    base = P.vertices[0]
    B = saturation_basis([_sub(v, base) for v in P.vertices[1:]])
    spts = [coords_in_basis(B, _sub(v, base)) for v in P.vertices]
    return _nvol_full(spts, l)


def normalized_volume_at(P: LatticePolytope, l: int) -> int:
    """Like normalized_volume but measured in target dimension l: returns 0
    when P is empty or has affine dimension below l."""
    if l < 0:
        raise ValueError("dimension must be nonnegative")
    if P.is_empty or P.affine_dim < l:
        return 0
    if P.affine_dim > l:
        raise ValueError("polytope dimension exceeds the requested dimension")
    return normalized_volume(P)


# ---------------------------------------------------------------------------
# Minkowski sums and mixed volumes

def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if P.is_empty or Q.is_empty:
        raise ValueError("Minkowski sum of an empty polytope")
    return LatticePolytope.from_points(
        [_add(p, q) for p in P.vertices for q in Q.vertices])


def dilate(P: LatticePolytope, k: int) -> LatticePolytope:
    """k-fold dilation for k >= 0; k = 0 collapses to the origin."""
    if k < 0:
        raise ValueError("negative dilation")
    if P.is_empty:
        raise ValueError("dilation of an empty polytope")
    if k == 0:
        return LatticePolytope.from_points([(0,) * P.ambient_dim])
    return LatticePolytope.from_points(
        [tuple(k * x for x in v) for v in P.vertices])


def _lattice_volume(K: LatticePolytope, m: int) -> Fraction:
    return Fraction(normalized_volume_at(K, m), factorial(m))


def _solve_poly_values(vals) -> list[Fraction]:
    """Coefficients of the polynomial taking the given values at 0..len-1.

    The values are scaled by the lcm L of their denominators, so the
    Vandermonde system is integral; each coefficient is entry / (p L).
    """
    vals = [Fraction(v) for v in vals]
    n = len(vals)
    L = lcm(*(v.denominator for v in vals))
    _, a, p = _gauss_jordan(
        [[s ** t for t in range(n)] + [v.numerator * (L // v.denominator)]
         for s, v in enumerate(vals)], n)
    return [Fraction(row[n], p * L) for row in a]


def _two_body_polarization(K0, K1, j: int, m: int) -> Fraction:
    vols = [_lattice_volume(minkowski_sum(K0, dilate(K1, s)), m)
            for s in range(m + 1)]
    coeffs = _solve_poly_values(vols)
    return coeffs[j] / comb(m, j)


def mixed_volume(bodies) -> Fraction:
    """Minkowski mixed volume of m lattice polytopes.

    The bodies must fit a common m-dimensional lattice direction space;
    volumes are measured in its saturation lattice and normalized so that
    ``mixed_volume([K]*m)`` is the lattice volume of K (not multiplied by
    m factorial).  Computed by polarization: for two distinct bodies the
    volume of K0 + s*K1 is interpolated at s = 0..m; more distinct bodies
    fall back to subset inclusion-exclusion.
    """
    Ks = list(bodies)
    m = len(Ks)
    if m == 0:
        raise ValueError("need at least one body")
    D = Ks[0].ambient_dim
    for K in Ks:
        if K.is_empty:
            raise ValueError("mixed volume of an empty polytope")
        if K.ambient_dim != D:
            raise ValueError("ambient dimension mismatch")
    vecs = []
    for K in Ks:
        b = K.vertices[0]
        vecs.extend(_sub(v, b) for v in K.vertices[1:])
    r = mat_rank(vecs)
    if r > m:
        raise ValueError("bodies do not fit a common m-dimensional direction space")
    if r < m:
        return Fraction(0)
    B = saturation_basis(vecs)
    mapped = []
    for K in Ks:
        b = K.vertices[0]
        mapped.append(LatticePolytope.from_points(
            [coords_in_basis(B, _sub(v, b)) for v in K.vertices]))
    distinct: list[LatticePolytope] = []
    counts: list[int] = []
    for K in mapped:
        for idx, K2 in enumerate(distinct):
            if K2.vertices == K.vertices:
                counts[idx] += 1
                break
        else:
            distinct.append(K)
            counts.append(1)
    if len(distinct) == 1:
        return _lattice_volume(distinct[0], m)
    if len(distinct) == 2:
        return _two_body_polarization(distinct[0], distinct[1], counts[1], m)
    total = Fraction(0)
    for bits in range(1, 1 << m):
        chosen = [mapped[i] for i in range(m) if bits >> i & 1]
        T = chosen[0]
        for K in chosen[1:]:
            T = minkowski_sum(T, K)
        total += (-1) ** (m - len(chosen)) * _lattice_volume(T, m)
    return total / factorial(m)
