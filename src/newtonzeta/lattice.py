"""Exact integer and rational polyhedral geometry.

Convex hulls with primitive inner normals, Smith normal form, saturation
lattices, normalized lattice volumes, Minkowski sums, and mixed volumes.
Everything runs on Python ints; ``fractions.Fraction`` appears only in the
mixed-volume results.  No floating point enters this module, so all
results are exact.

Every exact elimination (rank, coordinates in a basis, the starting rays
of the facet engine) is one fraction-free Gauss-Jordan routine,
``_gauss_jordan`` (Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22, 1968).

Facets come from one integer double-description routine (``cone_facets``,
after Fukuda & Prodon, *Double description method revisited*, 1996): a
bounded hull is the cone over its points lifted to height one, a Newton
polyhedron the same cone plus its recession rays at height zero.  It
takes the generators in sorted order and runs in their span, so a
lower-dimensional hull needs no change of coordinates; one elimination
gives its starting basis, that basis's rays and its rank, the only
dimension a hull or a mixed volume needs.  Everything else is read off
the zero-set bitmasks it returns: vertices (``_vertices``), the faces of
a face (``_face_facets``) and volumes by a pulling triangulation
(``_pulled_volume``), which for a diagram facet runs on the Newton
polyhedron's own masks.  Only volumes move points into saturated
coordinates.  Mixed volumes are one inclusion-exclusion over Minkowski
sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd
from operator import mul

Vector = tuple[int, ...]


class InvariantViolation(Exception):
    """An internal invariant of the exact geometry does not hold.

    Not a ``ValueError``: it signals a defect in the program, never bad
    input, and the command line reports it as an internal error.
    """


# ---------------------------------------------------------------------------
# integer vectors and small exact linear algebra

def primitive(v) -> Vector:
    """Divide an integer covector by the gcd of its entries, keeping signs.

    >>> primitive((4, 6))
    (2, 3)
    >>> primitive((-3, -6))
    (-1, -2)
    """
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _sub(a, b) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


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
    row) / previous pivot, which divides exactly; a row whose entry is 0
    is left as it is when the pivot equals the previous one, since the
    update is then the identity.  Returns ``(pivots, a, p)``: the pivot
    columns, the reduced rows, reordered so that row i holds the pivot of
    column ``pivots[i]``, and the common pivot value ``p`` (1 without
    pivots).  Row i is ``p`` in column ``pivots[i]`` and 0 in the other
    pivot columns; the rows past ``len(pivots)`` are 0 in the first
    ``width`` columns.  A nonsingular ``[B | I]`` thus ends as
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
            ri = a[i]
            f = ri[c]
            if i != k and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
        prev = p
        pivots.append(c)
    return pivots, a, prev


def mat_rank(rows) -> int:
    """Rank over the rationals of a list of integer row vectors."""
    return len(_gauss_jordan(rows)[0])


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
    return _coords_all(basis, [v])[0]


def _coords_all(basis, vectors) -> list[Vector]:
    """``coords_in_basis`` of each vector, from one elimination of
    ``[B^T | v_1 ... v_k]``; the first vector that fails raises."""
    r = len(basis)
    pivots, a, p = _gauss_jordan(zip(*basis, *vectors), r)
    out = []
    for k in range(r, r + len(vectors)):
        if any(row[k] for row in a[len(pivots):]):
            raise ValueError("vector outside the span")
        sol = [0] * r
        for row, c in zip(a, pivots):
            q, rem = divmod(row[k], p)
            if rem:
                raise ValueError("vector outside the lattice generated by the basis")
            sol[c] = q
        out.append(tuple(sol))
    return out


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


def cone_facets(gens) -> tuple[int, list[tuple[Vector, int]]]:
    """Rank and facets of the cone spanned by integer generators.

    Returns ``(r, facets)``: r is the rank of the generators, the pivot
    count of the elimination below, and each facet a ``(y, zeros)`` pair:
    ``y`` is a primitive inner facet normal (``y . g >= 0`` for every
    generator ``g``), ``zeros`` the bitmask of the generators (bit i for
    ``gens[i]``) on which ``y`` vanishes.  A point ``p`` enters as
    ``(1, p)``, a recession ray ``r`` as ``(0, r)``.  Generators of rank
    r < D give the facets in their span, each ``y`` up to its orthogonal
    complement; an all-zero set raises ``InvariantViolation``.

    Double description on the dual cone {y : y . g >= 0}, with the
    generators taken in sorted order.  One elimination of ``[G^T | I]``,
    the columns of ``G^T`` being the sorted generators, starts it: its r
    pivot columns are the first independent generators, and the right
    block holds the extreme rays of their simplicial cone (row j, a
    column of a scaled inverse, vanishes on every basis generator but the
    j-th, and is signed by the pivot).  For a Newton polyhedron that basis
    is the recession axes and the lowest point.  The remaining generators
    follow in sorted order.  A ray on the positive and one on the negative
    side of the new constraint are adjacent when their common zero set Z
    has at least r - 2 generators and no third ray vanishes on all of Z;
    each adjacent pair gives one new ray in the new hyperplane.  Integers
    only.

    The Newton polyhedron of the cusp ``z1^2 + z2^3 - s``: its compact
    facet, the three coordinate facets and the facet at infinity.

    >>> gens = [(1, 0, 2, 0), (1, 0, 0, 3), (1, 1, 0, 0),
    ...         (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    >>> for y, zeros in sorted(cone_facets(gens)[1]):
    ...     print(y, f"{zeros:06b}")
    (-6, 6, 3, 2) 000111
    (0, 0, 0, 1) 011101
    (0, 0, 1, 0) 101110
    (0, 1, 0, 0) 110011
    (1, 0, 0, 0) 111000

    Three collinear points have rank 2; their facets are the two ends:

    >>> cone_facets([(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    (2, [((0, 1, 0), 1), ((2, -1, 0), 4)])
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    D = len(gens[0])
    order = sorted(range(len(gens)), key=gens.__getitem__)
    N = len(order)
    pivots, a, lam = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(D)]
         for i, row in enumerate(zip(*(gens[k] for k in order)))], N)
    if not pivots:
        raise InvariantViolation("cone generators are all zero")
    rank = len(pivots)
    full = sum(1 << order[c] for c in pivots)
    rays = []
    for c, row in zip(pivots, a):
        q = gcd(*row[N:]) if lam > 0 else -gcd(*row[N:])
        rays.append((tuple(x // q for x in row[N:]), full & ~(1 << order[c])))
    basis = set(pivots)
    for k in (k for c, k in enumerate(order) if c not in basis):
        g = gens[k]
        bit = 1 << k
        pos, neg, kept = [], [], []
        for r, z in rays:
            s = sum(map(mul, g, r))
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
                    if z.bit_count() < rank - 2 or \
                            sum(1 for m in masks if m & z == z) > 2:
                        continue
                    v = [sp * x - sn * y for x, y in zip(n, p)]
                    c = gcd(*v)
                    kept.append((tuple(x // c for x in v), z | bit))
        rays = kept
    return rank, rays


def _vertices(pts, masks) -> list[Vector]:
    """The vertices among sorted distinct points, read off facet zero-set
    masks (bit i for ``pts[i]``; higher bits, such as a Newton
    polyhedron's recession axes, are ignored): point i is a vertex iff
    the points on every facet through it are point i alone (Kaibel &
    Pfetsch, Comput. Geom. 23, 2002).  A point on no facet is a vertex
    only when it is the only point.

    >>> _vertices([(0, 0), (1, 0), (2, 0), (0, 1)], [0b0111, 0b1001, 0b1100])
    [(0, 0), (2, 0), (0, 1)]
    """
    full = (1 << len(pts)) - 1
    out = []
    for i, p in enumerate(pts):
        common = full
        for z in masks:
            if z >> i & 1:
                common &= z
        if common == 1 << i:
            out.append(p)
    return out


def convex_hull(points):
    """Exact hull of integer points: (vertices, affine_dim, facets).

    One ``cone_facets`` call on the distinct points, lifted to height one
    as they are, gives the facets' zero-set masks, off which the sorted
    vertices are read, and the rank, which is the dimension plus one.
    Facets are reported for full-dimensional hulls only, sorted by (inner
    normal, offset), each with every input index on it, duplicates
    included; a lower-dimensional hull gets ``[]``.
    """
    pts_in = [tuple(int(x) for x in p) for p in points]
    if not pts_in:
        raise ValueError("convex_hull needs at least one point")
    d = len(pts_in[0])
    if d < 1 or any(len(p) != d for p in pts_in):
        raise ValueError("points must share a positive ambient dimension")
    uniq = sorted(set(pts_in))
    rank, cone = cone_facets([(1,) + p for p in uniq])
    vertices = _vertices(uniq, [z for _, z in cone])
    if rank <= d:
        return vertices, rank - 1, []
    pos = {p: i for i, p in enumerate(uniq)}
    bits = [pos[p] for p in pts_in]
    facets = [HullFacet(tuple(i for i, b in enumerate(bits) if z >> b & 1), a, c)
              for a, c, z in sorted((y[1:], -y[0], z) for y, z in cone)]
    return vertices, d, facets


# ---------------------------------------------------------------------------
# lattice polytopes and volumes

@dataclass(frozen=True)
class LatticePolytope:
    """Hull of finitely many integer points, stored by its vertex list.

    ``LatticePolytope(vertices, ambient_dim)``, usually through
    ``from_points`` (which reduces to the true vertices) or ``empty``;
    ``affine_dim`` is one rank of the vertices, -1 without any.
    """
    vertices: tuple[Vector, ...]
    ambient_dim: int
    affine_dim: int = field(init=False)

    def __post_init__(self):
        verts = self.vertices
        if any(len(v) != self.ambient_dim for v in verts):
            raise ValueError("vertex dimension mismatch")
        object.__setattr__(self, "affine_dim", mat_rank(
            [_sub(v, verts[0]) for v in verts[1:]]) if verts else -1)

    @classmethod
    def from_points(cls, points) -> "LatticePolytope":
        """The hull of a nonempty point set, by one ``convex_hull``."""
        verts = convex_hull(points)[0]
        return cls(tuple(verts), len(verts[0]))

    @classmethod
    def empty(cls, ambient_dim: int) -> "LatticePolytope":
        return cls((), ambient_dim)

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


def _face_facets(mask: int, facet_masks) -> list[int]:
    """Facets of the face ``mask``: its inclusion-maximal proper
    intersections with the polytope's ``facet_masks`` (Kaibel & Pfetsch,
    Comput. Geom. 23, 2002), scanned largest first.

    >>> sorted(_face_facets(0b0011, [0b0011, 0b0110, 0b1100, 0b1001]))
    [1, 2]
    """
    found: list[int] = []
    for m in sorted({mask & z for z in facet_masks} - {mask},
                    key=int.bit_count, reverse=True):
        if all(m & f != m for f in found):
            found.append(m)
    return found


def _pulled_volume(mask: int, dim: int, pts, facet_masks, apexes) -> int:
    """Sum of |det| over the pulling triangulation of the face ``mask``:
    cone its lowest point (appended to ``apexes``) over each of its facets
    that miss it, down to faces of ``dim + 1`` points, which are simplices
    (De Loera, Rambau & Santos, *Triangulations*, 2010).

    ``apexes`` may start with a point off the face's affine span, such as
    the origin below a diagram facet; the sum is then the normalized
    volume of the pyramid over the face with that apex."""
    if mask.bit_count() == dim + 1:
        simplex = [p for i, p in enumerate(pts) if mask >> i & 1] + list(apexes)
        return abs(int_det([_sub(q, simplex[0]) for q in simplex[1:]]))
    low = mask & -mask
    apexes += (pts[low.bit_length() - 1],)
    return sum(_pulled_volume(f, dim - 1, pts, facet_masks, apexes)
               for f in _face_facets(mask, facet_masks) if not f & low)


def normalized_volume(P: LatticePolytope) -> int:
    """l! times the lattice volume of P, l = affine dimension.

    The lattice volume is measured in the saturation lattice of the
    direction space, i.e. normalized so the minimal parallelepiped with
    integer vertices has volume 1.  A point gives 1, the empty polytope 0.
    A lower-dimensional P is first moved into coordinates of that
    saturation lattice, by its first vertex; the volume is then a pulling
    triangulation on the masks of one ``cone_facets`` call.
    """
    if P.is_empty:
        return 0
    pts, l = P.vertices, P.affine_dim
    if l < P.ambient_dim:
        diffs = [_sub(p, pts[0]) for p in pts]
        pts = _coords_all(saturation_basis(diffs[1:]), diffs)
    _, cone = cone_facets([(1,) + p for p in pts])
    return _pulled_volume((1 << len(pts)) - 1, l, pts, [z for _, z in cone], ())


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


def mixed_volume(bodies) -> Fraction:
    """Minkowski mixed volume of m lattice polytopes.

    The bodies must fit a common m-dimensional lattice direction space;
    volumes are measured in its saturation lattice and normalized so that
    ``mixed_volume([K]*m)`` is the lattice volume of K (not multiplied by
    m factorial).  The bodies' vertices are moved into coordinates of that
    saturation lattice, each by its first vertex; m copies of one body
    give its volume, and otherwise ``m! V`` is the alternating sum, over
    the nonempty subsets J of the bodies, of ``(-1)^(m - |J|)`` times the
    volume of the Minkowski sum of J (Schneider, *Convex Bodies: The
    Brunn-Minkowski Theory*, 2014, section 5.1).  A Minkowski sum is
    taken as the set of sums of the mapped points; one of rank m + 1 in
    its ``cone_facets`` call gets a pulling triangulation, ``m!`` times
    its volume (hence the division by ``m!^2``), and a lower one 0.
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
    diffs = [[_sub(v, K.vertices[0]) for v in K.vertices] for K in Ks]
    B = saturation_basis([v for ds in diffs for v in ds[1:]])
    if len(B) > m:
        raise ValueError("bodies do not fit a common m-dimensional direction space")
    if len(B) < m:
        return Fraction(0)
    mapped = [set(_coords_all(B, ds)) for ds in diffs]
    if all(P == mapped[0] for P in mapped):  # m! V is m! times vol(K)
        sums = [(factorial(m), mapped[0])]
    else:
        sums = []
        for bits in range(1, 1 << m):
            chosen = [mapped[i] for i in range(m) if bits >> i & 1]
            T = chosen[0]
            for P in chosen[1:]:
                T = {_add(p, q) for p in T for q in P}
            sums.append(((-1) ** (m - len(chosen)), T))
    total = 0
    for sign, T in sums:
        pts = sorted(T)
        rank, cone = cone_facets([(1,) + p for p in pts])
        if rank == m + 1:
            total += sign * _pulled_volume((1 << len(pts)) - 1, m, pts,
                                           [z for _, z in cone], ())
    return Fraction(total, factorial(m) ** 2)
