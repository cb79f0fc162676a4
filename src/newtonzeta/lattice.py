"""Exact integer and rational polyhedral geometry.

Convex hulls and Newton polyhedra with primitive inner normals, Smith
normal form, saturation lattices, normalized lattice volumes, Minkowski
sums, and mixed volumes.  Everything runs on Python ints;
``fractions.Fraction`` appears only in the mixed-volume results.  No
floating point enters this module, so all results are exact.  It is the
one module that builds a polyhedron, walks its faces, its compact ones
and its coordinate faces P ∩ R^I alike, reads a face's vertices and its
diagram facets (``DiagramFacet``) and decides when points are saturated.

Every exact elimination (rank, coordinates in a given basis, the starting
rays of a hull's facet engine) is one fraction-free Gauss-Jordan routine,
``_gauss_jordan`` (Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22, 1968); a
saturation lattice, and the coordinates in it of the vectors that span
it, come from one Smith normal form.

Facets come from one integer double-description routine
(``_double_description``, after Fukuda & Prodon, *Double description
method revisited*, 1996): a bounded hull is the cone over its points
lifted to height one, a Newton polyhedron the same cone plus its
recession rays at height zero.  ``cone_facets`` starts it from the rays
of a basis that one elimination finds, and runs in the span of its
generators, whose rank it returns; a Newton polyhedron's basis, the
recession axes and the lowest point, is unimodular, so
``newton_polyhedron_facets`` writes its rays down with no elimination.
A face's vertices (``_vertices``), the faces of a face (``_face_facets``),
the compact faces of a Newton polyhedron (``compact_faces``, walked down
from its facets whose normal is not a unit vector, which hold them all
unless the polyhedron is an orthant), the diagram
facets of its coordinate faces (``coordinate_facets``, one walk down the
subset lattice, which cuts only a face of more than |I| points and reads
the one possible facet of a face of exactly |I| off the cut above it, or
off the facet above it that it is a facet of, building nothing for it),
which take the
polyhedron alone and read its points off it (``NewtonPolyhedron``), so
all agree on bit order, and volumes by a pulling triangulation
(``_pulled_volume``) are read off the zero-set bitmasks, one set bit at a
time (``_bits``).
The diagram facets of one support in Z^d (``support_facets``) are read
by its point count: at most d points have at most the simplex of d,
decided by one elimination, with no polyhedron built; more are read off
their polyhedron's own facets, with no face cut.
A coordinate face projects to R^I only the points that its diagram
facets read, each once (``_records``), and one builder (``_record``)
makes every ``DiagramFacet``, which names no index set: the walk
returns I's records under the key I, and the caller of
``support_facets`` knows which I its support was restricted to.
The vertex read and the triangulation are handed the facets of the face
they read, found once; a triangulation measures each facet that is a
simplex in place, by one determinant of its own points, lifted or a
diagram facet's, and cuts each other facet on the facets of its face.
``_measure`` takes points of any Z^k: a simplex of m + 1 points with
k <= m + 1 (``_as_is``) needs neither facets nor saturation and is
measured by the gcd of the m x m minors of its edge matrix, which for
k = m is one determinant; any other set in k > m dimensions is moved into
its saturation lattice first (``_saturate``).  ``_mixed`` sums it for
mixed volumes (the Cayley oracle's included).
Points are checked once, at entry, where ``operator.index`` refuses
anything but integers; ``cone_facets`` takes them as built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd
from operator import add, index, mul, sub

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
    return tuple(map(sub, a, b))


def _add(a, b) -> Vector:
    return tuple(map(add, a, b))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first.

    >>> _bits(0b10110)
    [1, 2, 4]
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    a = [row for r in rows if len(row := list(map(index, r))) == n]
    if len(a) != n:
        raise ValueError("matrix is not square")
    sign = prev = 1
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
    return sign * a[-1][-1] if n else 1


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

def smith_normal_form(M):
    """Smith normal form decomposition of an integer matrix.

    Returns ``(U, D, V)`` with ``M = U @ D @ V``, ``U`` and ``V`` unimodular
    and ``D`` diagonal with nonnegative entries, each dividing the next.

    One pivot rule fills each diagonal position s.  A pass moves the
    smallest nonzero entry of the remaining block, rows and columns s
    onward (the first in row-major order), to ``(s, s)``, negates its row
    if it is negative and reduces its column and its row by floor
    division.  The remainders are smaller than the pivot, so the passes
    end with both clear; then an entry of the block that the pivot does
    not divide has its row added to the pivot row, and the passes go on.
    """
    k = len(M)
    d = len(M[0]) if k else 0
    A = [list(map(index, row)) for row in M]
    for row in A:
        if len(row) != d:
            raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    V = [[int(i == j) for j in range(d)] for i in range(d)]
    # Row operations on A are compensated on U's columns and column
    # operations on V's rows so that M == U @ A @ V holds throughout.
    s = 0
    while s < min(k, d):
        pivot = min(((abs(A[i][j]), i, j) for i in range(s, k)
                     for j in range(s, d) if A[i][j]), default=None)
        if pivot is None:
            break
        _, pr, pc = pivot
        A[s], A[pr] = A[pr], A[s]
        for r in U:
            r[s], r[pr] = r[pr], r[s]
        for r in A:
            r[s], r[pc] = r[pc], r[s]
        V[s], V[pc] = V[pc], V[s]
        if A[s][s] < 0:
            A[s] = [-x for x in A[s]]
            for r in U:
                r[s] = -r[s]
        p = A[s][s]
        for i in range(s + 1, k):
            q = A[i][s] // p
            if q:  # row_i -= q * row_s
                A[i] = [x - q * y for x, y in zip(A[i], A[s])]
                for r in U:
                    r[s] += q * r[i]
        for j in range(s + 1, d):
            q = A[s][j] // p
            if q:  # col_j -= q * col_s
                for r in A:
                    r[j] -= q * r[s]
                V[s] = [x + q * y for x, y in zip(V[s], V[j])]
        if any(A[i][s] for i in range(s + 1, k)) or any(A[s][s + 1:]):
            continue
        bad = next((i for i in range(s + 1, k)
                    if any(x % p for x in A[i][s + 1:])), None)
        if bad is None:
            s += 1
        else:  # row_s += row_bad
            A[s] = [x + y for x, y in zip(A[s], A[bad])]
            for r in U:
                r[bad] -= r[s]
    return U, A, V


def saturation_basis(vectors) -> list[Vector]:
    """Basis of (R-span of the vectors) intersected with Z^d.

    Every integer point of the real span is an integer combination of the
    returned rows; they realize the lattice in which face volumes are
    normalized.
    """
    _, D, V = smith_normal_form(vectors)
    return [tuple(v) for i, (v, row) in enumerate(zip(V, D)) if row[i]]


def coords_in_basis(basis, v) -> Vector:
    """Integer coordinates of v in a basis of independent integer rows.

    Raises ValueError if v and the rows differ in length, or if v is
    outside the span or outside the lattice the rows generate.
    """
    if any(len(b) != len(v) for b in basis):
        raise ValueError("basis rows and vector differ in length")
    r = len(basis)
    pivots, a, p = _gauss_jordan(zip(*basis, v), r)
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
# convex hulls and Newton polyhedra

def cone_facets(gens) -> tuple[int, list[tuple[Vector, int]]]:
    """Rank and facets of the cone spanned by a list of integer vectors.

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
    j-th, and is signed by the pivot).  The remaining generators follow in
    sorted order, added by ``_double_description``.  Integers only.  A
    Newton polyhedron's basis is known without the elimination, so
    ``newton_polyhedron_facets`` writes its rays down and calls
    ``_double_description`` itself.

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
    D = len(gens[0])
    order = sorted(range(len(gens)), key=gens.__getitem__)
    N = len(order)
    rows = [[*row, *[0] * D] for row in zip(*(gens[k] for k in order))]
    for i, row in enumerate(rows):
        row[N + i] = 1
    pivots, a, lam = _gauss_jordan(rows, N)
    if not pivots:
        raise InvariantViolation("cone generators are all zero")
    rank = len(pivots)
    full = sum(1 << order[c] for c in pivots)
    sign = 1 if lam > 0 else -1
    rays = []
    for c, row in zip(pivots, a):
        y = row[N:]
        q = sign * gcd(*y)
        rays.append((tuple([x // q for x in y]), full & ~(1 << order[c])))
    basis = set(pivots)
    return rank, _double_description(
        rays, rank, [(gens[k], 1 << k) for c, k in enumerate(order) if c not in basis])


def _double_description(rays, rank: int, gens) -> list[tuple[Vector, int]]:
    """The extreme rays of the dual cone {y : y . g >= 0} with their
    zero-set masks, from those of a starting cone of the same rank
    (``rays``, ``(y, zeros)`` pairs) and the generators still to add
    (``gens``, ``(g, bit)`` pairs, taken in order).

    A ray on the positive and one on the negative side of the new
    constraint are adjacent when their common zero set Z has at least
    rank - 2 generators and no third ray vanishes on all of Z; each
    adjacent pair gives one new ray in the new hyperplane, over its gcd.
    """
    for g, bit in gens:
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
        if pos and neg:
            masks = [z for _, z in rays]
            for p, zp, sp in pos:
                for n, zn, sn in neg:
                    z = zp & zn
                    if z.bit_count() < rank - 2:
                        continue
                    seen = 0  # rays vanishing on z: adjacent iff only p and n
                    for m in masks:
                        if m & z == z:
                            seen += 1
                            if seen > 2:
                                break
                    else:
                        v = [sp * x - sn * y for x, y in zip(n, p)]
                        q = gcd(*v)
                        kept.append((tuple([x // q for x in v]), z | bit))
        rays = kept
    return rays


def _vertices(mask: int, masks) -> list[int]:
    """The vertices of the face ``mask``, as its bit positions, lowest
    first, read off ``masks``, the zero-set masks of the facets of
    ``mask`` itself or of a face that holds it: bit i is a vertex iff the bits
    of ``mask`` on every facet through it are bit i alone (Kaibel &
    Pfetsch, Comput. Geom. 23, 2002).  Bits outside ``mask``, such as a
    Newton polyhedron's recession axes, are ignored; a bit on no facet is
    a vertex only when it is the only bit of ``mask``.

    The triangle (0, 0), (2, 0), (0, 1) with (1, 0) on an edge, bit i for
    the i-th point, and that edge:

    >>> _vertices(0b1111, [0b0111, 0b1001, 0b1100])
    [0, 2, 3]
    >>> _vertices(0b0111, [0b0111, 0b1001, 0b1100])
    [0, 2]
    """
    out = []
    for i in _bits(mask):
        common = mask
        for z in masks:
            if z >> i & 1:
                common &= z
        if common == 1 << i:
            out.append(i)
    return out


def convex_hull(points):
    """Exact hull of integer points: (vertices, dim, facets).

    One ``cone_facets`` call on the sorted distinct points, lifted to
    height one as they are, gives the facets' zero-set masks, off which
    ``_vertices`` reads the vertices of the whole set, and the rank, which
    is the dimension plus one.
    Facets are reported for full-dimensional hulls only, as the sorted
    ``(normal, offset, zeros)`` triples of ``newton_polyhedron_facets``,
    bit i of ``zeros`` for the i-th sorted distinct point; a
    lower-dimensional hull gets ``[]``.

    >>> convex_hull([(2, 0), (0, 2), (1, 1), (0, 0), (2, 0)])
    ([(0, 0), (0, 2), (2, 0)], 2, [((-1, -1), -2, 14), ((0, 1), 0, 9), ((1, 0), 0, 3)])
    """
    pts = sorted({tuple(map(index, p)) for p in points})
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    d = len(pts[0])
    if d < 1 or any(len(p) != d for p in pts):
        raise ValueError("points must share a positive ambient dimension")
    rank, cone = cone_facets([(1,) + p for p in pts])
    vertices = [pts[i] for i in _vertices((1 << len(pts)) - 1, [z for _, z in cone])]
    if rank <= d:
        return vertices, rank - 1, []
    return vertices, d, sorted((y[1:], -y[0], z) for y, z in cone)


class NewtonPolyhedron(list):
    """The sorted ``(normal, offset, zeros)`` facets of a Newton
    polyhedron, with ``points``, the sorted distinct support whose bits
    the masks index."""


def newton_polyhedron_facets(points, d: int) -> NewtonPolyhedron:
    """Facets of conv(points) + R_+^d.

    Returns sorted (normal, offset, zeros) triples: the primitive inner
    normal (componentwise nonnegative), its minimum value, and the facet's
    zero-set mask, with bit i for the i-th sorted distinct point on the
    facet and bit n + j for the recession axis j in it (the normal's zero
    components), n points in all.  The list carries those sorted points
    as ``points``, and the walks of its faces take it alone.

    The cone over the points lifted to height one and the axes at height
    zero is built by ``_double_description`` from a closed-form
    start: sorted, the axes come first, and they and the lowest point p0
    are a unimodular basis whose dual rays need no elimination.  They are
    the rows that ``cone_facets``' elimination would give, in its order,
    so the facets, masks and steps are the same.

    The cusp ``z1^2 + z2^3 - s``, with points (0, 0, 3), (0, 2, 0) and
    (1, 0, 0) as bits 0 to 2 and the axes as bits 3 to 5: three
    coordinate facets and the compact facet through all three points.

    >>> P = newton_polyhedron_facets([(1, 0, 0), (0, 2, 0), (0, 0, 3)], 3)
    >>> for a, c, zeros in P:
    ...     print(a, c, f"{zeros:06b}")
    (0, 0, 1) 0 011110
    (0, 1, 0) 0 101101
    (1, 0, 0) 0 110011
    (6, 3, 2) 6 000111
    >>> P.points
    [(0, 0, 3), (0, 2, 0), (1, 0, 0)]
    """
    pts = sorted({tuple(map(index, p)) for p in points})
    if not pts:
        raise ValueError("empty support")
    if any(len(p) != d for p in pts):
        raise ValueError(f"support points must have {d} coordinates")
    # the rays of axis d, ..., axis 1, then p0: e_j - p0_j e_0 is zero on
    # p0 (bit 0) and on every axis but j, e_0 on every axis
    n, p0 = len(pts), pts[0]
    axes = ((1 << d) - 1) << n
    rays = [((-p0[j],) + (0,) * j + (1,) + (0,) * (d - 1 - j), axes ^ 1 << n + j | 1)
            for j in reversed(range(d))] + [((1,) + (0,) * d, axes)]
    cone = _double_description(
        rays, d + 1, [((1,) + p, 1 << i) for i, p in enumerate(pts[1:], 1)])
    # the normal with a = 0 is the facet at infinity, not a facet of the
    # polyhedron
    P = NewtonPolyhedron(sorted((y[1:], -y[0], z) for y, z in cone if any(y[1:])))
    P.points = pts
    return P


def compact_faces(facets) -> list[tuple[tuple[Vector, ...], int]]:
    """Sorted ``(support_points, dim)`` of the compact faces of the Newton
    polyhedron ``facets`` (``newton_polyhedron_facets``), walked down from
    its facets a dimension per level on their masks; a face is compact
    when it holds no recession axis (no bit from n up), and nonempty.

    The walk starts at the facets whose normal has at least two nonzero
    entries.  A compact face G is cut out by a covector w > 0, a
    nonnegative sum of the normals of the facets through G; were they all
    unit vectors, w > 0 would need all d of them, G would be the
    componentwise least point and P the orthant p + R_+^d.  So when P is
    not an orthant every compact face lies in one of those facets (on a
    convenient germ, the compact facets), and an orthant, whose facets all
    have unit normals, is walked from all of them.

    Each face of a level keeps the facet list of the face it was split
    from (all of P's masks at the top): every facet of a face G is G's
    intersection with a facet of a face that G is a facet of, so a face
    that is not a simplicial cone is cut on that list alone
    (``_face_facets``).  A face of dimension k whose mask has k + 1 bits
    (points and recession axes) is a simplicial cone: its facets are the
    k + 1 masks with one bit cleared, so it is split with no scan.

    >>> S = [(2, 0), (0, 3), (1, 2)]   # the cusp; (1, 2) lies above the edge
    >>> compact_faces(newton_polyhedron_facets(S, 2))
    [(((0, 3),), 0), (((2, 0),), 0), (((0, 3), (2, 0)), 1)]
    >>> compact_faces(newton_polyhedron_facets([(2, 3)], 2))   # an orthant
    [(((2, 3),), 0)]
    """
    pts = facets.points
    n = len(pts)
    masks = [z for _, _, z in facets]
    seeds = [z for a, _, z in facets if sum(map(bool, a)) > 1] or masks
    out, low = [], (1 << n) - 1
    level, dim = dict.fromkeys(seeds, masks), len(pts[0]) - 1
    while level:
        # the compact faces inside a face are those on its support points,
        # so one face per point part of a level is expanded; a compact face
        # is the only face of its level on its points, so each is expanded
        below = {}
        for m in {m & low: m for m in level}.values():
            bits = _bits(m)
            if m >> n == 0:
                out.append((tuple(map(pts.__getitem__, bits)), dim))
            found = ([m ^ 1 << i for i in bits] if len(bits) == dim + 1
                     else _face_facets(m, level[m]))
            for f in found:
                if f & low:
                    below[f] = found
        level = below
        dim -= 1
    return sorted(out, key=lambda face: (face[1], face[0]))


@dataclass(frozen=True)
class DiagramFacet:
    """A top-dimensional compact face of a restricted Newton diagram.

    ``normal`` is the unique strictly positive primitive inner normal,
    ``m`` its component in the deformation direction, ``vertices`` the
    face's sorted vertices and ``nvol`` its normalized (|I|-1)-volume.
    A record does not name its index set I: it is the I asked of
    ``diagram_facets``, or the key of its table entry.
    """
    normal: tuple[int, ...]
    m: int
    vertices: tuple[tuple[int, ...], ...]
    nvol: int


def coordinate_facets(facets) -> dict:
    """``{I: records}``: the diagram facets of the coordinate faces
    P ∩ R^I of the Newton polyhedron P with the facets ``facets``
    (``newton_polyhedron_facets``), for the index sets I that hold 0, in
    one ``_walk`` on their masks.  An I whose face holds fewer than |I|
    points, or exactly |I| that span no diagram facet, has no key."""
    pts = facets.points
    n, d = len(pts), len(pts[0])
    cut = {z: y for y, _, z in facets}
    off = [sum(1 << i for i, p in enumerate(pts) if p[j]) | 1 << n + j for j in range(d)]
    return dict(_walk(pts, off, tuple(range(d)), (1 << n + d) - 1, cut, d))


def support_facets(points, d: int) -> list[DiagramFacet]:
    """The diagram facets of conv(points) + R_+^d, for distinct points of
    Z^d: its facets with a strictly positive normal, sorted by normal, read
    by the point count.

    More than d points are read off ``newton_polyhedron_facets`` as it is
    (``_records``, no face cut).  At most d build no polyhedron: a diagram
    facet holds d affinely independent points, so they have at most one,
    the simplex of exactly d, and one ``_gauss_jordan`` of ``[rows | 1]``
    decides it.  Fewer than d pivots mean fewer than d rows, which have
    none, or dependent points: they lie on a hyperplane through the
    origin, and one with a positive normal holds no point of Z^d_+ but 0,
    so they span no diagram facet.  Otherwise the
    right-hand column times the sign of the pivot p is a y with
    ``y . row = |p|`` on every row, and ``|p| = |det(rows)|`` is the
    simplex's pyramid volume.  The simplex is a facet iff every entry of
    y is positive: a zero entry puts a recession axis in the face, and a
    negative one leaves the hyperplane supporting no face.

    >>> support_facets([(1, 0, 0), (0, 2, 0), (0, 0, 3)], 3)
    [DiagramFacet(normal=(6, 3, 2), m=6, vertices=((0, 0, 3), (0, 2, 0), (1, 0, 0)), nvol=1)]
    >>> support_facets([(1, 0), (1, 2)], 2)   # y = (1, 0): the face holds axis 1
    []
    """
    if len(points) > d:
        P = newton_polyhedron_facets(points, d)
        return _records(range(d), P.points, {z: y for y, _, z in P})
    rows = sorted(points)
    pivots, a, p = _gauss_jordan([[*row, 1] for row in rows], d)
    if len(pivots) < d:
        return []
    sign = 1 if p > 0 else -1
    y = tuple([sign * row[d] for row in a])
    if all(x > 0 for x in y):
        return [_record(range(d), y, rows, abs(p))]
    return []


def _records(coords, pts, cut) -> list[DiagramFacet]:
    """The diagram facets, sorted by normal, of the face P ∩ R^I of a
    Newton polyhedron P = conv(pts) + R_+^d: ``coords`` are the positions
    of I in R^d.

    ``cut`` maps each facet mask of the face to the normal y of a facet of
    P that cuts it out.  A compact facet G (no recession axis) has y
    nonzero on ``coords``, and y there is a positive multiple of G's
    normal ``a``.  G lies on ``a . x = c`` with the offset ``c >= 1``, so
    the determinants of the simplices of its pulling triangulation on the
    face's facet masks, taken on its points as they are, sum to
    ``c * nvol``.  The points of the compact facets, and no others, are
    projected to R^I once.  Each G's mask is read once: a G of |I| points
    is a simplex, so that sum is one ``|int_det|`` of its points, which
    are all its vertices; any other G has its own facets found once on the
    face's facet masks (``_face_facets(g, cut)``), and both its vertex read
    and its pulling triangulation take that one list.
    """
    compact = {g: y for g, y in cut.items() if not g >> len(pts)}
    read = 0
    for g in compact:
        read |= g
    proj = {i: tuple(map(pts[i].__getitem__, coords)) for i in _bits(read)}
    out = []
    for g, y in compact.items():
        bits = _bits(g)
        if len(bits) == len(coords):
            rows = [proj[i] for i in bits]
            volume = abs(int_det(rows))
        else:
            found = _face_facets(g, cut)
            rows = [proj[i] for i in _vertices(g, found)]
            volume = _pulled_volume(g, len(coords) - 1, proj, found, ())
        out.append(_record(coords, y, rows, volume))
    return sorted(out, key=lambda f: f.normal)


def _record(coords, y, rows, volume) -> DiagramFacet:
    """The diagram facet with the vertices ``rows``, in R^I (``coords``
    the positions of I in R^d), cut out by the facet of P with normal
    ``y``, whose pyramid from the origin has the normalized volume
    ``volume``."""
    a = primitive(tuple(map(y.__getitem__, coords)))
    nvol, rem = divmod(volume, _dot(a, rows[0]))
    if rem:
        raise InvariantViolation("pyramid volume is not a multiple of its height")
    return DiagramFacet(a, a[0], tuple(rows), nvol)


def _walk(pts, off, I, face, cut, top, simplex=None):
    """Yield ``(I, records)`` for I and for each index set below it that
    it reads: a face of more than |I| points, or of exactly |I| with a
    diagram facet.

    A depth-first walk down the subset lattice from P: it drops one
    coordinate j >= 1 at a time, in decreasing position (those before
    position ``top``), so that each I is visited once.  With ``off[j]``
    the points with x_j > 0 and the recession axis j, P ∩ R^(I∖j) is the
    face ``face`` of P ∩ R^I minus ``off[j]``; a face with no point ends
    its subtree.  Every facet of a face is its intersection with one facet
    of any face above it, cut out by the same facet of P, so each mask of
    ``cut``, met with the face, keeps that P-normal on the way down.

    A compact facet needs |I| independent points, so a face of fewer has
    no record and is not read.  A face of more is cut on the meets of the
    facets of the nearest face above it that was cut (P's own at the top),
    and ``_records`` reads its diagram facets, vertices included, off that
    cut alone.  A face of exactly |I| points builds nothing: its one
    possible compact facet is the simplex of those points, which is a
    facet iff a mask of the cut above meets the face in exactly them and
    their volume is not 0, measured by one ``|int_det|``.  That mask's
    P-normal is positive on I, since the meet holds no axis of I, and any
    facet of P through the simplex gives ``_record`` the same primitive
    normal.  Its cut goes down as it came, since a face below meets it
    with its own face, which gives the same masks.

    Such a facet hands its P-normal and volume down (``simplex``) to a face
    that loses exactly one of its points p, the one with x_j > 0: that face
    is the facet's own facet on the same normal, of volume the facet's over
    p_j (Laplace along column j), read with no scan and no determinant.
    """
    points = face & (1 << len(pts)) - 1
    if simplex is None and points.bit_count() > len(I):
        if len(I) < len(off):
            meet = {g & face: y for g, y in cut.items()}
            cut = {g: meet[g] for g in _face_facets(face, meet)}
        yield I, _records(I, pts, cut)
    elif simplex or points.bit_count() == len(I):
        rows = [tuple(map(pts[i].__getitem__, I)) for i in _bits(points)]
        if simplex is None and (
                y := next((y for g, y in cut.items() if g & face == points), None)):
            if volume := abs(int_det(rows)):
                simplex = y, volume
        if simplex:
            yield I, [_record(I, simplex[0], rows, simplex[1])]
    for k in range(top - 1, 0, -1):
        j = I[k]
        if (below := face & ~off[j]).bit_count() >= len(I):  # a point
            lost, inherited = points & off[j], None
            if simplex and lost.bit_count() == 1:
                volume, rem = divmod(simplex[1], pts[lost.bit_length() - 1][j])
                if rem:
                    raise InvariantViolation("a simplex volume is not a multiple "
                                             "of its dropped vertex's coordinate")
                inherited = simplex[0], volume
            yield from _walk(pts, off, I[:k] + I[k + 1:], below, cut, k, inherited)


# ---------------------------------------------------------------------------
# lattice polytopes and volumes

@dataclass(frozen=True)
class LatticePolytope:
    """Hull of finitely many integer points, stored by its vertex list.

    ``LatticePolytope(vertices)`` takes a nonempty sequence of integer
    points of one length, the ambient dimension, and stores them as
    tuples; ``from_points`` reduces a point set to its true vertices.
    """
    vertices: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           tuple(tuple(map(index, v)) for v in self.vertices))
        if not self.vertices:
            raise ValueError("a polytope needs at least one vertex")
        if any(len(v) != self.ambient_dim for v in self.vertices):
            raise ValueError("vertex dimension mismatch")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @classmethod
    def from_points(cls, points) -> "LatticePolytope":
        """The hull of a nonempty point set, by one ``convex_hull``."""
        return cls(tuple(convex_hull(points)[0]))


def _minimizers(points, alpha) -> tuple[int, list]:
    """The minimum of a strictly positive covector and the points at it.

    >>> _minimizers([(1, 0), (0, 2), (2, 1)], (2, 1))
    (2, [(1, 0), (0, 2)])
    """
    if len(alpha) != len(points[0]):
        raise ValueError("covector dimension mismatch")
    if any(a <= 0 for a in alpha):
        raise ValueError("covector must be strictly positive in all components")
    values = [_dot(alpha, p) for p in points]
    m = min(values)
    return m, [p for p, v in zip(points, values) if v == m]


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
        for f in found:
            if m & f == m:
                break
        else:
            found.append(m)
    return found


def _pulled_volume(mask: int, dim: int, pts, facet_masks, apexes) -> int:
    """Sum of |det| over the pulling triangulation of the face ``mask`` of
    dimension ``dim``, whose own facets are ``facet_masks``: pull its
    lowest point (appended to ``apexes``) over each facet that misses it
    (De Loera, Rambau & Santos, *Triangulations*, 2010).  A facet of
    ``dim`` points is a simplex, measured in place by one determinant of
    its rows, the apexes and its own points, in Z^(dim + 1); any other is
    pulled in turn on its own facets, cut on ``facet_masks``
    (``_face_facets``), since every facet of a facet is its intersection
    with one of them.  On a hyperplane ``a . x = c``, ``a`` primitive and
    ``c >= 1``, the sum is ``c`` times the face's normalized volume, its
    pyramid's from the origin (``c = 1`` for points lifted to height
    one)."""
    low = mask & -mask
    apexes += (pts[low.bit_length() - 1],)
    return sum(abs(int_det([*apexes, *map(pts.__getitem__, _bits(f))]))
               if f.bit_count() == dim
               else _pulled_volume(f, dim - 1, pts, _face_facets(f, facet_masks), apexes)
               for f in facet_masks if not f & low)


def _saturate(point_sets) -> tuple[int, list[list[Vector]]]:
    """``(r, mapped)``: the rank of the nonempty sets' common direction
    space and each set, moved by its first point, in coordinates of that
    space's saturation lattice (its real span intersected with Z^D).

    One Smith normal form ``M = U D V`` of the stacked differences gives
    both: the basis is ``saturation_basis``'s, the first r rows of V, and
    row i of M has coordinates ``U[i][s] D[s][s]``, s < r, in it.

    >>> r, (segment,) = _saturate([[(2, 0), (0, 2)]])
    >>> r, segment, _measure(segment, r)
    (1, [(0,), (-2,)], 2)
    """
    diffs = [[_sub(p, ps[0]) for p in ps[1:]] for ps in point_sets]
    U, D, _ = smith_normal_form([v for ds in diffs for v in ds])
    diag = [row[s] for s, row in enumerate(D) if s < len(row) and row[s]]
    r = len(diag)
    coords = iter([tuple(map(mul, u, diag)) for u in U])
    return r, [[(0,) * r] + [next(coords) for _ in ds] for ds in diffs]


def _as_is(pts, m: int) -> bool:
    """Whether ``_measure`` takes pts at dimension m as they are, saturated
    or not: m + 1 points of Z^k with k <= m + 1, which have at most m + 1
    maximal minors.  Above that the minors number C(k, m) (24 310 for an
    8-simplex in Z^17), so larger ambient spaces are saturated first."""
    return len(pts) == m + 1 and len(pts[0]) <= m + 1


def _measure(pts, m: int) -> int:
    """m! vol_m of the hull of points of Z^k, measured in the saturation
    lattice of their direction space; 0 below dimension m, and
    ``ValueError`` above it.

    Exactly m + 1 points, with k <= m + 1 (``_as_is``), take one rule
    whether their coordinates are saturated or not: the gcd of the m x m
    minors of their edge matrix, its m-th determinantal divisor, is the
    index of the edge lattice in its saturation, which is the simplex's
    normalized volume, and 0 when the points are flat (Newman, *Integral
    Matrices*, 1972).
    For k = m that is one ``|det|``; for k = m + 1 there are at most m + 1
    minors, and the loop stops once the gcd is 1.  Any other set in k > m
    dimensions is moved into its saturation lattice (``_saturate``), of
    rank r <= m, and measured there.  In Z^k with k <= m, fewer than
    m + 1 points, or k < m, give 0 at once, and larger sets are lifted and
    pulled on the masks of one ``cone_facets`` call.

    >>> _measure([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2)  # a triangle in Z^3
    1
    >>> _measure([(0, 0, 0), (2, 0, 2), (0, 2, 2)], 2)
    4
    >>> _measure([(0, 0, 0), (2, 0, 2), (0, 2, 2), (2, 2, 4)], 2)  # saturated
    8
    >>> _measure([(0, 0), (2, 1), (1, 3)], 2)
    5
    >>> _measure([(0,), (1,), (2,)], 2)  # three points of a line
    0
    >>> _measure([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 2)
    Traceback (most recent call last):
    ValueError: polytope dimension exceeds the requested dimension
    """
    if _as_is(pts, m):
        edges = [_sub(p, pts[0]) for p in pts[1:]]
        g = 0
        for cols in combinations(range(len(pts[0])), m):
            g = gcd(g, int_det([[e[c] for c in cols] for e in edges]))
            if g == 1:
                break
        return g
    if len(pts[0]) > m:
        r, (pts,) = _saturate([pts])
        if r > m:
            raise ValueError("polytope dimension exceeds the requested dimension")
        return _measure(pts, m)
    if len(pts) <= m or len(pts[0]) < m:
        return 0
    rank, cone = cone_facets(lifted := [(1,) + p for p in pts])
    return 0 if rank <= m else _pulled_volume(
        (1 << len(pts)) - 1, m, lifted, [z for _, z in cone], ())


def normalized_volume(P: LatticePolytope) -> int:
    """l! times the lattice volume of P, l = affine dimension.

    The lattice volume is measured in the saturation lattice of the
    direction space, i.e. normalized so the minimal parallelepiped with
    integer vertices has volume 1.  A point gives 1.
    """
    l, (pts,) = _saturate([P.vertices])
    return _measure(pts, l)


def normalized_volume_at(P: LatticePolytope, l: int) -> int:
    """Like normalized_volume but measured in target dimension l: returns 0
    when P has affine dimension below l and refuses one above it.  The
    vertices go to ``_measure`` as they are, which saturates them only
    when they need it.

    >>> P = LatticePolytope(((0, 0, 0), (2, 0, 2), (0, 2, 2), (2, 2, 4)))
    >>> normalized_volume_at(P, 2), normalized_volume_at(P, 3)
    (8, 0)
    """
    if l < 0:
        raise ValueError("dimension must be nonnegative")
    return _measure(P.vertices, l)


# ---------------------------------------------------------------------------
# Minkowski sums and mixed volumes

def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return LatticePolytope.from_points(
        [_add(p, q) for p in P.vertices for q in Q.vertices])


def mixed_volume(bodies) -> Fraction:
    """Minkowski mixed volume of m lattice polytopes.

    The bodies must fit a common m-dimensional lattice direction space;
    volumes are measured in its saturation lattice and normalized so that
    ``mixed_volume([K]*m)`` is the lattice volume of K (not multiplied by
    m factorial).  In general ``m!^2 V`` is the alternating sum, over the
    nonempty subsets J of the bodies, of ``(-1)^(m - |J|)`` times ``m!``
    times the volume of the Minkowski sum of J (Schneider, *Convex Bodies:
    The Brunn-Minkowski Theory*, 2014, section 5.1).
    """
    Ks = list(bodies)
    m = len(Ks)
    if m == 0:
        raise ValueError("need at least one body")
    if any(K.ambient_dim != Ks[0].ambient_dim for K in Ks):
        raise ValueError("ambient dimension mismatch")
    r, mapped = _saturate([K.vertices for K in Ks])
    if r > m:
        raise ValueError("bodies do not fit a common m-dimensional direction space")
    return _mixed(mapped)


def _mixed(point_sets) -> Fraction:
    """``mixed_volume`` of m point sets in ``_saturate`` coordinates; 0 below rank m."""
    sets = [set(ps) for ps in point_sets]
    m = len(sets)
    if all(P == sets[0] for P in sets):  # V is the volume of K
        return Fraction(_measure(sorted(sets[0]), m), factorial(m))
    total = 0
    for bits in range(1, 1 << m):
        chosen = [sets[i] for i in range(m) if bits >> i & 1]
        T = chosen[0]
        for P in chosen[1:]:
            T = {_add(p, q) for p in T for q in P}
        total += (-1) ** (m - len(chosen)) * _measure(sorted(T), m)
    return Fraction(total, factorial(m) ** 2)
