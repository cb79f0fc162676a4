"""Shared generators and small independent oracles for the test suite."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb, factorial, gcd, lcm, sqrt
from operator import index, mul
from random import Random
from unittest.mock import patch

from newtonzeta.diagram import (
    DiagramFacet,
    IdentityInapplicable,
    _normalize_index_set,
    diagram_facets,
)
from newtonzeta.factored import FactoredZeta, factor, one, product
from newtonzeta import cli
from newtonzeta.germ import (
    _OTHER,
    Exponent,
    GermSeries,
    ParseError,
    _check_names,
    _monomial_string,
    _names_of,
    check_z_variables,
    index_sets_with_zero,
    make_germ,
    restrict_support,
    support,
)
from newtonzeta.lattice import (
    InvariantViolation,
    LatticePolytope,
    Vector,
    _bits,
    _dot,
    _face_facets,
    _gauss_jordan,
    _minimizers,
    _sub,
    _vertices,
    cone_facets,
    convex_hull,
    coords_in_basis,
    int_det,
    mat_rank,
    minkowski_sum,
    mixed_volume,
    newton_polyhedron_facets,
    normalized_volume,
    normalized_volume_at,
    primitive,
    saturation_basis,
    smith_normal_form,
)
from newtonzeta.nondegeneracy import COUNTEREXAMPLE, VERIFIED, FaceVerdict
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


# ---------------------------------------------------------------------------
# hyperplanes through d - 1 directions: the brute-force facet searches and
# the codimension-one branch of the bounded-hull diagram facets use them


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
    every choice of both, with zero-set masks taken by dot products."""
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
    n = len(pts)
    return [(a, c, sum(1 << i for i, p in enumerate(pts) if _dot(a, p) == c)
             | sum(1 << n + j for j in range(d) if a[j] == 0))
            for a, c in sorted(found)]


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


def series_coefficients(z: FactoredZeta, order: int) -> list[int]:
    """Power-series coefficients of z up to t^order, by multiplying and
    dividing by each 1 - t^m in turn: an oracle of ``==`` and ``*`` that
    never reads the cyclotomic multiplicities.

    >>> series_coefficients(factor(1, -1), 3), series_coefficients(factor(2), 3)
    ([1, 1, 1, 1], [1, 0, -1, 0])
    """
    c = [1] + [0] * order
    for m, e in z.factors:
        for _ in range(abs(e)):
            if e > 0:  # multiply by (1 - t^m)
                for k in range(order, m - 1, -1):
                    c[k] -= c[k - m]
            else:  # divide by (1 - t^m)
                for k in range(m, order + 1):
                    c[k] += c[k - m]
    return c


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
    pulling triangulation used by the library.
    """
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
        for a, c, _ in facets:
            dist = _dot(a, q) - c
            if dist == 0:
                continue
            fpts = [p for p in verts if _dot(a, p) == c]
            total += dist * rec(to_full_dim(fpts), l - 1)
        return total

    pts = sorted(set(tuple(p) for p in points))
    _, dim, _ = convex_hull(pts)
    if dim == 0:
        return 1
    return rec(to_full_dim(pts), dim)


# ---------------------------------------------------------------------------
# quasi-homogeneous deformations, whose monodromy is a periodic map: the
# zeta functions by A'Campo's formula, an oracle of test_quasi_homogeneous
# that reads no Newton polyhedron of F


def random_quasi_homogeneous_germ(rng, n) -> tuple[GermSeries, tuple[int, ...]]:
    """``(F, weights)``: 2 to 6 monomials in (s, z1, ..., zn) of one
    weighted degree D <= 24, for weights 1-8 of s and 1-6 of each z_j,
    with random rational coefficients; drawn again until D has two."""
    while True:
        q0, *q = weights = (rng.randint(1, 8),) + tuple(rng.randint(1, 6) for _ in range(n))
        D = rng.randint(max(weights), 24)
        monomials = [((D - e) // q0,) + z
                     for z in itertools.product(*[range(D // w + 1) for w in q])
                     if (e := _dot(q, z)) <= D and (D - e) % q0 == 0]
        if len(monomials) >= 2:
            chosen = rng.sample(monomials, rng.randint(2, min(6, len(monomials))))
            return (make_germ(n + 1, [(e, random_nonzero_fraction(rng)) for e in chosen]),
                    weights)


def quasi_homogeneous_zeta(F: GermSeries, weights) -> tuple[FactoredZeta, FactoredZeta]:
    """``(torus, affine)``: the monodromy zeta functions of F(s, z) = 0 in
    the torus and in affine space, F quasi-homogeneous for the positive
    ``weights`` (q_0 of s, q_j of z_j), by A'Campo's formula for a periodic
    map (Comment. Math. Helv. 50, 1975).

    As s goes once round 0, the fibre V = {F(s, .) = 0} comes back by
    h(z)_j = exp(2 pi i q_j / q_0) z_j, so Fix h^k is V ∩ C^(J_k), J_k the
    j with q_0 | k q_j, and zeta = prod (1 - t^m)^(s_m) with
    m s_m = sum over d | m of mu(m / d) chi(Fix h^d), the same convention
    as the package's (Milnor & Orlik, Topology 9, 1970).  chi(V ∩ C^J) is
    1 for the origin when F has no pure-s term, plus, for each nonempty
    K ⊆ J, (-1)^(|K|-1) times the normalized volume of the Newton polytope
    of F(1, .) on the torus (C*)^K when it is full-dimensional there, and
    0 otherwise (Kouchnirenko, Invent. Math. 32, 1976; Khovanskii, Funct.
    Anal. Appl. 11, 1977); the torus keeps K = every coordinate alone.
    Valid for generic coefficients.  The volumes come from
    ``nvol_boundary_recursion``."""
    q0, *q = weights
    n = len(q)
    points = [e[1:] for e in F.terms]

    def torus_chi(K):
        on = {tuple(p[j] for j in K) for p in points
              if not any(p[j] for j in range(n) if j not in K)}
        if len(on) < 2 or convex_hull(on)[1] < len(K):
            return 0
        return (-1) ** (len(K) - 1) * nvol_boundary_recursion(on)

    chi = {K: torus_chi(K) for r in range(1, n + 1)
           for K in itertools.combinations(range(n), r)}

    def zeta(fixed):
        # fixed(J): chi of the points of V whose coordinates off J are 0
        exponents = {}
        for m in range(1, q0 + 1):
            if q0 % m == 0:
                total = sum(_mobius(m // d) * fixed({j for j in range(n) if d * q[j] % q0 == 0})
                            for d in range(1, m + 1) if m % d == 0)
                exponents[m], rem = divmod(total, m)
                assert rem == 0, (F, weights, m)
        return product(factor(m, e) for m, e in exponents.items())

    everything = tuple(range(n))
    origin = all(map(any, points))
    return (zeta(lambda J: chi[everything] if len(J) == n else 0),
            zeta(lambda J: origin + sum(c for K, c in chi.items() if J.issuperset(K))))


# ---------------------------------------------------------------------------
# two composition relations of monodromy zeta functions, neither of them
# Varchenko's sum: the Thom-Sebastiani join of germs in disjoint variables
# and the base change s -> s^k; oracles of test_composition


def random_weighted_homogeneous_germ(rng, n) -> GermSeries:
    """A convenient germ f(z1, ..., zn), n >= 1, whose diagram is one
    compact facet: the pure powers z_j^(a_j), a_j in 2-6, and one to three
    more monomials on the facet through them, all with random rational
    coefficients.  A facet of more than n points is not a simplex, so its
    volume comes from the pulling triangulation."""
    a = [rng.randint(2, 6) for _ in range(n)]
    D = lcm(*a)
    pure = [tuple(x if i == j else 0 for j in range(n)) for i, x in enumerate(a)]
    on = [b for b in itertools.product(*[range(x + 1) for x in a])
          if sum(D // x * y for x, y in zip(a, b)) == D and b not in pure]
    extra = rng.sample(on, min(len(on), rng.randint(1, 3)))
    return make_germ(n + 1, [((0,) + b, random_nonzero_fraction(rng)) for b in pure + extra])


def join_germ(f: GermSeries, g: GermSeries) -> GermSeries:
    """f(z') + g(z''), for germs in the z-variables only, in disjoint
    variables: f's first, then g's."""
    a, b = f.num_vars - 1, g.num_vars - 1
    return make_germ(1 + a + b,
                     [((0,) + e[1:] + (0,) * b, c) for e, c in f.terms.items()]
                     + [((0,) * (1 + a) + e[1:], c) for e, c in g.terms.items()])


def join_zeta(zf: FactoredZeta, zg: FactoredZeta) -> FactoredZeta:
    """The classical zeta function of f + g in disjoint variables from
    those of f and g (Sebastiani & Thom, Invent. Math. 13, 1971): the
    Milnor fibre of the sum is the join of theirs, and its monodromy on
    reduced homology is the tensor product of theirs.  With
    zeta~ = zeta / (1 - t) = prod (1 - t^m)^(e_m), the exponent of
    (1 - t^l) in zeta~ of the sum is -sum e_m e'_k gcd(m, k) over
    lcm(m, k) = l, by the divisor calculus
    Lambda_a Lambda_b = gcd(a, b) Lambda_lcm(a, b) (Milnor & Orlik,
    Topology 9, 1970).

    >>> join_zeta(factor(2), factor(3)).pretty()  # z1^2 + z2^3, the cusp
    '(1-t^2) (1-t^3) (1-t^6)^-1'
    """
    ef, eg = (factor(1, -1) * zf).factors, (factor(1, -1) * zg).factors
    return factor(1) * product(factor(lcm(m, k), -e * d * gcd(m, k))
                               for m, e in ef for k, d in eg)


def stretch_germ(F: GermSeries, k: int) -> GermSeries:
    """F(s^k, z): every s-exponent times k."""
    return make_germ(F.num_vars, [((e[0] * k,) + e[1:], c) for e, c in F.terms.items()])


def base_change_zeta(z: FactoredZeta, k: int) -> FactoredZeta:
    """The zeta function of the monodromy's k-th power, which is the
    monodromy of F(s^k, z) = 0 (the fibre over s of the stretched family
    is F's fibre over s^k): each (1 - t^m)^e becomes
    (1 - t^(m/g))^(g e), g = gcd(m, k), since an eigenvalue of order m
    raised to the k-th power has order m/g, g times over.  It holds for
    the torus and the affine zeta functions alike, since s -> s^k maps
    torus points onto torus points.

    >>> base_change_zeta(factor(6, -1) * factor(4), 2).pretty()
    '(1-t^2)^2 (1-t^3)^-2'
    """
    return product(factor(m // gcd(m, k), gcd(m, k) * e) for m, e in z.factors)


# ---------------------------------------------------------------------------
# the hull by dot-product incidences and recursion into the saturation
# lattice, and the two-body polarization mixed volume, which one
# ``cone_facets`` call read through its masks and one inclusion-exclusion
# replaced; kept as oracles of test_hull_pipeline


def _facet_enum_full(pts) -> list[tuple[Vector, int]]:
    """Sorted (inner normal, offset) pairs for a full-dimensional point set."""
    lifted = [(1,) + tuple(p) for p in pts]
    return sorted((y[1:], -y[0]) for y, _ in cone_facets(lifted)[1])


def _vertices_from_facets(pts, plane_facets) -> list[Vector]:
    """The corners among distinct points of a full-dimensional set, or the
    vertices of a Newton polyhedron among its support points.

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


def recursive_convex_hull(points):
    """Exact hull of integer points: (vertices, dim, facets).

    Facets are reported for full-dimensional hulls only, as sorted
    ``(normal, offset, zeros)`` triples: the primitive inner normal, its
    minimum and the bitmask of the sorted distinct points on the facet,
    found by dot products; a lower-dimensional hull gets ``[]``.
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
        facets = [(a, c, sum(1 << i for i, p in enumerate(uniq) if _dot(a, p) == c))
                  for a, c in planes]
        return vertices, dim, facets
    # degenerate: recurse inside the saturation lattice of the direction span
    B = saturation_basis(diffs)
    sat = [coords_in_basis(B, _sub(p, base)) for p in uniq]
    backmap = dict(zip(sat, uniq))
    sverts, _, _ = recursive_convex_hull(sat)
    return sorted(backmap[v] for v in sverts), dim, []


def dilate(P: LatticePolytope, k: int) -> LatticePolytope:
    """k-fold dilation for k >= 0; k = 0 collapses to the origin."""
    if k < 0:
        raise ValueError("negative dilation")
    if k == 0:
        return LatticePolytope.from_points([(0,) * P.ambient_dim])
    return LatticePolytope.from_points(
        [tuple(k * x for x in v) for v in P.vertices])


def _lattice_volume(K: LatticePolytope, m: int) -> Fraction:
    return Fraction(normalized_volume_at(K, m), factorial(m))


def _two_body_polarization(K0, K1, j: int, m: int) -> Fraction:
    vols = [_lattice_volume(minkowski_sum(K0, dilate(K1, s)), m)
            for s in range(m + 1)]
    coeffs = fraction_solve_poly_values(vols)
    return coeffs[j] / comb(m, j)


def polarization_mixed_volume(bodies) -> Fraction:
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


# ---------------------------------------------------------------------------
# Fraction Gauss-Jordan eliminations: the routines the fraction-free kernel
# ``lattice._gauss_jordan`` replaced, kept as oracles for test_elimination;
# the interpolation solve backs the polarization oracle above


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


# ---------------------------------------------------------------------------
# Smith normal form with separate Euclidean re-pivots on the column and the
# row: the loop ``lattice.smith_normal_form`` replaced, kept as its oracle
# in test_lattice


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def euclid_smith_normal_form(M):
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


# ---------------------------------------------------------------------------
# diagram facets through a bounded hull: the path that reading them off the
# Newton polyhedron replaced, kept as the oracle of test_diagram_facets


def hull_diagram_facets(F: GermSeries, I) -> list[DiagramFacet]:
    """The (|I|-1)-dimensional compact faces with strictly positive normal.

    Returns one facet record per face, sorted by normal; empty when the
    restricted support is empty or too low-dimensional.
    """
    idx = _normalize_index_set(F, I)
    d = len(idx)
    S = sorted(restrict_support(support(F), idx))
    if not S:
        return []
    _, dim, hull_facets = convex_hull(S)
    out = []
    if dim == d:
        for a, c, _ in hull_facets:
            if all(x > 0 for x in a):
                face_pts = [p for p in S if _dot(a, p) == c]
                face = LatticePolytope.from_points(face_pts)
                out.append(DiagramFacet(a, a[0], face.vertices, normalized_volume(face)))
    elif dim == d - 1:
        # the whole hull is the only candidate; it is a diagram facet iff
        # one of the two primitive normals of its affine span is positive
        base = S[0]
        w = orthocomplement_line([_sub(p, base) for p in S[1:]], d)
        for a in (w, _neg(w)):
            if all(x > 0 for x in a):
                face = LatticePolytope.from_points(S)
                out.append(DiagramFacet(a, a[0], face.vertices, normalized_volume(face)))
                break
    out.sort(key=lambda f: f.normal)
    return out


def index_set_zeta(F: GermSeries, I) -> FactoredZeta:
    """The factor of one index set I (a sorted tuple holding 0): one
    (1 - t^m)^((-1)^(|I|-2) nvol) per record of ``diagram_facets(F, I)``,
    the sign taken from I, which the records do not name."""
    sign = (-1) ** len(I)  # = (-1)^(|I|-2), an int for |I| = 1 too
    return product(factor(f.m, sign * f.nvol) for f in diagram_facets(F, I))


def per_index_set_zeta(F: GermSeries) -> tuple[FactoredZeta, FactoredZeta]:
    """``(zeta_torus(F), zeta_full(F))`` with a Newton polyhedron per index
    set (``index_set_zeta``), the path that reading every index set's
    facets off F's one polyhedron replaced."""
    n = F.num_vars - 1
    parts = {I: index_set_zeta(F, I) for I in index_sets_with_zero(n)}
    return parts[tuple(range(n + 1))], factor(1, 1) * product(parts.values())


# ---------------------------------------------------------------------------
# the Cayley identity through lattice polytopes: every base face hulled
# again and one mixed_volume per term, each saturating both faces anew;
# the path that one saturation and the point-set core replaced, kept as the
# oracle of test_identities


def polytope_cayley_identity(f0: GermSeries, f1: GermSeries, I,
                             facet: DiagramFacet) -> bool:
    """``cayley_mixed_volume_identity`` with the right side summed over
    ``mixed_volume`` of the two base faces as ``LatticePolytope``s."""
    idx = _normalize_index_set(f0, I)
    l = len(idx) - 1
    if l <= 1:
        raise IdentityInapplicable("the identity is stated for faces of dimension above 1")
    alpha_z = facet.normal[1:]
    J = idx[1:]
    S0 = sorted(restrict_support(support(f0), J))
    S1 = sorted(restrict_support(support(f1), J))
    if not S0 or not S1:
        raise IdentityInapplicable("a base support is empty; the facet is not of hull type")
    m0, base0 = _minimizers(S0, alpha_z)
    m1, base1 = _minimizers(S1, alpha_z)
    expected = convex_hull([(0,) + v for v in base0] + [(1,) + v for v in base1])[0]
    if tuple(expected) != facet.vertices:
        raise IdentityInapplicable("facet is not the hull of the two base faces")
    face0, face1 = LatticePolytope.from_points(base0), LatticePolytope.from_points(base1)
    lhs = Fraction(facet.nvol, factorial(l - 1))  # = l * V_l(facet)
    rhs = sum(mixed_volume([face0] * (l - 1 - j) + [face1] * j)
              for j in range(l))
    return lhs == rhs and facet.m == m0 - m1


# ---------------------------------------------------------------------------
# the recursive fan triangulation and the pairwise-intersection face closure
# that the facet-bitmask face walk replaced, kept as oracles of
# test_face_walk


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
        coords = [coords_in_basis(B, _sub(p, fbase)) for p in fverts]
        backmap = dict(zip(coords, fverts))
        for fs in _triangulate_full(sorted(coords), l - 1):
            simplices.append((apex,) + tuple(backmap[q] for q in fs))
    return simplices


def _nvol_full(pts, l: int) -> int:
    total = 0
    for simplex in _triangulate_full(sorted(pts), l):
        rows = [_sub(q, simplex[0]) for q in simplex[1:]]
        total += abs(int_det(rows))
    return total


def fan_normalized_volume(points) -> int:
    """Normalized volume of the hull of the points by the fan triangulation:
    the same saturated coordinates as ``normalized_volume``, then
    ``_nvol_full``."""
    verts, dim, _ = convex_hull(points)
    if dim == 0:
        return 1
    base = verts[0]
    diffs = [_sub(v, base) for v in verts]
    B = saturation_basis(diffs[1:])
    return _nvol_full([coords_in_basis(B, v) for v in diffs], dim)


def closure_compact_faces(points, d):
    """Sorted ``(support_points, dim)`` of the compact faces of
    conv(points) + R_+^d: the facets closed under pairwise intersection as
    frozensets of points and axes, each dimension a rank."""
    pts = sorted(set(tuple(p) for p in points))
    n = len(pts)
    seeds = [(frozenset(p for i, p in enumerate(pts) if z >> i & 1),
              frozenset(j for j in range(d) if z >> n + j & 1))
             for _, _, z in newton_polyhedron_facets(pts, d)]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        new = []
        for on1, ax1 in frontier:
            for on2, ax2 in seeds:
                on = on1 & on2
                if not on:
                    continue
                key = (on, ax1 & ax2)
                if key not in seen:
                    seen.add(key)
                    new.append(key)
        frontier = new
    faces = sorted({tuple(sorted(on)) for on, axes in seen if not axes})
    return sorted(((pts, mat_rank([_sub(p, pts[0]) for p in pts[1:]]))
                   for pts in faces), key=lambda face: (face[1], face[0]))


def full_scan_compact_faces(points, d):
    """``compact_faces`` as the walk that cuts every face, simplicial or
    not, by all facet masks of the polyhedron (``_face_facets``)."""
    pts = sorted(set(tuple(p) for p in points))
    n = len(pts)
    masks = [z for _, _, z in newton_polyhedron_facets(pts, d)]
    out, low = [], (1 << n) - 1
    level, dim = set(masks), d - 1
    while level:
        out += [(tuple(p for i, p in enumerate(pts) if m >> i & 1), dim)
                for m in level if m >> n == 0]
        level = {f for m in {m & low: m for m in level}.values()
                 for f in _face_facets(m, masks) if f & low}
        dim -= 1
    return sorted(out, key=lambda face: (face[1], face[0]))


# ---------------------------------------------------------------------------
# edge verdicts through the dense edge polynomial for every edge, over
# Fractions: the path that deciding binomial edges without it, the integer
# remainder sequence of nondegeneracy._poly_rem, the one-solve witness and
# its one critical-zero check replaced, kept as the oracle of
# test_edge_verdicts (``_int_inverse`` also of test_elimination)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _poly_value(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * inv
        q[i] = f
        for j, bc in enumerate(b):
            a[i + j] -= f * bc
    return q, _poly_trim(a)


def fraction_poly_gcd(a, b):
    a = _poly_trim([Fraction(c) for c in a])
    b = _poly_trim([Fraction(c) for c in b])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        inv = Fraction(1) / a[-1]
        a = [c * inv for c in a]
    return a


def fraction_rational_root(p):
    """The rational root of least (|numerator|, denominator), positive
    first, of a nonconstant polynomial with Fraction coefficients, or None.

    Scaled to integers with leading coefficient L, p has the root x iff the
    monic q(y) = L^(n-1) p(y/L) has the integer root L*x.  A Sturm chain
    counts q's real roots between half-integers, which are never roots of
    q; bisection to width one leaves one integer to test per real root.
    """
    den = lcm(*(c.denominator for c in p))
    ip = [int(c * den) for c in p]
    n, lead = len(ip) - 1, ip[-1]
    q = [c * lead ** (n - 1 - i) for i, c in enumerate(ip[:-1])] + [1]
    chain = [q, _poly_deriv(q)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])

    def changes(k):  # sign changes of the chain at k + 1/2
        signs = [v > 0 for v in (_poly_value(f, Fraction(2 * k + 1, 2))
                                 for f in chain) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in q[:-1])  # Cauchy: every root is inside
    roots, cells = [], [(-bound - 1, changes(-bound - 1), bound, changes(bound))]
    while cells:
        a, va, b, vb = cells.pop()
        if va != vb and b - a > 1:
            m = (a + b) // 2
            vm = changes(m)
            cells += [(a, va, m, vm), (m, vm, b, vb)]
        elif va != vb and _poly_value(q, b) == 0:
            roots.append(Fraction(b, lead))
    return min(roots, key=lambda x: (abs(x.numerator), x.denominator, x < 0),
               default=None)


def _evaluate_germ(terms, x):
    total = Fraction(0)
    for e, c in terms:
        v = c
        for xi, k in zip(x, e):
            v *= xi ** k
        total += v
    return total


def _int_inverse(M):
    """Inverse of a unimodular integer matrix: p times the right block of
    ``[M | I]`` after ``_gauss_jordan``, whose pivot p is then +-1."""
    n = len(M)
    pivots, a, p = _gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)], n)
    if len(pivots) < n or abs(p) != 1:
        raise InvariantViolation("unimodular matrix has a non-integer inverse")
    return [[p * x for x in row[n:]] for row in a]


def _complete_unimodular(w):
    """Unimodular integer matrix whose first row is the primitive vector w."""
    _, D, V = smith_normal_form([list(w)])
    if D[0][0] != 1:
        raise InvariantViolation("edge direction is not primitive")
    if tuple(V[0]) != tuple(w):
        V = [[-x for x in V[0]]] + [list(r) for r in V[1:]]
    if tuple(V[0]) != tuple(w):
        raise InvariantViolation("unimodular completion lost the edge direction")
    return [list(r) for r in V]


def dense_edge_verdict(F: GermSeries, pts: tuple[Exponent, ...]) -> FaceVerdict:
    d = F.num_vars
    va, vb = min(pts), max(pts)
    w = primitive(_sub(vb, va))
    i0 = next(i for i in range(d) if w[i])
    coeffs_by_j = {}
    for p in pts:
        j = (p[i0] - va[i0]) // w[i0]
        coeffs_by_j[j] = F.terms[p]
    L = max(coeffs_by_j)
    g = [coeffs_by_j.get(j, Fraction(0)) for j in range(L + 1)]
    h = fraction_poly_gcd(g, _poly_deriv(g))
    if len(h) <= 1:
        return FaceVerdict(pts, 1, VERIFIED)
    # the face polynomial has a multiple torus zero; try to exhibit it as
    # an explicit rational torus point
    root = fraction_rational_root(h)
    witness = None
    if root is not None:
        V = _complete_unimodular(w)
        Vinv = _int_inverse(V)
        witness = tuple(root ** Vinv[i][0] for i in range(d))
        face_terms = [(p, F.terms[p]) for p in pts]
        if _evaluate_germ(face_terms, witness) != 0:
            raise InvariantViolation("witness is not a zero of the face polynomial")
        for i in range(d):
            dterms = [(tuple(k - (1 if t == i else 0) for t, k in enumerate(e)),
                       c * e[i]) for e, c in face_terms if e[i]]
            if _evaluate_germ(dterms, witness) != 0:
                raise InvariantViolation(
                    "witness is not a critical point of the face polynomial")
    degree_drop = len(h) - 1
    return FaceVerdict(
        pts, 1, COUNTEREXAMPLE, witness,
        detail=f"edge polynomial has a multiple zero (gcd degree {degree_drop})")


# ---------------------------------------------------------------------------
# germ expressions parsed a character at a time through a token cursor: the
# parser that the token regex and grammar table of germ.parse_germ replaced,
# kept as the oracle of test_parser_oracle


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^":
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Cursor:
    def __init__(self, tokens, text_len):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def here(self) -> int:
        tok = self.peek()
        return tok[2] if tok is not None else self.text_len


def cursor_parse_germ(text: str, var_names) -> GermSeries:
    """Parse an expression into a germ; the first variable name is sigma.

    >>> F = cursor_parse_germ("z1^2 + z2^3 - s", ["s", "z1", "z2"])
    >>> sorted(F.terms.items())
    [((0, 0, 3), Fraction(1, 1)), ((0, 2, 0), Fraction(1, 1)), ((1, 0, 0), Fraction(-1, 1))]
    """
    names = [str(v) for v in var_names]
    if len(names) < 2:
        raise ValueError("need the deformation parameter and at least one z-variable")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    index = {name: i for i, name in enumerate(names)}
    cur = _Cursor(_tokenize(text), len(text))

    def parse_factor(exps):
        kind, value, pos = cur.next()
        if value not in index:
            raise ParseError(f"unknown variable {value!r}", pos)
        k = 1
        tok = cur.peek()
        if tok is not None and tok[:2] == ("op", "^"):
            cur.next()
            tok = cur.peek()
            if tok is not None and tok[:2] == ("op", "-"):
                raise ParseError("negative exponent", tok[2])
            if tok is None or tok[0] != "num":
                raise ParseError("expected exponent", cur.here())
            cur.next()
            k = int(tok[1])
            if k == 0:
                raise ParseError("exponent must be a positive integer", tok[2])
        exps[index[value]] += k

    def parse_term():
        coef = Fraction(1)
        exps = [0] * len(names)
        tok = cur.peek()
        if tok is None:
            raise ParseError("expected a term", cur.here())
        if tok[0] == "num":
            cur.next()
            p = int(tok[1])
            tok2 = cur.peek()
            if tok2 is not None and tok2[:2] == ("op", "/"):
                cur.next()
                tok3 = cur.next()
                if tok3 is None or tok3[0] != "num":
                    raise ParseError("expected denominator", cur.here())
                if int(tok3[1]) == 0:
                    raise ParseError("zero denominator", tok3[2])
                coef = Fraction(p, int(tok3[1]))
            else:
                coef = Fraction(p)
            tok2 = cur.peek()
            if tok2 is not None and tok2[:2] == ("op", "*"):
                cur.next()
                if cur.peek() is None or cur.peek()[0] != "name":
                    raise ParseError("expected a variable", cur.here())
            elif tok2 is not None and tok2[0] == "name":
                pass  # implicit product like "2 z1"
            else:
                return coef, tuple(exps)  # bare constant
        elif tok[0] != "name":
            raise ParseError("expected a term", tok[2])
        while True:
            parse_factor(exps)
            tok = cur.peek()
            if tok is not None and tok[:2] == ("op", "*"):
                cur.next()
                if cur.peek() is None or cur.peek()[0] != "name":
                    raise ParseError("expected a variable", cur.here())
                continue
            break
        return coef, tuple(exps)

    items = []
    first = True
    while cur.peek() is not None or first:
        sign = 1
        tok = cur.peek()
        if first:
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                cur.next()
                sign = -1 if tok[1] == "-" else 1
        else:
            if tok is None:
                break
            if tok[0] != "op" or tok[1] not in "+-":
                raise ParseError("expected '+' or '-'", tok[2])
            cur.next()
            sign = -1 if tok[1] == "-" else 1
        coef, exps = parse_term()
        items.append((exps, sign * coef))
        first = False
    if not items:
        raise ParseError("empty expression", 0)

    acc: dict[Exponent, Fraction] = {}
    for e, c in items:
        acc[e] = acc.get(e, Fraction(0)) + c
    acc = {e: c for e, c in acc.items() if c != 0}
    zero = (0,) * len(names)
    if zero in acc:
        raise ValueError("nonzero constant term: not a germ vanishing at 0")
    if not acc:
        raise ValueError("empty germ after collection")
    return GermSeries(len(names), acc)


# ---------------------------------------------------------------------------
# the double description started from two eliminations (a greedy basis in
# input order, then the scaled inverse of that basis): the start that one
# elimination of the sorted generators replaced, kept as the oracle of
# test_facet_engine and test_elimination


def _neg(a) -> Vector:
    return tuple(-x for x in a)


def _independent_indices(rows) -> list[int]:
    """Indices of a greedy maximal independent subset of integer rows, in
    input order: the pivot columns of the transpose."""
    return _gauss_jordan(list(zip(*rows)))[0]


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


def two_elimination_cone_facets(gens) -> list[tuple[Vector, int]]:
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


# the hull step that moved every lower-dimensional point set into saturated
# coordinates before its one ``cone_facets`` call, which now runs on the
# lifted points as they are; kept as the oracle of test_hull_pipeline


def saturated_hull_cone(uniq):
    """``(dim, coords, facets)`` for sorted distinct points: their affine
    dimension, their coordinates, which are the points themselves when
    they are full-dimensional and otherwise the differences to the first
    point in a basis of the saturation lattice of their direction space,
    and the ``cone_facets`` facets of those coordinates lifted to height
    one.  Bit i of each zero-set mask is ``uniq[i]``.
    """
    base = uniq[0]
    diffs = [_sub(p, base) for p in uniq]
    dim = mat_rank(diffs[1:])
    if dim == 0:  # one point: the one facet cone_facets([(1,)]) would return
        return 0, [()], [((1,), 0)]
    coords = uniq
    if dim < len(base):
        B = saturation_basis(diffs[1:])
        coords = [coords_in_basis(B, v) for v in diffs]
    return dim, coords, cone_facets([(1,) + p for p in coords])[1]


# the support restriction that checked the index range and ran a tuple
# ``not in`` for every coordinate of every point; kept as the oracle of
# test_germ


def pointwise_restrict_support(S, I) -> frozenset[Exponent]:
    """Points of S with zero coordinates off I, projected to the I-coordinates.

    The projection keeps the order of I (stored sorted).  The Newton
    polyhedron of a germ meets the coordinate subspace R^I exactly in the
    polyhedron of this restricted support, because all exponents are
    nonnegative.
    """
    idx = tuple(sorted(set(int(i) for i in I)))
    if not idx:
        raise ValueError("empty index set")
    out = set()
    for p in S:
        if idx[0] < 0 or idx[-1] >= len(p):
            raise ValueError("index set out of range")
        if all(p[i] == 0 for i in range(len(p)) if i not in idx):
            out.add(tuple(p[i] for i in idx))
    return frozenset(out)


# the facet engine as it was before its fixed cost was trimmed, the Newton
# polyhedra that it seeded by elimination, and the volume step that sent
# every point set through it, simplices included; kept as the oracles of
# test_facet_engine and test_lattice


def reference_cone_facets(gens) -> tuple[int, list[tuple[Vector, int]]]:
    """``lattice.cone_facets`` before the trim: the same rank, rays, ray
    order and masks."""
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


def eliminated_newton_polyhedron_facets(points, d: int):
    """``newton_polyhedron_facets`` as it was before its closed-form seed:
    ``reference_cone_facets`` on the sorted distinct points lifted to
    height one and the d unit axes at height zero, the elimination finding
    the starting basis.  Returns ``(rays, facets)``: the engine's ray list
    in its order, and the sorted ``(normal, offset, zeros)`` triples read
    off it with the facet at infinity dropped."""
    pts = sorted(set(map(tuple, points)))
    gens = [(1,) + p for p in pts] + \
        [(0,) + tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = reference_cone_facets(gens)[1]
    return rays, sorted((y[1:], -y[0], z) for y, z in rays if any(y[1:]))


def reference_pulled_volume(mask: int, dim: int, pts, facet_masks, apexes) -> int:
    """Sum of |det| over the pulling triangulation of the face ``mask``:
    cone its lowest point (appended to ``apexes``) over each of its facets
    that miss it, down to faces of ``dim + 1`` points, which are simplices
    (De Loera, Rambau & Santos, *Triangulations*, 2010).

    ``facet_masks`` are the facets of a face that ``mask`` lies on: every
    facet of ``mask`` is its intersection with one of them, so each level
    is cut on the facets that the level above found.  ``apexes`` may start
    with a point off the face's affine span, such as the origin below a
    diagram facet; the sum is then the normalized volume of the pyramid
    over the face with that apex.

    ``lattice._pulled_volume`` before it took each simplex's determinant
    on its own points: every simplex here is moved by its first point, one
    subtraction per row, and a point set is pulled as it is, not lifted."""
    if mask.bit_count() == dim + 1:
        simplex = [pts[i] for i in _bits(mask)] + list(apexes)
        return abs(int_det([_sub(q, simplex[0]) for q in simplex[1:]]))
    low = mask & -mask
    apexes += (pts[low.bit_length() - 1],)
    found = _face_facets(mask, facet_masks)
    return sum(reference_pulled_volume(f, dim - 1, pts, found, apexes)
               for f in found if not f & low)


def engine_measure(pts, m: int) -> int:
    """``lattice._measure`` before the simplex shortcut: m! vol_m of the
    hull of distinct points of Z^k, k <= m, pulled on the masks of one
    facet-engine call whatever the number of points; 0 below dimension m."""
    rank, cone = reference_cone_facets([(1,) + p for p in pts])
    return 0 if rank <= m else reference_pulled_volume(
        (1 << len(pts)) - 1, m, pts, [z for _, z in cone], ())


def contribution_product(table) -> tuple[FactoredZeta, FactoredZeta]:
    """``(torus, affine)`` off an index-set table ``{I: records}`` whose
    last entry is the full index set, as ``diagram._zeta_torus_and_full``
    built them before it summed every record's exponent into one map: one
    ``factor`` per record, one product per index set, and the product of
    those times (1 - t)."""
    parts = [product(factor(f.m, (-1 if len(I) % 2 else 1) * f.nvol)
                     for f in fs) for I, fs in table.items()]
    return parts[-1], factor(1, 1) * product(parts)


def two_step_saturate(point_sets):
    """``lattice._saturate`` as two eliminations: ``saturation_basis`` of
    the stacked differences to each set's first point, then
    ``coords_in_basis`` of every difference in that basis."""
    diffs = [[_sub(p, ps[0]) for p in ps] for ps in point_sets]
    B = saturation_basis([v for ds in diffs for v in ds[1:]])
    return len(B), [[coords_in_basis(B, v) for v in ds] for ds in diffs]


# ---------------------------------------------------------------------------
# the diagram reader that intersected every index set's face with all of
# the Newton polyhedron's facets, once for its ``cut`` map and once in
# ``_face_facets``, and handed each pulling triangulation all of their
# masks: the path that the subset-lattice walk of the coordinate faces
# (``lattice.coordinate_facets``, whose map ``diagram._index_set_facets``
# lists and ``diagram._zeta_torus_and_full`` sums) replaced, kept as the
# oracle of test_diagram_facets


def facet_reader(pts, facets):
    """Read index sets' diagram facets off one Newton polyhedron.

    ``pts`` are the sorted distinct points of P = conv(pts) + R_+^d and
    ``facets`` its ``newton_polyhedron_facets``.  Returns a function of
    ``coords``: the records, sorted by normal, of the index set whose
    coordinate positions in R^d are ``coords``.

    Every index set takes one path.  With each point's coordinate support
    a bitmask, computed once, the face P ∩ R^I is the points whose support
    lies in I plus the recession axes in I: all of P for the full I.
    A facet of P that cuts out a diagram facet G of P ∩ R^I has a normal
    y nonzero on I, so y on I is a positive multiple of G's normal ``a``.
    The volume is read off the pyramid from the origin: the primitive
    ``a`` puts the origin at lattice height ``c`` (the offset) below G,
    and the pyramid's normalized |I|-volume, summed over the pulling
    triangulation of G's mask, is ``c * nvol``.
    """
    n = len(pts)
    masks = [z for _, _, z in facets]
    # the whole support's vertices, which filter each facet's points
    verts = {pts[i] for i in _vertices((1 << n) - 1, masks)}
    supports = [sum(1 << j for j, x in enumerate(p) if x) for p in pts]

    def read(coords) -> list[DiagramFacet]:
        keep = sum(1 << j for j in coords)
        # the points of P ∩ R^I, projected to R^I; every mask read below
        # lies inside ``face``, so the other points keep None
        face, proj = 0, []
        for i, (p, s) in enumerate(zip(pts, supports)):
            if s & ~keep:
                proj.append(None)
            else:
                face |= 1 << i
                proj.append(tuple(map(p.__getitem__, coords)))
        # a compact facet of P ∩ R^I holds at least |I| points
        if face.bit_count() < len(coords):
            return []
        face |= keep << n
        cut = {}  # a facet of P cutting out each face of P ∩ R^I
        for y, _, z in facets:
            cut.setdefault(z & face, y)
        origin = ((0,) * len(coords),)
        out = []
        for g in _face_facets(face, masks):
            if g >> n:
                continue
            a = primitive(tuple(map(cut[g].__getitem__, coords)))
            c = _dot(a, proj[(g & -g).bit_length() - 1])
            nvol, rem = divmod(
                reference_pulled_volume(g, len(coords) - 1, proj, masks, origin), c)
            if rem:
                raise InvariantViolation("pyramid volume is not a multiple of its height")
            out.append(DiagramFacet(a, a[0], tuple(
                p for i, p in enumerate(proj) if g >> i & 1 and pts[i] in verts), nvol))
        return sorted(out, key=lambda f: f.normal)

    return read


def reader_index_set_facets(F: GermSeries, facets=None):
    """``(index sets, read)``: the index sets in ``index_sets_with_zero``
    order (the full index set last), and ``read(I)`` gives I's diagram
    facets off F's one Newton polyhedron ``facets``, built here unless
    given; too many z-variables are refused first."""
    index_sets = index_sets_with_zero(F.num_vars - 1)
    S = sorted(support(F))
    if facets is None:
        facets = newton_polyhedron_facets(S, F.num_vars)
    return index_sets, facet_reader(S, facets)


def reader_diagram_facets(F: GermSeries, I) -> list[DiagramFacet]:
    """``diagram.diagram_facets`` through ``facet_reader``: the polyhedron
    of S_I read as its own full index set."""
    idx = _normalize_index_set(F, I)
    d = len(idx)
    S = sorted(restrict_support(support(F), idx))
    if not S:
        return []
    return facet_reader(S, newton_polyhedron_facets(S, d))(range(d))


# ---------------------------------------------------------------------------
# germs in convex position at scale, for timings that later changes repeat


def scale_support(n: int, points: int) -> GermSeries:
    """The convex-position germ with n z-variables and ``points`` terms.

    The terms are ``-s``, the axis points ``16 e_i`` with coefficient 1,
    and random exponents e with 1 to 4 nonzero coordinates in 1..16 and
    4 <= sum of sqrt(e_i) <= 4.25, drawn from ``Random(1000 n)``: for each
    e, ``k = randint(1, 4)``, then ``randint(1, 16)`` for each position of
    ``sample(range(n), k)``; an accepted e is followed by its coefficient
    ``choice((-1, 1))`` from the same generator, and a repeated e keeps its
    first one.  Draws stop at ``points`` terms."""
    rng = Random(1000 * n)
    terms = {(1,) + (0,) * n: -1}
    for i in range(n):
        terms[(0,) + tuple(16 if j == i else 0 for j in range(n))] = 1
    while len(terms) < points:
        e = [0] * (n + 1)
        for j in rng.sample(range(n), rng.randint(1, 4)):
            e[j + 1] = rng.randint(1, 16)
        if 4 <= sum(map(sqrt, e)) <= 4.25:
            terms.setdefault(tuple(e), rng.choice((-1, 1)))
    return make_germ(n + 1, terms.items())


# ---------------------------------------------------------------------------
# the coefficient path that built a ``Fraction`` for a rational coefficient,
# another for its sign, another for the zero that each sum started from and
# another on storing it, and the record builder that read each diagram
# facet's mask twice, once to pull it and once for its vertices, and pulled
# simplices too: the paths that one ``Fraction`` per term and one read per
# facet (``lattice._records``) replaced, kept as the oracles of test_germ
# and test_diagram_facets


def reference_make_germ(num_vars: int, items) -> GermSeries:
    """Collect (exponent, coefficient) pairs into a germ, dropping zeros.

    Coefficients are ints or ``Fraction``s; they are summed as given, and
    each exponent's sum becomes one ``Fraction``."""
    acc: dict[Exponent, int | Fraction] = {}
    for e, c in items:
        e = tuple(map(index, e))
        acc[e] = acc.get(e, 0) + c
    acc = {e: Fraction(c) for e, c in acc.items() if c}
    if not acc:
        raise ValueError("empty germ after collection")
    return GermSeries(num_vars, acc)


# A copy of germ's token pattern and grammar table in their named-group
# form: one token after optional whitespace, its kind named by its group,
# and the end of the text a token of its own ("end").  The oracle below
# keeps its own copy so that it shares no table with germ.parse_germ,
# which it checks.
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^])|(?P<end>\Z))")

_GRAMMAR = {
    "start": ({"+": "sign", "-": "sign", "num": "coef", "name": "var"}, "expected a term"),
    "sign": ({"num": "coef", "name": "var"}, "expected a term"),
    "coef": ({"/": "slash", "*": "star", "name": "var", "+": "sign", "-": "sign",
              "end": "end"}, "expected '+' or '-'"),
    "slash": ({"num": "denom"}, "expected denominator"),
    "denom": ({"*": "star", "name": "var", "+": "sign", "-": "sign", "end": "end"},
              "expected '+' or '-'"),
    "star": ({"name": "var"}, "expected a variable"),
    "var": ({"^": "caret", "*": "star", "+": "sign", "-": "sign", "end": "end"},
            "expected '+' or '-'"),
    "caret": ({"num": "exp"}, "expected exponent"),
    "exp": ({"*": "star", "+": "sign", "-": "sign", "end": "end"}, "expected '+' or '-'"),
}


def reference_parse_germ(text: str, var_names) -> GermSeries:
    """Parse an expression into a germ; the first variable name is sigma.
    Each rational coefficient is a ``Fraction`` from its ``/`` on, and the
    terms are collected by ``reference_make_germ``."""
    names = [str(v) for v in var_names]
    _check_names(names)
    index = {name: i for i, name in enumerate(names)}
    if other := _OTHER.search(text):
        raise ParseError(f"unexpected character {other[0]!r}", other.start())
    items = []
    role, sign, coef, exps = "start", 1, 1, [0] * len(names)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, pos = m[kind], m.start(kind)
        follow, error = _GRAMMAR[role]
        new = follow.get(value if kind == "op" else kind)
        if new is None:
            if role == "caret" and value == "-":
                error = "negative exponent"
            raise ParseError(error, pos)
        if kind == "num":
            try:
                value = int(value)
            except ValueError:
                raise ParseError("number has too many digits", pos) from None
        if new in ("sign", "end") and role != "start":
            items.append((exps, sign * coef))
            coef, exps = 1, [0] * len(names)
        if new == "sign":
            sign = -1 if value == "-" else 1
        elif new == "coef":
            coef = value
        elif new == "denom":
            if value == 0:
                raise ParseError("zero denominator", pos)
            coef = Fraction(coef, value)
        elif new == "var":
            if value not in index:
                raise ParseError(f"unknown variable {value!r}", pos)
            var = index[value]
            exps[var] += 1
        elif new == "exp":
            if value == 0:
                raise ParseError("exponent must be a positive integer", pos)
            exps[var] += value - 1
        elif new == "end":
            return reference_make_germ(len(names), items)
        role = new


def reference_records(coords, pts, cut) -> list[DiagramFacet]:
    """The diagram facets, sorted by normal, of the face P ∩ R^I of a
    Newton polyhedron P = conv(pts) + R_+^d: ``coords`` are the positions
    of I in R^d.

    ``cut`` maps each facet mask of the face to the normal y of a facet of
    P that cuts it out.  A compact facet G (no recession axis) has y
    nonzero on ``coords``, and y there is a positive multiple of G's
    normal ``a``.  G lies on ``a . x = c`` with the offset ``c >= 1``, so
    the determinants of the simplices of its pulling triangulation on the
    face's facet masks, taken on its points as they are, sum to
    ``c * nvol``, summed here by ``reference_pulled_volume`` with the
    origin as first apex, so that no triangulation code is shared with
    ``lattice``.  G's points are filtered by the vertices of the whole
    face, P's vertices on it, read once off the union of its facet masks,
    which holds every vertex of a face of dimension |I| >= 1.
    """
    face = 0
    for g in cut:
        face |= g
    # the points of the face's facets, projected to R^I; every mask read
    # below lies inside ``face``, so the other points keep None
    proj = [tuple(map(p.__getitem__, coords)) if face >> i & 1 else None
            for i, p in enumerate(pts)]
    verts = set(_vertices(face & (1 << len(pts)) - 1, cut))
    origin = ((0,) * len(coords),)
    out = []
    for g, y in cut.items():
        if g >> len(pts):
            continue
        a = primitive(tuple(map(y.__getitem__, coords)))
        c = _dot(a, proj[(g & -g).bit_length() - 1])
        nvol, rem = divmod(
            reference_pulled_volume(g, len(coords) - 1, proj, cut, origin), c)
        if rem:
            raise InvariantViolation("pyramid volume is not a multiple of its height")
        out.append(DiagramFacet(a, a[0], tuple(
            proj[i] for i in _bits(g) if i in verts), nvol))
    return sorted(out, key=lambda f: f.normal)


# ---------------------------------------------------------------------------
# the paths that printed each coefficient by ``Fraction`` arithmetic, listed
# the index sets by one generator per mask and parsed every command line at
# the top level first: the paths that integer printing, doubling and the
# subcommand dispatch (``cli._parse_argv``) replaced, kept as the oracles of
# test_germ and test_cli


def fraction_germ_to_string(F: GermSeries, var_names) -> str:
    """The rendering of ``germ_to_string``, each coefficient's magnitude
    and sign read by ``abs`` and comparisons on the ``Fraction``."""
    names = _names_of(F, var_names)
    out = []
    for e in sorted(F.terms):
        c = F.terms[e]
        mono = _monomial_string(e, names)
        mag = abs(c)
        body = mono if mag == 1 else f"{mag}*{mono}"
        out.append(("-" if c < 0 else "+", body))
    sign, body = out[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in out[1:]:
        text += f" {sign} {body}"
    return text


def mask_index_sets_with_zero(n: int):
    """The index sets of ``index_sets_with_zero(n)``, one per bit mask."""
    check_z_variables(n)
    return [(0,) + tuple(i + 1 for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)]


def top_level_main(argv) -> int:
    """``cli.main(argv)`` with every command line parsed by
    ``cli.PARSER.parse_args``, argparse's nested path, and handled by
    ``main`` as it stands."""
    with patch.object(cli, "_parse_argv", cli.PARSER.parse_args):
        return cli.main(argv)
