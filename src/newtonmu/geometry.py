"""Exact rational convex geometry: hulls, triangulations, volumes.

Results are fractions.Fraction or int; there is no floating point and no
epsilon anywhere.  A Polytope carries a vertex description, an irredundant
facet description with primitive integer normals, and the affine hull as a
list of equalities, so lower-dimensional polytopes are first-class values.

Every conversion between points and inequalities goes through one
double-description routine (_extreme_rays) that works on integer rows with
fraction-free updates: convex_hull and polyhedra.newton_polyhedron read
facets off the rays of a dual cone, polytope_from_constraints reads vertices
off the rays of the homogenized cone.

Determinism: vertices are kept in lexicographic order, facets are sorted by
(normal, offset), and the pulling triangulation always cones from the
lexicographically smallest vertex, so identical inputs give byte-identical
structures in every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

DIMENSION_CAP = 8


class GeometryError(ValueError):
    """A geometric precondition failed."""


class DimensionCapExceeded(GeometryError):
    """Ambient dimension above the supported cap."""


class InternalConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs):
    """Normalise a sequence of numbers to a tuple of Fractions."""
    return tuple(frac(x) for x in xs)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale(a, t):
    t = frac(t)
    return tuple(x * t for x in a)


def dot(a, b):
    s = ZERO
    for x, y in zip(a, b):
        s += x * y
    return s


def is_zero_vector(v):
    return all(x == 0 for x in v)


def primitive_vector(v):
    """Scale a nonzero rational vector to the primitive integer vector with
    the same direction (gcd of entries 1, orientation preserved)."""
    v = vec(v)
    if is_zero_vector(v):
        raise GeometryError("zero vector has no primitive form")
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def sign_canonical(v):
    """Flip a vector so its first nonzero entry is positive."""
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


# --- exact linear algebra -------------------------------------------------

def rref(rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    rows = [list(map(frac, r)) for r in rows]
    if not rows:
        return [], []
    width = len(rows[0])
    pivots = []
    r = 0
    for col in range(width):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def mat_rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, width=None):
    """Basis of the right null space, as tuples of Fractions."""
    rows = [list(map(frac, r)) for r in rows]
    if width is None:
        if not rows:
            raise GeometryError("nullspace needs an explicit width for an empty matrix")
        width = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * width
        v[fc] = ONE
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs):
    """Solve A x = b.  Returns (particular solution, nullspace basis) or None
    if the system is inconsistent."""
    rows = [list(map(frac, r)) + [frac(b)] for r, b in zip(rows, rhs)]
    if not rows:
        return (), []
    width = len(rows[0]) - 1
    red, pivots = rref(rows)
    for row, pc in zip(red, pivots):
        if pc == width:
            return None
    x = [ZERO] * width
    for row, pc in zip(red, pivots):
        x[pc] = row[width]
    hom = nullspace([r[:width] for r in red] or [[ZERO] * width], width)
    return tuple(x), hom


def solve_unique(rows, rhs):
    """Solve A x = b when a unique solution is expected; None otherwise."""
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    x, hom = sol
    if hom:
        return None
    return x


def determinant(rows):
    """Exact determinant, a Fraction.

    Each row is scaled to integers by the lcm of its denominators and the
    integer matrix is eliminated fraction-free (Bareiss 1968): every update
    m_ij <- (m_ij m_kk - m_ik m_kj) / p, with p the previous pivot, is an
    exact integer division, so no rational arithmetic runs.
    """
    m = []
    scale = 1
    for row in rows:
        row = [x if isinstance(x, int) else frac(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        scale *= den
        m.append([x.numerator * (den // x.denominator) for x in row])
    n = len(m)
    if any(len(r) != n for r in m):
        raise GeometryError("determinant needs a square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return ZERO
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        lead = m[k]
        pk = lead[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - f * lead[j]) // prev
        prev = pk
    return Fraction(sign * m[-1][-1], scale) if n else ONE


# --- double description ---------------------------------------------------

def _integer_row(row):
    """Coprime integer row with the direction of a rational row; None for
    the zero row."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    if g == 0:
        return None
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _combine(s, u, t, v):
    """The primitive integer vector s*u - t*v."""
    w = [s * x - t * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def _extreme_rays(equalities, inequalities, dim):
    """Double description of the cone {x : <e, x> = 0, <a, x> >= 0} in Q^dim.

    Rows are rational sequences of length dim, scaled to coprime integer
    rows first.  Returns (rays, lineality): an integer basis of the cone's
    lineality space and the primitive integer extreme rays of the cone
    modulo that space, so the cone is pointed exactly when the basis is
    empty, and then the rays are its extreme rays.

    The cone starts as the whole space, all lineality.  A row that is
    nonzero on the lineality space splits one lineality vector off: an
    equality drops it, an inequality keeps it as a new ray, and the other
    lineality vectors and rays move into the row's hyperplane.  Every other
    inequality is a double-description step (Fukuda & Prodon 1996): rays on
    its nonnegative side stay, and each pair of rays on opposite sides that
    is adjacent, meaning no third ray is tight on every inequality both of
    them are tight on, gives the ray where their 2-face meets the
    hyperplane.  Zero sets are bitmasks over the inequalities processed so
    far, and every update is an integer combination divided by its gcd
    (Bareiss 1968), so no rational arithmetic runs.
    """
    rows = []
    for is_eq, group in ((True, equalities), (False, inequalities)):
        for row in group:
            if len(row) != dim:
                raise GeometryError(
                    f"constraint row of length {len(row)} in dimension {dim}")
            row = _integer_row(row)
            if row is not None:
                rows.append((is_eq, row))
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays, masks = [], []
    bits = 0
    subspace_dim = dim
    for is_eq, a in rows:
        vals = [sum(x * y for x, y in zip(a, v)) for v in lin]
        k = next((i for i, v in enumerate(vals) if v), None)
        if k is not None:
            pivot, s = lin[k], vals[k]
            if s < 0:
                pivot, s = tuple(-x for x in pivot), -s
            lin = [_combine(s, v, vals[i], pivot)
                   for i, v in enumerate(lin) if i != k]
            rays = [_combine(s, r, sum(x * y for x, y in zip(a, r)), pivot)
                    for r in rays]
            if is_eq:
                subspace_dim -= 1
                continue
            bit = 1 << bits
            bits += 1
            masks = [m | bit for m in masks]
            rays.append(pivot)
            masks.append(bit - 1)
            continue
        if is_eq:
            continue  # implied by the earlier equalities
        bit = 1 << bits
        bits += 1
        vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        # the span of a 2-face (an edge modulo lineality) is cut out by its
        # tight rows, so an adjacent pair shares at least this many
        need = subspace_dim - 2 - len(lin)
        new_rays, new_masks = [], []
        for i in pos:
            mi, vi = masks[i], vals[i]
            for j in neg:
                z = mi & masks[j]
                if z.bit_count() < need:
                    continue
                if any(mk & z == z for k, mk in enumerate(masks)
                       if k != i and k != j):
                    continue
                new_rays.append(_combine(vi, rays[j], vals[j], rays[i]))
                new_masks.append(z | bit)
        for r, m, v in zip(rays, masks, vals):
            if v > 0:
                new_rays.append(r)
                new_masks.append(m)
            elif v == 0:
                new_rays.append(r)
                new_masks.append(m | bit)
        rays, masks = new_rays, new_masks
    return rays, lin


# --- polytopes ------------------------------------------------------------

@dataclass(frozen=True)
class Polytope:
    """Bounded convex polytope with exact V- and H-descriptions.

    vertices        lexicographically sorted tuple of points
    dim             intrinsic (affine hull) dimension
    facets          ((normal, offset), ...) meaning <normal, x> >= offset,
                    normals primitive integer vectors, irredundant, valid
                    inside the affine hull
    facet_vertices  per facet, the frozenset of vertex indices lying on it
    equalities      affine hull as ((normal, offset), ...) with <n, x> == c
    """

    ambient_dim: int
    dim: int
    vertices: tuple
    facets: tuple
    facet_vertices: tuple
    equalities: tuple

    def contains(self, point):
        point = vec(point)
        for normal, offset in self.equalities:
            if dot(normal, point) != offset:
                return False
        for normal, offset in self.facets:
            if dot(normal, point) < offset:
                return False
        return True

    def coordinate_support(self):
        """Indices of coordinates that vary over the polytope."""
        lo = self.vertices[0]
        return tuple(i for i in range(self.ambient_dim)
                     if any(v[i] != lo[i] for v in self.vertices))


_hull_cache = {}


def _affine_basis(pts):
    """Echelon basis of the difference space of a point list."""
    base = pts[0]
    basis = []  # rows kept in echelon form: (pivot column, row)
    for p in pts[1:]:
        row = list(vsub(p, base))
        for pc, b in basis:
            if row[pc] != 0:
                f = row[pc]
                row = [a - f * c for a, c in zip(row, b)]
        for col, x in enumerate(row):
            if x != 0:
                inv = ONE / x
                row = [y * inv for y in row]
                basis.append((col, row))
                basis.sort()
                break
    return [tuple(b) for _, b in basis], [pc for pc, _ in basis]


def _coords_in_basis(p, base, basis, pivot_cols):
    """Coefficients of p - base in the echelon basis (exact, unique)."""
    row = list(vsub(p, base))
    coeffs = []
    for (b, pc) in zip(basis, pivot_cols):
        c = row[pc]
        coeffs.append(c)
        if c != 0:
            row = [a - c * x for a, x in zip(row, b)]
    if any(x != 0 for x in row):
        raise GeometryError("point outside affine hull")
    return tuple(coeffs)


def _lift_normal(nu, basis):
    """Map a normal in basis coordinates back to an ambient normal."""
    d = len(basis)
    gram = [[dot(basis[i], basis[j]) for j in range(d)] for i in range(d)]
    y = solve_unique(gram, nu)
    w = [ZERO] * len(basis[0])
    for yi, b in zip(y, basis):
        for k, x in enumerate(b):
            w[k] += yi * x
    return primitive_vector(w)


def convex_hull(points, dim_cap=DIMENSION_CAP):
    """Exact convex hull of rational points in dimension <= dim_cap.

    The points are written in coordinates of an affine basis of their hull,
    where they span a full-dimensional polytope of dimension d.  Its facets
    are the extreme rays (nu, c) with nu != 0 of the cone of valid
    inequalities {(nu, c) : <nu, x> >= c for every point x}, which is
    pointed because the polytope is bounded and full-dimensional, so
    coplanar and lower-dimensional inputs need no special care.  Normals
    are lifted back to the ambient space by _lift_normal.
    """
    pts = tuple(sorted({vec(p) for p in points}))
    if not pts:
        raise GeometryError("empty point set has no hull")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise GeometryError("points of mixed dimension")
    if n > dim_cap:
        raise DimensionCapExceeded(f"ambient dimension {n} exceeds cap {dim_cap}")
    cached = _hull_cache.get(pts)
    if cached is not None:
        return cached

    base = pts[0]
    basis, pivot_cols = _affine_basis(pts)
    d = len(basis)
    equalities = tuple(sorted(
        (sign_canonical(primitive_vector(w)),) for w in nullspace(basis, n)
    )) if d else ()
    equalities = tuple((w[0], dot(w[0], base)) for w in equalities)
    if d == 0:
        eqs = tuple((tuple(1 if j == i else 0 for j in range(n)), base[i])
                    for i in range(n))
        poly = Polytope(n, 0, (base,), (), (), eqs)
        _hull_cache[pts] = poly
        return poly

    coords = [_coords_in_basis(p, base, basis, pivot_cols) for p in pts]

    inner_facets = {}
    if d == 1:
        vals = [c[0] for c in coords]
        lo, hi = min(vals), max(vals)
        inner_facets[((1,), lo)] = frozenset(i for i, v in enumerate(vals) if v == lo)
        inner_facets[((-1,), -hi)] = frozenset(i for i, v in enumerate(vals) if v == hi)
    else:
        rays, _ = _extreme_rays((), [x + (-1,) for x in coords], d + 1)
        for ray in rays:
            if not any(ray[:d]):
                continue  # the ray (0, -1) of the trivial inequality 0 >= -1
            nu = _integer_row(ray[:d])
            vals = [dot(nu, x) for x in coords]
            c = min(vals)
            inner_facets[(nu, c)] = frozenset(
                i for i, v in enumerate(vals) if v == c)

    # vertices: points whose active facet normals span the hull dimension
    vertex_idx = []
    active_normals = {i: [] for i in range(len(pts))}
    for (nu, _), members in inner_facets.items():
        for i in members:
            active_normals[i].append(nu)
    for i in range(len(pts)):
        if len(active_normals[i]) >= d and mat_rank(active_normals[i]) == d:
            vertex_idx.append(i)
    vertices = tuple(pts[i] for i in vertex_idx)
    reindex = {old: new for new, old in enumerate(vertex_idx)}

    amb_facets = []
    for (nu, c), members in inner_facets.items():
        w = _lift_normal(nu, basis)
        offset = min(dot(w, v) for v in vertices)
        on = frozenset(reindex[i] for i in members if i in reindex)
        amb_facets.append(((w, offset), on))
    amb_facets.sort(key=lambda t: t[0])
    facets = tuple(f for f, _ in amb_facets)
    facet_vertices = tuple(on for _, on in amb_facets)

    poly = Polytope(n, d, vertices, facets, facet_vertices, equalities)
    _hull_cache[pts] = poly
    return poly


_tri_cache = {}


def triangulate_polytope(poly):
    """Pulling triangulation coned from the lex-smallest vertex.

    The rule depends only on the vertex set of each face, so shared faces of
    different polytopes are always triangulated identically; a collection of
    polytopes glued along whole common faces therefore triangulates into a
    simplicial complex.  Returns a tuple of simplices (vertex tuples).
    """
    key = poly.vertices
    cached = _tri_cache.get(key)
    if cached is not None:
        return cached
    if poly.dim == 0:
        result = (poly.vertices,)
    elif poly.dim == 1:
        result = (poly.vertices,)
    else:
        apex = poly.vertices[0]
        simplices = []
        for fi, members in enumerate(poly.facet_vertices):
            if 0 in members:
                continue
            face = convex_hull([poly.vertices[i] for i in members])
            for s in triangulate_polytope(face):
                simplices.append(s + (apex,))
        result = tuple(simplices)
    _tri_cache[key] = result
    return result


def simplex_volume(verts, coords=None):
    """Volume of a simplex given as k+1 points, measured in the listed
    coordinate positions (defaults to all)."""
    verts = [vec(v) for v in verts]
    k = len(verts) - 1
    if k == 0:
        return ONE
    if coords is None:
        coords = tuple(range(len(verts[0])))
    if len(coords) != k:
        raise GeometryError("simplex dimension does not match coordinate count")
    rows = [[verts[i][c] - verts[0][c] for c in coords] for i in range(1, k + 1)]
    return abs(determinant(rows)) / factorial(k)


def polytope_volume(poly):
    """Exact intrinsic-dimensional volume.

    Full-dimensional polytopes always work; lower-dimensional ones must have
    their affine hull parallel to a coordinate subspace (the only case where
    the volume is rational), which covers every use in Newton-number work.
    Points have 0-dimensional volume 1 by the counting convention.
    """
    if poly.dim == 0:
        return ONE
    support = poly.coordinate_support()
    if len(support) != poly.dim:
        raise GeometryError(
            "volume of a lower-dimensional polytope not aligned with a "
            "coordinate subspace is irrational in general")
    total = ZERO
    for s in triangulate_polytope(poly):
        total += simplex_volume(s, support)
    return total


def polytope_from_constraints(equalities, inequalities, ambient_dim):
    """Vertex enumeration for a *bounded* constraint system.

    equalities:   iterable of (normal, offset) with <n,x> == c
    inequalities: iterable of (normal, offset) with <n,x> >= c
    Returns a Polytope, or None when the system is infeasible.

    The vertices are x/t over the extreme rays (x, t) with t > 0 of the
    homogenized cone {(x, t) : <n,x> = c t, <n,x> >= c t, t >= 0}; when no
    ray has t > 0 the system is infeasible.  A feasible system whose cone
    has a ray with t = 0 or a lineality space is unbounded and raises
    GeometryError.
    """
    eqs = [tuple(nrm) + (-frac(off),) for nrm, off in equalities]
    ineqs = [(0,) * ambient_dim + (1,)]
    ineqs += [tuple(nrm) + (-frac(off),) for nrm, off in inequalities]
    rays, lineality = _extreme_rays(eqs, ineqs, ambient_dim + 1)
    vertices = [tuple(Fraction(x, r[-1]) for x in r[:-1])
                for r in rays if r[-1] > 0]
    if not vertices:
        return None
    if lineality or len(vertices) < len(rays):
        raise GeometryError("constraint system is unbounded")
    return convex_hull(vertices)


def intersect_polytopes(a, b):
    """Intersection of two bounded polytopes; None when empty."""
    eqs = list(a.equalities) + list(b.equalities)
    ineqs = list(a.facets) + list(b.facets)
    return polytope_from_constraints(eqs, ineqs, a.ambient_dim)
