"""Exact rational convex geometry: hulls, triangulations, volumes.

Results are fractions.Fraction or int; there is no floating point and no
epsilon anywhere.  A Polytope carries a vertex description, an irredundant
facet description with primitive integer normals, and the affine hull as a
list of equalities, so lower-dimensional polytopes are first-class values.

The kernels run on Python integers.  Rational points are scaled once by the
lcm of their denominators, and Fractions appear again only in the results.
Two integer routines do the work: _echelon, a fraction-free reduced row
echelon form that serves _nullspace alone, and _extreme_rays, a
double-description routine (Fukuda & Prodon 1996) whose updates are
integer combinations divided by their gcd.  convex_hull reads
the affine hull off the null space of the point differences and the facets
off the rays of a dual cone; polyhedra.newton_polyhedron does the same for
Newton polyhedra; polytope_from_constraints reads vertices off the rays of
the homogenized cone and facets off their zero sets, with no hull.
_int_det is the one determinant routine, Bareiss (1968) elimination on an
integer matrix; determinant scales rational rows to it, and
newton_number.volume_vector and the fan kernels call it on integer
matrices directly.  _pulling is the one pulling triangulation, over
bitmasks of points, so no face is hulled either; it triangulates
polytopes, the compact facets of Newton polyhedra and the fans' cones
(over ray masks).  _maximal_meets is the one step that finds a face's
facets from bitmasks; _pulling and _face_lattice both use it.
_face_lattice is the one face-lattice walk, level by level down from the
facets: polyhedra runs it on Newton polyhedra and fans on cones.

Nothing is memoized at module level: convex_hull and triangulate_polytope
compute their results on every call, and the one memo of the package, the
Newton polyhedron of a support, lives on its polyhedra.SupportSet.

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


def _unit(n, i):
    """The unit vector e_i of Z^n, an integer tuple."""
    return tuple(int(j == i) for j in range(n))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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


# --- exact integer linear algebra ----------------------------------------

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


def _idot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _scaled(points):
    """The points times the lcm of their denominators, as integer tuples,
    and that lcm."""
    den = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (den // x.denominator) for x in p)
            for p in points], den


def _echelon(rows):
    """Reduced row echelon form of integer rows, fraction-free.

    Returns (rows, pivot columns): one primitive integer row per pivot,
    zero at every other pivot column, so each is a multiple of the matching
    row of the rational reduced form.  The rank is the number of pivots.
    Every update is _combine, an integer combination divided by its gcd, so
    no rational arithmetic runs.
    """
    rows = [r for r in map(_integer_row, rows) if r is not None]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        lead = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = _combine(lead[col], row, row[col], lead)
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _nullspace(rows, width):
    """Primitive integer basis of the right null space of integer rows.

    One vector per free column f of the reduced form, positive at f and zero
    at the other free columns: the rational reduced-form basis vector
    scaled by the lcm of the pivots (math.lcm is nonnegative), then divided
    by its gcd.
    """
    red, pivots = _echelon(rows)
    scale = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        v = [0] * width
        v[f] = scale
        for row, pc in zip(red, pivots):
            v[pc] = -row[f] * (scale // row[pc])
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def _int_det(rows):
    """Determinant of a square integer matrix, an int.

    Fraction-free elimination (Bareiss 1968): every update
    m_ij <- (m_ij m_kk - m_ik m_kj) / p, with p the previous pivot, is an
    exact integer division, so no rational arithmetic runs.
    """
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
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
    return sign * m[-1][-1] if n else 1


def determinant(rows):
    """Exact determinant, a Fraction.

    Each row is scaled to integers by the lcm of its denominators, and
    _int_det eliminates the integer matrix.
    """
    m = []
    scale = 1
    for row in rows:
        row = [x if isinstance(x, int) else frac(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        scale *= den
        m.append([x.numerator * (den // x.denominator) for x in row])
    if any(len(r) != len(m) for r in m):
        raise GeometryError("determinant needs a square matrix")
    return Fraction(_int_det(m), scale)


# --- double description ---------------------------------------------------

def _extreme_rays(equalities, inequalities, dim):
    """Double description of the cone {x : <e, x> = 0, <a, x> >= 0} in Q^dim.

    Rows are rational sequences of length dim, scaled to coprime integer
    rows first.  Returns (rays, lineality, zeros): an integer basis of the
    cone's lineality space, the primitive integer extreme rays of the cone
    modulo that space and their zero sets (below), so the cone is pointed
    exactly when the basis is empty, and then the rays are its extreme rays.

    The cone starts as the whole space, all lineality.  A row that is
    nonzero on the lineality space splits one lineality vector off: an
    equality drops it, an inequality keeps it as a new ray, and the other
    lineality vectors and rays move into the row's hyperplane.  Every other
    inequality is a double-description step (Fukuda & Prodon 1996): rays on
    its nonnegative side stay, and each pair of rays on opposite sides that
    is adjacent, meaning no third ray is tight on every inequality both of
    them are tight on, gives the ray where their 2-face meets the
    hyperplane.  Zero sets are bitmasks over the nonzero inequality rows
    processed so far, in order, and every update is an integer combination divided by its gcd
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
    lin = [_unit(dim, i) for i in range(dim)]
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
    return rays, lin, masks


def _dual_facets(ipts, equalities=(), directions=()):
    """Facets of the hull of integer points P plus the cone over integer
    directions u, inside the flat cut out by the equality normals e.

    They are the rays (w, c) with w != 0 of the cone of valid inequalities
    {(w, c) : <e, w> = 0, <w, u> >= 0, <w, P> >= c}, which is pointed when
    the polyhedron is pointed and full-dimensional in that flat.  Returns
    (w primitive, c = least <w, P>, bitmask of the points P attaining c)
    triples sorted by w.
    """
    n = len(ipts[0])
    rays, _, _ = _extreme_rays([e + (0,) for e in equalities],
                               [u + (0,) for u in directions]
                               + [p + (-1,) for p in ipts], n + 1)
    facets = []
    for ray in rays:
        if any(ray[:n]):  # else the ray (0, -1) of the valid 0 >= -1
            w = _integer_row(ray[:n])
            vals = [_idot(w, p) for p in ipts]
            c = min(vals)
            facets.append(
                (w, c, sum(1 << i for i, v in enumerate(vals) if v == c)))
    facets.sort()
    return facets


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


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _polytope(pts, ipts, den, normals, found):
    """The Polytope of the sorted points pts = ipts / den, given the null
    space normals of the point differences and the facets found as sorted
    (w, c, mask of the points on <w, x> = c) triples.  A point is a vertex
    when no other point lies on every facet through it."""
    n = len(pts[0])
    if len(normals) == n:
        eqs = tuple((_unit(n, i), pts[0][i]) for i in range(n))
        return Polytope(n, 0, pts, (), (), eqs)
    equalities = tuple((e, Fraction(_idot(e, ipts[0]), den))
                       for e in sorted(map(sign_canonical, normals)))
    vertex_idx = []
    for i in range(len(pts)):
        bit = 1 << i
        meet = -1
        for _, _, on in found:
            if on & bit:
                meet &= on
        if meet == bit:
            vertex_idx.append(i)
    vertices = tuple(pts[i] for i in vertex_idx)
    facets = tuple((w, Fraction(c, den)) for w, c, _ in found)
    facet_vertices = tuple(
        frozenset(k for k, i in enumerate(vertex_idx) if on >> i & 1)
        for _, _, on in found)
    return Polytope(n, n - len(normals), vertices, facets, facet_vertices,
                    equalities)


def _differences(ipts):
    return [tuple(x - y for x, y in zip(p, ipts[0])) for p in ipts[1:]]


_hull_cache = {}  # unused; the benchmark's cache reset still names it


def convex_hull(points, dim_cap=DIMENSION_CAP):
    """Exact convex hull of rational points in dimension <= dim_cap.

    The points are scaled by the lcm of their denominators to integer
    points P.  The affine hull's equality normals e are the integer null
    space of the differences P - P_0.  The facets come from _dual_facets
    with w confined to the difference space (<e, w> = 0), where the
    polytope is bounded and full-dimensional, so the dual cone is pointed,
    the normals already lie in the difference space, and coplanar and
    lower-dimensional inputs need no special care.  All of this runs on
    integers; offsets are c / lcm.
    """
    pts = tuple(sorted({vec(p) for p in points}))
    if not pts:
        raise GeometryError("empty point set has no hull")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise GeometryError("points of mixed dimension")
    if n > dim_cap:
        raise DimensionCapExceeded(f"ambient dimension {n} exceeds cap {dim_cap}")
    ipts, den = _scaled(pts)
    normals = _nullspace(_differences(ipts), n)
    found = _dual_facets(ipts, equalities=normals) if len(normals) < n else ()
    return _polytope(pts, ipts, den, normals, found)


def _maximal_meets(face, masks, keep=-1):
    """The inclusion-maximal proper meets face & g, g in masks, that share
    a bit with keep.

    When face is the bitmask of a face of a polyhedron, masks are the
    masks of the facets of a face containing it (of the polyhedron, say)
    and keep marks the points, these are the facets of the face: every
    proper face is the meet of the facets containing it, and a meet with
    no point is empty.  Meets are taken largest first, so each needs to be
    tested only against the maximal ones already kept."""
    out = []
    for m in sorted({face & g for g in masks if face & g & keep} - {face},
                    key=int.bit_count, reverse=True):
        if not any(m & o == m for o in out):
            out.append(m)
    return out


def _face_lattice(m, facets):
    """The faces with a point on them, level by level, as one tuple of
    bitmasks per dimension from the facets down to the vertices (of a
    pointed cone: the rays, its apex left out).

    Bits 0..m-1 of a face's bitmask are the points on it; higher bits may
    mark more generators, such as a Newton polyhedron's recession axes.
    facets holds the facets' masks.  Face lattices are graded (Ziegler
    1995, Thm 2.7), so a face's dimension is its level, with no linear
    algebra.  The facets of a face are its _maximal_meets with its
    siblings, the facets of a face it is a facet of, keeping the points.
    """
    keep = (1 << m) - 1
    levels = []
    level = dict.fromkeys(facets, facets)   # face -> its siblings
    while level:
        levels.append(tuple(level))
        below = {}
        for face, siblings in level.items():
            subs = _maximal_meets(face, siblings, keep)
            for sub in subs:
                below.setdefault(sub, subs)
        level = below
    return levels


def _pulling(face, vmask, facet_masks, memo):
    """Pulling triangulation (De Loera, Rambau & Santos 2010) of a face, as
    increasing tuples of point indices, memoized in memo.

    Masks are over the polytope's points.  The face's facets are its
    _maximal_meets with facet_masks; its least vertex (lowest bit of
    face & vmask) is coned over the simplices of those that miss it, and a
    lone vertex is its own simplex."""
    if face not in memo:
        verts = face & vmask
        apex = verts & -verts
        first = (apex.bit_length() - 1,)
        if verts == apex:
            memo[face] = (first,)
        else:
            memo[face] = tuple(
                first + s for m in _maximal_meets(face, facet_masks)
                if not m & apex
                for s in _pulling(m, vmask, facet_masks, memo))
    return memo[face]


def _index_simplices(poly):
    """The pulling triangulation of a Polytope as tuples of vertex
    indices (_pulling over its vertex and facet masks)."""
    whole = (1 << len(poly.vertices)) - 1
    facets = [sum(1 << i for i in fv) for fv in poly.facet_vertices]
    return _pulling(whole, whole, facets, {})


_tri_cache = {}  # unused; the benchmark's cache reset still names it


def triangulate_polytope(poly):
    """Pulling triangulation coned from the lex-smallest vertex (_pulling).

    The rule depends only on the vertex set of each face, so shared faces of
    different polytopes are always triangulated identically; a collection of
    polytopes glued along whole common faces therefore triangulates into a
    simplicial complex.  Returns the sorted tuple of simplices, each an
    increasing tuple of vertices.
    """
    verts = poly.vertices
    return tuple(tuple(verts[i] for i in s)
                 for s in sorted(_index_simplices(poly)))


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
    GeometryError.  The facets are the inclusion-maximal proper zero sets
    of the rows; a facet's normal is the null space vector of the equality
    normals and its vertex differences, nonnegative on the other vertices.
    """
    eqs = [tuple(nrm) + (-frac(off),) for nrm, off in equalities]
    ineqs = [(0,) * ambient_dim + (1,)]
    ineqs += [tuple(nrm) + (-frac(off),) for nrm, off in inequalities]
    rays, lineality, zeros = _extreme_rays(eqs, ineqs, ambient_dim + 1)
    verts = sorted((tuple(Fraction(x, r[-1]) for x in r[:-1]), z)
                   for r, z in zip(rays, zeros) if r[-1] > 0)
    if not verts:
        return None
    if lineality or len(verts) < len(rays):
        raise GeometryError("constraint system is unbounded")
    pts = tuple(v for v, _ in verts)
    ipts, den = _scaled(pts)
    normals = _nullspace(_differences(ipts), ambient_dim)
    sets = {sum(1 << i for i, (_, z) in enumerate(verts) if z >> b & 1)
            for b in range(len(ineqs))} - {0, (1 << len(pts)) - 1}
    found = []
    for m in sets:
        if any(m & o == m != o for o in sets):
            continue
        on = [ipts[i] for i in _members(m)]
        (w,) = _nullspace(normals + _differences(on), ambient_dim)
        c = _idot(w, on[0])
        if any(_idot(w, p) < c for p in ipts):
            w, c = tuple(-x for x in w), -c
        found.append((w, c, m))
    return _polytope(pts, ipts, den, normals, sorted(found))


def intersect_polytopes(a, b):
    """Intersection of two bounded polytopes; None when empty."""
    eqs = list(a.equalities) + list(b.equalities)
    ineqs = list(a.facets) + list(b.facets)
    return polytope_from_constraints(eqs, ineqs, a.ambient_dim)
