"""Independent oracles the tests check the library against.

nu_2d_staircase is written from scratch against the definitions, without
calling into the package, so an agreement is meaningful.

The Fraction linear algebra below (vsub, rref, mat_rank, nullspace,
solve_linear, solve_unique), the affine-chart helpers (_affine_basis,
_coords_in_basis, _lift_normal) and the face lattice over tuples of
Fraction points (_face_lattice), with Fraction rank dimensions, are the
library's former routines, kept unchanged here, where the scans and the
face-lattice property are their only users; the library now runs these
steps on integers, and walks the lattice level by level with no rank.

The three exhaustive scans are the library's former polyhedral
conversions, kept unchanged as oracles for the double-description routine
that replaced them: the supporting-hyperplane scan over point subsets
(convex_hull_scan), the facet scan over point and orthant-direction subsets
(newton_polyhedron_scan) and the basic-solution scan over inequality subsets
(polytope_from_constraints_scan).  They run on the Fraction routines above,
which share no code with the fraction-free integer routines they check,
and they keep no cache.

convex_hull is the library's former hull, kept verbatim with its Polytope
record (vertices, facets with their vertex sets, and the affine hull as
sign_canonical equalities) and its builder _polytope.  It runs on the
library's _extreme_rays, _dual_facets and _vertex_mask, so it is not
independent of them; test_conversion checks it, and the library's hull
rows (geometry._hull_rows), against convex_hull_scan, which returns the
same Polytope record.  The library hands a hull on as its integer rows
only; convex_hull stays here as the fast hull of the cross-section,
section and Newton-number oracles below.

The fan oracles are the library's former cone queries, which work on the
cross-section polytope (the slice of a cone by the hyperplane where the
coordinates sum to one) where the library now uses integer H-descriptions,
ray bitmasks, adjugates and direct double-description rays: membership,
intersection, the face test, the face list closed under pairwise
intersection of the cross-section's facets (cone_faces_section), the
canonical cone read off the hull of the generators' cross-section
(cone_from_rays_section), the chart-volume subdivision test, the
bounding-box scan of the fundamental box with one rational solve per
lattice point, and the Newton fan read off sliced dual cones.  Three more
are the library's former subdivision steps, kept verbatim: simplicialize
as a memoized recursion over each cone's facets() (simplicialize_recursive),
regularity with a full-dimensional |det| branch behind an is_simplicial
double description (is_regular_cone_two_branch), and the stellar step
that tests membership with contains (stellar_raw_contains); the library
now reads all three off geometry._pulling and the minor chart.

edges_at_vertex_lattice is the library's former apex.edges_at_vertex,
which read the compact edges at a vertex off the whole face lattice; the
library now reads them off meets of the facet bitmasks.  _on_segment is
the library's former Fraction test of a point on a segment, kept
verbatim; the library now tests points on an edge as integers
(apex._on_edge).

regularize_fan_records is the library's former regularization loop, kept
verbatim with _all_faces_simplicial: it builds one LatticeCone record per
face per step and keys the regularity verdicts by them, where the library
keys them by the faces' sorted ray tuples.  Its last line returns the
maximal cones, in the order a Fan sorts them, without the pairwise Fan
check that the library's result already runs.

polytope_from_constraints reads a bounded system through the library's
geometry._bounded_piece and hulls the vertices with convex_hull; the fan
and Newton-number oracles below use it for their intersections and
pieces.  It is not independent of _bounded_piece, which the scan above
checks directly (tests/test_conversion.py); the scan itself is too slow
for every oracle call.

The Newton-number oracles at the end are the library's former Fraction
stage: the pulling triangulation with one convex_hull per face of its
recursion (triangulate_polytope_hulls, which the chart-volume subdivision
test above uses too), one convex_hull and triangulation per compact facet
(lower_region_hulls), the difference region hulled per compact facet and
again per piece (difference_region_hulls), the difference region with one
polytope_from_constraints and triangulate_polytope_hulls call per piece
(difference_region_constraints, the library's routine before each piece
was triangulated off its vertex masks), one Fraction simplex volume per
section face (volume_vector_fractions), and the union volume vector with
one convex_hull and triangulate_polytope_hulls per coordinate section of
each intersection and V_0 by membership of the origin
(union_volume_vector_hulls); none of them shares code with the library's
bitmask pulling routine.  difference_region_bounded, kept verbatim, is the
library's routine before the added points were placed on the smaller
polyhedron: one _bounded_piece call per piece, triangulated by _pulling
over the vertex masks it returns.  _volumes, kept verbatim, is the
library's section scan before the integer totals (newton_number._totals):
one pass over the simplices per coordinate subspace, faces keyed by
frozensets, every minor through _int_det and one Fraction per V_k;
volume_vector_scan runs it, as the former volume_vector did, over the
region's points indexed and scaled afresh.  The pyramid formula
(nu_pyramid) shares no triangulation code with any of them: it measures
each coordinate section of the region under the Newton boundary as a sum
of cones over its compact facets, on the scans above.

The Buchberger engine at the very end (_buchberger, _pair_data, _s_poly,
_reduce_full, _interreduce) is the library's former one, kept verbatim on
the library's _Meter and _make_row: it picks the next pair by a min scan
over a dict of pairs, computes each S-polynomial and each reduction with
its own loop, and filters minimal leads pairwise.  The library pops the
same pairs off a heap and shares one row update; test_groebner checks
that the two return the same rows, bases, step counts and budget texts.
"""

import itertools
from fractions import Fraction, Fraction as F
from math import factorial, gcd
from typing import NamedTuple

from newtonmu.apex import BoundaryEdge
from newtonmu.fans import (Fan, LatticeCone, _stellar_raw, box_points,
                           cone_from_rays, is_regular_cone)
from newtonmu.geometry import (DIMENSION_CAP, ONE, ZERO, DimensionCapExceeded,
                               GeometryError, InternalConsistencyError,
                               Record, _bounded_piece, _dual_facets,
                               _extreme_rays, _idot, _int_det, _members,
                               _pulling, _scaled, _unit, _vertex_mask,
                               determinant, dot, frac, primitive_vector,
                               simplex_volume, vec)
from newtonmu.groebner import (_divides, _lcm, _make_row, _mul, _quot,
                               grevlex_key)
from newtonmu.newton_number import NewtonVolumeVector
from newtonmu.polyhedra import (CompactRegion, Face, SupportError,
                                check_nested, newton_polyhedron)


# --- Fraction linear algebra ------------------------------------------------

def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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


def _unit_frac(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def _face_lattice(n, facets):
    """All proper nonempty faces, from pairwise intersections of facets.

    A face is identified by (support points on it, recession axes); the set
    of such pairs is closed under intersection and every proper face arises
    as an intersection of facets, so fixpoint iteration over pairwise meets
    finds everything.
    """
    seed = {(f[2], f[3]) for f in facets}
    seed_sets = [(frozenset(pb), rb) for pb, rb in seed]
    known = set(seed)
    frontier = set(seed)
    while frontier:
        new = set()
        for (pa, ra) in frontier:
            for (sb, rb) in seed_sets:
                pc = tuple(p for p in pa if p in sb)
                rc = ra & rb
                if not pc:
                    # every nonempty face of a pointed polyhedron with
                    # vertices in the support contains a support point
                    continue
                key = (pc, rc)
                if key not in known:
                    known.add(key)
                    new.add(key)
        frontier = new

    faces = []
    for (pc, rc) in known:
        rows = [vsub(p, pc[0]) for p in pc[1:]]
        rows += [_unit_frac(n, i) for i in rc]
        d = mat_rank(rows) if rows else 0
        faces.append(Face(tuple(sorted(pc)), rc, d, not rc))
    faces.sort(key=lambda f: (f.dim, f.points, tuple(sorted(f.recession))))
    return tuple(faces)


# --- the former library hull ---------------------------------------------

def sign_canonical(v):
    """Flip a vector so its first nonzero entry is positive."""
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


class Polytope(Record):
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


def _polytope(pts, ipts, den, normals, found):
    """The Polytope of the sorted points pts = ipts / den, given the null
    space normals of the point differences and the facets found as sorted
    (w, c, mask of the points on <w, x> = c) triples; the vertices are
    read off the facet masks by _vertex_mask."""
    n = len(pts[0])
    if len(normals) == n:
        eqs = tuple((_unit(n, i), pts[0][i]) for i in range(n))
        return Polytope(n, 0, pts, (), (), eqs)
    equalities = tuple((e, Fraction(_idot(e, ipts[0]), den))
                       for e in sorted(map(sign_canonical, normals)))
    vertex_idx = _members(_vertex_mask(range(len(pts)),
                                       [on for _, _, on in found]))
    vertices = tuple(pts[i] for i in vertex_idx)
    facets = tuple((w, Fraction(c, den)) for w, c, _ in found)
    facet_vertices = tuple(
        frozenset(k for k, i in enumerate(vertex_idx) if on >> i & 1)
        for _, _, on in found)
    return Polytope(n, n - len(normals), vertices, facets, facet_vertices,
                    equalities)


def convex_hull(points):
    """Exact convex hull of rational points in dimension <= DIMENSION_CAP.

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
    if n > DIMENSION_CAP:
        raise DimensionCapExceeded(
            f"ambient dimension {n} exceeds cap {DIMENSION_CAP}")
    ipts, den = _scaled(pts)
    diffs = [tuple(x - y for x, y in zip(p, ipts[0])) for p in ipts[1:]]
    _, normals, _ = _extreme_rays(diffs, (), n)
    found = _dual_facets(ipts, equalities=normals) if len(normals) < n else ()
    return _polytope(pts, ipts, den, normals, found)


# --- polyhedral conversions -------------------------------------------------

def nu_2d_staircase(points):
    """Newton number of a plane support covering both axes.

    Dominated points go first, the lower convex chain of the rest is the
    Newton boundary, trapezoids give the area under it, and the alternating
    sum 2*V2 - V1 + 1 is the Newton number.
    """
    pts = sorted({tuple(F(c) for c in p) for p in points})
    x_int = min((p[0] for p in pts if p[1] == 0), default=None)
    y_int = min((p[1] for p in pts if p[0] == 0), default=None)
    if x_int is None or y_int is None:
        raise ValueError("support must touch both axes")
    minimal = [p for p in pts
               if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                          for q in pts)]
    chain = []
    for p in minimal:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    area = sum((x2 - x1) * (y1 + y2) / 2
               for (x1, y1), (x2, y2) in zip(chain, chain[1:]))
    return 2 * area - (x_int + y_int) + 1


def convex_hull_scan(points):
    """Exact convex hull by exhaustive supporting-hyperplane enumeration
    over the C(m, d) point subsets in affine-chart coordinates."""
    pts = tuple(sorted({vec(p) for p in points}))
    n = len(pts[0])
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
        return Polytope(n, 0, (base,), (), (), eqs)

    coords = [_coords_in_basis(p, base, basis, pivot_cols) for p in pts]

    inner_facets = {}
    if d == 1:
        vals = [c[0] for c in coords]
        lo, hi = min(vals), max(vals)
        inner_facets[((1,), lo)] = frozenset(i for i, v in enumerate(vals) if v == lo)
        inner_facets[((-1,), -hi)] = frozenset(i for i, v in enumerate(vals) if v == hi)
    else:
        m = len(pts)
        for subset in itertools.combinations(range(m), d):
            first = coords[subset[0]]
            diffs = [vsub(coords[j], first) for j in subset[1:]]
            ns = nullspace(diffs, d)
            if len(ns) != 1:
                continue
            nu = primitive_vector(ns[0])
            c = dot(nu, first)
            vals = [dot(nu, x) for x in coords]
            if all(v >= c for v in vals):
                pass
            elif all(v <= c for v in vals):
                nu = tuple(-x for x in nu)
                c = -c
                vals = [-v for v in vals]
            else:
                continue
            key = (nu, c)
            if key not in inner_facets:
                inner_facets[key] = frozenset(i for i, v in enumerate(vals) if v == c)

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
    return Polytope(n, d, vertices, facets, facet_vertices, equalities)


def newton_polyhedron_scan(support):
    """Newton polyhedron by exhaustive facet enumeration: every facet
    hyperplane is spanned by k support points and n-k orthant directions."""
    n = support.dim
    pts = support.points

    facets = {}
    if n == 1:
        m = min(p[0] for p in pts)
        facets[((1,), m)] = None
    else:
        units = [_unit_frac(n, i) for i in range(n)]
        for k in range(1, n + 1):
            for ptsub in itertools.combinations(range(len(pts)), k):
                span_pts = [pts[i] for i in ptsub]
                for dirsub in itertools.combinations(range(n), n - k):
                    rows = [vsub(p, span_pts[0]) for p in span_pts[1:]]
                    rows += [units[i] for i in dirsub]
                    ns = nullspace(rows, n) if rows else nullspace([[F(0)] * n], n)
                    if len(ns) != 1:
                        continue
                    w = ns[0]
                    if all(x == 0 for x in w):
                        continue
                    w = primitive_vector(w)
                    if any(x < 0 for x in w):
                        w = tuple(-x for x in w)
                    if any(x < 0 for x in w):
                        continue
                    c = dot(w, span_pts[0])
                    if any(dot(w, p) < c for p in pts):
                        continue
                    facets.setdefault((w, c), None)

    final = []
    for (w, c) in facets:
        active = tuple(p for p in pts if dot(w, p) == c)
        rec = frozenset(i for i in range(n) if w[i] == 0)
        rows = [vsub(p, active[0]) for p in active[1:]]
        rows += [_unit_frac(n, i) for i in rec]
        r = mat_rank(rows) if rows else 0
        if r == n - 1:
            final.append((w, frac(c), active, rec))
    final.sort(key=lambda f: (f[0], f[1]))
    facets = tuple(final)

    faces = _face_lattice(n, facets)
    vertices = tuple(sorted(f.points[0] for f in faces if f.dim == 0))
    return ScannedPolyhedron(n, facets, vertices, faces)


class ScannedPolyhedron(NamedTuple):
    """The scan's Newton polyhedron: the library's Fraction views of a
    NewtonPolyhedron, as plain fields."""

    dim: int
    facets: tuple
    vertices: tuple
    faces: tuple

    def compact_facets(self):
        return tuple((nrm, off, active)
                     for nrm, off, active, rec in self.facets if not rec)


def polytope_from_constraints_scan(equalities, inequalities, ambient_dim):
    """Vertex enumeration of a bounded system by solving every choice of
    ambient_dim - rank(equalities) tight inequalities; None if infeasible."""
    eqs = [(vec(nrm), frac(off)) for nrm, off in equalities]
    ineqs = [(vec(nrm), frac(off)) for nrm, off in inequalities]
    eq_rows = [list(nrm) for nrm, _ in eqs]
    eq_rhs = [off for _, off in eqs]
    r = mat_rank(eq_rows) if eq_rows else 0
    need = ambient_dim - r
    candidates = set()
    for subset in itertools.combinations(range(len(ineqs)), need):
        rows = eq_rows + [list(ineqs[i][0]) for i in subset]
        rhs = eq_rhs + [ineqs[i][1] for i in subset]
        x = solve_unique(rows, rhs)
        if x is None:
            continue
        ok = all(dot(nrm, x) >= off for nrm, off in ineqs) and \
            all(dot(nrm, x) == off for nrm, off in eqs)
        if ok:
            candidates.add(x)
    if not candidates:
        return None
    return convex_hull_scan(candidates)


def polytope_from_constraints(equalities, inequalities, ambient_dim):
    """The Polytope of a bounded system of (normal, offset) rows, meaning
    <n, x> = c and <n, x> >= c; None if infeasible.  The vertices come
    from the library's _bounded_piece, the rest from convex_hull."""
    piece = _bounded_piece(
        [tuple(nrm) + (-frac(off),) for nrm, off in equalities],
        [tuple(nrm) + (-frac(off),) for nrm, off in inequalities],
        ambient_dim)
    return None if piece is None else convex_hull(piece[0])


def edges_at_vertex_lattice(np_, alpha):
    """Compact boundary edges through a vertex, read off the face lattice:
    the compact 1-faces among np_.faces that contain alpha."""
    alpha = vec(alpha)
    if alpha not in np_.vertices:
        raise SupportError(f"{alpha} is not a vertex of the Newton boundary")
    out = []
    for face in np_.faces:
        if face.dim != 1 or not face.compact:
            continue
        if alpha not in face.points:
            continue
        ends = tuple(sorted(p for p in face.points if p in np_.vertices))
        out.append(BoundaryEdge(ends, face.points))
    return sorted(out, key=lambda e: e.endpoints)


def _on_segment(p, a, b):
    """Parameter t with p = a + t(b - a), 0 <= t <= 1, or None."""
    d = tuple(x - y for x, y in zip(b, a))
    r = tuple(x - y for x, y in zip(p, a))
    t = None
    for di, ri in zip(d, r):
        if di != 0:
            t = Fraction(ri) / di
            break
        if ri != 0:
            return None
    if t is None:
        return Fraction(0) if p == a else None
    if not 0 <= t <= 1:
        return None
    for di, ri in zip(d, r):
        if ri != t * di:
            return None
    return t


# --- fans --------------------------------------------------------------------

def cone_dim(cone):
    return mat_rank(cone.rays) if cone.rays else 0


def cross_section(cone):
    """Slice by the coordinate-sum-one hyperplane; None for the zero cone."""
    if not cone.rays:
        return None
    return convex_hull([tuple(frac(x) / sum(r) for x in r)
                        for r in cone.rays])


def cone_faces_section(cone):
    """Every face, the zero cone and the cone itself included: the subsets
    of the rays of a simplicial cone, else the closure of the
    cross-section's facet vertex sets under pairwise intersection."""
    out = {LatticeCone(cone.ambient_dim, ()), cone}
    if cone.rays:
        if len(cone.rays) == cone_dim(cone):
            for k in range(1, len(cone.rays)):
                for sub in itertools.combinations(cone.rays, k):
                    out.add(LatticeCone(cone.ambient_dim, sub))
        else:
            x = cross_section(cone)
            closure = {frozenset(fv) for fv in x.facet_vertices}
            grew = True
            while grew:
                grew = False
                for a, b in itertools.combinations(tuple(closure), 2):
                    c = a & b
                    if c and c not in closure:
                        closure.add(c)
                        grew = True
            for vs in closure:
                rays = tuple(sorted(primitive_vector(x.vertices[i])
                                    for i in vs))
                out.add(LatticeCone(cone.ambient_dim, rays))
    return tuple(sorted(out, key=lambda c: (len(c.rays), c.rays)))


def cone_from_rays_section(ambient_dim, rays):
    """Canonical cone: the primitive vertices of the hull of the
    generators' cross-section points."""
    prims = set()
    for r in rays:
        r = vec(r)
        if any(x < 0 for x in r):
            raise GeometryError("cone generators must be nonnegative")
        if len(r) != ambient_dim:
            raise GeometryError("generator dimension mismatch")
        if all(x == 0 for x in r):
            continue
        prims.add(primitive_vector(r))
    if not prims:
        return LatticeCone(ambient_dim, ())
    pts = [tuple(frac(x) / sum(r) for x in r) for r in prims]
    hull = convex_hull(pts)
    return LatticeCone(ambient_dim,
                       tuple(sorted(primitive_vector(v)
                                    for v in hull.vertices)))


def cone_contains(cone, point):
    point = vec(point)
    if all(x == 0 for x in point):
        return True
    if any(x < 0 for x in point):
        return False
    if not cone.rays:
        return False
    total = sum(point)
    return cross_section(cone).contains(tuple(x / total for x in point))


def intersect_cones_section(a, b):
    if not a.rays or not b.rays:
        return LatticeCone(a.ambient_dim, ())
    x, y = cross_section(a), cross_section(b)
    meet = polytope_from_constraints(x.equalities + y.equalities,
                                     x.facets + y.facets, a.ambient_dim)
    if meet is None:
        return LatticeCone(a.ambient_dim, ())
    return LatticeCone(a.ambient_dim,
                       tuple(sorted(primitive_vector(v)
                                    for v in meet.vertices)))


def is_face_of_section(face, other):
    """Exposed-face test through the cross-section polytopes."""
    if not face.rays:
        return True
    if face == other:
        return True
    if not other.rays:
        return False
    if not all(cone_contains(other, r) for r in face.rays):
        return False
    x = cross_section(other)
    pts = [tuple(frac(c) / sum(r) for c in r) for r in face.rays]
    active = []
    for nrm, off in x.facets:
        if all(sum(n * c for n, c in zip(nrm, p)) == off for p in pts):
            active.append((nrm, off))
    if not active:
        return False
    hull_pts = [v for v in x.vertices
                if all(sum(n * c for n, c in zip(nrm, v)) == off
                       for nrm, off in active)]
    mine = sorted(primitive_vector(p) for p in pts)
    return sorted(primitive_vector(p) for p in hull_pts) == mine


def fan_compatible_section(cones):
    """Every pairwise intersection is a face of both sides."""
    for a, b in itertools.combinations(cones, 2):
        meet = intersect_cones_section(a, b)
        if not (is_face_of_section(meet, a) and is_face_of_section(meet, b)):
            return False
    return True


def _affine_chart(section):
    """Origin and independent difference basis of a cross-section."""
    verts = section.vertices
    v0 = verts[0]
    basis = []
    for v in verts[1:]:
        cand = basis + [tuple(a - b for a, b in zip(v, v0))]
        if mat_rank(cand) == len(cand):
            basis = cand
        if len(basis) == section.dim:
            break
    return v0, basis


def _chart_coords(point, v0, basis):
    rhs = [a - b for a, b in zip(point, v0)]
    rows = [[b[c] for b in basis] for c in range(len(v0))]
    return solve_linear(rows, rhs)[0]


def _relative_section_volume(poly, v0, basis):
    """Volume of a cross-section in the chart coordinates of the parent."""
    d = len(basis)
    if poly.dim < d:
        return F(0)
    total = F(0)
    for simplex in triangulate_polytope_hulls(poly):
        pts = [_chart_coords(p, v0, basis) for p in simplex]
        rows = [[a - b for a, b in zip(pts[i], pts[0])]
                for i in range(1, d + 1)]
        total += abs(determinant(rows)) / factorial(d)
    return total


def is_subdivision_chart(sub, base):
    """Every maximal sub-cone sits inside a base cone, and per base cone
    the chart volumes of its pieces' cross-sections add up to the whole."""
    def inside(piece, parent):
        return all(cone_contains(parent, r) for r in piece.rays)

    for piece in sub.maximal:
        if not any(inside(piece, parent) for parent in base.maximal):
            return False
    for parent in base.maximal:
        if not parent.rays:
            continue
        x = cross_section(parent)
        v0, basis = _affine_chart(x)
        want = _relative_section_volume(x, v0, basis)
        have = F(0)
        d = cone_dim(parent)
        for piece in sub.maximal:
            if cone_dim(piece) == d and inside(piece, parent):
                have += _relative_section_volume(cross_section(piece), v0,
                                                 basis)
        if have != want:
            return False
    return True


def box_points_scan(cone):
    """Fundamental-box points by one rational solve per lattice point of
    the bounding box, ordered by coordinate sum then lexicographically."""
    n = cone.ambient_dim
    rows = [[r[j] for r in cone.rays] for j in range(n)]
    bounds = [sum(r[j] for r in cone.rays) for j in range(n)]
    found = []
    for cand in itertools.product(*(range(b + 1) for b in bounds)):
        if all(x == 0 for x in cand):
            continue
        sol = solve_linear(rows, cand)
        if sol is None:
            continue
        lam = sol[0]
        if all(0 <= x < 1 for x in lam):
            found.append((sum(cand), cand, lam))
    found.sort(key=lambda t: (t[0], t[1]))
    return tuple((t[1], t[2]) for t in found)


def newton_fan_section(s):
    """Newton fan from the sum-one slice of each vertex's dual cone: its
    vertices by polytope_from_constraints, then cone_from_rays."""
    n = s.dim
    np_ = newton_polyhedron(s)
    orthant = [(tuple(1 if j == i else 0 for j in range(n)), 0)
               for i in range(n)]
    ones = tuple(1 for _ in range(n))
    cones = []
    for v in np_.vertices:
        ineqs = list(orthant)
        for w in np_.vertices:
            if w != v:
                ineqs.append((tuple(frac(a) - frac(b)
                                    for a, b in zip(w, v)), 0))
        x = polytope_from_constraints([(ones, 1)], ineqs, n)
        cones.append(cone_from_rays(
            n, [primitive_vector(p) for p in x.vertices]))
    return Fan(n, tuple(cones))


def simplicialize_recursive(fan, priority=()):
    """Pulling subdivision making every cone simplicial without new rays.

    Each non-simplicial cone is pulled at its first ray, priority rays
    first (in the given order), then lexicographically; the recursion is
    memoized per cone so shared faces subdivide identically.
    """
    priority = [tuple(int(x) for x in r) for r in priority]

    def order(ray):
        if ray in priority:
            return (0, priority.index(ray), ray)
        return (1, 0, ray)

    memo = {}

    def pieces(cone):
        if cone in memo:
            return memo[cone]
        if cone.is_simplicial:
            memo[cone] = (cone,)
            return memo[cone]
        r0 = min(cone.rays, key=order)
        out = []
        for facet in cone.facets():
            if r0 in facet.rays:
                continue
            for tau in pieces(facet):
                out.append(LatticeCone(
                    cone.ambient_dim, tuple(sorted(tau.rays + (r0,)))))
        memo[cone] = tuple(sorted(set(out),
                                  key=lambda c: (len(c.rays), c.rays)))
        return memo[cone]

    new_max = []
    for c in fan.maximal:
        new_max.extend(pieces(c))
    return Fan(fan.ambient_dim, tuple(new_max))


def is_regular_cone_two_branch(c):
    """Unimodularity: |det| = 1 in full dimension, gcd of maximal minors 1
    below it."""
    if not c.rays:
        return True
    if not c.is_simplicial:
        raise GeometryError("regularity is only defined for simplicial cones")
    k = len(c.rays)
    if k == c.ambient_dim:
        return abs(_int_det(c.rays)) == 1
    g = 0
    for cols in itertools.combinations(range(c.ambient_dim), k):
        g = gcd(g, _int_det([[r[j] for j in cols] for r in c.rays]))
    return g == 1


def stellar_raw_contains(cones, xi):
    out = []
    for c in cones:
        if not c.is_simplicial:
            raise GeometryError("stellar subdivision needs simplicial cones")
        if not c.contains(xi):
            out.append(c)
            continue
        rows, adj, _ = c._minor_chart
        for r, a in zip(c.rays, adj):
            if sum(x * xi[j] for x, j in zip(a, rows)) > 0:
                kept = tuple(sorted([q for q in c.rays if q != r] + [xi]))
                out.append(LatticeCone(c.ambient_dim, kept))
    return tuple(sorted(set(out), key=lambda c: (len(c.rays), c.rays)))


def _all_faces_simplicial(cones):
    out = set()
    for c in cones:
        for k in range(1, len(c.rays) + 1):
            for sub in itertools.combinations(c.rays, k):
                out.add(LatticeCone(c.ambient_dim, sub))
    return out


def regularize_fan_records(fan):
    """Stellar refinement until every cone is regular.

    Always subdivides a non-regular cone of smallest dimension at the
    fundamental-box point of smallest coordinate sum; its proper faces are
    regular by minimality, so the point is interior and regular cones are
    never touched.  Terminates because piece multiplicities strictly drop.
    Regularity verdicts are kept for the call, so each step tests only the
    faces it created.
    """
    work = list(fan.maximal)
    for c in work:
        if not c.is_simplicial:
            raise GeometryError("regularize_fan needs a simplicial fan")
    verdicts = {}
    while True:
        faces = _all_faces_simplicial(work)
        for c in faces - verdicts.keys():
            verdicts[c] = is_regular_cone(c)
        bad = [c for c in faces if not verdicts[c]]
        if not bad:
            break
        target = min(bad, key=lambda c: (len(c.rays), c.rays))
        boxed = box_points(target)
        if not boxed:
            raise InternalConsistencyError(
                f"non-regular cone {target.rays} has an empty box")
        xi, lam = boxed[0]
        if any(l == 0 for l in lam):
            raise InternalConsistencyError(
                "minimal non-regular cone has a boundary box point; "
                "a smaller face should have been non-regular")
        work = list(_stellar_raw(tuple(work), xi))
    return tuple(work)


# --- Newton numbers -----------------------------------------------------------

def triangulate_polytope_hulls(poly):
    """Pulling triangulation coned from the lex-smallest vertex, one
    convex_hull per face of the recursion; each simplex ends with its
    apex.  Returns a tuple of simplices (vertex tuples)."""
    if poly.dim == 0:
        result = (poly.vertices,)
    elif poly.dim == 1:
        result = (poly.vertices,)
    else:
        apex = poly.vertices[0]
        simplices = []
        for members in poly.facet_vertices:
            if 0 in members:
                continue
            face = convex_hull([poly.vertices[i] for i in members])
            for s in triangulate_polytope_hulls(face):
                simplices.append(s + (apex,))
        result = tuple(simplices)
    return result


def _uncovered_axes(support):
    """The 1-based axes i with no support point a positive multiple of
    e_i, read off the points."""
    return [i + 1 for i in range(support.dim)
            if not any(p[i] and not any(p[:i] + p[i + 1:])
                       for p in support.points)]


def lower_region_hulls(support):
    """The region under the Newton boundary, one convex_hull and
    triangulate_polytope_hulls per compact facet."""
    n = support.dim
    missing = _uncovered_axes(support)
    if missing:
        raise SupportError(
            "region under the Newton boundary is unbounded: no support "
            f"point on axis {missing[0]}")
    np_ = newton_polyhedron(support)
    origin = tuple(ZERO for _ in range(n))
    simplices = []
    if n == 1:
        m = min(p[0] for p in support.points)
        return CompactRegion(1, (((ZERO,), (frac(m),)),))
    for nrm, off, active in np_.compact_facets():
        face = convex_hull(active)
        for s in triangulate_polytope_hulls(face):
            simplex = tuple(sorted(s + (origin,)))
            simplices.append(simplex)
    return CompactRegion(n, tuple(sorted(set(simplices))))


def difference_region_hulls(s, s_prime):
    """The region between the two Newton boundaries, one piece per compact
    facet of hull(s): the convex_hull of the facet and the origin, cut by
    the bigger polyhedron and the orthant, hulled again from its vertices
    and triangulated by triangulate_polytope_hulls."""
    check_nested(s, s_prime)
    n = s.dim
    np_small = newton_polyhedron(s)
    np_big = newton_polyhedron(s_prime)
    big_ineqs = [(nrm, off) for nrm, off, _, _ in np_big.facets]
    orthant = [(tuple(1 if j == i else 0 for j in range(n)), 0)
               for i in range(n)]
    origin = tuple(ZERO for _ in range(n))
    missing = _uncovered_axes(s)
    if missing:
        raise SupportError(
            f"difference region is unbounded: no support point on axis "
            f"{missing[0]} of the smaller set")
    simplices = []
    for nrm, off, active in np_small.compact_facets():
        cone = convex_hull(active + (origin,))
        piece = polytope_from_constraints(
            list(cone.equalities),
            list(cone.facets) + big_ineqs + orthant, n)
        if piece is None:
            continue
        piece = convex_hull(piece.vertices)
        if piece.dim < n:
            continue
        for t in triangulate_polytope_hulls(piece):
            simplices.append(tuple(sorted(t)))
    return CompactRegion(n, tuple(sorted(set(simplices))))


def difference_region_constraints(s, s_prime):
    """The region between the two Newton boundaries, one
    polytope_from_constraints and triangulate_polytope_hulls call per
    compact facet of hull(s) that some point of s_prime lies below: the
    cone over the facet (the rays of its dual cone), cut by <w, x> <= c
    and by the facets of the bigger polyhedron, kept when
    full-dimensional."""
    check_nested(s, s_prime)
    n = s.dim
    np_small = newton_polyhedron(s)
    np_big = newton_polyhedron(s_prime)
    big_ineqs = [(nrm, off) for nrm, off, _, _ in np_big.facets]
    missing = _uncovered_axes(s)
    if missing:
        raise SupportError(
            f"difference region is unbounded: no support point on axis "
            f"{missing[0]} of the smaller set")
    simplices = []
    for nrm, off, active in np_small.compact_facets():
        if all(dot(nrm, p) >= off for p in s_prime.points):
            continue
        normals, _, _ = _extreme_rays((), active, n)
        piece = polytope_from_constraints(
            (), [(r, 0) for r in normals]
            + [(tuple(-x for x in nrm), -off)] + big_ineqs, n)
        if piece is not None and piece.dim == n:
            simplices.extend(tuple(sorted(t))
                             for t in triangulate_polytope_hulls(piece))
    return CompactRegion(n, tuple(sorted(set(simplices))))


def difference_region_bounded(s, s_prime):
    """Closure of the region between the two Newton boundaries.

    Requires hull(s) inside hull(s_prime) and s covering every axis.  Equal
    to closure of lower(s) minus lower(s_prime), built as one piece per
    compact facet <w, x> >= c of hull(s): the cone over the facet, whose
    inequalities are the rays of its dual cone, cut by <w, x> <= c and by
    the facets of the bigger polyhedron.  Pieces meet in whole common
    faces, so the shared pulling triangulation yields a simplicial complex.
    A facet with <w, p> >= c for every point p of s_prime is skipped: w is
    nonnegative, so hull(s_prime) lies in <w, x> >= c and the piece is
    flat.  That is one integer sign test per point, on the bigger
    polyhedron's scaled points.  Every other piece is read off its
    homogenized rows by _bounded_piece and, unless flat, triangulated by
    _pulling.
    """
    check_nested(s, s_prime)
    n = s.dim
    small = newton_polyhedron(s)
    big = newton_polyhedron(s_prime)
    # <w, x> >= c / den on (x, t) is the integer row (den w, -c)
    big_rows = [tuple(big.den * x for x in w) + (-c,)
                for w, c, _ in big.ifacets]
    missing = _uncovered_axes(s)
    if missing:
        raise SupportError(
            f"difference region is unbounded: no support point on axis "
            f"{missing[0]} of the smaller set")
    simplices = []
    for w, c, g in small._compact_ifacets():
        if all(_idot(w, p) * small.den >= c * big.den for p in big.ipts):
            continue
        normals, _, _ = _extreme_rays(
            (), [small.ipts[i] for i in _members(g)], n)
        rows = ([r + (0,) for r in normals]
                + [tuple(-small.den * x for x in w) + (c,)] + big_rows)
        verts, facets, flat = _bounded_piece((), rows, n)
        if not flat:
            whole = (1 << len(verts)) - 1
            simplices.extend(tuple(verts[i] for i in simplex) for simplex
                             in _pulling(whole, whole, facets, {}))
    return CompactRegion(n, tuple(sorted(set(simplices))))


def _support(v):
    return frozenset(i for i, x in enumerate(v) if x != 0)


def _volumes(n, ipts, den, simplices):
    """(V_0, ..., V_n) of a simplicial complex in R^n given as tuples of
    indices into the integer points ipts, which are its vertices times den.

    Each vertex gets a support bitmask once; a section face is the vertices
    whose support lies inside the axes.
    """
    supports = [sum(1 << i for i, x in enumerate(p) if x) for p in ipts]
    values = []
    for k in range(n + 1):
        total = 0
        for axes in itertools.combinations(range(n), k):
            outside = ~sum(1 << i for i in axes)
            seen = set()
            for simplex in simplices:
                w = [i for i in simplex if not supports[i] & outside]
                if len(w) != k + 1:
                    continue
                key = frozenset(w)
                if key in seen:
                    continue
                seen.add(key)
                base = ipts[w[0]]
                total += abs(_int_det([[ipts[i][c] - base[c] for c in axes]
                                       for i in w[1:]]))
        values.append(Fraction(total, den ** k * factorial(k)))
    return tuple(values)


def volume_vector_scan(region):
    """The former volume_vector: the region's Fraction points indexed and
    scaled to integers here, and _volumes over them."""
    index = {}
    simplices = [tuple(index.setdefault(v, len(index)) for v in simplex)
                 for simplex in region.simplices]
    ipts, den = _scaled(list(index))
    return NewtonVolumeVector(_volumes(region.ambient_dim, ipts, den,
                                       simplices))


def volume_vector_fractions(region):
    """Volume vector as a sum of Fraction simplex volumes, one per section
    face, the faces deduplicated by vertex set."""
    n = region.ambient_dim
    values = []
    for k in range(n + 1):
        vk = ZERO
        for axes in itertools.combinations(range(n), k):
            coords = frozenset(axes)
            seen = set()
            for simplex in region.simplices:
                w = tuple(v for v in simplex if _support(v) <= coords)
                if len(w) != k + 1:
                    continue
                key = frozenset(w)
                if key in seen:
                    continue
                seen.add(key)
                vk += simplex_volume(w, axes)
        values.append(vk)
    return NewtonVolumeVector(tuple(values))


def union_volume_vector_hulls(pieces, ambient_dim):
    """Volume vector of a union of orthant polytopes, each piece given as a
    finite point set and hulled by convex_hull, by inclusion-exclusion,
    one convex_hull per coordinate section of each intersection, measured
    as Fraction simplex volumes over triangulate_polytope_hulls, and V_0 by
    membership of the origin."""
    n = ambient_dim
    polys = [convex_hull(p) for p in pieces]
    values = [ZERO] * (n + 1)
    if polys:
        origin = tuple(ZERO for _ in range(n))
        if any(p.contains(origin) for p in polys):
            values[0] = ONE
    inters = {}
    for size in range(1, len(polys) + 1):
        for idx in itertools.combinations(range(len(polys)), size):
            if size == 1:
                current = polys[idx[0]]
            else:
                parent = inters.get(idx[:-1])
                if parent is None:
                    continue
                other = polys[idx[-1]]
                current = polytope_from_constraints(
                    parent.equalities + other.equalities,
                    parent.facets + other.facets, n)
            inters[idx] = current
            if current is None:
                continue
            sign = 1 if size % 2 == 1 else -1
            for k in range(1, n + 1):
                for axes in itertools.combinations(range(n), k):
                    coords = frozenset(axes)
                    verts = [v for v in current.vertices
                             if _support(v) <= coords]
                    if not verts:
                        continue
                    section = convex_hull(verts)
                    if section.dim != k:
                        continue
                    values[k] += sign * sum(
                        simplex_volume(t, axes)
                        for t in triangulate_polytope_hulls(section))
    return NewtonVolumeVector(tuple(values))


def _drop(p, i):
    return p[:i] + p[i + 1:]


def pyramid_volume(poly):
    """Volume of a full-dimensional polytope in R^m by the pyramid formula
    with apex the origin: the sum over facets <w, x> >= c of
    -c vol_{m-1}(F) / (m |w|), with vol_{m-1}(F) = vol_{m-1}(pi_i F) |w| / |w_i|
    for the projection pi_i dropping a coordinate i with w_i != 0."""
    m = poly.ambient_dim
    if m == 1:
        return poly.vertices[-1][0] - poly.vertices[0][0]
    total = ZERO
    for (w, c), on in zip(poly.facets, poly.facet_vertices):
        i = next(j for j, x in enumerate(w) if x)
        shadow = convex_hull_scan([_drop(poly.vertices[v], i) for v in on])
        total += -c * pyramid_volume(shadow) / (m * abs(w[i]))
    return total


def nu_pyramid(support):
    """Newton number of a convenient support from the pyramid formula.

    For each coordinate subspace R^J, |J| = k, the section of the region
    under the Newton boundary is the union of the cones from the origin
    over the compact facets <w, x> = c of the restricted support's
    polyhedron, so vol_k = sum c vol_{k-1}(pi_i F) / (k w_i); the Newton
    number is sum_k (-1)^(n-k) k! V_k with V_0 = 1.
    """
    n = support.dim
    total = F((-1) ** n)
    for k in range(1, n + 1):
        vk = ZERO
        for axes in itertools.combinations(range(n), k):
            np_ = newton_polyhedron_scan(support.restrict(axes))
            for w, c, active in np_.compact_facets():
                shadow = (ONE if k == 1 else pyramid_volume(
                    convex_hull_scan([_drop(p, 0) for p in active])))
                vk += c * shadow / (k * w[0])
        total += (-1) ** (n - k) * factorial(k) * vk
    return total


# --- Buchberger engine -----------------------------------------------------

def _reduce_full(poly, rows, meter, sugar):
    """Fully reduce poly against rows.  Returns (remainder, sugar)."""
    work = dict(poly)
    remainder = {}
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        reducer = None
        for row in rows:
            if _divides(row.lead, mono):
                reducer = row
                break
        if reducer is None:
            remainder[mono] = coeff
            continue
        meter.charge()
        q = _quot(mono, reducer.lead)
        factor = coeff / reducer.lead_coeff
        sugar = max(sugar, reducer.sugar + sum(q))
        for m, c in reducer.tail.items():
            key = _mul(m, q)
            val = work.get(key, ZERO) - factor * c
            if val:
                work[key] = val
            elif key in work:
                del work[key]
    return remainder, sugar


def _s_poly(a, b):
    lcm = _lcm(a.lead, b.lead)
    out = {}
    for row, sign in ((a, ONE), (b, -ONE)):
        q = _quot(lcm, row.lead)
        factor = sign / row.lead_coeff
        for m, c in row.tail.items():
            key = _mul(m, q)
            val = out.get(key, ZERO) + factor * c
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def _pair_data(rows, i, j):
    lcm = _lcm(rows[i].lead, rows[j].lead)
    deg = sum(lcm)
    sugar = max(rows[i].sugar + deg - sum(rows[i].lead),
                rows[j].sugar + deg - sum(rows[j].lead))
    return (sugar, grevlex_key(lcm), i, j), lcm


def _buchberger(polys, meter):
    rows = []
    for p in polys:
        if p:
            rows.append(_make_row(dict(p)))
    pairs = {}
    for j in range(len(rows)):
        for i in range(j):
            key, lcm = _pair_data(rows, i, j)
            pairs[(i, j)] = (key, lcm)
    treated = set()
    while pairs:
        (i, j), (key, lcm) = min(pairs.items(), key=lambda kv: kv[1][0])
        del pairs[(i, j)]
        treated.add((i, j))
        meter.charge()
        if _mul(rows[i].lead, rows[j].lead) == lcm:
            continue  # coprime leading monomials
        chained = False
        for k in range(len(rows)):
            if k in (i, j):
                continue
            if (_divides(rows[k].lead, lcm)
                    and (min(i, k), max(i, k)) in treated
                    and (min(j, k), max(j, k)) in treated):
                chained = True
                break
        if chained:
            continue
        s = _s_poly(rows[i], rows[j])
        sugar = max(rows[i].sugar + sum(lcm) - sum(rows[i].lead),
                    rows[j].sugar + sum(lcm) - sum(rows[j].lead))
        remainder, sugar = _reduce_full(s, rows, meter, sugar)
        if not remainder:
            continue
        rows.append(_make_row(remainder, sugar))
        new = len(rows) - 1
        for k in range(new):
            pkey, plcm = _pair_data(rows, k, new)
            pairs[(k, new)] = (pkey, plcm)
    return rows


def _interreduce(rows, meter):
    rows = sorted(rows, key=lambda r: grevlex_key(r.lead))
    keep = []
    for idx, row in enumerate(rows):
        if any(k != idx and _divides(rows[k].lead, row.lead)
               and not (rows[k].lead == row.lead and k > idx)
               for k in range(len(rows))):
            continue
        keep.append(row)
    reduced = []
    for idx, row in enumerate(keep):
        others = keep[:idx] + keep[idx + 1:]
        poly = dict(row.tail)
        poly[row.lead] = row.lead_coeff
        remainder, _ = _reduce_full(poly, others, meter, row.sugar)
        if remainder:
            reduced.append(_make_row(remainder, row.sugar))
    out = []
    for row in sorted(reduced, key=lambda r: grevlex_key(r.lead)):
        monic = {m: c / row.lead_coeff for m, c in row.tail.items()}
        monic[row.lead] = ONE
        out.append(monic)
    return out
