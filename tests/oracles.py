"""Independent oracles the tests check the library against.

nu_2d_staircase is written from scratch against the definitions, without
calling into the package, so an agreement is meaningful.

leibniz_det, the determinant as a sum over permutations, checks the
Bareiss elimination geometry._int_det and determinant.  determinant and
simplex_volume are the library's former Fraction front-end to _int_det,
kept verbatim: rational rows scaled by one common denominator, and a
simplex volume as |det| / k! over the listed coordinates.  The library
now measures a section by the integer minor geometry._minor, and the
Newton-number oracles below still measure their faces with these.

The Fraction linear algebra below (dot, vsub, rref, mat_rank, nullspace,
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
library's _extreme_rays and _vertex_mask, and on _dual_facets below, so
it is not independent of them; test_conversion checks it, and the
library's hull rows (geometry._hull_rows), against convex_hull_scan,
which returns the same Polytope record.  The library hands a hull on as its integer rows
only; convex_hull stays here as the fast hull of the cross-section,
section and Newton-number oracles below.

_double_description is the library's former Newton polyhedron build for
a support that misses an axis or has dimension 1, kept verbatim with
the former geometry._dual_facets, which also read facets off the
orthant directions: the facets are the extreme rays of the dual cone of
the componentwise-minimal points, and each dominated point is put back
into the facets it lies on by one integer dot product.  The library now
places every support (polyhedra._placed), from its axis simplex or from
its first point and the facet at infinity; test_placement checks every
placed build against this one, which stays the reference.

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
cone_from_rays, the canonical cone of its generators by two double
descriptions, is kept verbatim from the library, which builds every cone
from rays already known to be extremal and primitive; the tests build
their cones with it.

edges_at_vertex_lattice is the library's former apex.edges_at_vertex,
which read the compact edges at a vertex off the whole face lattice; the
library now reads them off meets of the facet bitmasks.  _on_segment is
the library's former Fraction test of a point on a segment, kept
verbatim; the library now tests points on an edge as integers
(apex._on_edge).

_ridge_normal is the library's former normal of a facet that placement
makes (polyhedra._place), kept verbatim: the signed maximal minors of the
differences from the placed point to the vertices of the horizon ridge,
one _int_det each.  The library now takes the normal from the pencil of
the two facet planes that meet in the ridge (geometry._combine), and
test_placement checks every such normal against the minors.

regularize_fan_records is the library's former regularization loop, kept
verbatim with _all_faces_simplicial and its stellar step _stellar_raw: it
rebuilds the face set of every cone at every step, holding each face as a
LatticeCone record that keys the regularity verdicts, and _stellar_raw
reads membership and the pieces off the minor chart of every cone.  The
library holds sorted ray tuples, judges only the faces through each new
ray, and rewrites only the target's star, with no membership test; the
chart step lives on in stellar_subdivide, which test_fan_kernel checks
against stellar_raw_contains.  The loop's last line returns the maximal
cones, in the order a Fan sorts them, without the pairwise Fan check that
the library's result already runs.

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
over the vertex masks it returns.  lower_region, kept verbatim with
_lower_form and the former method NewtonPolyhedron._compact_ifacets
(here a function, which difference_region_bounded calls too), is the
library's former region under the Newton boundary: the origin coned over
the pulling triangulation of each compact facet (_facet_cells, the
library's former index-tuple form of polyhedra._cell_masks).
The library now reads a support's volumes off its placement
(newton_number._lower_totals) and builds no such region; the tests hold
those volumes against this one.  _volumes, kept verbatim, is the
library's section scan before the integer totals (geometry._totals):
one pass over the simplices per coordinate subspace, faces keyed by
frozensets, every minor through _int_det and one Fraction per V_k;
volume_vector_scan runs it, as the former volume_vector did, over the
region's points indexed and scaled afresh.  The pyramid formula
(nu_pyramid) shares no triangulation code with any of them: it measures
each coordinate section of the region under the Newton boundary as a sum
of cones over its compact facets, on the scans above.

support_set and find_apex, in their own section, are the library's
former routines, kept verbatim (find_apex with its former helper
_edge): support_set stored the Fraction points as the record's field,
one Fraction per distinct coordinate value, and find_apex searched from
a Fraction point and built the certificate off the supports' Fraction
points.  The library now stores the integer form and searches from
vertex indices over integer points; test_polyhedra and test_apex check
that the supports, their equality and hashes, the certificates and the
error texts stay the same.

The Buchberger engine at the very end (_buchberger, _pair_data, _s_poly,
_reduce_full, _interreduce) is the library's former one, kept verbatim on
the library's _Meter and _make_row: it picks the next pair by a min scan
over a dict of pairs, computes each S-polynomial and each reduction with
its own loop, and filters minimal leads pairwise.  The library pops the
same pairs off a heap and shares one row update; test_groebner checks
that the two return the same rows, bases, step counts and budget texts.

The edge Euclid (_poly_deg, _poly_rem, _poly_gcd_degree) and the dense
_edge_univariate are the library's former edge test of nondegeneracy,
kept verbatim: the edge polynomial as a list with one Fraction per
lattice step, and the degree of gcd(p, p') by remainders over Q.  The
library now reads that gcd off a Groebner basis of the sparse edge
polynomial; test_milnor checks every edge verdict against this one.

d_set_and_i_set, at the end of the Newton-number section, is the
library's former changed-subspace test, kept verbatim: it restricts both
supports to every coordinate subspace R^J (restrict, the library's former
SupportSet.restrict on the Fraction points, which nu_pyramid also reads)
and compares the vertices of the restrictions' freshly built polyhedra.
The library now reads the vertices of hull(S) supported inside J, the
face of hull(S) on R^J, as integer points; test_newton_number checks
that both return the same record or raise the same error.

The positivity stack (minimal_full_support, _project_out,
projection_formula_check, positivity_decomposition,
_check_positivity_hypotheses and _check_connected) is the library's
former one, kept verbatim: each section a frozenset of the vertices whose
support (_support, a frozenset of nonzero axes) lies inside the axes,
and |I|! vol(P^I) as simplex_volume times |I|!.  The library now reads
every section off support bitmasks (mask | J == J) and measures P^I by
one integer minor; test_newton_number checks that both return equal
records, or raise the same error type and text, on difference regions
and on regions broken by hand.  The hypothesis check here also refuses
what the library's now refuses: a simplex with affinely dependent
vertices, by the Fraction determinant, and two simplices that meet
beyond a common face (_stray_meet_vertex).  The former sum check on the
pieces stays here; the library dropped it, and the comparison shows it
never fires on a region that passes the hypotheses.

The term algebra at the end (spoly, _coefficient_poly, family, partial,
partial_x, partial_s, base, specialize and arc_order) is the library's
former one, kept verbatim as functions of the polynomial or family: an
accumulator per builder, one exponent-lowering loop per derivative, a
scan for the s-free coefficients in base, and a monomial product in
specialize and in arc_order.  The library now collects, lowers and
evaluates the terms (x-exponent + s-exponent, rational) once each, and
base is specialize at s = 0; test_families checks that the two build
equal records and arc orders.
"""

import functools
import itertools
from itertools import combinations
from fractions import Fraction, Fraction as F
from math import factorial, gcd, lcm, prod
from typing import NamedTuple

from newtonmu.apex import (ApexCertificate, BoundaryEdge, _edges_at,
                           _on_edge)
from newtonmu.degenerate import ArcOrder
from newtonmu.families import DeformationFamily, SPoly, _exponent
from newtonmu.fans import Fan, LatticeCone, box_points, is_regular_cone
from newtonmu.geometry import (DIMENSION_CAP, ONE, ZERO, DimensionCapExceeded,
                               GeometryError, InternalConsistencyError,
                               Record, _bounded_piece, _extreme_rays, _idot,
                               _int_det, _integer_row, _members, _pulling,
                               _scaled, _unit, _vertex_mask,
                               frac, primitive_vector, render_point,
                               vec)
from newtonmu.groebner import (_divides, _lcm, _make_row, _mul, _quot,
                               grevlex_key)
from newtonmu.newton_number import (ChangedSubspaces, NewtonVolumeVector,
                                    _axes_to_internal, newton_number_region,
                                    newton_number_union)
from newtonmu.polyhedra import (CompactRegion, Face, NewtonPolyhedron,
                                SupportError, SupportSet, _region,
                                _require_bounded, check_nested,
                                newton_polyhedron)


# --- Fraction linear algebra ------------------------------------------------

def leibniz_det(rows):
    """Determinant by the Leibniz formula: the sum over the permutations
    p of sign(p) prod_i rows[i][p(i)], an int for integer rows and 1 for
    no rows."""
    k = len(rows)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(k) for j in range(i + 1, k))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(k))
    return total


def determinant(rows):
    """Exact determinant, a Fraction.

    The k rows are scaled to integers by one common denominator D
    (_scaled), and _int_det eliminates the integer matrix: the determinant
    is _int_det(D M) / D^k.
    """
    m, den = _scaled(rows)
    if any(len(r) != len(m) for r in m):
        raise GeometryError("determinant needs a square matrix")
    return Fraction(_int_det(m), den ** len(m))


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


def dot(a, b):
    s = ZERO
    for x, y in zip(a, b):
        s += x * y
    return s


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


# --- the former library double description ---------------------------------

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


def _double_description(support):
    """The Newton polyhedron of a support that misses an axis or has
    dimension 1, from the extreme rays of the dual cone of its minimal
    points (see newton_polyhedron)."""
    n = support.dim
    ipts, den = support._scaled_points
    m = len(ipts)
    # a point above another one is no vertex; ipts is sorted, so such a
    # point comes after a minimal one below it
    minimal = []
    for i, p in enumerate(ipts):
        if not any(all(x <= y for x, y in zip(ipts[j], p))
                   for j in minimal):
            minimal.append(i)

    facets = []
    for w, c, on in _dual_facets([ipts[i] for i in minimal],
                                 directions=[_unit(n, i) for i in range(n)]):
        if len(minimal) < m:    # put the dominated points back
            on = sum(1 << i for i, p in enumerate(ipts) if _idot(w, p) == c)
        facets.append((w, c, on | sum(1 << m + i for i in range(n)
                                      if not w[i])))
    return NewtonPolyhedron(n, support.points, ipts, den, tuple(facets),
                            _vertex_mask(minimal, [g for _, _, g in facets]))


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


def _ridge_normal(points, apex):
    """The primitive positive normal of the hyperplane through apex and
    the integer points, which span a flat of dimension n - 2 missing apex:
    the signed maximal minors of the first n - 1 independent differences
    p - apex, one _int_det each.  The hyperplane carries a compact facet,
    so the normal has no zero entry."""
    n = len(apex)
    diffs = [tuple(x - y for x, y in zip(p, apex)) for p in points]
    for rows in combinations(diffs, n - 1):
        w = [(-1) ** i * _int_det([r[:i] + r[i + 1:] for r in rows])
             for i in range(n)]
        if w[0]:
            break
    g = gcd(*w) if w[0] > 0 else -gcd(*w)
    return tuple(x // g for x in w)


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


def cone_from_rays(ambient_dim, rays):
    """Canonical cone: primitive rays, redundant generators dropped.

    The extreme rays are those of the H-description of the generators,
    both read by the double-description routine."""
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
    normals, lineality, _ = _extreme_rays((), sorted(prims), ambient_dim)
    rays, _, _ = _extreme_rays(lineality, normals, ambient_dim)
    return LatticeCone(ambient_dim, tuple(sorted(rays)))


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


def _stellar_raw(cones, xi):
    """The maximal cones after starring at xi, read off each cone's minor
    chart (which raises on a cone that is not simplicial): with
    lambda = adjugate xi_rows, xi lies in the cone iff every lambda_r >= 0
    and sum lambda_r r = D xi (the span test, for lower-dimensional
    cones), and the pieces swap xi for each ray r with lambda_r > 0."""
    out = []
    for c in cones:
        rows, adj, d = c._minor_chart
        lam = [sum(x * xi[j] for x, j in zip(a, rows)) for a in adj]
        if any(l < 0 for l in lam) or any(
                sum(l * r[j] for l, r in zip(lam, c.rays)) != d * xi[j]
                for j in range(c.ambient_dim)):
            out.append(c)
            continue
        for r, l in zip(c.rays, lam):
            if l > 0:
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


def _compact_ifacets(np_):
    """The compact facets, those with no recession axis, as ifacets."""
    m = len(np_.points)
    return [f for f in np_.ifacets if not f[2] >> m]


def _facet_cells(n, face, vmask, seeds, memo):
    """The pulling triangulation (geometry._pulling) of a compact facet
    of a polyhedron in dimension n, as increasing index tuples: a facet
    with n vertices is a simplex, its own triangulation, and is not
    walked."""
    verts = face & vmask
    if verts.bit_count() == n:
        return (tuple(_members(verts)),)
    return _pulling(face, vmask, seeds, memo)


def _lower_form(support):
    """The integer form (see CompactRegion) of lower_region: the support's
    integer points and the origin after them, their den, and the sorted
    pulling triangulation of the compact facets as increasing tuples of
    support-point indices, each with the origin's index put first."""
    n = support.dim
    _require_bounded(support)
    np_ = newton_polyhedron(support)
    seeds = [g for _, _, g in np_.ifacets]
    memo = {}
    simplices = set()
    for _, _, face in _compact_ifacets(np_):
        simplices.update(_facet_cells(n, face, np_.vmask, seeds, memo))
    origin = len(np_.ipts)
    return np_.ipts + ((0,) * n,), np_.den, [(origin,) + s
                                             for s in sorted(simplices)]


def lower_region(support):
    """The closed region between the origin and the Newton boundary.

    Requires every axis to carry a support point (else the region is
    unbounded).  Star-shaped from the origin: cones over the compact facets
    triangulate it.  Each compact facet is triangulated by
    geometry._pulling over the polyhedron's bitmasks of support points
    (_lower_form).
    """
    # the origin sorts before every support point, and index tuples sort
    # like the point tuples they name
    return _region(support.dim, *_lower_form(support))


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
    for w, c, g in _compact_ifacets(small):
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


def restrict(support, axes):
    """Sub-support on a coordinate subspace: the points supported inside
    the given axes, with the other coordinates dropped."""
    axes = tuple(sorted(axes))
    kept = {tuple(p[i] for i in axes) for p in support.points
            if all(p[i] == 0 for i in range(support.dim) if i not in axes)}
    return SupportSet(len(axes), tuple(sorted(kept)))


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
            np_ = newton_polyhedron_scan(restrict(support, axes))
            for w, c, active in np_.compact_facets():
                shadow = (ONE if k == 1 else pyramid_volume(
                    convex_hull_scan([_drop(p, 0) for p in active])))
                vk += c * shadow / (k * w[0])
        total += (-1) ** (n - k) * factorial(k) * vk
    return total


def d_set_and_i_set(s, s_prime):
    """Compute D(S,S') and I(S,S') by exact subspace comparison.

    A subset J belongs to D when the polyhedra of the restrictions to R^J
    differ (equivalently the lower regions differ there).  Restrictions are
    compared by vertex sets, which determine a pointed polyhedron.
    """
    check_nested(s, s_prime)
    n = s.dim
    d_set = []
    for k in range(1, n + 1):
        for axes in itertools.combinations(range(n), k):
            ra = restrict(s, axes)
            rb = restrict(s_prime, axes)
            if ra == rb:    # equal restrictions, empty ones included
                continue
            if (not ra.points or not rb.points
                    or newton_polyhedron(ra).vertices
                    != newton_polyhedron(rb).vertices):
                d_set.append(tuple(a + 1 for a in axes))
    if not d_set:
        return ChangedSubspaces((), tuple(range(1, n + 1)), True)
    common = set(d_set[0]).intersection(*d_set[1:])
    return ChangedSubspaces(tuple(sorted(d_set)), tuple(sorted(common)), False)


# --- the former positivity stack --------------------------------------------

def minimal_full_support(simplex, n):
    """Minimal coordinate subspace meeting the simplex in full dimension.

    Returns the 0-based axis frozenset K with dim(simplex cap R^K) = |K|,
    minimal under inclusion; such a K is unique for a simplex inside the
    orthant, and the section is the hull of the vertices supported inside K.
    """
    for k in range(n + 1):
        for axes in itertools.combinations(range(n), k):
            coords = frozenset(axes)
            w = [v for v in simplex if _support(v) <= coords]
            if len(w) == k + 1:
                return coords
    raise GeometryError("simplex has no full-supporting subspace; "
                        "is it really n-dimensional?")


def _project_out(points, axes):
    """Drop the listed 0-based coordinates."""
    keep = [i for i in range(len(points[0])) if i not in axes]
    return [tuple(p[i] for i in keep) for p in points]


def projection_formula_check(region, axes):
    """Both sides of the projection identity, computed independently.

    axes is the 1-based set I; requires every simplex of the region to have
    minimal full-supporting subspace R^I and the same I-section.  The left
    side is the direct Newton number of the region; the right side is
    |I|! vol(P^I) nu(projection along I), the projection evaluated by
    inclusion-exclusion since simplex shadows may overlap.
    """
    n = region.ambient_dim
    coords = _axes_to_internal(axes, n)
    if not region.simplices:
        raise GeometryError("projection formula needs a nonempty region")
    base_face = None
    for simplex in region.simplices:
        if minimal_full_support(simplex, n) != coords:
            raise GeometryError(
                "hypothesis failure: a simplex has minimal full-supporting "
                f"subspace different from the given axes {tuple(sorted(axes))}")
        w = frozenset(v for v in simplex if _support(v) <= coords)
        if base_face is None:
            base_face = w
        elif base_face != w:
            raise GeometryError(
                "hypothesis failure: simplices have different sections "
                "on the given coordinate subspace")
        if any(all(x == 0 for x in v) for v in simplex):
            raise GeometryError("hypothesis failure: region contains the origin")
    lhs = newton_number_region(region)
    k = len(coords)
    base_vol = simplex_volume(sorted(base_face), tuple(sorted(coords)))
    if k == n:
        proj_nu = ONE
    else:
        shadows = [_project_out(list(simplex), coords)
                   for simplex in region.simplices]
        proj_nu = newton_number_union(shadows, n - k)
    rhs = factorial(k) * base_vol * proj_nu
    return lhs, rhs


def positivity_decomposition(region, axes):
    """Split a region into pieces with nonnegative Newton numbers.

    axes is the 1-based set I of the positivity hypotheses: the region must
    avoid the origin, have vertex coordinates in {0} or [1, inf) outside I,
    meet coordinate subspaces not containing I in dimension < |J|, and meet
    the others in full-dimensional connected sections (the decidable stand-in
    for the disk condition).  Pieces group the simplices by minimal
    full-supporting subspace and common section; the identity
    sum nu(Z_j) = nu(region) and each nu(Z_j) >= 0 are verified exactly and
    raise on failure.
    """
    n = region.ambient_dim
    coords = _axes_to_internal(axes, n)
    if not region.simplices:
        return []
    _check_positivity_hypotheses(region, coords)
    groups = {}
    for simplex in region.simplices:
        k = minimal_full_support(simplex, n)
        w = frozenset(v for v in simplex if _support(v) <= k)
        groups.setdefault((tuple(sorted(k)), w), []).append(simplex)
    pieces, total = [], ZERO
    for (k_axes, _), simplices in sorted(
            groups.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
        z = CompactRegion(n, tuple(sorted(simplices)))
        piece_axes = tuple(a + 1 for a in k_axes)
        lhs, rhs = projection_formula_check(z, piece_axes)
        if lhs != rhs:
            raise InternalConsistencyError(
                "internal consistency failure: projection identity broke "
                f"on a piece with axes {piece_axes}: {lhs} != {rhs}")
        if lhs < 0:
            raise GeometryError(
                f"hypothesis failure: piece with axes {piece_axes} has "
                f"negative Newton number {lhs}")
        total += lhs
        pieces.append((z, piece_axes))
    whole = newton_number_region(region)
    if total != whole:
        raise GeometryError(
            "hypothesis failure: piece Newton numbers sum to "
            f"{total}, region has {whole}; sections must be overlapping")
    return pieces


def _check_positivity_hypotheses(region, coords):
    n = region.ambient_dim
    comp = [i for i in range(n) if i not in coords]
    for simplex in region.simplices:
        for v in simplex:
            if all(x == 0 for x in v):
                raise GeometryError("hypothesis failure: origin in region")
            for i in comp:
                if 0 < v[i] < 1:
                    raise GeometryError(
                        "hypothesis failure: vertex coordinate "
                        f"{v[i]} on axis {i + 1} lies strictly between 0 and 1")
        if len(simplex) > n + 1 or (len(simplex) == n + 1 and not determinant(
                [vsub(v, simplex[0]) for v in simplex[1:]])):
            raise GeometryError(
                "hypothesis failure: simplex "
                f"{' '.join(map(render_point, simplex))} has affinely "
                "dependent vertices")
    for a, b in itertools.combinations(region.simplices, 2):
        v = _stray_meet_vertex(a, b)
        if v is not None:
            raise GeometryError(
                "hypothesis failure: two simplices meet in "
                f"{render_point(v)}, which is not a common vertex")
    for k in range(1, n + 1):
        for axes in itertools.combinations(range(n), k):
            j = frozenset(axes)
            faces, top = {}, set()
            for simplex in region.simplices:
                w = tuple(sorted(v for v in simplex if _support(v) <= j))
                if not w:
                    continue
                faces[frozenset(w)] = w
                if len(w) == k + 1:
                    top.add(frozenset(w))
            if not coords <= j:
                if top:
                    raise GeometryError(
                        "hypothesis failure: full-dimensional section on "
                        f"axes {tuple(a + 1 for a in sorted(j))}, which do "
                        "not contain the given axes")
                continue
            if not top:
                raise GeometryError(
                    "hypothesis failure: empty or degenerate section on "
                    f"axes {tuple(a + 1 for a in sorted(j))}")
            for key, w in faces.items():
                if len(w) <= k and not any(key <= t for t in top):
                    raise GeometryError(
                        "hypothesis failure: section on axes "
                        f"{tuple(a + 1 for a in sorted(j))} is not pure "
                        f"{k}-dimensional")
            _check_connected(top, k)


@functools.lru_cache(maxsize=None)
def _stray_meet_vertex(a, b):
    """The first vertex of the intersection of the hulls of a and b that
    is not a vertex of both, or None: both hulls by the former
    convex_hull, the vertices of their intersection by
    polytope_from_constraints on its rows.  Memoized, since the
    comparison test asks again for every axis set of a region."""
    ha, hb = convex_hull(a), convex_hull(b)
    meet = polytope_from_constraints(ha.equalities + hb.equalities,
                                     ha.facets + hb.facets, len(a[0]))
    return next((v for v in meet.vertices if v not in a or v not in b),
                None) if meet else None


def _check_connected(top_faces, k):
    top = list(top_faces)
    if len(top) <= 1:
        return
    seen, frontier = {0}, [0]
    while frontier:
        cur = frontier.pop()
        for other in range(len(top)):
            if other not in seen and len(top[cur] & top[other]) == k:
                seen.add(other)
                frontier.append(other)
    if len(seen) != len(top):
        raise GeometryError(
            "hypothesis failure: a coordinate section is disconnected "
            "through codimension-one faces")


# --- the former support record and apex search ------------------------------

def support_set(dim, points):
    """The SupportSet of the given points: deduplicated, checked and sorted.

    Integer input, every coordinate of exact type int, is its own scaling
    (den = 1).  Any other input is scaled once to integer tuples over one
    denominator (_scaled), which sort like the points they stand for.
    Those are deduplicated, checked and sorted, and each distinct
    coordinate value becomes one Fraction.
    """
    pts = [tuple(p) for p in points]
    if all(type(x) is int for p in pts for x in p):
        ipts, den = pts, 1
    else:
        ipts, den = _scaled([tuple(map(frac, p)) for p in pts])
    if not ipts:
        raise SupportError("support set is empty")
    if dim > DIMENSION_CAP:
        raise DimensionCapExceeded(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    unique = set(ipts)
    ipts = sorted(unique)
    values = set().union(*ipts)
    value = {x: Fraction(x, den) if den > 1 else Fraction(x) for x in values}
    # one test of the whole set; the loop only words the first bad point
    if (set(map(len, ipts)) != {dim} or min(values, default=0) < 0
            or (0,) * dim in unique):
        for p in ipts:
            if len(p) != dim:
                problem = f"does not have dimension {dim}"
            elif any(x < 0 for x in p):
                problem = "has a negative coordinate"
            elif not any(p):
                raise SupportError("support set contains the origin")
            else:
                continue
            raise SupportError(
                f"point {render_point(value[x] for x in p)} {problem}")
    support = SupportSet(dim, tuple(tuple(map(value.get, p)) for p in ipts))
    # the lazy fact, not a field: what rescaling the points would give
    support.__dict__["_scaled_points"] = tuple(ipts), den
    return support


def _edge(pts, k, j, meet):
    """The BoundaryEdge between the points k and j, with the points of the
    mask meet on it; pts is sorted, so the lower index is the lower end."""
    return BoundaryEdge((pts[min(j, k)], pts[max(j, k)]),
                        tuple(pts[i] for i in _members(meet)))


def find_apex(s, s_prime, alpha):
    """Search every axis outside the support of alpha for a good apex.

    Returns None when no axis has both a unique escaping edge and an old
    vertex on it (in particular when alpha has full support).  The points
    are compared as integers over one common denominator by _on_edge: an
    old vertex v lies on the edge from alpha to its other end o at t in
    (0, 1] when v - alpha is t (o - alpha), and the least t is the least
    |v_k - alpha_k| on the first axis k where o and alpha differ.
    """
    alpha = vec(alpha)
    n = s.dim
    support = frozenset(k for k, x in enumerate(alpha) if x != 0)
    if len(support) == n:
        return None
    outer, inner = newton_polyhedron(s_prime), newton_polyhedron(s)
    a = outer._vertex_index(alpha)
    den = lcm(outer.den, inner.den)
    up = den // outer.den
    ia = tuple(up * x for x in outer.ipts[a])
    old = [(i, tuple(den // inner.den * x for x in inner.ipts[i]))
           for i in _members(inner.vmask)]
    edges = _edges_at(outer, a)
    candidates = []
    for i0 in sorted(set(range(n)) - support):
        escaping = [(j, meet) for j, meet in edges if outer.ipts[j][i0]]
        if len(escaping) != 1:
            continue
        j, meet = escaping[0]
        d = tuple(up * x - y for x, y in zip(outer.ipts[j], ia))
        on_edge = []
        for i, v in old:
            t = _on_edge(v, ia, d)
            if t:
                on_edge.append((t, i))
        if not on_edge:
            continue
        _, i = min(on_edge)
        good = all(inner.ipts[i][q] == (inner.den if q == i0 else 0)
                   for q in range(n) if q not in support)
        candidates.append((i0, _edge(outer.points, a, j, meet), s.points[i],
                           good))
    if not candidates:
        return None
    good_pairs = tuple((i0 + 1, beta) for i0, _, beta, g in candidates if g)
    pick = next((c for c in candidates if c[3]), candidates[0])
    i0, edge, beta, good = pick
    return ApexCertificate(alpha, tuple(a + 1 for a in sorted(support)),
                           i0 + 1, edge, beta, good, good_pairs)


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


# --- edge Euclid ------------------------------------------------------------

def _poly_deg(coeffs):
    for d in range(len(coeffs) - 1, -1, -1):
        if coeffs[d] != 0:
            return d
    return -1


def _poly_rem(a, b):
    """Remainder of a mod b over Q; b nonzero."""
    a = list(a)
    db = _poly_deg(b)
    lead = b[db]
    while _poly_deg(a) >= db:
        da = _poly_deg(a)
        factor = a[da] / lead
        for i in range(db + 1):
            a[da - db + i] -= factor * b[i]
        a[da] = ZERO  # guard against residue from exact cancellation
    return a


def _poly_gcd_degree(a, b):
    while _poly_deg(b) >= 0:
        a, b = b, _poly_rem(a, b)
    return _poly_deg(a)


def _edge_univariate(points, coeffs):
    """Coefficients of the one-variable polynomial carried by an edge."""
    pts = sorted(points)
    direction = primitive_vector(tuple(b - a for a, b in zip(pts[0], pts[-1])))
    j = next(i for i, d in enumerate(direction) if d != 0)
    by_step = {}
    for p in pts:
        step, extra = divmod(p[j] - pts[0][j], direction[j])
        if extra != 0:
            raise GeometryError("edge point off the lattice direction")
        by_step[step] = coeffs[p]
    top = max(by_step)
    return [by_step.get(k, ZERO) for k in range(top + 1)]


# --- term algebra -------------------------------------------------------------

def spoly(n_vars, terms):
    acc = {}
    for e, c in terms:
        mono = _exponent(e, n_vars, "exponent")
        acc[mono] = acc.get(mono, ZERO) + frac(c)
    cleaned = tuple(sorted((m, c) for m, c in acc.items() if c != 0))
    return SPoly(n_vars, cleaned)


def _coefficient_poly(coeff, n_params):
    """Normalize a coefficient: a bare rational means an s-free constant,
    otherwise an iterable of (s_exponent, value)."""
    if isinstance(coeff, (int, Fraction)) or isinstance(coeff, str):
        pairs = [((0,) * n_params, frac(coeff))]
    else:
        pairs = [(se, frac(v)) for se, v in coeff]
    acc = {}
    for se, v in pairs:
        key = _exponent(se, n_params, "parameter exponent")
        acc[key] = acc.get(key, ZERO) + v
    return tuple(sorted((se, v) for se, v in acc.items() if v != 0))


def family(n_vars, n_params, terms):
    acc = {}
    for e, coeff in terms:
        mono = _exponent(e, n_vars, "exponent")
        pairs = _coefficient_poly(coeff, n_params)
        if mono in acc:
            merged = dict(acc[mono])
            for se, v in pairs:
                merged[se] = merged.get(se, ZERO) + v
            acc[mono] = tuple(sorted((se, v) for se, v in merged.items() if v != 0))
        else:
            acc[mono] = pairs
    cleaned = tuple(sorted((m, c) for m, c in acc.items() if c))
    return DeformationFamily(n_vars, n_params, cleaned)


def partial(p, axis):
    """Derivative with respect to the axis-th variable (1-based)."""
    if not 1 <= axis <= p.n_vars:
        raise SupportError(f"axis {axis} out of range 1..{p.n_vars}")
    j = axis - 1
    out = []
    for mono, c in p.terms:
        if mono[j] == 0:
            continue
        dropped = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
        out.append((dropped, c * mono[j]))
    return spoly(p.n_vars, out)


def partial_x(fam, axis):
    if not 1 <= axis <= fam.n_vars:
        raise SupportError(f"axis {axis} out of range 1..{fam.n_vars}")
    j = axis - 1
    out = []
    for mono, coeff in fam.terms:
        if mono[j] == 0:
            continue
        dropped = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
        out.append((dropped, [(se, v * mono[j]) for se, v in coeff]))
    return family(fam.n_vars, fam.n_params, out)


def partial_s(fam, index):
    if not 1 <= index <= fam.n_params:
        raise SupportError(f"parameter {index} out of range 1..{fam.n_params}")
    k = index - 1
    out = []
    for mono, coeff in fam.terms:
        shifted = []
        for se, v in coeff:
            if se[k] == 0:
                continue
            shifted.append((se[:k] + (se[k] - 1,) + se[k + 1:], v * se[k]))
        if shifted:
            out.append((mono, shifted))
    return family(fam.n_vars, fam.n_params, out)


def base(fam):
    """F(x, 0)."""
    zero_s = (0,) * fam.n_params
    out = []
    for mono, coeff in fam.terms:
        for se, v in coeff:
            if se == zero_s:
                out.append((mono, v))
    return spoly(fam.n_vars, out)


def specialize(fam, s_values):
    vals = [frac(v) for v in s_values]
    if len(vals) != fam.n_params:
        raise SupportError("parameter vector has the wrong length")
    out = []
    for mono, coeff in fam.terms:
        total = ZERO
        for se, v in coeff:
            term = v
            for x, e in zip(vals, se):
                term *= x ** e
            total += term
        out.append((mono, total))
    return spoly(fam.n_vars, out)


def arc_order(g, arc):
    """Leading t-order of g composed with the arc."""
    if g.is_zero:
        raise SupportError("arc order of the zero polynomial")
    if len(arc.x_orders) != g.n_vars or len(arc.s_orders) != g.n_params:
        raise SupportError("arc shape does not match the family")
    best = None
    value = 0
    for mono, coeff in g.terms:
        x_part = sum(r * e for r, e in zip(arc.x_orders, mono))
        for s_exp, c in coeff:
            order = x_part + sum(q * e for q, e in zip(arc.s_orders, s_exp))
            lead = c
            for a, e in zip(arc.x_coeffs, mono):
                lead *= a ** e
            for b, e in zip(arc.s_coeffs, s_exp):
                lead *= b ** e
            if best is None or order < best:
                best = order
                value = lead
            elif order == best:
                value += lead
    return ArcOrder(best, value == 0, value)
