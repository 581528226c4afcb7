"""Independent oracles the tests check the library against.

nu_2d_staircase is written from scratch against the definitions, without
calling into the package, so an agreement is meaningful.

The Fraction linear algebra below (rref, mat_rank, nullspace,
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

The fan oracles are the library's former cone queries, which work on the
cross-section polytope (the slice of a cone by the hyperplane where the
coordinates sum to one) where the library now uses integer H-descriptions,
ray bitmasks, adjugates and direct double-description rays: membership,
intersection, the face test, the face list closed under pairwise
intersection of the cross-section's facets (cone_faces_section), the
canonical cone read off the hull of the generators' cross-section
(cone_from_rays_section), the chart-volume subdivision test, the
bounding-box scan of the fundamental box with one rational solve per
lattice point, and the Newton fan read off sliced dual cones.

The Newton-number oracles at the end are the library's former Fraction
stage: the pulling triangulation with one convex_hull per face of its
recursion (triangulate_polytope_hulls, which the chart-volume subdivision
test above uses too), one convex_hull and triangulation per compact facet
(lower_region_hulls), the difference region hulled per compact facet and
again per piece (difference_region_hulls), one Fraction simplex volume
per section face (volume_vector_fractions), and the union volume vector
with one convex_hull and polytope_volume per coordinate section of each
intersection and V_0 by membership of the origin
(union_volume_vector_hulls); apart from polytope_volume, none of them
shares code with the library's bitmask pulling routine.  The pyramid formula (nu_pyramid)
shares no triangulation code with any of them: it measures each coordinate
section of the region under the Newton boundary as a sum of cones over its
compact facets, on the scans above.
"""

import itertools
from fractions import Fraction as F
from math import factorial

from newtonmu.fans import Fan, LatticeCone, cone_from_rays
from newtonmu.geometry import (ONE, ZERO, GeometryError, Polytope,
                               convex_hull, determinant, dot, frac,
                               intersect_polytopes, polytope_from_constraints,
                               polytope_volume, primitive_vector,
                               sign_canonical, simplex_volume, vec, vsub)
from newtonmu.newton_number import NewtonVolumeVector
from newtonmu.polyhedra import (CompactRegion, Face, NewtonPolyhedron,
                                SupportError, check_nested,
                                newton_polyhedron)


# --- Fraction linear algebra ------------------------------------------------

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


def _unit(n, i):
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
        rows += [_unit(n, i) for i in rc]
        d = mat_rank(rows) if rows else 0
        faces.append(Face(tuple(sorted(pc)), rc, d, not rc))
    faces.sort(key=lambda f: (f.dim, f.points, tuple(sorted(f.recession))))
    return tuple(faces)


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
        units = [_unit(n, i) for i in range(n)]
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
        rows += [_unit(n, i) for i in rec]
        r = mat_rank(rows) if rows else 0
        if r == n - 1:
            final.append((w, frac(c), active, rec))
    final.sort(key=lambda f: (f[0], f[1]))
    facets = tuple(final)

    faces = _face_lattice(n, facets)
    vertices = tuple(sorted(f.points[0] for f in faces if f.dim == 0))
    return NewtonPolyhedron(n, support, facets, vertices, faces)


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
    meet = intersect_polytopes(cross_section(a), cross_section(b))
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


def lower_region_hulls(support):
    """The region under the Newton boundary, one convex_hull and
    triangulate_polytope_hulls per compact facet."""
    n = support.dim
    covered = support.axes_with_point()
    missing = [i + 1 for i in range(n) if i not in covered]
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
    covered = s.axes_with_point()
    missing = [i + 1 for i in range(n) if i not in covered]
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


def _support(v):
    return frozenset(i for i, x in enumerate(v) if x != 0)


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


def union_volume_vector_hulls(polytopes, ambient_dim):
    """Volume vector of a union of orthant polytopes by inclusion-exclusion,
    one convex_hull and polytope_volume per coordinate section of each
    intersection, and V_0 by membership of the origin."""
    n = ambient_dim
    polys = list(polytopes)
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
                current = intersect_polytopes(parent, polys[idx[-1]])
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
                    values[k] += sign * polytope_volume(section)
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
