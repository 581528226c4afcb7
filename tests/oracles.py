"""Independent oracles the tests check the library against.

nu_2d_staircase is written from scratch against the definitions, without
calling into the package, so an agreement is meaningful.

The three exhaustive scans below are the library's former polyhedral
conversions, kept unchanged as oracles for the double-description routine
that replaced them: the supporting-hyperplane scan over point subsets
(convex_hull_scan), the facet scan over point and orthant-direction subsets
(newton_polyhedron_scan) and the basic-solution scan over inequality subsets
(polytope_from_constraints_scan).  They run on the Fraction rref/nullspace
of newtonmu.geometry, which share no code with the fraction-free integer
routine they check, and they keep no cache.

The fan oracles at the end are the library's former cone queries, which
work on the cross-section polytope (the slice of a cone by the hyperplane
where the coordinates sum to one) where the library now uses integer
H-descriptions and adjugates: membership, intersection, the face test and
the chart-volume subdivision test, and the bounding-box scan of the
fundamental box with one rational solve per lattice point.
"""

import itertools
from fractions import Fraction as F
from math import factorial

from newtonmu.fans import LatticeCone
from newtonmu.geometry import (Polytope, _affine_basis, _coords_in_basis,
                               _lift_normal, convex_hull, determinant, dot,
                               frac, intersect_polytopes, mat_rank, nullspace,
                               primitive_vector, sign_canonical, solve_linear,
                               solve_unique, triangulate_polytope, vec, vsub)
from newtonmu.polyhedra import NewtonPolyhedron, _face_lattice, _unit


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
    for simplex in triangulate_polytope(poly):
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
