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
"""

import itertools
from fractions import Fraction as F

from newtonmu.geometry import (Polytope, _affine_basis, _coords_in_basis,
                               _lift_normal, dot, frac, mat_rank, nullspace,
                               primitive_vector, sign_canonical, solve_unique,
                               vec, vsub)
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
