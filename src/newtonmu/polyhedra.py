"""Newton polyhedra of support sets in the nonnegative orthant.

A support set is a finite set of points with nonnegative rational
coordinates, none of them the origin.  Its Newton polyhedron is the convex
hull of the union of translated orthants point + R^n_{>=0}: an unbounded
polyhedron whose recession cone is the whole orthant.  We store an exact
facet description, the full face lattice, the vertex set, and the compact
faces (the Newton boundary).

The region under the boundary (the orthant minus the polyhedron, closed) is
star-shaped from the origin, so it decomposes into cones over the compact
facets; we triangulate those with the shared pulling rule from geometry so
the pieces form a simplicial complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (DIMENSION_CAP, DimensionCapExceeded, ONE, ZERO,
                       _extreme_rays, _integer_row, convex_hull, dot, frac,
                       mat_rank, triangulate_polytope, vec, vsub)


class SupportError(ValueError):
    """A support-set precondition failed."""


def _unit(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


@dataclass(frozen=True)
class SupportSet:
    """Finite set of exponent points in the open orthant hull sense.

    Points are sorted lexicographically; coordinates are Fractions >= 0 and
    the origin is excluded.  Rational (non-integer) coordinates are allowed:
    nothing downstream needs integrality of the support itself.
    """

    dim: int
    points: tuple

    def restrict(self, axes):
        """Sub-support on a coordinate subspace: the points supported inside
        the given axes, with the other coordinates dropped."""
        axes = tuple(sorted(axes))
        kept = []
        for p in self.points:
            if all(p[i] == 0 for i in range(self.dim) if i not in axes):
                kept.append(tuple(p[i] for i in axes))
        return SupportSet(len(axes), tuple(sorted(set(kept))))

    def restrict_keep_ambient(self, axes):
        """Like restrict but keeps the ambient dimension (zeros outside)."""
        axes = set(axes)
        kept = [p for p in self.points
                if all(p[i] == 0 for i in range(self.dim) if i not in axes)]
        return SupportSet(self.dim, tuple(sorted(set(kept))))

    def augment(self, extra):
        pts = set(self.points) | {vec(p) for p in extra}
        return support_set(self.dim, pts)

    def axes_with_point(self):
        """Axes i such that some support point is a positive multiple of e_i."""
        out = set()
        for p in self.points:
            nz = [i for i, x in enumerate(p) if x != 0]
            if len(nz) == 1:
                out.add(nz[0])
        return frozenset(out)


def support_set(dim, points):
    pts = sorted({vec(p) for p in points})
    if not pts:
        raise SupportError("support set is empty")
    if dim > DIMENSION_CAP:
        raise DimensionCapExceeded(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    for p in pts:
        if len(p) != dim:
            raise SupportError(f"point {p} does not have dimension {dim}")
        if any(x < 0 for x in p):
            raise SupportError(f"point {p} has a negative coordinate")
        if all(x == 0 for x in p):
            raise SupportError("support set contains the origin")
    return SupportSet(dim, tuple(pts))


@dataclass(frozen=True)
class Face:
    """Face of a Newton polyhedron: convex hull of its support points plus
    the cone spanned by its recession axes."""

    points: tuple            # support points lying on the face, sorted
    recession: frozenset     # axis indices i with e_i in the recession cone
    dim: int
    compact: bool


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Unbounded hull of support points translated along the orthant.

    facets   ((normal, offset, active_points, recession), ...) sorted by
             (normal, offset); <normal, x> >= offset, normal a primitive
             nonnegative integer vector
    vertices sorted tuple of the 0-dimensional faces (always support points)
    faces    all proper nonempty faces, including the facets and vertices
    """

    dim: int
    support: SupportSet
    facets: tuple
    vertices: tuple
    faces: tuple

    def contains(self, point):
        point = vec(point)
        if any(x < 0 for x in point):
            return False
        return all(dot(nrm, point) >= off for nrm, off, _, _ in self.facets)

    def compact_faces(self):
        return tuple(f for f in self.faces if f.compact)

    def compact_facets(self):
        out = []
        for nrm, off, active, rec in self.facets:
            if not rec and all(x > 0 for x in nrm):
                out.append((nrm, off, active))
        return tuple(out)

    def support_value(self, direction):
        """min over the polyhedron of <direction, x>; requires a
        componentwise nonnegative direction, else the value is -infinity."""
        direction = vec(direction)
        if any(x < 0 for x in direction):
            raise SupportError("support value needs a nonnegative direction")
        return min(dot(direction, p) for p in self.support.points)


_np_cache = {}


def newton_polyhedron(support):
    """Build the Newton polyhedron of a support set.

    The valid inequalities <w, x> >= c of the polyhedron form the cone
    {(w, c) : <w, p> >= c for every support point p, w >= 0}, the second
    condition because the recession cone is the whole orthant.  The
    polyhedron is pointed and full-dimensional, so this cone is pointed and
    its extreme rays are the facets, the rays with w != 0, and the trivial
    inequality 0 >= -1.  The H-description is the facet list alone.
    """
    if not isinstance(support, SupportSet):
        raise SupportError("newton_polyhedron expects a SupportSet")
    cached = _np_cache.get(support)
    if cached is not None:
        return cached
    n = support.dim
    pts = support.points

    orthant = [_unit(n, i) + (0,) for i in range(n)]
    rays, _ = _extreme_rays((), orthant + [p + (-1,) for p in pts], n + 1)
    final = []
    for ray in rays:
        if not any(ray[:n]):
            continue
        w = _integer_row(ray[:n])
        c = min(dot(w, p) for p in pts)
        active = tuple(p for p in pts if dot(w, p) == c)
        rec = frozenset(i for i in range(n) if w[i] == 0)
        final.append((w, c, active, rec))
    final.sort(key=lambda f: (f[0], f[1]))
    facets = tuple(final)

    faces = _face_lattice(n, facets)
    vertices = tuple(sorted(f.points[0] for f in faces if f.dim == 0))

    np_ = NewtonPolyhedron(n, support, facets, vertices, faces)
    _np_cache[support] = np_
    return np_


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


# --- convenience ----------------------------------------------------------

@dataclass(frozen=True)
class ConvenienceReport:
    """Outcome of the convenience checks on a support set.

    axis_convenient      every coordinate axis carries a support point
                         (equivalently the region under the boundary is
                         bounded)
    missing_axes         axes without a support point (1-based)
    vertex_condition     for each axis i (1-based), whether every vertex
                         coordinate in position i is 0 or >= 1
    convenient           axis_convenient and all vertex conditions hold
    """

    axis_convenient: bool
    missing_axes: tuple
    vertex_condition: dict
    convenient: bool

    def convenient_for(self, axes):
        """Convenience relative to a set of axes (1-based)."""
        return self.axis_convenient and all(self.vertex_condition[i] for i in axes)


def convenience_report(support):
    """Check axis coverage and the unit-coordinate vertex condition.

    The vertex condition for axis i asks that every vertex of the Newton
    polyhedron has i-th coordinate zero or at least 1.  Restrictions to
    coordinate subspaces are faces of the polyhedron, so checking the global
    vertex set covers every restricted support too.
    """
    n = support.dim
    covered = support.axes_with_point()
    missing = tuple(i + 1 for i in range(n) if i not in covered)
    axis_ok = not missing
    cond = {}
    if axis_ok:
        np_ = newton_polyhedron(support)
        for i in range(n):
            cond[i + 1] = all(v[i] == 0 or v[i] >= 1 for v in np_.vertices)
    else:
        for i in range(n):
            cond[i + 1] = False
    return ConvenienceReport(axis_ok, missing, cond,
                             axis_ok and all(cond.values()))


def check_nested(s, s_prime):
    """Verify hull(s) is contained in hull(s_prime).

    Adding support points grows the polyhedron toward the origin, so the
    deformed set's polyhedron contains the original one.  Containment of the
    unbounded hulls reduces to containment of the first hull's vertices.
    Raises SupportError when it fails.
    """
    np_outer = newton_polyhedron(s_prime)
    for v in newton_polyhedron(s).vertices:
        if not np_outer.contains(v):
            raise SupportError(
                f"polyhedra not nested: vertex {v} of the first support "
                "set lies outside the second polyhedron")


def added_vertices(s, s_prime):
    """New vertices of the deformed polyhedron: Ver(s') minus Ver(s).

    Requires hull(s) contained in hull(s_prime).  A vertex of the bigger
    polyhedron lying inside the smaller one is automatically a vertex of the
    smaller one, so the set difference equals the set of vertices strictly
    below the original boundary.
    """
    check_nested(s, s_prime)
    old = set(newton_polyhedron(s).vertices)
    new = [v for v in newton_polyhedron(s_prime).vertices if v not in old]
    return tuple(sorted(new))


# --- the region under the boundary ----------------------------------------

@dataclass(frozen=True)
class CompactRegion:
    """Pure n-dimensional simplicial complex inside the orthant.

    simplices: tuple of simplices, each a sorted tuple of n+1 points.  The
    pieces come from the shared pulling rule, so faces match up exactly and
    volume computations can deduplicate by vertex set.
    """

    ambient_dim: int
    simplices: tuple


def lower_region(support):
    """The closed region between the origin and the Newton boundary.

    Requires every axis to carry a support point (else the region is
    unbounded).  Star-shaped from the origin: cones over the compact facets
    triangulate it.
    """
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
        for s in triangulate_polytope(face):
            simplex = tuple(sorted(s + (origin,)))
            simplices.append(simplex)
    return CompactRegion(n, tuple(sorted(set(simplices))))
