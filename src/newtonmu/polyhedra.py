"""Newton polyhedra of support sets in the nonnegative orthant.

A support set is a finite set of points with nonnegative rational
coordinates, none of them the origin.  Its Newton polyhedron is the convex
hull of the union of translated orthants point + R^n_{>=0}: an unbounded
polyhedron whose recession cone is the whole orthant.

The polyhedron is an integer record: the support's sorted points, the
same points scaled to integers by the lcm den of their denominators, the
facets as triples (w, c, seed), meaning <w, x> >= c / den, and the vertex
bitmask.  A seed is the bitmask of the points on the facet plus bit m + i
for each recession axis e_i.  Since the polyhedron is conv(S) + R^n_{>=0},
only the componentwise-minimal points can be vertices: the facets are read
off the extreme rays of the dual cone of those points alone
(geometry._dual_facets), and each dominated point is put back into the
facets it lies on by one integer dot product.  A point is a vertex exactly
when the meet of the seeds through it is that point alone
(geometry._vertex_mask).  The Fraction facets, the vertices and the faces
are cached properties, built on first access; faces walks
geometry._face_lattice, which the fans' cones share, down level by level
from the seeds.  Face lattices are graded, so a face's dimension is its
level: no rank is computed and no rational arithmetic runs.  The
polyhedron is memoized on its SupportSet and holds the support's points,
not the support, so reference counting frees it with the support; nothing
is memoized at module level.

The region under the boundary (the orthant minus the polyhedron, closed) is
star-shaped from the origin, so it decomposes into cones over the compact
facets.  lower_region triangulates those with geometry._pulling over the
bitmasks of support points: each face is pulled from its least vertex (the
lowest set bit of its vertex mask) and its facets are its maximal proper
meets with the facets' masks, so no hull is computed and the pieces form a
simplicial complex.  Containment (NewtonPolyhedron.contains and check_nested) is one
integer sign test per facet on the point scaled to integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .geometry import (DIMENSION_CAP, DimensionCapExceeded, ZERO, Record,
                       _dual_facets, _face_lattice, _idot, _members,
                       _pulling, _scaled, _unit, _vertex_mask, frac,
                       render_point, vec)


class SupportError(ValueError):
    """A support-set precondition failed."""


class SupportSet(Record):
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
        return support_set(self.dim, [*self.points, *extra])

    @cached_property
    def axes_with_point(self):
        """Axes i such that some support point is a positive multiple of
        e_i, found once per support."""
        out = set()
        for p in self._scaled_points[0]:
            nz = [i for i, x in enumerate(p) if x]
            if len(nz) == 1:
                out.add(nz[0])
        return frozenset(out)

    @cached_property
    def _scaled_points(self):
        """The points times the lcm of their denominators, as a tuple of
        integer tuples, and that lcm."""
        ipts, den = _scaled(self.points)
        return tuple(ipts), den

    @cached_property
    def _newton_polyhedron(self):
        """The Newton polyhedron (see newton_polyhedron), built once per
        instance; not a record field, so equality, hashing and the field
        tuple do not see it."""
        n = self.dim
        ipts, den = self._scaled_points
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
                                     directions=[_unit(n, i)
                                                 for i in range(n)]):
            if len(minimal) < m:    # put the dominated points back
                on = sum(1 << i for i, p in enumerate(ipts)
                         if _idot(w, p) == c)
            facets.append((w, c, on | sum(1 << m + i for i in range(n)
                                          if not w[i])))
        return NewtonPolyhedron(n, self.points, ipts, den, tuple(facets),
                                _vertex_mask(minimal,
                                             [g for _, _, g in facets]))


def support_set(dim, points):
    """The SupportSet of the given points: deduplicated, checked and sorted.

    The points are scaled once to integer tuples over one denominator
    (_scaled), which sort like the points they stand for; those are
    deduplicated, checked and sorted, and each distinct coordinate value
    becomes one Fraction.
    """
    ipts, den = _scaled([tuple(x if type(x) is int else frac(x) for x in p)
                         for p in points])
    if not ipts:
        raise SupportError("support set is empty")
    if dim > DIMENSION_CAP:
        raise DimensionCapExceeded(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    ipts = sorted(set(ipts))
    value = {x: Fraction(x, den) for x in set().union(*ipts)}
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
    return SupportSet(dim, tuple(tuple(value[x] for x in p) for p in ipts))


class Face(Record):
    """Face of a Newton polyhedron: convex hull of its support points plus
    the cone spanned by its recession axes."""

    points: tuple            # support points lying on the face, sorted
    recession: frozenset     # axis indices i with e_i in the recession cone
    dim: int
    compact: bool


class NewtonPolyhedron(Record):
    """Unbounded hull of support points translated along the orthant, as
    the integer record newton_polyhedron computes.

    points   the support's sorted points; ipts = points * den, integers
    ifacets  ((w, c, seed), ...) sorted by w: <w, x> >= c / den, w
             primitive and nonnegative, seed the bitmask of the points on
             the facet plus bit len(points) + i per recession axis e_i
    vmask    the bitmask of the points that are vertices

    Equality and hashing see these fields, which the points determine.
    The Fraction views are cached properties, no record fields:
    facets   ((normal, c / den, active_points, recession), ...)
    vertices sorted tuple of the 0-dimensional faces (always support points)
    faces    all proper nonempty faces, including the facets and vertices,
             sorted by (dim, points, recession)
    """

    dim: int
    points: tuple
    ipts: tuple
    den: int
    ifacets: tuple
    vmask: int

    @cached_property
    def facets(self):
        pts = self.points
        m = len(pts)
        return tuple((w, Fraction(c, self.den),
                      tuple(pts[i] for i in _members(g & (1 << m) - 1)),
                      frozenset(_members(g >> m)))
                     for w, c, g in self.ifacets)

    @cached_property
    def vertices(self):
        return tuple(self.points[i] for i in _members(self.vmask))

    @cached_property
    def faces(self):
        pts = self.points
        m = len(pts)
        # pts is sorted, so index tuples sort like the point tuples they name
        lattice = sorted((d, tuple(_members(f & (1 << m) - 1)),
                          tuple(_members(f >> m)))
                         for d, level in enumerate(reversed(_face_lattice(
                             m, [g for _, _, g in self.ifacets])))
                         for f in level)
        return tuple(Face(tuple(pts[i] for i in on), frozenset(rec), d,
                          not rec)
                     for d, on, rec in lattice)

    def contains(self, point):
        (ipoint,), den = _scaled([vec(point)])
        return self._contains_scaled(ipoint, den)

    def _contains_scaled(self, ipoint, den):
        """Whether the point ipoint / den lies in the polyhedron, for an
        integer tuple ipoint and a positive int den: the integer sign test
        <w, ipoint> * self.den >= c * den per facet.  The facets describe
        the polyhedron, which lies in the orthant, so no separate sign
        test of the coordinates is needed."""
        return all(_idot(w, ipoint) * self.den >= c * den
                   for w, c, _ in self.ifacets)

    def _compact_ifacets(self):
        """The compact facets, those with no recession axis, as ifacets."""
        m = len(self.points)
        return [f for f in self.ifacets if not f[2] >> m]

    def compact_faces(self):
        return tuple(f for f in self.faces if f.compact)

    def compact_facets(self):
        return tuple((nrm, off, active)
                     for nrm, off, active, rec in self.facets if not rec)


_np_cache = {}  # unused; the benchmark's cache reset still names it


def newton_polyhedron(support):
    """Build the Newton polyhedron of a support set.

    The valid inequalities <w, x> >= c of the polyhedron form the cone
    {(w, c) : <w, p> >= c for every support point p, w >= 0}, the second
    condition because the recession cone is the whole orthant.  As w >= 0,
    a point above another one adds no condition, so p runs over the
    componentwise-minimal points only.  The polyhedron is pointed and
    full-dimensional, so this cone is pointed and its extreme rays are the
    facets, the rays with w != 0, and the trivial inequality 0 >= -1
    (geometry._dual_facets, with the unit vectors as directions).  The
    points are scaled to integers by the lcm of their denominators first,
    so the whole build is integer arithmetic.  The H-description is the
    facet list alone; the dominated points join the facets' seeds by one
    integer dot product each, and the vertices are the points that are the
    meet of the seeds through them.  The result is the integer record
    NewtonPolyhedron; its Fraction views are built only when read.

    The polyhedron is memoized on its SupportSet instance (a cached
    property, no record field), so repeated calls with one support
    return one object, and it lives exactly as long as the support.
    Nothing is memoized at module level.
    """
    if not isinstance(support, SupportSet):
        raise SupportError("newton_polyhedron expects a SupportSet")
    return support._newton_polyhedron


# --- convenience ----------------------------------------------------------

class ConvenienceReport(Record):
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
    covered = support.axes_with_point
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
    Raises SupportError when it fails, or when the two sets live in
    different dimensions.
    """
    if s.dim != s_prime.dim:
        raise SupportError(
            f"support sets of different dimensions {s.dim} and {s_prime.dim}")
    outer = newton_polyhedron(s_prime)
    inner = newton_polyhedron(s)
    for i in _members(inner.vmask):
        if not outer._contains_scaled(inner.ipts[i], inner.den):
            raise SupportError(
                f"polyhedra not nested: vertex {render_point(s.points[i])} "
                "of the first support set lies outside the second polyhedron")


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

class CompactRegion(Record):
    """Pure n-dimensional simplicial complex inside the orthant.

    simplices: tuple of simplices, each a sorted tuple of n+1 points.  The
    pieces come from the shared pulling rule, so faces match up exactly and
    volume computations can deduplicate by vertex set.
    """

    ambient_dim: int
    simplices: tuple


def _lower_simplices(support):
    """The Newton polyhedron and the sorted pulling triangulation of its
    compact facets, as increasing tuples of support-point indices: with
    the origin added to each, the simplices of lower_region."""
    n = support.dim
    covered = support.axes_with_point
    missing = [i + 1 for i in range(n) if i not in covered]
    if missing:
        raise SupportError(
            "region under the Newton boundary is unbounded: no support "
            f"point on axis {missing[0]}")
    np_ = newton_polyhedron(support)
    seeds = [g for _, _, g in np_.ifacets]
    memo = {}
    return np_, sorted({s for _, _, face in np_._compact_ifacets()
                        for s in _pulling(face, np_.vmask, seeds, memo)})


def lower_region(support):
    """The closed region between the origin and the Newton boundary.

    Requires every axis to carry a support point (else the region is
    unbounded).  Star-shaped from the origin: cones over the compact facets
    triangulate it.  Each compact facet is triangulated by
    geometry._pulling over the polyhedron's bitmasks of support points
    (_lower_simplices).
    """
    _, simplices = _lower_simplices(support)
    pts = support.points
    # the origin sorts before every support point, and index tuples sort
    # like the point tuples they name
    origin = tuple(ZERO for _ in range(support.dim))
    return CompactRegion(support.dim, tuple(
        (origin,) + tuple(pts[i] for i in s) for s in simplices))
