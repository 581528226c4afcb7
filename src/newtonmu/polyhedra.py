"""Newton polyhedra of support sets in the nonnegative orthant.

A support set is a finite set of points with nonnegative rational
coordinates, none of them the origin.  Its Newton polyhedron is the convex
hull of the union of translated orthants point + R^n_{>=0}: an unbounded
polyhedron whose recession cone is the whole orthant.  We store an exact
facet description, the full face lattice, the vertex set, and the compact
faces (the Newton boundary).

newton_polyhedron scales the support to integer points by the lcm of its
denominators and reads the facets off the extreme rays of the dual cone
(geometry._dual_facets).  The face lattice is walked down level by level
from the facets by geometry._face_lattice, which the fans' cones share:
each face is one bitmask of the support points on it and its recession
axes, and each face's facets are its maximal proper meets with its
siblings.  Face lattices are graded, so a face's dimension is its level:
no rank is computed and no rational arithmetic runs; offsets and points
come back as Fractions.  The scaled points and the masks of the facets,
compact facets and vertices stay on the polyhedron (_IntegerView) for
check_nested, lower_region and the Newton-number stage.  The polyhedron
is memoized on its SupportSet, so it is freed with the support; nothing is
memoized at module level.

The region under the boundary (the orthant minus the polyhedron, closed) is
star-shaped from the origin, so it decomposes into cones over the compact
facets.  lower_region triangulates those with geometry._pulling, the
pulling rule of geometry.triangulate_polytope, over the bitmasks of
support points: each face is pulled from its least vertex (the lowest set
bit of its vertex mask) and its facets are its maximal proper meets with
the facets' masks, so no hull is computed and the pieces form a simplicial
complex.  Containment (NewtonPolyhedron.contains and check_nested) is one
integer sign test per facet on the point scaled to integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .geometry import (DIMENSION_CAP, DimensionCapExceeded, ZERO,
                       _dual_facets, _face_lattice, _idot, _members,
                       _pulling, _scaled, _unit, vec)


class SupportError(ValueError):
    """A support-set precondition failed."""


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

    @cached_property
    def _newton_polyhedron(self):
        """The Newton polyhedron (see newton_polyhedron), built once per
        instance; not a dataclass field, so equality, hashing and astuple
        do not see it."""
        n = self.dim
        pts = self.points
        ipts, den = _scaled(pts)
        m = len(pts)

        recession = {}  # one frozenset per set of axes, shared by the faces
        facets, masks, seeds, compact = [], [], [], []
        axes = [_unit(n, i) for i in range(n)]
        for w, c, on in _dual_facets(ipts, directions=axes):
            rec = tuple(i for i in range(n) if w[i] == 0)
            facets.append((w, Fraction(c, den),
                           tuple(pts[i] for i in _members(on)),
                           recession.setdefault(rec, frozenset(rec))))
            masks.append(on)
            seeds.append(on | sum(1 << m + i for i in rec))
            if not rec:
                compact.append(on)
        facets = tuple(facets)

        levels = _face_lattice(m, seeds)
        vmask = sum(levels[-1])     # a vertex is one point and no axis
        # pts is sorted, so index tuples sort like the point tuples they name
        lattice = sorted((d, tuple(_members(f & (1 << m) - 1)),
                          tuple(_members(f >> m)))
                         for d, level in enumerate(reversed(levels))
                         for f in level)
        faces = tuple(Face(tuple(pts[i] for i in on),
                           recession.setdefault(rec, frozenset(rec)), d,
                           not rec)
                      for d, on, rec in lattice)
        vertices = tuple(pts[i] for i in _members(vmask))

        np_ = NewtonPolyhedron(n, self, facets, vertices, faces)
        object.__setattr__(np_, "_ints", _IntegerView(
            tuple(ipts), den, tuple(masks), tuple(compact), vmask))
        return np_


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
        (ipoint,), den = _scaled([vec(point)])
        return self._contains_scaled(ipoint, den)

    def _contains_scaled(self, ipoint, den):
        """Whether the point ipoint / den lies in the polyhedron, for an
        integer tuple ipoint and a positive int den: an integer sign test
        <w, ipoint> * off.den >= off.num * den per facet.  The facets
        describe the polyhedron, which lies in the orthant, so no separate
        sign test of the coordinates is needed."""
        return all(_idot(w, ipoint) * off.denominator >= off.numerator * den
                   for w, off, _, _ in self.facets)

    def compact_faces(self):
        return tuple(f for f in self.faces if f.compact)

    def compact_facets(self):
        out = []
        for nrm, off, active, rec in self.facets:
            if not rec and all(x > 0 for x in nrm):
                out.append((nrm, off, active))
        return tuple(out)


class _IntegerView(NamedTuple):
    """A Newton polyhedron as newton_polyhedron computed it: the support
    points scaled to integers, ipts = points * den, and bitmasks over
    their indices, for the facets (in the order of NewtonPolyhedron.facets),
    the compact facets and the vertices."""

    ipts: tuple
    den: int
    facets: tuple
    compact: tuple
    vmask: int


_np_cache = {}  # unused; the benchmark's cache reset still names it


def newton_polyhedron(support):
    """Build the Newton polyhedron of a support set.

    The valid inequalities <w, x> >= c of the polyhedron form the cone
    {(w, c) : <w, p> >= c for every support point p, w >= 0}, the second
    condition because the recession cone is the whole orthant.  The
    polyhedron is pointed and full-dimensional, so this cone is pointed and
    its extreme rays are the facets, the rays with w != 0, and the trivial
    inequality 0 >= -1 (geometry._dual_facets, with the unit vectors as
    directions).  The H-description is the facet list alone.  The points
    are scaled to integers by the lcm of their denominators first, so
    facets and faces come out of integer arithmetic only.  The scaled
    points and the bitmasks stay on the polyhedron as its private
    _IntegerView, which is no dataclass field, so equality, hashing and
    astuple do not see it.

    The polyhedron is memoized on its SupportSet instance (a cached
    property, no dataclass field), so repeated calls with one support
    return one object, and it lives exactly as long as the support.
    Nothing is memoized at module level.
    """
    if not isinstance(support, SupportSet):
        raise SupportError("newton_polyhedron expects a SupportSet")
    return support._newton_polyhedron


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
    Raises SupportError when it fails, or when the two sets live in
    different dimensions.
    """
    if s.dim != s_prime.dim:
        raise SupportError(
            f"support sets of different dimensions {s.dim} and {s_prime.dim}")
    np_outer = newton_polyhedron(s_prime)
    inner = newton_polyhedron(s)._ints
    for i in _members(inner.vmask):
        if not np_outer._contains_scaled(inner.ipts[i], inner.den):
            raise SupportError(
                f"polyhedra not nested: vertex {s.points[i]} of the first "
                "support set lies outside the second polyhedron")


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


def _lower_simplices(support):
    """The polyhedron's _IntegerView and the sorted pulling triangulation
    of its compact facets, as increasing tuples of support-point indices:
    with the origin added to each, the simplices of lower_region."""
    n = support.dim
    covered = support.axes_with_point()
    missing = [i + 1 for i in range(n) if i not in covered]
    if missing:
        raise SupportError(
            "region under the Newton boundary is unbounded: no support "
            f"point on axis {missing[0]}")
    ints = newton_polyhedron(support)._ints
    memo = {}
    return ints, sorted({s for face in ints.compact
                         for s in _pulling(face, ints.vmask, ints.facets,
                                           memo)})


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
