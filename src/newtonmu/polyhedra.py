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

A support S' that holds every point of an axis-convenient S of its
dimension has a nested parent, and its polyhedron is built by placing
the points of S' not in S on hull(S) one at a time (_place,
beneath-beyond).  A point alpha sees the compact facets with
<w, alpha> < c; they go, the others stay, and each horizon ridge between
a seen and an unseen facet spans a new compact facet with alpha, whose
primitive normal comes from the integer minors of the ridge's vertices
minus alpha (unless alpha lies on the unseen facet's plane, which then
grows).  The record is typed-equal to the direct build.  The same pass
cuts hull(S') minus hull(S), the difference region, into the pyramids
over the seen facets: alpha coned over each seen facet's triangulation,
the pulling one for facets of hull(S) and the inherited cones for the
facets placement made or grew, so the pyramids of all steps form one
simplicial complex.  _placement memoizes both on S' for that S; the apex
test places before anything builds hull(S') directly, and
difference_region reads its simplices off the memo.  A support with no
nested parent is built directly, by the double description.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from .geometry import (DIMENSION_CAP, DimensionCapExceeded, ZERO, Record,
                       _dual_facets, _face_lattice, _idot, _int_det,
                       _members, _pulling, _scaled, _unit, _vertex_mask,
                       frac, render_point, vec)


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

    def augment(self, extra):
        return support_set(self.dim, [*self.points, *extra])

    @cached_property
    def missing_axes(self):
        """The 1-based axes i on which no support point lies (no point is a
        positive multiple of e_i), found once per support."""
        covered = set()
        for p in self._scaled_points[0]:
            nz = [i for i, x in enumerate(p) if x]
            if len(nz) == 1:
                covered.add(nz[0])
        return tuple(i + 1 for i in range(self.dim) if i not in covered)

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
    support = SupportSet(dim, tuple(tuple(value[x] for x in p) for p in ipts))
    # the cached property, not a field: what rescaling the points would give
    support.__dict__["_scaled_points"] = tuple(ipts), den
    return support


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

    def _vertex_index(self, point):
        """The index of the vertex at a rational point, found by comparing
        the point scaled to integers with the vertices' integer points;
        SupportError when the point is no vertex."""
        point = vec(point)
        (ipoint,), den = _scaled([point])
        if not self.den % den:
            ipoint = tuple(self.den // den * x for x in ipoint)
            for i in _members(self.vmask):
                if self.ipts[i] == ipoint:
                    return i
        raise SupportError(
            f"{render_point(point)} is not a vertex of the Newton boundary")

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


# --- placing points on a Newton polyhedron ---------------------------------

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


def _place(small, ipts, den, pos):
    """Place the points of a support S' on the Newton polyhedron small of
    an axis-convenient S, one at a time (beneath-beyond: Edelsbrunner,
    Algorithms in Combinatorial Geometry, 1987, ch. 8; the placing
    triangulation: De Loera, Rambau & Santos, Triangulations, 2010, ch. 4).

    ipts are the points of S' times den, sorted, and pos[i] is the index
    there of small's point i.  Returns the ifacets and vmask of S' over
    those indices and the simplices, as increasing index tuples, of the
    pyramids conv(F u {alpha}) over every facet F that a placed point
    alpha sees.

    S is axis-convenient, so every facet with a zero normal entry is a
    coordinate facet x_i >= 0, which no point sees: alpha sees exactly
    the compact facets with <w, alpha> < c.  The facets that alpha does not
    see stay, joined by alpha when it lies on their plane.  A horizon
    ridge is the meet of a seen and an unseen seed that no third seed
    contains; unless alpha lies on the unseen facet's plane, the ridge and
    alpha span a new compact facet, whose seed is the ridge's and alpha's,
    since the plane meets the old polyhedron in the ridge alone.  In
    dimension 1 the horizon is the empty face and the new facet is alpha
    alone.  The seeds stay exact over the points placed so far, and the
    vertices are the old ones and alpha that _vertex_mask keeps.

    The compact facets carry a triangulation: the _pulling triangulation
    over the indices while a facet is one of hull(S), unchanged.  Each
    pyramid is alpha coned over its facet's simplices.  A new facet is
    alpha coned over the simplices its seen facet has on the ridge, and
    an unseen compact facet with alpha on its plane grows by the same
    cones.  So the boundary stays a simplicial complex, and the pyramids
    of any number of steps form one.  Pulling each grown facet afresh
    would not: it need not refine the cones an earlier pyramid has on it.
    """
    n = small.dim
    m0, m = len(small.ipts), len(ipts)
    scale = den // small.den

    def remap(g):
        out = g >> m0 << m
        for i in _members(g & (1 << m0) - 1):
            out |= 1 << pos[i]
        return out

    facets = [(w, c * scale, remap(g)) for w, c, g in small.ifacets]
    vmask = remap(small.vmask)
    tri = {}            # normal -> simplices of a facet new or grown here
    memo = {}
    simplices = []
    for j in sorted(set(range(m)).difference(pos)):
        a, bit = ipts[j], 1 << j
        seeds = [g for _, _, g in facets]
        vals = [_idot(w, a) - c for w, c, _ in facets]
        if all(v >= 0 for v in vals):
            facets = [(w, c, g if v else g | bit)
                      for (w, c, g), v in zip(facets, vals)]
            continue

        def cells(w, g):
            return tri.pop(w) if w in tri else _pulling(g, vmask, seeds, memo)

        seen = [(g, cells(w, g))
                for (w, _, g), v in zip(facets, vals) if v < 0]
        for _, cs in seen:
            simplices.extend(tuple(sorted(t + (j,))) for t in cs)
        kept, new = [], {}
        for (w, c, g), v in zip(facets, vals):
            if v < 0:
                continue
            for f, cs in seen:
                ridge = f & g
                if not ridge or any(ridge & h == ridge for h in seeds
                                    if h != f and h != g):
                    continue
                cone = [tuple(sorted(r + (j,))) for r in (
                    tuple(i for i in t if ridge >> i & 1) for t in cs)
                    if len(r) == n - 1]
                if v:
                    normal = _ridge_normal(
                        [ipts[i] for i in _members(ridge & vmask)], a)
                    new[normal] = _idot(normal, a), ridge | bit, cone
                elif not g >> m:
                    tri[w] = [*cells(w, g), *cone]
            kept.append((w, c, g if v else g | bit))
        if n == 1:
            new[(1,)] = a[0], bit, [(j,)]
        for w, (c, g, cone) in new.items():
            kept.append((w, c, g))
            tri[w] = cone
        facets = sorted(kept)
        vmask = _vertex_mask(_members(vmask) + [j],
                             [g for _, _, g in facets])
    return tuple(facets), vmask, simplices


def _placement(s, s_prime):
    """The simplices, as index tuples over the points of s_prime, of the
    pyramids of placing the points of s_prime on hull(s) (_place); None
    unless s is axis-convenient, of the same dimension, and each of its
    points is a point of s_prime.

    The placed polyhedron becomes the Newton polyhedron of s_prime unless
    that was built already: it is typed-equal to the direct build.  The
    simplices are memoized on s_prime for the last s, so the apex test
    and the difference region of one pair place once.
    """
    memo = s_prime.__dict__.get("_placed")
    if memo is not None and (memo[0] is s or memo[0] == s):
        return memo[1]
    if s.dim != s_prime.dim or s.missing_axes:
        return None
    ipts, den = s_prime._scaled_points
    small_ipts, small_den = s._scaled_points
    if den % small_den:
        return None
    scale = den // small_den
    index = {p: i for i, p in enumerate(ipts)}
    pos = [index.get(tuple(scale * x for x in p)) for p in small_ipts]
    if None in pos:
        return None
    facets, vmask, simplices = _place(newton_polyhedron(s), ipts, den, pos)
    s_prime.__dict__.setdefault("_newton_polyhedron", NewtonPolyhedron(
        s.dim, s_prime.points, ipts, den, facets, vmask))
    s_prime.__dict__["_placed"] = s, simplices
    return simplices


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


def convenience_report(support):
    """Check axis coverage and the unit-coordinate vertex condition.

    The vertex condition for axis i asks that every vertex of the Newton
    polyhedron has i-th coordinate zero or at least 1.  Restrictions to
    coordinate subspaces are faces of the polyhedron, so checking the global
    vertex set covers every restricted support too.  The test runs on the
    vertices' integer points ipts = points * den: x == 0 or x >= den.
    """
    n = support.dim
    missing = support.missing_axes
    axis_ok = not missing
    cond = {}
    if axis_ok:
        np_ = newton_polyhedron(support)
        den = np_.den
        verts = [np_.ipts[i] for i in _members(np_.vmask)]
        for i in range(n):
            cond[i + 1] = all(v[i] == 0 or v[i] >= den for v in verts)
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
    below the original boundary.  The vertices are compared as integer
    points over the lcm of the two denominators; when s' holds the points
    of s, these are the vertex bits of s' whose points are no vertices of
    s.  They come in the order of the points of s', which is sorted.
    A pair that _placement places is nested by construction, so
    check_nested runs only on the others.
    """
    if _placement(s, s_prime) is None:
        check_nested(s, s_prime)
    inner, outer = newton_polyhedron(s), newton_polyhedron(s_prime)
    den = lcm(inner.den, outer.den)
    old = {tuple(den // inner.den * x for x in inner.ipts[i])
           for i in _members(inner.vmask)}
    return tuple(s_prime.points[i] for i in _members(outer.vmask)
                 if tuple(den // outer.den * x for x in outer.ipts[i])
                 not in old)


# --- the region under the boundary ----------------------------------------

class CompactRegion(Record):
    """Pure n-dimensional simplicial complex inside the orthant.

    simplices: tuple of simplices, each a sorted tuple of n+1 points.  The
    pieces come from the shared pulling rule, so faces match up exactly and
    volume computations can deduplicate by vertex set.

    _integer_form, a cached property and no record field (equality, hashing
    and repr do not see it), is (ipts, den, index simplices): the vertices
    times the lcm den of their denominators as integer tuples, and each
    simplex as the tuple of its vertices' indices there, in its own vertex
    order.  lower_region and difference_region seed it from the support's
    integer points, so their Fraction points are never hashed or scaled;
    a region built by hand indexes and scales its points on first use.
    """

    ambient_dim: int
    simplices: tuple

    @cached_property
    def _integer_form(self):
        index = {}
        simplices = [tuple(index.setdefault(v, len(index)) for v in simplex)
                     for simplex in self.simplices]
        ipts, den = _scaled(list(index))
        return ipts, den, simplices


def _region(n, pts, ipts, den, simplices):
    """The CompactRegion whose simplices are the index tuples simplices
    into the points pts, which are ipts / den, with its integer form
    seeded."""
    region = CompactRegion(n, tuple(tuple(pts[i] for i in simplex)
                                    for simplex in simplices))
    region.__dict__["_integer_form"] = ipts, den, simplices
    return region


def _lower_form(support):
    """The integer form (see CompactRegion) of lower_region: the support's
    integer points and the origin after them, their den, and the sorted
    pulling triangulation of the compact facets as increasing tuples of
    support-point indices, each with the origin's index put first."""
    n = support.dim
    if support.missing_axes:
        raise SupportError(
            "region under the Newton boundary is unbounded: no support "
            f"point on axis {support.missing_axes[0]}")
    np_ = newton_polyhedron(support)
    seeds = [g for _, _, g in np_.ifacets]
    memo = {}
    simplices = set()
    for _, _, face in np_._compact_ifacets():
        verts = face & np_.vmask
        # a facet with n vertices is a simplex, its own pulling triangulation
        if verts.bit_count() == n:
            simplices.add(tuple(_members(verts)))
        else:
            simplices.update(_pulling(face, np_.vmask, seeds, memo))
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
    n = support.dim
    # the origin sorts before every support point, and index tuples sort
    # like the point tuples they name
    return _region(n, support.points + ((ZERO,) * n,), *_lower_form(support))
