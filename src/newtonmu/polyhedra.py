"""Newton polyhedra of support sets in the nonnegative orthant.

A support set is a finite set of points with nonnegative rational
coordinates, none of them the origin.  Its Newton polyhedron is the convex
hull of the union of translated orthants point + R^n_{>=0}: an unbounded
polyhedron whose recession cone is the whole orthant.

Both are integer records.  support_set stores the points scaled to
integers by the lcm den of their denominators; the polyhedron holds the
same points, its facets as integer triples and its vertex bitmask
(NewtonPolyhedron).  Their Fraction views are lazy facts, built when a
reader or a report needs them.  The polyhedron is memoized on its
SupportSet and holds the support's integer points, not the support, so
reference counting frees it with the support; nothing is memoized at
module level.

Every polyhedron is built by placement (_place, beneath-beyond): the
points of a support go one at a time onto a start that is written down
(_placed), or, for a support S' that holds every point of an
axis-convenient S of its dimension, onto hull(S) (_placement), so the
apex test and the difference region of a pair place S' once.  Each
placement is one record on the support, its _placed entry (base, D):
what the points were placed on, and the CompactRegion D of the pyramids
the placement cut.  newton_number reads the support's volumes off it
(newton_number._lower_totals), and the difference region of a placed
pair is its D.  Containment (NewtonPolyhedron.contains, check_nested)
is one integer sign test per facet.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

from .geometry import (DIMENSION_CAP, DimensionCapExceeded, Record, _combine,
                       _face_lattice, _idot, _lazy, _members, _pulling,
                       _render_scaled, _scaled, _totals, _unit, _unscaled,
                       _vertex_mask, frac, render_point, vec)


class SupportError(ValueError):
    """A support-set precondition failed."""


class SupportSet(Record):
    """Finite set of exponent points in the open orthant hull sense.

    Points are sorted lexicographically, nonnegative and not the origin;
    rational coordinates are allowed.  support_set stores the integer
    form, _scaled_points: the points times the lcm den of their
    denominators, sorted, and den (1 for integer input).  points, the
    Fraction tuples, is a lazy fact (geometry._lazy) built from it on
    first read; it is still the second field, so equality, hashing and
    repr are those of the Fraction points.  missing_axes,
    _least_axis_points, _scaled_points, _newton_polyhedron and the
    placement record _placed are no record fields.
    """

    dim: int
    points: tuple

    @_lazy
    def points(self):
        return _unscaled(*self._scaled_points)

    def restrict(self, axes):
        """Sub-support on a coordinate subspace: the points supported inside
        the given axes, with the other coordinates dropped."""
        axes = tuple(sorted(axes))
        kept = {tuple(p[i] for i in axes) for p in self.points
                if all(p[i] == 0 for i in range(self.dim) if i not in axes)}
        return SupportSet(len(axes), tuple(sorted(kept)))

    def augment(self, extra):
        """The support of these points and the extra ones.  Over den = 1
        the stored integer points go in as they are, so integer extra
        points build no Fraction."""
        ipts, den = self._scaled_points
        return support_set(self.dim, [*(ipts if den == 1 else self.points),
                                      *extra])

    @_lazy
    def missing_axes(self):
        """The 1-based axes i on which no support point lies (no point is a
        positive multiple of e_i), found once per support."""
        least = self._least_axis_points
        return () if None not in least else tuple(
            [k + 1 for k, i in enumerate(least) if i is None])

    @_lazy
    def _least_axis_points(self):
        """Per axis k, the index of the least point a_k e_k on it, or None
        when there is none; support_set finds them as it checks the
        points."""
        return _axis_points(self.dim, *self._scaled_points)

    @_lazy
    def _scaled_points(self):
        """The points times the lcm of their denominators, as a tuple of
        integer tuples, and that lcm."""
        ipts, den = _scaled(self.points)
        return tuple(ipts), den

    @_lazy
    def _newton_polyhedron(self):
        """The Newton polyhedron (see newton_polyhedron), built once per
        instance."""
        return _placed(self)


def _axis_points(n, ipts, den):
    """Per axis k, the index of the first of the sorted integer points
    ipts (the points times den) on it, or None.  Each point is checked
    on the way, and SupportError names the first bad one."""
    least = [None] * n
    for i, p in enumerate(ipts):
        problem = (f"does not have dimension {n}" if len(p) != n else
                   "has a negative coordinate" if p and min(p) < 0 else "")
        if problem:
            raise SupportError(f"point {_render_scaled(p, den)} {problem}")
        if not any(p):
            raise SupportError("support set contains the origin")
        # a point on an axis: its one nonzero entry is its max
        if p.count(0) == n - 1 and least[k := p.index(max(p))] is None:
            least[k] = i
    return tuple(least)


def _placed(support):
    """The Newton polyhedron of a support: its points placed (_place) on
    a start that is written down, in the support's integer coordinates.

    With a point on every axis and n > 1, the start is the polyhedron of
    the least axis points a_k e_k.  With L = lcm(a_1, ..., a_n), its
    facets are the compact <w, x> >= L, w_k = L / a_k, through the n axis
    points (w is primitive: gcd_k(L / a_k) = L / lcm(a) = 1), and for
    each k the coordinate facet x_k >= 0 through the other axis points
    and the recession axes e_j, j != k.

    A point with no zero coordinate and <w, x> > L lies inside the
    start, off every facet plane.  The polyhedron only grows as points
    are placed, so it stays inside, where placing it changes nothing:
    it is not placed.

    Otherwise the start is the first point p, which is minimal, as the
    points are sorted: p + R^n_{>=0}, with the facets x_k >= p_k through
    p and the recession axes e_j, j != k, and the facet at infinity
    (w = 0, c = -1, every recession axis), which _place drops again.

    The start's seeds are written over the support's own indices, so the
    other points are placed on it as they are.  The placement is
    recorded on the support as its _placed entry (start, D0): the
    integer start points, the axis points a_k e_k in axis order (or p),
    and the region of the pyramids that _place cut, over the support's
    integer points (_region).  Without a point on every axis a seen facet
    may be unbounded, and its pyramid is missing; no lower region exists
    to read then."""
    n, pos = support.dim, support._least_axis_points
    ipts, den = support._scaled_points
    m, every = len(ipts), (1 << n) - 1
    if n > 1 and None not in pos:
        a = [ipts[i][k] for k, i in enumerate(pos)]
        c = lcm(*a)
        w = tuple([c // x for x in a])
        on = 0
        for i in pos:
            on |= 1 << i
        # sorted: e_{n-1}, ..., e_0, then w, whose entries are all positive
        facets = [(_unit(n, k), 0, on ^ 1 << pos[k] | (every ^ 1 << k) << m)
                  for k in range(n - 1, -1, -1)]
        facets.append((w, c, on))
        # a point inside the start, on no facet plane, stays inside
        todo = [i for i, p in enumerate(ipts) if not on >> i & 1
                and (0 in p or sum(map(mul, w, p)) <= c)]
    else:
        pos, on = (0,), 1
        facets = sorted([((0,) * n, -1, every << m)] + [
            (_unit(n, k), ipts[0][k], 1 | (every ^ 1 << k) << m)
            for k in range(n)])
        todo = range(1, m)
    facets, vmask, simplices = _place(n, facets, on, ipts, todo)
    support.__dict__["_placed"] = (tuple([ipts[i] for i in pos]),
                                   _region(n, ipts, den, simplices))
    return NewtonPolyhedron._from_facts(dim=n, ipts=ipts, den=den,
                                        ifacets=facets, vmask=vmask)


def support_set(dim, points):
    """The SupportSet of the given points: deduplicated, checked and sorted.

    Integer input, every coordinate of exact type int, is its own scaling
    (den = 1) and builds no Fraction.  Any other input is scaled once to
    integer tuples over one denominator (_scaled), which sort like the
    points they stand for.  Those are the support's stored form
    (_scaled_support); its Fraction points are built when read.
    """
    pts = list(map(tuple, points))
    if set(map(type, chain.from_iterable(pts))) <= {int}:
        return _scaled_support(dim, pts, 1)
    return _scaled_support(dim, *_scaled([tuple(map(frac, p)) for p in pts]))


def _scaled_support(dim, ipts, den):
    """The SupportSet of the points ipts / den, for integer tuples ipts
    and den the lcm of the denominators of those points: deduplicated,
    sorted, checked (_axis_points) and stored as they are."""
    if not ipts:
        raise SupportError("support set is empty")
    if dim > DIMENSION_CAP:
        raise DimensionCapExceeded(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    ipts = tuple(sorted(set(ipts)))
    return SupportSet._from_facts(
        dim=dim, _scaled_points=(ipts, den),
        _least_axis_points=_axis_points(dim, ipts, den))


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
    points is a lazy fact (geometry._lazy) of ipts and den when the
    polyhedron is placed, and so are the Fraction views, no record fields:
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

    @_lazy
    def points(self):
        return _unscaled(self.ipts, self.den)

    @_lazy
    def facets(self):
        pts = self.points
        m = len(pts)
        return tuple((w, Fraction(c, self.den),
                      tuple(pts[i] for i in _members(g & (1 << m) - 1)),
                      frozenset(_members(g >> m)))
                     for w, c, g in self.ifacets)

    @_lazy
    def vertices(self):
        return tuple(self.points[i] for i in _members(self.vmask))

    @_lazy
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

    def compact_faces(self):
        return tuple(f for f in self.faces if f.compact)

    def compact_facets(self):
        return tuple((nrm, off, active)
                     for nrm, off, active, rec in self.facets if not rec)


_np_cache = {}  # unused; the benchmark's cache reset still names it


def newton_polyhedron(support):
    """The Newton polyhedron of a support set, the integer record
    NewtonPolyhedron, built by placement on integer points (_placed).

    It is memoized on its SupportSet instance (a lazy fact, no record
    field), so repeated calls with one support return one object, and it
    lives exactly as long as the support.
    """
    if not isinstance(support, SupportSet):
        raise SupportError("newton_polyhedron expects a SupportSet")
    return support._newton_polyhedron


# --- placing points on a Newton polyhedron ---------------------------------

def _cell_masks(n, w, face, vmask, seeds, memo, tri):
    """The simplices of the compact facet with normal w and mask face of
    a polyhedron in dimension n, as bitmasks of their points: those tri
    holds for a facet that placement made or grew, taken out of it, or
    else the pulling triangulation (geometry._pulling).  A facet with n
    vertices is a simplex, its own triangulation, and is not walked."""
    if w in tri:
        return tri.pop(w)
    verts = face & vmask
    if verts.bit_count() == n:
        return (verts,)
    return [sum(1 << i for i in t) for t in _pulling(face, vmask, seeds, memo)]


def _place(n, facets, vmask, ipts, todo):
    """Place points of a support S' on the Newton polyhedron of a support
    S, one at a time (beneath-beyond: Edelsbrunner, Algorithms in
    Combinatorial Geometry, 1987, ch. 8; the placing triangulation:
    De Loera, Rambau & Santos, Triangulations, 2010, ch. 4).

    ipts are the points of S' times den, sorted, in dimension n.  facets
    (sorted) and vmask are those of hull(S) over the indices of S': a
    facet (w, c, g) is <w, x> >= c / den, g the bitmask of the points on
    it plus bit len(ipts) + i per recession axis e_i.  todo lists the
    indices of the points to place, in order.  Returns the ifacets and
    vmask of S' and the sorted simplices, as increasing index tuples, of
    the pyramids conv(F u {alpha}) over every compact facet F that a
    placed point alpha sees.

    The polyhedron is read as its homogenized cone {(x, t) : <w, x> >= c t},
    where a point is (x, 1) and a recession axis (e_i, 0).  The facets may
    include that cone's facet at infinity t >= 0, the triple (0, -1, every
    recession axis), which no point sees and which leaves the result
    (_placed starts from it).  alpha sees the facets with <w, alpha> < c;
    the facets that alpha does not see stay, joined by alpha when it
    lies on their plane.  A horizon ridge is the meet of a seen and an
    unseen seed that no third seed contains; unless alpha lies on the
    unseen facet's plane, the ridge and alpha span a new facet, whose
    seed is the ridge's and alpha's, since the plane meets the old cone
    in the ridge alone.  Its normal is the primitive v_g w_f - v_f w_g,
    v = <w, alpha> - c, of the seen f (v_f < 0) and unseen g (v_g > 0):
    that plane holds the ridge and alpha, and both coefficients are
    positive, so it points inward.  Where g is the facet at infinity it
    is w_f, unbounded like f.  In dimension 1 the horizon is the empty
    face and the new facet is alpha alone.  A ridge of the cone, of
    dimension n - 1, has at least n - 1 generators, so a meet with fewer
    bits, or an unseen seed that meets no seen one, is passed over before
    any third seed is read.  The seeds stay exact over the points placed
    so far.  alpha is a vertex, and an old vertex on no seen facet keeps
    its facets, so _vertex_mask reads only the old vertices on a seen
    facet.

    The pyramids are exact when no seen facet is unbounded.  That holds
    when S is axis-convenient, as in _placement: every facet with a zero
    normal entry is then a coordinate facet x_i >= 0, which no point
    sees.  An unbounded seen facet gives no pyramid.

    The compact facets carry a triangulation: while a facet is one of
    hull(S), unchanged, the facet itself when it has n vertices, a
    simplex, else its _pulling triangulation over the indices.  Each
    pyramid is alpha coned over its facet's simplices.  A new facet is
    alpha coned over the simplices its seen facet has on the ridge, and
    an unseen compact facet with alpha on its plane grows by the same
    cones.  So the boundary stays a simplicial complex, and the pyramids
    of any number of steps form one.  Pulling each grown facet afresh
    would not: it need not refine the cones an earlier pyramid has on it.
    While placing, a simplex is the bitmask of its points (_cell_masks),
    so a cone is a meet with the ridge and a pyramid one more bit; they
    become index tuples when the placement returns.
    """
    m = len(ipts)
    need = max(n - 1, 1)
    tri = {}            # normal -> simplices of a facet new or grown here
    memo, pyramids = {}, []
    for j in todo:
        a, bit = ipts[j], 1 << j
        vals = [sum(map(mul, w, a)) - c for w, c, _ in facets]
        low = min(vals)
        if low > 0:         # beyond every facet plane: nothing changes
            continue
        if low == 0:
            facets = [f if v else (f[0], f[1], f[2] | bit)
                      for f, v in zip(facets, vals)]
            continue
        seeds = [g for _, _, g in facets]
        seen, touched = [], 0
        for (w, _, g), v in zip(facets, vals):
            if v < 0:
                cs = () if g >> m else _cell_masks(   # unbounded: ()
                    n, w, g, vmask, seeds, memo, tri)
                for t in cs:
                    pyramids.append(t | bit)
                seen.append((w, v, g, cs))
                touched |= g
        kept, new = [], {}
        for facet, v in zip(facets, vals):
            if v < 0:
                continue
            w, c, g = facet
            if g & touched:
                for wf, vf, f, cs in seen:
                    ridge = f & g
                    if ridge.bit_count() < need:
                        continue
                    # a ridge: no seed but f and g contains it
                    if list(map(ridge.__and__, seeds)).count(ridge) == 2:
                        cone = [r | bit for t in cs
                                if (r := t & ridge).bit_count() == n - 1]
                        if v:
                            normal = _combine(v, wf, vf, w)
                            new[normal] = (sum(map(mul, normal, a)),
                                           ridge | bit, cone)
                        elif not g >> m:
                            tri[w] = [*_cell_masks(n, w, g, vmask, seeds,
                                                   memo, tri), *cone]
            kept.append(facet if v else (w, c, g | bit))
        if n == 1:
            new[(1,)] = a[0], bit, [bit]
        for w, (c, g, cone) in new.items():
            kept.append((w, c, g))
            tri[w] = cone
        facets = sorted(kept)
        vmask = vmask & ~touched | bit | _vertex_mask(
            _members(vmask & touched), [g for _, _, g in facets])
    if not any(facets[0][0]):   # the facet at infinity sorts first
        facets = facets[1:]
    return tuple(facets), vmask, sorted([tuple(_members(t)) for t in pyramids])


def _placement(s, s_prime):
    """The region D of the pyramids of placing the points of s_prime on
    hull(s) (_place), over the integer points of s_prime; None unless s
    is axis-convenient, of the same dimension, and each of its points is
    a point of s_prime.

    Each seed of hull(s) moves into the indices of s_prime by a zero bit
    put in at each point of s_prime that s lacks, in increasing order.
    The placed polyhedron becomes the Newton polyhedron of s_prime unless
    that was built already: it is typed-equal to the one newton_polyhedron
    builds.  The placement is recorded on s_prime as its _placed entry
    (s, D), in place of any earlier one, so a pair places once; a copy
    of s (equal integer points) reads the same record.  A support with
    the points of s has nothing to place: its D is empty, and it keeps
    its record, since one pointing back at s could close a loop of
    records.
    """
    memo = s_prime.__dict__.get("_placed")
    if memo is not None and (memo[0] is s or isinstance(memo[0], SupportSet)
                             and memo[0]._scaled_points == s._scaled_points):
        return memo[1]
    ipts, den = s_prime._scaled_points
    small, small_den = s._scaled_points
    if s.dim != s_prime.dim or s.missing_axes or den % small_den:
        return None
    scale = den // small_den
    old = set(small) if scale == 1 else {tuple(scale * x for x in p)
                                         for p in small}
    todo = [j for j, p in enumerate(ipts) if p not in old]
    if len(ipts) - len(todo) < len(old):
        return None
    if not todo:        # s_prime is s again
        return _region(s.dim, ipts, den, [])
    np_ = s._newton_polyhedron
    facets, vmask = np_.ifacets, np_.vmask
    if scale > 1:
        facets = [(w, c * scale, g) for w, c, g in facets]
    for j in todo:
        low = (1 << j) - 1
        facets = [(w, c, g & low | g >> j << j + 1) for w, c, g in facets]
        vmask = vmask & low | vmask >> j << j + 1
    facets, vmask, simplices = _place(s.dim, facets, vmask, ipts, todo)
    s_prime.__dict__.setdefault(
        "_newton_polyhedron", NewtonPolyhedron._from_facts(
            dim=s.dim, ipts=ipts, den=den, ifacets=facets, vmask=vmask))
    region = _region(s.dim, ipts, den, simplices)
    s_prime.__dict__["_placed"] = s, region
    return region


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
    vertex set covers every restricted support too.  The axes where it
    fails come from _fractional_axes, which the apex test reads too; a
    support that misses an axis fails it on every axis.
    """
    n = support.dim
    missing = support.missing_axes
    cond = dict.fromkeys(range(1, n + 1), not missing)
    if not missing:
        for i in _fractional_axes(support):
            cond[i] = False
    return ConvenienceReport(not missing, missing, cond,
                             not missing and all(cond.values()))


def _fractional_axes(support):
    """The 1-based axes on which a vertex of the Newton polyhedron of a
    support that covers every axis has a coordinate strictly between 0
    and 1: those whose vertex condition fails.  The test runs on the
    vertices' integer points ipts = points * den, as 0 < x < den.  Over
    den = 1 no integer lies there, so every condition holds and no
    polyhedron is built."""
    if support._scaled_points[1] == 1:
        return ()
    np_ = newton_polyhedron(support)
    verts = [np_.ipts[i] for i in _members(np_.vmask)]
    return tuple(i + 1 for i in range(support.dim)
                 if any(0 < v[i] < np_.den for v in verts))


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
    outer, inner = newton_polyhedron(s_prime), newton_polyhedron(s)
    for i in _members(inner.vmask):
        if not outer._contains_scaled(inner.ipts[i], inner.den):
            raise SupportError(
                "polyhedra not nested: vertex "
                f"{_render_scaled(inner.ipts[i], inner.den)} "
                "of the first support set lies outside the second polyhedron")


def _over_lcm(a, b):
    """The integer points of the polyhedra a and b over the lcm of their
    dens, as stored when the dens are equal, and that lcm."""
    if a.den == b.den:
        return a.ipts, b.ipts, a.den
    den = lcm(a.den, b.den)
    return (*([tuple(den // np_.den * x for x in p) for p in np_.ipts]
              for np_ in (a, b)), den)


def _added(s, s_prime):
    """The indices, into the points of s_prime, of the vertices of
    hull(s_prime) that are no vertices of hull(s), increasing: Ver(s')
    minus Ver(s) (added_vertices).  The vertices are compared as integer
    points over the lcm of the two dens (_over_lcm).  A pair that
    _placement places is nested by construction, so check_nested runs
    only on the others."""
    if _placement(s, s_prime) is None:
        check_nested(s, s_prime)
    inner, outer = s._newton_polyhedron, s_prime._newton_polyhedron
    old, pts, _ = _over_lcm(inner, outer)
    old = {old[i] for i in _members(inner.vmask)}
    return [i for i in _members(outer.vmask) if pts[i] not in old]


def added_vertices(s, s_prime):
    """New vertices of the deformed polyhedron: Ver(s') minus Ver(s), in
    the order of the points of s', which is sorted (_added).

    Requires hull(s) contained in hull(s_prime).  A vertex of the bigger
    polyhedron lying inside the smaller one is automatically a vertex of the
    smaller one, so the set difference equals the set of vertices strictly
    below the original boundary.
    """
    return tuple(s_prime.points[i] for i in _added(s, s_prime))


# --- compact regions ------------------------------------------------------

class CompactRegion(Record):
    """Pure n-dimensional simplicial complex inside the orthant.

    simplices: tuple of simplices, each a sorted tuple of n+1 points,
    forming one simplicial complex (the pyramids of a placement, or some
    of them), so faces match up exactly and volume computations can
    deduplicate by vertex set.

    Two lazy facts (geometry._lazy) carry the integer arithmetic.
    _integer_form is (ipts, den, index simplices): the vertices times the
    lcm den of their denominators, and each simplex as the tuple of its
    vertices' indices there.  _integer_totals sums it once.  A placement
    makes its region from its integer form (_region), and simplices is
    then built when read; a region built by hand indexes and scales its
    points on first use.  Either way the record's field is simplices, so
    equality, hashing and repr see the points.
    """

    ambient_dim: int
    simplices: tuple

    @_lazy
    def simplices(self):
        ipts, den, simplices = self._integer_form
        pts = _unscaled(ipts, den)
        return tuple(tuple(pts[i] for i in simplex) for simplex in simplices)

    @_lazy
    def _integer_form(self):
        index = {}
        simplices = [tuple(index.setdefault(v, len(index)) for v in simplex)
                     for simplex in self.simplices]
        ipts, den = _scaled(list(index))
        return ipts, den, simplices

    @_lazy
    def _integer_totals(self):
        """The totals T_k = k! V_k den^k of the simplices (geometry._totals),
        and den."""
        ipts, den, simplices = self._integer_form
        return _totals(self.ambient_dim, ipts, simplices), den


def _region(n, ipts, den, simplices):
    """The CompactRegion whose simplices are the index tuples simplices
    into the integer points ipts over den, given as its integer form;
    its Fraction simplices are built when read."""
    return CompactRegion._from_facts(ambient_dim=n,
                                     _integer_form=(ipts, den, simplices))


def _require_bounded(support):
    """SupportError unless every axis carries a point of support, so
    that the region under its Newton boundary is bounded."""
    if support.missing_axes:
        raise SupportError(
            "region under the Newton boundary is unbounded: no support "
            f"point on axis {support.missing_axes[0]}")
