"""Newton numbers of compact regions and support sets.

The Newton number of a compact region P in the nonnegative orthant is the
alternating sum n!V_n - (n-1)!V_{n-1} + ... +- V_0 where V_k adds the
k-volumes of the sections of P with the k-dimensional coordinate subspaces
(V_0 is 1 or 0 by membership of the origin).  For a support set S it is the
Newton number of the region under the Newton boundary.

Sections are computed without any projection tricks: every polytope here
lives in the orthant, where each hyperplane {x_j = 0} is supporting, so the
section with a coordinate subspace is a face, namely the hull of the
vertices lying in that subspace.  For the simplicial complexes produced by
polyhedra.lower_region and difference_region this makes the V_k sums exact
one-line volume aggregations.  volume_vector runs them on integers: the
region's vertices are scaled once by the lcm D of their denominators, each
section simplex adds the |det| of an integer k x k minor (geometry._int_det)
to a total T_k, and V_k is the one Fraction T_k / (D^k k!).
newton_number_set fuses the two stages: the pulling triangulation of the
compact facets comes back as tuples of support-point indices, and _volumes
sums it over the polyhedron's own integer points, so no Fraction point is
built, hashed or scaled again.  difference_region builds no hull: its
pieces are one polytope_from_constraints call each, triangulated by
triangulate_polytope, and a compact facet that no point of the bigger
support lies below is skipped by an integer sign test, since its piece is
flat.  union_volume_vector hulls no section either: each intersection of
its inclusion-exclusion is triangulated once by the pulling rule, which
restricts to every face, and _volumes sums the sections off it.  Only
projection_formula_check still calls convex_hull, on each simplex's
shadow, because a projection is not a face.

Axis sets in the public interface are 1-based, matching the customary
notation I, J subsets of {1,...,n}; internals are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .geometry import (ONE, ZERO, GeometryError, _extreme_rays, _idot,
                       _index_simplices, _int_det, _scaled, convex_hull, frac,
                       intersect_polytopes, polytope_from_constraints,
                       simplex_volume, triangulate_polytope)
from .polyhedra import (CompactRegion, SupportError, _lower_simplices,
                        check_nested, newton_polyhedron, support_set)


def _axes_to_internal(axes, n):
    out = []
    for a in axes:
        if not 1 <= a <= n:
            raise ValueError(f"axis {a} out of range 1..{n}")
        out.append(a - 1)
    if len(set(out)) != len(out):
        raise ValueError("duplicate axes")
    return frozenset(out)


def _support(v):
    return frozenset(i for i, x in enumerate(v) if x != 0)


@dataclass(frozen=True)
class NewtonVolumeVector:
    """Coordinate-subspace volume sums (V_0, V_1, ..., V_n)."""

    V: tuple

    def newton_number(self):
        n = len(self.V) - 1
        total = ZERO
        for k, vk in enumerate(self.V):
            sign = 1 if (n - k) % 2 == 0 else -1
            total += sign * factorial(k) * vk
        return total


def volume_vector(region):
    """Exact volume vector of a compact region.

    The region must be a simplicial complex (the constructors in polyhedra
    guarantee this); section faces shared between simplices are deduplicated
    by vertex set, which is sound exactly because intersections of complex
    members are common faces.  Vertices are indexed and scaled to integers
    once, and _volumes sums the sections.
    """
    index = {}
    simplices = [tuple(index.setdefault(v, len(index)) for v in simplex)
                 for simplex in region.simplices]
    ipts, den = _scaled(list(index))
    return NewtonVolumeVector(_volumes(region.ambient_dim, ipts, den,
                                       simplices))


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


def newton_number_region(region):
    return volume_vector(region).newton_number()


def newton_number_set(support):
    """Newton number of a support set covering every axis.

    Raises SupportError (naming the offending axis) otherwise; use
    newton_number_series for supports with empty axes.  The same as
    newton_number_region(lower_region(support)), but the index simplices
    of the triangulation go straight to _volumes, over the polyhedron's
    integer points and the origin, so no Fraction point is built.
    """
    ints, simplices = _lower_simplices(support)
    n = support.dim
    origin = len(ints.ipts)
    return NewtonVolumeVector(_volumes(
        n, ints.ipts + ((0,) * n,), ints.den,
        [(origin,) + s for s in simplices])).newton_number()


# --- sup over axis augmentations -------------------------------------------

@dataclass(frozen=True)
class SeriesNewtonNumber:
    """Outcome of the sup-based Newton number for non-convenient supports.

    value       the last (largest) Newton number reached
    stabilized  True when the value is exact, False when it is only a lower
                bound that may grow without bound
    tried_m     the axis multiples that were evaluated
    augmented_axes  1-based axes that had to be augmented (empty means the
                    input covered all axes and value is exact)
    """

    value: Fraction
    stabilized: bool
    tried_m: tuple
    augmented_axes: tuple


def _augmentation_signature(np_, aug_points):
    """Structure of the compact facets of the augmented polyhedron np_
    relative to the augmented vertices aug_points (point -> axis).

    Two consecutive m values with equal Newton number and equal signature
    mean every compact facet either never touches the augmented points
    (fixed normal and offset) or slides along the augmented axes without
    changing which support points and axes participate; further growth of m
    then changes nothing.
    """
    fixed = set()
    sliding = set()
    for nrm, off, active, rec in np_.facets:
        if rec or any(x == 0 for x in nrm):
            continue
        touched = frozenset(aug_points[p] for p in active if p in aug_points)
        plain = frozenset(p for p in active if p not in aug_points)
        if touched:
            sliding.add((plain, touched))
        else:
            fixed.add((nrm, frac(off)))
    return frozenset(fixed), frozenset(sliding)


def newton_number_series(support, missing_axis_cap=64):
    """Sup of Newton numbers over augmentations m*e_i of the missing axes.

    Tries m = 1, 2, 4, ... up to the cap, doubling; stops early when the
    value and the facet signature agree for two consecutive m, in which case
    the value is exact.  Otherwise the result carries stabilized=False and
    is only a lower bound for the sup (which may be infinite).
    """
    n = support.dim
    covered = support.axes_with_point()
    missing = tuple(i for i in range(n) if i not in covered)
    if not missing:
        return SeriesNewtonNumber(newton_number_set(support), True, (), ())
    if missing_axis_cap < 1:
        raise ValueError("missing_axis_cap must be positive")
    prev = None
    value = None
    tried = []
    m = 1
    while m <= missing_axis_cap:
        aug_points = {tuple(m if j == i else 0 for j in range(n)): i
                      for i in missing}
        augmented = support.augment(aug_points)
        value = newton_number_set(augmented)
        sig = _augmentation_signature(newton_polyhedron(augmented), aug_points)
        tried.append(m)
        if prev is not None and prev == (value, sig):
            return SeriesNewtonNumber(value, True, tuple(tried),
                                      tuple(i + 1 for i in missing))
        prev = (value, sig)
        m *= 2
    return SeriesNewtonNumber(value, False, tuple(tried),
                              tuple(i + 1 for i in missing))


# --- difference regions -----------------------------------------------------

def difference_region(s, s_prime):
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
    polyhedron's scaled points.
    """
    check_nested(s, s_prime)
    n = s.dim
    np_small = newton_polyhedron(s)
    np_big = newton_polyhedron(s_prime)
    big_ineqs = [(nrm, off) for nrm, off, _, _ in np_big.facets]
    big = np_big._ints
    covered = s.axes_with_point()
    missing = [i + 1 for i in range(n) if i not in covered]
    if missing:
        raise SupportError(
            f"difference region is unbounded: no support point on axis "
            f"{missing[0]} of the smaller set")
    simplices = []
    for nrm, off, active in np_small.compact_facets():
        if all(_idot(nrm, p) * off.denominator >= off.numerator * big.den
               for p in big.ipts):
            continue
        normals, _, _ = _extreme_rays((), active, n)
        piece = polytope_from_constraints(
            (), [(r, 0) for r in normals]
            + [(tuple(-x for x in nrm), -off)] + big_ineqs, n)
        if piece is not None and piece.dim == n:
            simplices.extend(triangulate_polytope(piece))
    return CompactRegion(n, tuple(sorted(set(simplices))))


# --- unions of polytopes ----------------------------------------------------

def union_volume_vector(polytopes, ambient_dim):
    """Volume vector of a finite union of orthant polytopes.

    Overlaps are allowed; V_k is computed by inclusion-exclusion over the
    intersection lattice.  Exponential in the number of pieces, fine at the
    intended scale.  Each intersection's sections are faces, and the
    pulling triangulation restricts to every face, so _volumes sums them
    over one pulling triangulation of the intersection; V_0
    counts the intersections with the origin as a vertex.
    """
    n = ambient_dim
    polys = list(polytopes)
    values = [ZERO] * (n + 1)
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
            ipts, den = _scaled(current.vertices)
            for k, v in enumerate(_volumes(n, ipts, den,
                                           _index_simplices(current))):
                values[k] += sign * v
    return NewtonVolumeVector(tuple(values))


def newton_number_union(polytopes, ambient_dim):
    if ambient_dim == 0:
        return ONE if polytopes else ZERO
    return union_volume_vector(polytopes, ambient_dim).newton_number()


# --- projection formula and positivity --------------------------------------

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
        shadows = []
        for simplex in region.simplices:
            pts = _project_out(list(simplex), coords)
            shadows.append(convex_hull(pts))
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
        if not coords <= k:
            raise GeometryError(
                "hypothesis failure: a simplex is fully supported on a "
                "subspace not containing the given axes")
        w = frozenset(v for v in simplex if _support(v) <= k)
        groups.setdefault((tuple(sorted(k)), w), []).append(simplex)
    pieces = []
    total = ZERO
    for (k_axes, _), simplices in sorted(
            groups.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
        z = CompactRegion(n, tuple(sorted(simplices)))
        piece_axes = tuple(a + 1 for a in k_axes)
        lhs, rhs = projection_formula_check(z, piece_axes)
        if lhs != rhs:
            raise GeometryError(
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
    for k in range(1, n + 1):
        for axes in itertools.combinations(range(n), k):
            j = frozenset(axes)
            faces = {}
            top = set()
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


def _check_connected(top_faces, k):
    top = list(top_faces)
    if len(top) <= 1:
        return
    seen = {0}
    frontier = [0]
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


# --- homothety and the changed-subspace sets --------------------------------

def partial_homothety(support, axes, lam):
    """Scale the coordinates in the given 1-based axes by lambda > 0."""
    lam = frac(lam)
    if lam <= 0:
        raise ValueError("homothety factor must be positive")
    coords = _axes_to_internal(axes, support.dim)
    pts = [tuple(x * lam if i in coords else x for i, x in enumerate(p))
           for p in support.points]
    return support_set(support.dim, pts)


@dataclass(frozen=True)
class ChangedSubspaces:
    """The subsets on which the two lower regions differ.

    d_set       sorted tuple of 1-based axis tuples where the regions differ
    i_set       intersection of all members of d_set
    degenerate  True when d_set is empty (equal polyhedra); i_set is then
                the full axis set by the empty-intersection convention and
                should not be fed to theorems quantifying over it
    """

    d_set: tuple
    i_set: tuple
    degenerate: bool


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
            ra = s.restrict(axes)
            rb = s_prime.restrict(axes)
            if ra == rb:    # equal restrictions, empty ones included
                continue
            if (not ra.points or not rb.points
                    or newton_polyhedron(ra).vertices
                    != newton_polyhedron(rb).vertices):
                d_set.append(tuple(a + 1 for a in axes))
    if not d_set:
        return ChangedSubspaces((), tuple(range(1, n + 1)), True)
    common = set(d_set[0])
    for member in d_set[1:]:
        common &= set(member)
    return ChangedSubspaces(tuple(sorted(d_set)), tuple(sorted(common)), False)
