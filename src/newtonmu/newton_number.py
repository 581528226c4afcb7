"""Newton numbers of compact regions and support sets.

The Newton number of a compact region P in the nonnegative orthant is the
alternating sum n!V_n - (n-1)!V_{n-1} + ... +- V_0 where V_k adds the
k-volumes of the sections of P with the k-dimensional coordinate subspaces
(V_0 is 1 or 0 by membership of the origin; Kouchnirenko, Polyedres de
Newton et nombres de Milnor, Invent. Math. 32, 1976).  For a support set S
it is the Newton number of the region under the Newton boundary.

Sections are computed without any projection tricks: every polytope here
lives in the orthant, where each hyperplane {x_j = 0} is supporting, so the
section with a coordinate subspace is a face, namely the hull of the
vertices lying in that subspace.  For a simplicial complex each section
is a union of faces of its simplices, deduplicated by vertex set.  A
point's support is the bitmask of its nonzero axes, and the section on
an axis mask J takes the vertices whose mask m has m | J == J, the one
section rule of _totals, d_set_and_i_set and the positivity stack.

The whole stage runs on integers.  A region's totals
T_k = k! V_k den^k, over the lcm den of its vertices' denominators, are
a lazy fact of the region (polyhedra.CompactRegion, geometry._totals).
A Newton number is then the one Fraction
(sum_k (-1)^(n-k) T_k den^(n-k)) / den^n, and V_k, for the volume
vectors, the Fraction T_k / (den^k k!).

A support's volumes are read off its placement record (base, D) as
T(S) = T(base) - T(D) (_lower_totals, the one place that sums them).
When polyhedra._placement has placed S' on hull(S), the base of S' is
S, so nu(S') = nu(S) - nu(D), and difference_region returns that same
D: a pair sums the pyramids of S once and those of D once, and builds
no Fraction point.  A pair it refuses keeps the record of the build of
S' on its own.

union_volume_vector builds no hull: each intersection of its
inclusion-exclusion is read off its homogenized rows by
geometry._bounded_piece and triangulated by geometry._pulling, which
restricts to every face, so _totals sums its sections, flat
intersections included, off one triangulation.
projection_formula_check hands union_volume_vector each simplex's
shadow as its projected points, because a projection is not a face.

Axis sets in the public interface are 1-based, matching the customary
notation I, J subsets of {1,...,n}; internals are 0-based.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from operator import sub

from .geometry import (ONE, ZERO, GeometryError, InternalConsistencyError,
                       Record, _bounded_piece, _hull_rows, _members, _minor,
                       _pulling, _scaled, _totals, frac, render_point)
from .polyhedra import (CompactRegion, SupportError, SupportSet, _over_lcm,
                        _placed, _placement, _require_bounded, _scaled_support,
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


class NewtonVolumeVector(Record):
    """Coordinate-subspace volume sums (V_0, V_1, ..., V_n)."""

    V: tuple

    def newton_number(self):
        n = len(self.V) - 1
        return sum(((-1) ** (n - k) * factorial(k) * vk
                    for k, vk in enumerate(self.V)), ZERO)


def volume_vector(region):
    """Exact volume vector of a compact region.

    The region must be a simplicial complex (difference_region's pyramids
    form one); section faces shared between simplices are deduplicated
    by vertex set, which is sound exactly because intersections of complex
    members are common faces.  _totals sums the sections over the region's
    integer form, and V_k is the one Fraction T_k / (den^k k!).
    """
    return NewtonVolumeVector(_fractions(*region._integer_totals))


def _fractions(totals, den):
    """(V_0, ..., V_n) from the totals T_k = k! V_k den^k."""
    return tuple(Fraction(t, den ** k * factorial(k))
                 for k, t in enumerate(totals))


def _newton_fraction(totals, den):
    """The Newton number sum_k (-1)^(n-k) k! V_k from the totals
    T_k = k! V_k den^k: the integer sum_k (-1)^(n-k) T_k den^(n-k), by
    Horner's rule, over den^n, the one Fraction built: over den = 1 the
    integer itself, with no gcd to take."""
    acc = 0
    for t in totals:
        acc = t - acc * den
    return Fraction(acc) if den == 1 else Fraction(
        acc, den ** (len(totals) - 1))


def newton_number_region(region):
    """Newton number of a compact region: its totals, a lazy fact of the
    region (CompactRegion), and one Fraction."""
    return _newton_fraction(*region._integer_totals)


def _lower_totals(support):
    """The totals T_k (_totals) of the region lower(S) under the Newton
    boundary of a support S that covers every axis, and their den, read
    off the placement that built its polyhedron (its _placed record
    (base, D), polyhedra._placed and _placement).  No lower region is
    built.  newton_number_set and volume_vector_set read it.

    The tiling argument.  Placing the points of S on a base polyhedron B
    cuts hull(S) minus hull(B) into pyramids D (De Loera, Rambau &
    Santos, Triangulations, 2010, ch. 4), so lower(B) is lower(S) u D,
    the two meeting only on the boundary of Gamma+(S).  Cut by a
    coordinate subspace R^A with |A| = k, their sections still cover the
    section of lower(B) and meet only on the boundary of Gamma+(S) n R^A,
    of dimension k - 1.  So every V_k adds over the tiling (Kouchnirenko
    1976), and over the den of S, a multiple of that of B, T_k(S) =
    T_k(B) (den / den_B)^k - T_k(D), an integer identity; D misses the
    origin, so T_0(S) = 1.

    B is either the start of the support's own placement, whose integer
    points the record holds: the least axis points a_k e_k (for n = 1 the
    first point, the least point on the axis), whose lower region is the
    simplex with those vertices and the origin.  Its section with R^A has
    volume prod_{k in A} a_k / k!, so T(B) is the elementary symmetric
    sums e_k(a) of the integer a_k.  Or B is hull(S0) of a parent S0 that
    S' was placed on, whose totals come from its own record.  T(D) is a
    lazy fact of the region D.  A polyhedron seeded by hand has no
    record, and the support is placed for it.  The totals are memoized
    on the support, so a nested pair reads those of S once, for nu(S)
    and as the base of S'.
    """
    facts = support.__dict__
    memo = facts.get("_lower_totals")
    if memo is not None:
        return memo
    _require_bounded(support)
    support._newton_polyhedron      # built once per support, and recorded
    if "_placed" not in facts:
        _placed(support)
    base, pyramids = facts["_placed"]
    td, den = pyramids._integer_totals
    if isinstance(base, SupportSet):
        totals, den_b = _lower_totals(base)
        if den != den_b:
            up = den // den_b
            totals = [t * up ** k for k, t in enumerate(totals)]
    else:
        totals = [1] + [0] * support.dim
        for k, p in enumerate(base):
            for i in range(k + 1, 0, -1):
                totals[i] += totals[i - 1] * p[k]
    memo = facts["_lower_totals"] = list(map(sub, totals, td)), den
    return memo


def newton_number_set(support):
    """Newton number of a support set covering every axis.

    Raises SupportError (naming the offending axis) otherwise; use
    newton_number_series for supports with empty axes.  Read off the
    support's placement (_lower_totals): for the bigger support of a pair
    that polyhedra._placement placed, off the smaller one's and the
    pyramids of the difference region.
    """
    return _newton_fraction(*_lower_totals(support))


def volume_vector_set(support):
    """Volume vector of the region under the Newton boundary of a support
    set covering every axis, read off its placement (_lower_totals);
    SupportError as newton_number_set."""
    return NewtonVolumeVector(_fractions(*_lower_totals(support)))


# --- sup over axis augmentations -------------------------------------------

class SeriesNewtonNumber(Record):
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
    then changes nothing.  It is read off the integer record: a facet
    <w, x> >= c / den as (w, c) and a point as its integer point, over
    the den of the support, which augmenting by integer points keeps.
    """
    m, ipts = len(np_.ipts), np_.ipts
    aug = {tuple(np_.den * x for x in p): i for p, i in aug_points.items()}
    fixed, sliding = set(), set()
    for w, c, g in np_.ifacets:
        if g >> m or 0 in w:
            continue
        on = [ipts[i] for i in _members(g)]
        touched = frozenset(aug[p] for p in on if p in aug)
        if touched:
            sliding.add((frozenset(p for p in on if p not in aug), touched))
        else:
            fixed.add((w, c))
    return frozenset(fixed), frozenset(sliding)


def newton_number_series(support, missing_axis_cap=64):
    """Sup of Newton numbers over augmentations m*e_i of the missing axes.

    Tries m = 1, 2, 4, ... up to the cap, doubling; stops early when the
    value and the facet signature agree for two consecutive m, in which case
    the value is exact.  Otherwise the result carries stabilized=False and
    is only a lower bound for the sup (which may be infinite).
    """
    n = support.dim
    missing = tuple(i - 1 for i in support.missing_axes)
    if not missing:
        return SeriesNewtonNumber(newton_number_set(support), True, (), ())
    if missing_axis_cap < 1:
        raise ValueError("missing_axis_cap must be positive")
    prev = value = None
    tried, m = [], 1
    while m <= missing_axis_cap:
        aug_points = {tuple(m if j == i else 0 for j in range(n)): i
                      for i in missing}
        augmented = support.augment(aug_points)
        value = newton_number_set(augmented)
        sig = _augmentation_signature(newton_polyhedron(augmented), aug_points)
        tried.append(m)
        if prev is not None and prev == (value, sig):
            return SeriesNewtonNumber(value, True, tuple(tried),
                                      support.missing_axes)
        prev = (value, sig)
        m *= 2
    return SeriesNewtonNumber(value, False, tuple(tried),
                              support.missing_axes)


# --- difference regions -----------------------------------------------------

def difference_region(s, s_prime):
    """Closure of the region between the two Newton boundaries.

    Requires hull(s) inside hull(s_prime) and s covering every axis.  Equal
    to the closure of lower(s) minus lower(s_prime), which is hull(s u s')
    minus hull(s): placing the points of s' on hull(s) one at a time
    (polyhedra._place) cuts it into the pyramids conv(F u {alpha}) over
    the facets F that each placed point alpha sees, which form one
    simplicial complex; no hull is built and no double description runs.

    When each point of s is a point of s', the region is the D of the
    placement record of s' (polyhedra._placement), the one that
    newton_number_set(s') = nu(s) - nu(D) read, with its totals; a second
    call returns the same region.  Otherwise, once check_nested has
    passed, the points are placed on hull(s) over the union of the two
    supports, built from their integer points when their dens agree, so
    no Fraction point is built.
    """
    region = _placement(s, s_prime)
    if region is None:
        check_nested(s, s_prime)
    if s.missing_axes:
        raise SupportError(
            f"difference region is unbounded: no support point on axis "
            f"{s.missing_axes[0]} of the smaller set")
    if region is None:
        (ipts, den), (ipts_p, den_p) = s._scaled_points, s_prime._scaled_points
        outer = (_scaled_support(s.dim, [*ipts, *ipts_p], den)
                 if den == den_p else s.augment(s_prime.points))
        region = _placement(s, outer)
    return region


# --- unions of polytopes ----------------------------------------------------

def union_volume_vector(pieces, ambient_dim):
    """Volume vector of a finite union of orthant polytopes, each piece
    given as a list of points in dimension ambient_dim (the piece is their
    hull).

    Overlaps are allowed; V_k is computed by inclusion-exclusion over the
    intersection lattice.  Exponential in the number of pieces, fine at the
    intended scale.  Each piece becomes its homogenized equality and facet
    rows once (_hull_rows), an intersection is the rows of its parent and
    of the piece it adds, and _bounded_piece reads its vertices and facets
    off them.  Each intersection's sections are faces, and the pulling
    triangulation restricts to every face, so _totals sums them over one
    pulling triangulation of the intersection; V_0 counts the
    intersections with the origin as a vertex.
    """
    n = ambient_dim
    rows = []
    for i, piece in enumerate(pieces):
        if piece and len(piece[0]) != n:
            raise GeometryError(f"piece {i} has dimension {len(piece[0])} "
                                f"in ambient dimension {n}")
        rows.append(_hull_rows(piece))
    values = [ZERO] * (n + 1)
    inters = {}
    for size in range(1, len(rows) + 1):
        for idx in itertools.combinations(range(len(rows)), size):
            eqs, ineqs = rows[idx[-1]]
            if size > 1:
                parent = inters.get(idx[:-1])
                if parent is None:
                    continue
                eqs, ineqs = parent[0] + eqs, parent[1] + ineqs
            piece = _bounded_piece(eqs, ineqs, n)
            if piece is None:
                continue
            inters[idx] = eqs, ineqs
            verts, facets, _ = piece
            whole = (1 << len(verts)) - 1
            ipts, den = _scaled(verts)
            sign = 1 if size % 2 == 1 else -1
            for k, v in enumerate(_fractions(_totals(n, ipts, _pulling(
                    whole, whole, facets, {})), den)):
                values[k] += sign * v
    return NewtonVolumeVector(tuple(values))


def newton_number_union(pieces, ambient_dim):
    if ambient_dim == 0:
        return ONE if pieces else ZERO
    return union_volume_vector(pieces, ambient_dim).newton_number()


# --- projection formula and positivity --------------------------------------

def _support_mask(v):
    """The bitmask of the nonzero axes of a point, integer or rational."""
    return sum(1 << i for i, x in enumerate(v) if x)


def _full_section(simplex, n):
    """(K, W): the first axis set K, by size and then lexicographically,
    on which the simplex meets R^K in full dimension, as a sorted tuple of
    0-based axes, and that section W, a tuple of |K| + 1 vertices.

    The section on an axis mask J is the face of the vertices with
    mask | J == J, as in geometry._totals.  The full mask takes every
    vertex, so an n-simplex always has a K, and the GeometryError below
    is reached only by a simplex without n + 1 vertices.
    """
    masks = [_support_mask(v) for v in simplex]
    for k in range(n + 1):
        for axes in itertools.combinations(range(n), k):
            j = sum(1 << i for i in axes)
            w = tuple(v for v, m in zip(simplex, masks) if m | j == j)
            if len(w) == k + 1:
                return axes, w
    raise GeometryError("simplex has no full-supporting subspace; "
                        "is it really n-dimensional?")


def minimal_full_support(simplex, n):
    """Minimal coordinate subspace meeting the simplex in full dimension.

    Returns the 0-based axis frozenset K with dim(simplex cap R^K) = |K|,
    minimal under inclusion; such a K is unique for a simplex inside the
    orthant, and the section is the hull of the vertices supported inside K
    (_full_section).
    """
    return frozenset(_full_section(simplex, n)[0])


def projection_formula_check(region, axes):
    """Both sides of the projection identity, computed independently.

    axes is the 1-based set I; requires every simplex of the region to have
    minimal full-supporting subspace R^I and the same I-section P^I.  The
    left side is the direct Newton number of the region; the right side is
    |I|! vol(P^I) nu(projection along I), the projection evaluated by
    inclusion-exclusion since simplex shadows may overlap.  |I|! vol(P^I)
    is the one integer minor of the section, scaled by its den
    (geometry._minor).  A simplex has the empty minimal subspace exactly
    when the origin is one of its vertices, so the origin is refused by
    I being empty.
    """
    n = region.ambient_dim
    coords = _axes_to_internal(axes, n)
    if not region.simplices:
        raise GeometryError("projection formula needs a nonempty region")
    sections = set()
    for simplex in region.simplices:
        k_axes, w = _full_section(simplex, n)
        if frozenset(k_axes) != coords:
            raise GeometryError(
                "hypothesis failure: a simplex has minimal full-supporting "
                f"subspace different from the given axes {tuple(sorted(axes))}")
        if not coords:
            raise GeometryError(
                "hypothesis failure: region contains the origin")
        sections.add(frozenset(w))
        if len(sections) > 1:
            raise GeometryError(
                "hypothesis failure: simplices have different sections "
                "on the given coordinate subspace")
    (base,) = sections
    lhs = newton_number_region(region)
    k = len(coords)
    ipts, den = _scaled(sorted(base))
    rhs = Fraction(_minor(ipts, range(k + 1), sorted(coords)), den ** k)
    if k < n:
        keep = [i for i in range(n) if i not in coords]
        rhs *= newton_number_union(
            [[tuple(v[i] for i in keep) for v in simplex]
             for simplex in region.simplices], n - k)
    return lhs, rhs


def positivity_decomposition(region, axes):
    """Split a region into pieces with nonnegative Newton numbers.

    axes is the 1-based set I of the positivity hypotheses: the region must
    avoid the origin, have vertex coordinates in {0} or [1, inf) outside I,
    meet coordinate subspaces not containing I in dimension < |J|, and meet
    the others in full-dimensional connected sections (the decidable stand-in
    for the disk condition); every simplex must have affinely independent
    vertices, and two simplices must meet in a common face.  Pieces group
    the simplices by minimal full-supporting subspace and common section;
    each piece's projection identity and nu(Z_j) >= 0 are verified exactly
    and raise on failure.  The pieces' Newton numbers sum to nu(region):
    two simplices with a common section face share their minimal subspace
    and section, so they fall in one piece and no face is counted twice.
    """
    n = region.ambient_dim
    coords = _axes_to_internal(axes, n)
    if not region.simplices:
        return []
    _check_positivity_hypotheses(region, coords)
    groups = {}
    for simplex in region.simplices:
        k_axes, w = _full_section(simplex, n)
        groups.setdefault((k_axes, tuple(sorted(w))), []).append(simplex)
    pieces = []
    for (k_axes, _), simplices in sorted(groups.items()):
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
        pieces.append((z, piece_axes))
    return pieces


def _check_positivity_hypotheses(region, coords):
    n = region.ambient_dim
    comp = [i for i in range(n) if i not in coords]
    for simplex in region.simplices:
        for v in simplex:
            if not any(v):
                raise GeometryError("hypothesis failure: origin in region")
            for i in comp:
                if 0 < v[i] < 1:
                    raise GeometryError(
                        "hypothesis failure: vertex coordinate "
                        f"{v[i]} on axis {i + 1} lies strictly between 0 and 1")
        if len(simplex) > n + 1 or (len(simplex) == n + 1 and not _minor(
                _scaled(simplex)[0], range(n + 1), range(n))):
            raise GeometryError(
                "hypothesis failure: simplex "
                f"{' '.join(map(render_point, simplex))} has affinely "
                "dependent vertices")
    hulls = [_hull_rows(simplex) for simplex in region.simplices]
    for (a, (eq_a, in_a)), (b, (eq_b, in_b)) in itertools.combinations(
            zip(region.simplices, hulls), 2):
        meet = _bounded_piece(eq_a + eq_b, in_a + in_b, n)
        for v in meet[0] if meet else ():
            if v not in a or v not in b:
                raise GeometryError(
                    "hypothesis failure: two simplices meet in "
                    f"{render_point(v)}, which is not a common vertex")
    i_mask = sum(1 << i for i in coords)
    masked = [[(v, _support_mask(v)) for v in simplex]
              for simplex in region.simplices]
    for k in range(1, n + 1):
        for axes in itertools.combinations(range(n), k):
            j = sum(1 << i for i in axes)
            faces = {frozenset(v for v, m in simplex if m | j == j)
                     for simplex in masked} - {frozenset()}
            top = {w for w in faces if len(w) == k + 1}
            named = tuple(a + 1 for a in axes)
            if i_mask | j != j:
                if top:
                    raise GeometryError(
                        "hypothesis failure: full-dimensional section on "
                        f"axes {named}, which do not contain the given axes")
                continue
            if not top:
                raise GeometryError(
                    "hypothesis failure: empty or degenerate section on "
                    f"axes {named}")
            # pure: every non-top face lies in a top face
            if any(len(w) <= k and not any(w <= t for t in top)
                   for w in faces):
                raise GeometryError(
                    f"hypothesis failure: section on axes {named} is not "
                    f"pure {k}-dimensional")
            _check_connected(top, k)


def _check_connected(top, k):
    """GeometryError unless the nonempty set top of k-simplices, as
    vertex sets, is connected through common (k - 1)-faces."""
    seen, frontier = set(), [next(iter(top))]
    while frontier:
        face = frontier.pop()
        if face not in seen:
            seen.add(face)
            frontier += [t for t in top if len(face & t) == k]
    if seen != top:
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


class ChangedSubspaces(Record):
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
    differ (equivalently the lower regions differ there).  The polyhedron
    of the restriction of S is the face of hull(S) on R^J, so its vertices
    are those of hull(S) supported inside J, and a pointed polyhedron is
    determined by its vertices: J is in D exactly when a vertex of one
    polyhedron that is no vertex of the other is supported inside J.  The
    vertices are compared as integer points over the lcm of the two dens
    (polyhedra._over_lcm), and supports as bitmasks; no restriction is
    built.
    """
    check_nested(s, s_prime)
    n = s.dim
    a, b = newton_polyhedron(s), newton_polyhedron(s_prime)
    pa, pb, _ = _over_lcm(a, b)
    changed = ({pa[i] for i in _members(a.vmask)}
               ^ {pb[i] for i in _members(b.vmask)})
    masks = {_support_mask(p) for p in changed}
    d_set = []
    for k in range(1, n + 1):
        for axes in itertools.combinations(range(n), k):
            j = sum(1 << i for i in axes)
            if any(m | j == j for m in masks):
                d_set.append(tuple(i + 1 for i in axes))
    if not d_set:
        return ChangedSubspaces((), tuple(range(1, n + 1)), True)
    common = set(d_set[0]).intersection(*d_set[1:])
    return ChangedSubspaces(tuple(sorted(d_set)), tuple(sorted(common)), False)
