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
is a union of faces of its simplices, deduplicated by vertex set.

The whole stage runs on integers.  A region's vertices are scaled once by
the lcm den of their denominators, and _totals reads each simplex once
and returns the integer totals T_k = k! V_k den^k: a simplex adds the
|det| of its n x n minor to T_n, and each section face, found among the
simplex's vertices off the open orthant and counted once, adds the |det|
of its k x k minor to T_k (orders 1 and 2 written out, geometry._int_det
for the rest).  A Newton number is then the one Fraction
(sum_k (-1)^(n-k) T_k den^(n-k)) / den^n, and V_k, for volume_vector and
union_volume_vector, the Fraction T_k / (den^k k!).

The integer points come with the region.  newton_number_set takes the
pulling triangulation of the compact facets, coned from the origin, as
tuples of indices into the polyhedron's own integer points and the origin
(polyhedra._lower_form), so no Fraction point is built.  A
CompactRegion carries a cached integer form (points times den, den, index
simplices); lower_region and difference_region seed it from the support's
integer points, so newton_number_region and volume_vector never hash or
scale the region's Fraction points, and only a region built by hand is
indexed and scaled on first use.  difference_region builds no hull and
runs no double description: its simplices are the pyramids of the points
of the bigger support placed on the smaller polyhedron
(polyhedra._place), each placed point coned over the simplices of the
facets it sees, so a facet that no point sees adds nothing.
union_volume_vector builds no hull either: each intersection of its
inclusion-exclusion is read off its homogenized rows by
geometry._bounded_piece (one double description) and triangulated by
geometry._pulling over the vertex masks it returns.  The pulling rule
restricts to every face, so _totals sums an intersection's sections off
its one triangulation, flat intersections included.
projection_formula_check hands union_volume_vector each simplex's shadow
as its projected points, which geometry._hull_rows turns into rows,
because a projection is not a face.

Axis sets in the public interface are 1-based, matching the customary
notation I, J subsets of {1,...,n}; internals are 0-based.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .geometry import (ONE, ZERO, GeometryError, Record, _bounded_piece,
                       _hull_rows, _int_det, _pulling, _scaled, frac,
                       simplex_volume)
from .polyhedra import (CompactRegion, SupportError, _lower_form, _placement,
                        _region, check_nested, newton_polyhedron,
                        support_set)


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


class NewtonVolumeVector(Record):
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
    members are common faces.  _totals sums the sections over the region's
    integer form, and V_k is the one Fraction T_k / (den^k k!).
    """
    ipts, den, simplices = region._integer_form
    return NewtonVolumeVector(_fractions(_totals(region.ambient_dim, ipts,
                                                 simplices), den))


def _fractions(totals, den):
    """(V_0, ..., V_n) from the totals T_k = k! V_k den^k."""
    return tuple(Fraction(t, den ** k * factorial(k))
                 for k, t in enumerate(totals))


def _newton_fraction(totals, den):
    """The Newton number sum_k (-1)^(n-k) k! V_k from the totals
    T_k = k! V_k den^k: the integer sum_k (-1)^(n-k) T_k den^(n-k), by
    Horner's rule, over den^n, the one Fraction built."""
    acc = 0
    for t in totals:
        acc = t - acc * den
    return Fraction(acc, den ** (len(totals) - 1))


def _minor(ipts, w, axes):
    """|det| of the k x k minor, on the k axes, of the differences of the
    points ipts[i] for i in w[1:] from ipts[w[0]]: k! times the k-volume
    of their simplex, times den^k.  Orders 1 and 2 are written out."""
    p = ipts[w[0]]
    rows = [[ipts[i][c] - p[c] for c in axes] for i in w[1:]]
    k = len(axes)
    if k == 1:
        return abs(rows[0][0])
    if k == 2:
        (a1, b1), (a2, b2) = rows
        return abs(a1 * b2 - b1 * a2)
    return abs(_int_det(rows))


def _totals(n, ipts, simplices):
    """The integer totals T_k = k! V_k den^k, k = 0..n, of a simplicial
    complex in R^n given as index tuples into the integer points ipts, its
    vertices times den; the simplices list their vertices in one global
    order (sorted points or increasing indices), so equal faces are equal
    tuples.

    Each simplex is read once.  One with n + 1 vertices adds its n x n
    _minor to T_n; a flat one (union_volume_vector passes flat pieces)
    adds nothing there.  The section with R^A, for a proper axis set A of
    size k, is the face W_A of the vertices supported inside A, a
    k-simplex when it has k + 1 of them; those vertices are off the open
    orthant, so simplices with the same vertices off it have the same
    sections.  For each such vertex set, A runs over the subsets of the
    union of their supports, and each section face adds its k x k minor
    to T_k once, keyed by its index tuple: 1 for the origin, a
    coordinate difference on an axis, a _minor above.
    """
    full = (1 << n) - 1
    simplices = set(simplices)
    supports = {}
    for i in {i for simplex in simplices for i in simplex}:
        mask = 0
        for c, x in enumerate(ipts[i]):
            if x:
                mask |= 1 << c
        supports[i] = mask
    totals = [0] * (n + 1)
    every = range(n)
    offs = set()
    for simplex in simplices:
        if len(simplex) == n + 1:
            totals[n] += _minor(ipts, simplex, every)
        offs.add(tuple([(i, supports[i]) for i in simplex
                        if supports[i] != full]))
    faces = set()
    for off in offs:
        union = 0
        for _, mask in off:
            union |= mask
        a = union
        while True:
            k = a.bit_count()
            if k < len(off) and a != full:
                w = tuple([i for i, mask in off if mask | a == a])
                if len(w) == k + 1 and w not in faces:
                    faces.add(w)
                    if k == 0:
                        totals[0] += 1
                    elif k == 1:
                        c = a.bit_length() - 1
                        totals[1] += abs(ipts[w[1]][c] - ipts[w[0]][c])
                    else:
                        totals[k] += _minor(ipts, w, [c for c in every
                                                      if a >> c & 1])
            if not a:
                break
            a = (a - 1) & union
    return totals


def newton_number_region(region):
    """Newton number of a compact region: its totals (_totals) over its
    integer form, and one Fraction."""
    ipts, den, simplices = region._integer_form
    return _newton_fraction(_totals(region.ambient_dim, ipts, simplices),
                            den)


def newton_number_set(support):
    """Newton number of a support set covering every axis.

    Raises SupportError (naming the offending axis) otherwise; use
    newton_number_series for supports with empty axes.  The same as
    newton_number_region(lower_region(support)), but the region's integer
    form (polyhedra._lower_form) goes straight to _totals, so no Fraction
    point is built.
    """
    ipts, den, simplices = _lower_form(support)
    return _newton_fraction(_totals(support.dim, ipts, simplices), den)


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
    missing = tuple(i - 1 for i in support.missing_axes)
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
    the facets F that each placed point alpha sees, each alpha coned over
    the simplices of its facet.  A point that sees no facet adds nothing,
    so facets with no point below them add nothing either.  The simplices
    form one simplicial complex; no hull is built and no double
    description runs.  When each point of s is a point of s', they are the
    simplices that mu_constant_test memoized on s'; otherwise the points
    are placed on hull(s) afresh, over the union of the two supports,
    once check_nested has passed; a placed pair is nested by construction.
    """
    simplices = _placement(s, s_prime)
    if simplices is None:
        check_nested(s, s_prime)
    n = s.dim
    if s.missing_axes:
        raise SupportError(
            f"difference region is unbounded: no support point on axis "
            f"{s.missing_axes[0]} of the smaller set")
    outer = s_prime
    if simplices is None:
        outer = s.augment(s_prime.points)
        simplices = _placement(s, outer)
    ipts, den = outer._scaled_points
    # index tuples sort like the point tuples they name
    return _region(n, outer.points, ipts, den, sorted(simplices))


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
        shadows = [_project_out(list(simplex), coords)
                   for simplex in region.simplices]
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
