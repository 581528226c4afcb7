"""Lattice cones and fans over the coordinate orthant.

Everything here lives inside the nonnegative orthant of the dual space:
support functions of Newton polyhedra, their dual (Newton) fans, simplicial
and regular subdivisions, and the apex pyramid construction whose output
regularity is certified by the minor-divisibility argument rather than
assumed.

Cones are stored by their primitive integer extremal rays.  All secondary
computations (membership, intersections, faces, relative volumes) go
through the cross-section polytope, the slice by the hyperplane where the
coordinates sum to one; for cones inside the orthant this slice is a
bounded polytope with rational vertices and faith fully mirrors the conical
structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .geometry import (ONE, ZERO, GeometryError, InternalConsistencyError,
                       convex_hull, determinant, frac, intersect_polytopes,
                       mat_rank, polytope_from_constraints, primitive_vector,
                       solve_linear, triangulate_polytope, vec)
from .polyhedra import SupportError, newton_polyhedron

_section_cache = {}
_faces_cache = {}


@dataclass(frozen=True)
class LatticeCone:
    """Pointed cone in the orthant, by sorted primitive integer rays.

    The zero cone has an empty ray tuple.  Build through cone_from_rays
    unless the rays are already known to be extremal and primitive.
    """

    ambient_dim: int
    rays: tuple

    @property
    def dim(self):
        if not self.rays:
            return 0
        return mat_rank(self.rays)

    @property
    def is_simplicial(self):
        return len(self.rays) == self.dim

    def cross_section(self):
        """Slice by the coordinate-sum-one hyperplane; None for the zero
        cone."""
        if not self.rays:
            return None
        key = (self.ambient_dim, self.rays)
        if key not in _section_cache:
            pts = [tuple(frac(x) / sum(r) for x in r) for r in self.rays]
            _section_cache[key] = convex_hull(pts)
        return _section_cache[key]

    def contains(self, point):
        point = vec(point)
        if all(x == 0 for x in point):
            return True
        if any(x < 0 for x in point):
            return False
        if not self.rays:
            return False
        total = sum(point)
        return self.cross_section().contains(
            tuple(x / total for x in point))

    def faces(self):
        """Every face, the zero cone and the cone itself included."""
        key = (self.ambient_dim, self.rays)
        if key in _faces_cache:
            return _faces_cache[key]
        out = {LatticeCone(self.ambient_dim, ()), self}
        if self.rays:
            if self.is_simplicial:
                for k in range(1, len(self.rays)):
                    for sub in itertools.combinations(self.rays, k):
                        out.add(LatticeCone(self.ambient_dim, sub))
            else:
                x = self.cross_section()
                closure = {frozenset(fv) for fv in x.facet_vertices}
                grew = True
                while grew:
                    grew = False
                    for a, b in itertools.combinations(tuple(closure), 2):
                        c = a & b
                        if c and c not in closure:
                            closure.add(c)
                            grew = True
                for vs in closure:
                    rays = tuple(sorted(primitive_vector(x.vertices[i])
                                        for i in vs))
                    out.add(LatticeCone(self.ambient_dim, rays))
        result = tuple(sorted(out, key=lambda c: (len(c.rays), c.rays)))
        _faces_cache[key] = result
        return result

    def facets(self):
        d = self.dim
        return tuple(f for f in self.faces() if f.dim == d - 1)

    def is_face_of(self, other):
        """Exact exposed-face test through the cross-section polytopes."""
        if not self.rays:
            return True
        if self == other:
            return True
        if not other.rays:
            return False
        if not all(other.contains(r) for r in self.rays):
            return False
        x = other.cross_section()
        pts = [tuple(frac(c) / sum(r) for c in r) for r in self.rays]
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


def cone_from_rays(ambient_dim, rays):
    """Canonical cone: primitive rays, redundant generators dropped."""
    prims = set()
    for r in rays:
        r = vec(r)
        if any(x < 0 for x in r):
            raise GeometryError("cone generators must be nonnegative")
        if len(r) != ambient_dim:
            raise GeometryError("generator dimension mismatch")
        if all(x == 0 for x in r):
            continue
        prims.add(primitive_vector(r))
    if not prims:
        return LatticeCone(ambient_dim, ())
    pts = [tuple(frac(x) / sum(r) for x in r) for r in prims]
    hull = convex_hull(pts)
    return LatticeCone(ambient_dim,
                       tuple(sorted(primitive_vector(v)
                                    for v in hull.vertices)))


def intersect_cones(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise GeometryError("ambient dimension mismatch")
    if not a.rays or not b.rays:
        return LatticeCone(a.ambient_dim, ())
    meet = intersect_polytopes(a.cross_section(), b.cross_section())
    if meet is None:
        return LatticeCone(a.ambient_dim, ())
    return LatticeCone(a.ambient_dim,
                       tuple(sorted(primitive_vector(v)
                                    for v in meet.vertices)))


@dataclass(frozen=True)
class Fan:
    """A fan given by its maximal cones; compatibility (every pairwise
    intersection is a face of both sides) is verified on construction."""

    ambient_dim: int
    maximal: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "maximal",
            tuple(sorted(set(self.maximal),
                         key=lambda c: (len(c.rays), c.rays))))
        for c in self.maximal:
            if c.ambient_dim != self.ambient_dim:
                raise GeometryError("cone ambient dimension mismatch")
        for a, b in itertools.combinations(self.maximal, 2):
            meet = intersect_cones(a, b)
            if not (meet.is_face_of(a) and meet.is_face_of(b)):
                raise GeometryError(
                    f"cones {a.rays} and {b.rays} intersect in "
                    f"{meet.rays}, not a common face")

    def cones(self):
        """Face closure, ordered by dimension then rays."""
        out = set()
        for c in self.maximal:
            out.update(c.faces())
        return tuple(sorted(out, key=lambda c: (len(c.rays), c.rays)))

    def rays(self):
        out = set()
        for c in self.maximal:
            out.update(c.rays)
        return tuple(sorted(out))

    def contains_cone(self, cone):
        return any(cone.is_face_of(c) for c in self.maximal)


def support_function(s, alpha):
    """Minimum of the pairing with the support; finite on the orthant."""
    alpha = vec(alpha)
    if len(alpha) != s.dim:
        raise SupportError("direction dimension mismatch")
    if any(x < 0 for x in alpha):
        raise SupportError("support function needs a nonnegative direction")
    return min(sum(a * p for a, p in zip(alpha, pt)) for pt in s.points)


def newton_fan(s):
    """Dual fan of the Newton polyhedron: one maximal cone per vertex,
    the directions minimized at that vertex."""
    n = s.dim
    np_ = newton_polyhedron(s)
    orthant = [(tuple(1 if j == i else 0 for j in range(n)), 0)
               for i in range(n)]
    ones = tuple(1 for _ in range(n))
    cones = []
    for v in np_.vertices:
        ineqs = list(orthant)
        for w in np_.vertices:
            if w != v:
                ineqs.append((tuple(frac(a) - frac(b)
                                    for a, b in zip(w, v)), 0))
        x = polytope_from_constraints([(ones, 1)], ineqs, n)
        if x is None:
            raise InternalConsistencyError(
                f"vertex {v} has an empty dual cone")
        cones.append(cone_from_rays(
            n, [primitive_vector(p) for p in x.vertices]))
    return Fan(n, tuple(cones))


# --- subdivisions -----------------------------------------------------------

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
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise GeometryError("point outside the chart's affine hull")
    return sol[0]


def _relative_section_volume(poly, v0, basis):
    """Volume of a cross-section in the chart coordinates of the parent.

    Exact and consistently scaled inside one chart, which is all the
    coverage comparisons need.
    """
    d = len(basis)
    if poly.dim < d:
        return ZERO
    total = ZERO
    f = factorial(d)
    for simplex in triangulate_polytope(poly):
        pts = [_chart_coords(p, v0, basis) for p in simplex]
        rows = [[a - b for a, b in zip(pts[i], pts[0])]
                for i in range(1, d + 1)]
        total += abs(determinant(rows)) / f
    return total


def is_subdivision(sub, base):
    """Every maximal sub-cone sits inside a base cone, and per base cone
    the cross-section volumes of its pieces add up to the whole."""
    if sub.ambient_dim != base.ambient_dim:
        raise GeometryError("ambient dimension mismatch")
    for piece in sub.maximal:
        if not any(all(parent.contains(r) for r in piece.rays)
                   for parent in base.maximal):
            return False
    for parent in base.maximal:
        if not parent.rays:
            continue
        x = parent.cross_section()
        v0, basis = _affine_chart(x)
        want = _relative_section_volume(x, v0, basis)
        have = ZERO
        d = parent.dim
        for piece in sub.maximal:
            if piece.dim != d:
                continue
            if not all(parent.contains(r) for r in piece.rays):
                continue
            have += _relative_section_volume(piece.cross_section(), v0, basis)
        if have != want:
            return False
    return True


def is_admissible(sub, s):
    """Strict orthant faces on which the support function vanishes must
    appear unsubdivided.  Raises when sub is not a subdivision of the
    Newton fan at all."""
    base = newton_fan(s)
    if not is_subdivision(sub, base):
        raise GeometryError("not a subdivision of the Newton fan")
    n = s.dim
    for k in range(1, n):
        for axes in itertools.combinations(range(n), k):
            bary = tuple(1 if j in axes else 0 for j in range(n))
            vanishing = support_function(s, bary) == 0 and all(
                support_function(
                    s, tuple(1 if j == a else 0 for j in range(n))) == 0
                for a in axes)
            if not vanishing:
                continue
            face = LatticeCone(n, tuple(sorted(
                tuple(1 if j == a else 0 for j in range(n))
                for a in axes)))
            if not sub.contains_cone(face):
                return False
    return True


def is_regular_cone(c):
    """Unimodularity: |det| = 1 in full dimension, gcd of maximal minors 1
    below it."""
    if not c.rays:
        return True
    if not c.is_simplicial:
        raise GeometryError("regularity is only defined for simplicial cones")
    k = len(c.rays)
    if k == c.ambient_dim:
        return abs(determinant(c.rays)) == 1
    g = 0
    for cols in itertools.combinations(range(c.ambient_dim), k):
        minor = determinant([[r[j] for j in cols] for r in c.rays])
        g = gcd(g, abs(int(minor)))
    return g == 1


def box_points(c):
    """Nonzero lattice points of the half-open fundamental box, ordered by
    coordinate sum then lexicographically."""
    if not c.is_simplicial:
        raise GeometryError("fundamental box needs a simplicial cone")
    if not c.rays:
        return ()
    n = c.ambient_dim
    rows = [[r[j] for r in c.rays] for j in range(n)]
    bounds = [sum(r[j] for r in c.rays) for j in range(n)]
    found = []
    for cand in itertools.product(*(range(b + 1) for b in bounds)):
        if all(x == 0 for x in cand):
            continue
        sol = solve_linear(rows, cand)
        if sol is None:
            continue
        lam = sol[0]
        if all(0 <= l < 1 for l in lam):
            found.append((sum(cand), cand, lam))
    found.sort(key=lambda t: (t[0], t[1]))
    return tuple((t[1], t[2]) for t in found)


def stellar_subdivide(fan, xi):
    """Star subdivision of a simplicial fan at a primitive ray."""
    xi = tuple(int(x) for x in xi)
    new_max = _stellar_raw(fan.maximal, xi)
    return Fan(fan.ambient_dim, new_max)


def _stellar_raw(cones, xi):
    out = []
    for c in cones:
        if not c.is_simplicial:
            raise GeometryError("stellar subdivision needs simplicial cones")
        if not c.contains(xi):
            out.append(c)
            continue
        rows = [[r[j] for r in c.rays] for j in range(c.ambient_dim)]
        lam = solve_linear(rows, xi)[0]
        for r, l in zip(c.rays, lam):
            if l > 0:
                kept = tuple(sorted([q for q in c.rays if q != r] + [xi]))
                out.append(LatticeCone(c.ambient_dim, kept))
    return tuple(sorted(set(out), key=lambda c: (len(c.rays), c.rays)))


def simplicialize(fan, priority=()):
    """Pulling subdivision making every cone simplicial without new rays.

    Each non-simplicial cone is pulled at its first ray, priority rays
    first (in the given order), then lexicographically; the recursion is
    memoized per cone so shared faces subdivide identically.
    """
    priority = [tuple(int(x) for x in r) for r in priority]

    def order(ray):
        if ray in priority:
            return (0, priority.index(ray), ray)
        return (1, 0, ray)

    memo = {}

    def pieces(cone):
        if cone in memo:
            return memo[cone]
        if cone.is_simplicial:
            memo[cone] = (cone,)
            return memo[cone]
        r0 = min(cone.rays, key=order)
        out = []
        for facet in cone.facets():
            if r0 in facet.rays:
                continue
            for tau in pieces(facet):
                out.append(LatticeCone(
                    cone.ambient_dim, tuple(sorted(tau.rays + (r0,)))))
        memo[cone] = tuple(sorted(set(out),
                                  key=lambda c: (len(c.rays), c.rays)))
        return memo[cone]

    new_max = []
    for c in fan.maximal:
        new_max.extend(pieces(c))
    return Fan(fan.ambient_dim, tuple(new_max))


def _all_faces_simplicial(cones):
    out = set()
    for c in cones:
        for k in range(1, len(c.rays) + 1):
            for sub in itertools.combinations(c.rays, k):
                out.add(LatticeCone(c.ambient_dim, sub))
    return out


def regularize_fan(fan):
    """Stellar refinement until every cone is regular.

    Always subdivides a non-regular cone of smallest dimension at the
    fundamental-box point of smallest coordinate sum; its proper faces are
    regular by minimality, so the point is interior and regular cones are
    never touched.  Terminates because piece multiplicities strictly drop.
    """
    work = list(fan.maximal)
    for c in work:
        if not c.is_simplicial:
            raise GeometryError("regularize_fan needs a simplicial fan")
    while True:
        bad = [c for c in _all_faces_simplicial(work)
               if not is_regular_cone(c)]
        if not bad:
            break
        target = min(bad, key=lambda c: (len(c.rays), c.rays))
        boxed = box_points(target)
        if not boxed:
            raise InternalConsistencyError(
                f"non-regular cone {target.rays} has an empty box")
        xi, lam = boxed[0]
        if any(l == 0 for l in lam):
            raise InternalConsistencyError(
                "minimal non-regular cone has a boundary box point; "
                "a smaller face should have been non-regular")
        work = list(_stellar_raw(tuple(work), xi))
    return Fan(fan.ambient_dim, tuple(work))


def regularize(c):
    """Regular subdivision of one simplicial cone, its regular faces kept."""
    if not c.is_simplicial:
        raise GeometryError("regularize needs a simplicial cone")
    return regularize_fan(Fan(c.ambient_dim, (c,)))


def pyramid_subdivision(sigma_alpha, i, tau_sub):
    """Cone the apex ray e_i over a regular subdivision of the opposite
    facet and certify that every piece is regular.

    The certification follows the minor argument: for a piece with facet
    rays q_1..q_n, the maximal minors d_j of the ray matrix satisfy
    d_j = |c_j| d_i because the i-th column is an integer combination of
    the others along the edge direction; together with gcd(d_1..d_{n+1}) = 1
    from regularity of the facet piece this forces d_i = 1, which is the
    determinant of the piece.  Both the divisibility pattern and the final
    determinant are checked; failure means the apex structure was violated
    and raises InternalConsistencyError.
    """
    n1 = sigma_alpha.ambient_dim
    if not 1 <= i <= n1:
        raise GeometryError(f"axis {i} out of range 1..{n1}")
    if sigma_alpha.dim != n1:
        raise GeometryError("apex pyramid needs a full-dimensional cone")
    e = tuple(1 if j == i - 1 else 0 for j in range(n1))
    if e not in sigma_alpha.rays:
        raise GeometryError(f"e_{i} is not an extremal ray of the cone")
    off_facets = [f for f in sigma_alpha.facets() if e not in f.rays]
    if len(off_facets) != 1:
        raise GeometryError(
            "expected a unique facet opposite the apex ray, found "
            f"{len(off_facets)}; the cone is not an apex pyramid")
    base = off_facets[0]
    if not is_subdivision(tau_sub, Fan(n1, (base,))):
        raise GeometryError("tau_sub does not subdivide the opposite facet")
    out = []
    for tau in tau_sub.maximal:
        if tau.dim != n1 - 1:
            continue
        if not is_regular_cone(tau):
            raise GeometryError("the facet subdivision must be regular")
        minors = []
        for j in range(n1):
            cols = [c for c in range(n1) if c != j]
            minors.append(abs(int(determinant(
                [[r[c] for c in cols] for r in tau.rays]))))
        g = 0
        for d in minors:
            g = gcd(g, d)
        d_i = minors[i - 1]
        if g != 1 or d_i == 0 or any(d % d_i for d in minors):
            raise InternalConsistencyError(
                f"apex relation violated on piece {tau.rays}: minors "
                f"{minors} lack the divisibility pattern for axis {i}")
        if d_i != 1:
            raise InternalConsistencyError(
                f"piece {tau.rays}: divisibility forces d_i = gcd = 1 "
                f"but d_i = {d_i}")
        full = tau.rays + (e,)
        if abs(determinant(full)) != 1:
            raise InternalConsistencyError(
                f"piece {tuple(sorted(full))} is not unimodular despite "
                "the certified minors")
        out.append(LatticeCone(n1, tuple(sorted(full))))
    return Fan(n1, tuple(out))


def orthant_fan(n):
    units = tuple(tuple(1 if j == i else 0 for j in range(n))
                  for i in range(n))
    return Fan(n, (LatticeCone(n, tuple(sorted(units))),))
