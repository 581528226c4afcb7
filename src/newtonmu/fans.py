"""Lattice cones and fans over the coordinate orthant.

Everything here lives inside the nonnegative orthant of the dual space:
support functions of Newton polyhedra, their dual (Newton) fans, simplicial
and regular subdivisions, and the apex pyramid construction whose output
regularity is certified by the minor-divisibility argument rather than
assumed.

Cones are stored by their primitive integer extremal rays.  Each cone also
carries one integer H-description, computed once by the double-description
routine and cached on the instance: the equalities of its linear span and
its facet normals.  Dimension, membership, intersections and the face test
are integer sign tests and double-description calls on those rows.  A
cone's facets are the sets of its rays tight on each facet normal, kept as
bitmasks over the rays; its faces are the levels of geometry._face_lattice
over those masks, and the volume comparison of subdivisions measures the
geometry._pulling triangulation of each cone over the same masks, so no
polytope is built.  A simplicial cone carries the k-row minor of its ray
matrix with the least nonzero |det| D and that minor's adjugate;
coordinates in the rays are adjugate products over D, and the
fundamental-box points are read off the group that adjugate generates mod
D, so no rational solve runs.

Nothing is memoized at module level: each cone caches its own
H-description, facet masks and minor chart, and faces() is computed on
every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .geometry import (GeometryError, InternalConsistencyError, _extreme_rays,
                       _face_lattice, _int_det, _pulling, _unit,
                       primitive_vector, vec)
from .polyhedra import SupportError, newton_polyhedron

_section_cache = {}  # unused; the benchmark's cache reset still names it
_faces_cache = {}  # unused; the benchmark's cache reset still names it


def _pair(a, x):
    return sum(p * q for p, q in zip(a, x))


@dataclass(frozen=True)
class LatticeCone:
    """Pointed cone in the orthant, by sorted primitive integer rays.

    The zero cone has an empty ray tuple.  Build through cone_from_rays
    unless the rays are already known to be extremal and primitive.
    """

    ambient_dim: int
    rays: tuple

    @cached_property
    def _h_description(self):
        """(lineality, normals): integer rows with the cone equal to
        {x : <e, x> = 0 for e in lineality, <a, x> >= 0 for a in normals}.

        They are the lineality basis and the extreme rays of the dual cone
        {y : <r, y> >= 0 for every ray r}: the lineality space is the
        orthogonal complement of the span, the rays are the facet normals.
        """
        normals, lineality, _ = _extreme_rays((), self.rays, self.ambient_dim)
        return lineality, normals

    @cached_property
    def _facet_masks(self):
        """Per facet normal, the bitmask of the rays tight on it."""
        return [sum(1 << i for i, r in enumerate(self.rays) if not _pair(a, r))
                for a in self._h_description[1]]

    @cached_property
    def _minor_chart(self):
        """(rows, adjugate, D) for a simplicial cone with k rays.

        M is the k-row minor of the ray matrix (coordinates as rows, rays
        as columns) with the least nonzero |det| = D, the first such rows
        in lexicographic order.  The adjugate is adj(M) sign(det M), so a
        point p of the span has coordinates lambda = adjugate p_rows / D in
        the rays.
        """
        k = len(self.rays)
        best = None
        for rows in itertools.combinations(range(self.ambient_dim), k):
            m = [[r[j] for r in self.rays] for j in rows]
            det = _int_det(m)
            if det and (best is None or abs(det) < abs(best[2])):
                best = (rows, m, det)
        rows, m, det = best
        sign = 1 if det > 0 else -1
        cof = [[(-1) ** (i + j) * _int_det(
            [row[:j] + row[j + 1:] for row in m[:i] + m[i + 1:]])
            for j in range(k)] for i in range(k)]
        adj = tuple(tuple(sign * cof[j][i] for j in range(k))
                    for i in range(k))
        return rows, adj, abs(det)

    @property
    def dim(self):
        return self.ambient_dim - len(self._h_description[0])

    @property
    def is_simplicial(self):
        return len(self.rays) == self.dim

    def _face(self, mask):
        return LatticeCone(self.ambient_dim,
                           tuple(r for i, r in enumerate(self.rays)
                                 if mask >> i & 1))

    def contains(self, point):
        lineality, normals = self._h_description
        return (all(_pair(e, point) == 0 for e in lineality)
                and all(_pair(a, point) >= 0 for a in normals))

    def faces(self):
        """Every face, the zero cone and the cone itself included: the
        levels of the face lattice over the facet masks."""
        out = {LatticeCone(self.ambient_dim, ()), self}
        if self.rays:
            for level in _face_lattice(len(self.rays), self._facet_masks):
                out.update(map(self._face, level))
        return tuple(sorted(out, key=lambda c: (len(c.rays), c.rays)))

    def facets(self):
        return tuple(sorted(map(self._face, self._facet_masks),
                            key=lambda c: (len(c.rays), c.rays)))

    def is_face_of(self, other):
        """Exact face test: the face of other cut out by its facet normals
        that vanish on all of self's rays has exactly self's rays."""
        if not self.rays:
            return True
        if self == other:
            return True
        if not other.rays:
            return False
        if not all(other.contains(r) for r in self.rays):
            return False
        tight = [a for a in other._h_description[1]
                 if all(_pair(a, r) == 0 for r in self.rays)]
        face = {r for r in other.rays if all(_pair(a, r) == 0 for a in tight)}
        return face == set(self.rays)


def cone_from_rays(ambient_dim, rays):
    """Canonical cone: primitive rays, redundant generators dropped.

    The extreme rays are those of the H-description of the generators,
    both read by the double-description routine."""
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
    normals, lineality, _ = _extreme_rays((), sorted(prims), ambient_dim)
    rays, _, _ = _extreme_rays(lineality, normals, ambient_dim)
    return LatticeCone(ambient_dim, tuple(sorted(rays)))


def intersect_cones(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise GeometryError("ambient dimension mismatch")
    if not a.rays or not b.rays:
        return LatticeCone(a.ambient_dim, ())
    lin_a, nrm_a = a._h_description
    lin_b, nrm_b = b._h_description
    rays, lineality, _ = _extreme_rays(lin_a + lin_b, nrm_a + nrm_b,
                                       a.ambient_dim)
    if lineality:
        raise InternalConsistencyError(
            f"cones {a.rays} and {b.rays} meet in a cone with a line")
    return LatticeCone(a.ambient_dim, tuple(sorted(rays)))


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
    the directions minimized at that vertex.

    The cone at v is {y >= 0 : <u - v, y> >= 0 for every other vertex u},
    pointed and full-dimensional; its primitive extreme rays come straight
    from the double-description routine."""
    n = s.dim
    np_ = newton_polyhedron(s)
    orthant = [_unit(n, i) for i in range(n)]
    cones = []
    for v in np_.vertices:
        rays, _, _ = _extreme_rays(
            (), orthant + [tuple(a - b for a, b in zip(u, v))
                           for u in np_.vertices if u != v], n)
        if len(rays) < n:
            raise InternalConsistencyError(
                f"vertex {v} has a degenerate dual cone")
        cones.append(LatticeCone(n, tuple(sorted(rays))))
    return Fan(n, tuple(cones))


# --- subdivisions -----------------------------------------------------------

def _simplices(cone):
    """A triangulation of the cone, as ray tuples: the cone itself when it
    is simplicial, else the pulling triangulation over its facet masks."""
    if cone.is_simplicial:
        return (cone.rays,)
    whole = (1 << len(cone.rays)) - 1
    return tuple(tuple(cone.rays[i] for i in s)
                 for s in _pulling(whole, whole, cone._facet_masks, {}))


def _measure(rays, rows):
    """|det| of the points r / sum(r) in the given coordinate rows: the
    volume of the cone over the rays up to a factor fixed by the rows,
    when they project the span injectively."""
    den = 1
    for r in rays:
        den *= sum(r)
    return Fraction(abs(_int_det([[r[j] for j in rows] for r in rays])), den)


def is_subdivision(sub, base):
    """Every maximal sub-cone sits inside a base cone, and per base cone
    the volumes of its pieces' slices by the coordinate-sum-one hyperplane
    add up to the whole.

    Volumes are measured by |det| in one fixed set of dim coordinate rows
    per base cone, rows on which the base cone's span projects
    injectively."""
    if sub.ambient_dim != base.ambient_dim:
        raise GeometryError("ambient dimension mismatch")
    for piece in sub.maximal:
        if not any(all(parent.contains(r) for r in piece.rays)
                   for parent in base.maximal):
            return False
    for parent in base.maximal:
        if not parent.rays:
            continue
        d = parent.dim
        whole = _simplices(parent)
        rows = next(rows for rows in itertools.combinations(
            range(parent.ambient_dim), d) if _measure(whole[0], rows))
        want = sum(_measure(s, rows) for s in whole)
        have = 0
        for piece in sub.maximal:
            if piece.dim != d:
                continue
            if not all(parent.contains(r) for r in piece.rays):
                continue
            have += sum(_measure(s, rows) for s in _simplices(piece))
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
                support_function(s, _unit(n, a)) == 0 for a in axes)
            if not vanishing:
                continue
            face = LatticeCone(n, tuple(sorted(_unit(n, a) for a in axes)))
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
        return abs(_int_det(c.rays)) == 1
    g = 0
    for cols in itertools.combinations(range(c.ambient_dim), k):
        g = gcd(g, _int_det([[r[j] for j in cols] for r in c.rays]))
    return g == 1


def box_points(c):
    """Nonzero lattice points of the half-open fundamental box, ordered by
    coordinate sum then lexicographically, each with its coordinates in
    the rays.

    With M, adjugate A and D from the minor chart, a lattice point R lambda
    has lambda = A p_rows / D, so D lambda runs over the subgroup of
    (Z/D)^k that A's columns generate, at most D residues u; the box
    points are the R u / D that are integral.
    """
    if not c.is_simplicial:
        raise GeometryError("fundamental box needs a simplicial cone")
    if not c.rays:
        return ()
    _, adj, d = c._minor_chart
    k = len(c.rays)
    gens = [tuple(row[j] % d for row in adj) for j in range(k)]
    zero = (0,) * k
    group, frontier = {zero}, [zero]
    while frontier:
        grown = []
        for u in frontier:
            for g in gens:
                v = tuple((x + y) % d for x, y in zip(u, g))
                if v not in group:
                    group.add(v)
                    grown.append(v)
        frontier = grown
    found = []
    for u in group - {zero}:
        sums = [sum(r[j] * x for r, x in zip(c.rays, u))
                for j in range(c.ambient_dim)]
        if all(s % d == 0 for s in sums):
            point = tuple(s // d for s in sums)
            found.append((sum(point), point,
                          tuple(Fraction(x, d) for x in u)))
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
        rows, adj, _ = c._minor_chart
        for r, a in zip(c.rays, adj):
            if sum(x * xi[j] for x, j in zip(a, rows)) > 0:
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
    Regularity verdicts are kept for the call, so each step tests only the
    faces it created.
    """
    work = list(fan.maximal)
    for c in work:
        if not c.is_simplicial:
            raise GeometryError("regularize_fan needs a simplicial fan")
    verdicts = {}
    while True:
        faces = _all_faces_simplicial(work)
        for c in faces - verdicts.keys():
            verdicts[c] = is_regular_cone(c)
        bad = [c for c in faces if not verdicts[c]]
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
    from regularity of the facet piece this forces d_i = 1, which is |det|
    of the piece.  Both the divisibility pattern and the final |det| are
    checked; failure means the apex structure was violated and raises
    InternalConsistencyError.
    """
    n1 = sigma_alpha.ambient_dim
    if not 1 <= i <= n1:
        raise GeometryError(f"axis {i} out of range 1..{n1}")
    if sigma_alpha.dim != n1:
        raise GeometryError("apex pyramid needs a full-dimensional cone")
    e = _unit(n1, i - 1)
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
            minors.append(abs(_int_det(
                [[r[c] for c in cols] for r in tau.rays])))
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
        if abs(_int_det(full)) != 1:
            raise InternalConsistencyError(
                f"piece {tuple(sorted(full))} is not unimodular despite "
                "the certified minors")
        out.append(LatticeCone(n1, tuple(sorted(full))))
    return Fan(n1, tuple(out))


def orthant_fan(n):
    units = tuple(_unit(n, i) for i in range(n))
    return Fan(n, (LatticeCone(n, tuple(sorted(units))),))
