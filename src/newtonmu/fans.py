"""Lattice cones and fans over the coordinate orthant.

Everything here lives inside the nonnegative orthant of the dual space:
support functions of Newton polyhedra, their dual (Newton) fans, simplicial
and regular subdivisions, and the apex pyramid construction whose output
regularity is certified by the minor-divisibility argument rather than
assumed.

Cones are stored by their primitive integer extremal rays.  Each cone also
carries one integer H-description, computed once by the double-description
routine and cached on the instance: the equalities of its linear span, its
facet normals and, per normal, the bitmask of the rays tight on it, the
zero sets that same call returns.  Dimension, membership and intersections
are integer sign tests and double-description calls on those rows.  The
face test is geometry._closure, the face rule of Newton polyhedra, on the
facet masks: rays of a cone span a face exactly when the least face holding
them has no other ray.  A cone's faces are the levels of
geometry._face_lattice over those masks.  simplicialize and the volume
comparison of subdivisions both take the geometry._pulling triangulation of
each cone over its facet masks, with the rays in one global order, so no
polytope is built and no face gets a double description of its own.  A cone
with k rays carries one table, _minors, of its k-row ray minors, and every
minor rule reads it: simplicial is some minor nonzero, regular is gcd 1,
the chart is the first least nonzero |det| D with its adjugate, and the
apex pyramid's certificate reads the tables of its pieces.  Coordinates in
the rays are adjugate products over D: stellar_subdivide reads membership
and the pieces off them, and the box points are read off the group that
adjugate generates mod D, so no rational solve runs.  A regularization step
swaps ray tuples on its target's star.

A Fan checks its maximal cones on construction.  A fan of
full-dimensional cones (every Newton fan and every subdivision of one)
is checked by a facet certificate: its facets, read off each cone's
cached H-description and keyed by their rays, matched in pairs on
opposite sides, its unmatched facets supporting the whole fan, and one
point covered once, linear in the cones.  Every other fan, and one the
certificate cannot decide, such as a fan whose union is not convex,
takes the pairwise check: one double-description intersection per pair
of maximal cones.

Nothing is memoized at module level: each cone caches its own
H-description with its facet masks, minors and minor chart, and faces()
is computed on every call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .geometry import (GeometryError, InternalConsistencyError, _closure,
                       _extreme_rays, _face_lattice, _idot, _int_det, _lazy,
                       _members, _pulling, _scaled, _unit, Record,
                       render_point, vec)
from .polyhedra import SupportError, newton_polyhedron

_section_cache = {}  # unused; the benchmark's cache reset still names it
_faces_cache = {}  # unused; the benchmark's cache reset still names it


class LatticeCone(Record):
    """Pointed cone in the orthant, by sorted primitive integer rays.

    The zero cone has an empty ray tuple.  The rays must already be
    extremal and primitive.
    """

    ambient_dim: int
    rays: tuple

    @_lazy
    def _h_description(self):
        """(lineality, normals, masks): integer rows with the cone equal to
        {x : <e, x> = 0 for e in lineality, <a, x> >= 0 for a in normals},
        and per normal the bitmask of the rays tight on it.

        All three come from one double description of the dual cone
        {y : <r, y> >= 0 for every ray r}: its lineality space is the
        orthogonal complement of the span, its rays are the facet normals,
        and their zero sets are the masks.  The rows of that call are the
        rays, all nonzero, so none is dropped and ray i is bit i.
        """
        normals, lineality, masks = _extreme_rays((), self.rays,
                                                  self.ambient_dim)
        return lineality, normals, masks

    @property
    def _facet_masks(self):
        """Per facet normal, the bitmask of the rays tight on it."""
        return self._h_description[2]

    @_lazy
    def _minors(self):
        """The minor table: each k-row tuple, in lexicographic order, to the
        determinant of that minor of the ray matrix (coordinates as rows,
        the k rays as columns).  Every entry vanishes exactly when the
        rays are linearly dependent; the zero cone's one entry is 1."""
        return {rows: _int_det([[r[j] for r in self.rays] for j in rows])
                for rows in itertools.combinations(range(self.ambient_dim),
                                                   len(self.rays))}

    @_lazy
    def _minor_chart(self):
        """(rows, adjugate, D) for a simplicial cone; raises GeometryError
        for any other cone.

        M is the first minor of _minors with the least nonzero |det| = D.
        The adjugate is adj(M) sign(det M), so a point p of the span has
        coordinates lambda = adjugate p_rows / D in the rays.
        """
        if not self.is_simplicial:
            raise GeometryError(f"cone {self.rays} is not simplicial")
        d, rows = min((abs(det), rows) for rows, det in self._minors.items()
                      if det)
        k = len(self.rays)
        m = [[r[j] for r in self.rays] for j in rows]
        sign = 1 if self._minors[rows] > 0 else -1
        cof = [[(-1) ** (i + j) * _int_det(
            [row[:j] + row[j + 1:] for row in m[:i] + m[i + 1:]])
            for j in range(k)] for i in range(k)]
        adj = tuple(tuple(sign * cof[j][i] for j in range(k))
                    for i in range(k))
        return rows, adj, d

    @property
    def dim(self):
        return self.ambient_dim - len(self._h_description[0])

    @property
    def is_simplicial(self):
        """Independent rays: some entry of _minors is nonzero."""
        return any(self._minors.values())

    def _face(self, mask):
        return LatticeCone(self.ambient_dim,
                           tuple(r for i, r in enumerate(self.rays)
                                 if mask >> i & 1))

    def contains(self, point):
        lineality, normals, _ = self._h_description
        return (all(_idot(e, point) == 0 for e in lineality)
                and all(_idot(a, point) >= 0 for a in normals))

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
        """Exact face test: self's rays are rays of other, and the least
        face of other holding them, their geometry._closure over other's
        facet masks, has exactly those rays."""
        bit = {r: 1 << i for i, r in enumerate(other.rays)}
        mask = sum(bit.get(r, 0) for r in self.rays)
        whole = (1 << len(other.rays)) - 1
        return (all(r in bit for r in self.rays)
                and _closure(mask, other._facet_masks) & whole == mask)


def intersect_cones(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise GeometryError("ambient dimension mismatch")
    lin_a, nrm_a, _ = a._h_description
    lin_b, nrm_b, _ = b._h_description
    rays, lineality, _ = _extreme_rays(lin_a + lin_b, nrm_a + nrm_b,
                                       a.ambient_dim)
    if lineality:
        raise InternalConsistencyError(
            f"cones {a.rays} and {b.rays} meet in a cone with a line")
    return LatticeCone(a.ambient_dim, tuple(sorted(rays)))


def _ridge_certificate(n, cones):
    """True when the facets of the cones prove them a fan; False when the
    certificate cannot decide (the caller then checks every pair).

    Every cone must be n-dimensional.  Its facets are read off its cached
    H-description: the facet normals, primitive and inward, and per normal
    the rays tight on it (_facet_masks).  Each facet is keyed by the tuple
    of the cone's rays on it, so two cones share a key exactly when they
    share that facet face to face.  Passing takes three facts (De Loera,
    Rambau & Santos, *Triangulations*, 2010, §4.5):
    (a) a facet lies in one or two cones, and the normals of two are
        exact negatives, so the cones lie on opposite sides of it;
    (b) the normal of each facet in one cone is >= 0 on every ray, so the
        cones lie in the convex cone K those half-spaces cut out;
    (c) the ray sum of the first cone, an interior point of it, lies in
        no other cone.
    Soundness.  Count the cones whose interior holds a point x of int K
    off every facet hyperplane.  Along a segment of such points that
    meets no face of dimension below n - 1, the count changes only where
    the segment crosses the relative interior of facets: a facet of two
    cones gives one up and one down by (a), and a facet of one cone lies
    on the boundary of K by (b), so it is never crossed.  The count is 1
    near (c)'s point, so it is 1 on int K: the interiors are disjoint and
    the cones cover K.  Now let z be a relative-interior point of the
    meet of two cones A and B, and F the face of A whose relative
    interior holds z; F is the least face of A holding A ∩ B.  The same
    count on the quotient by F, over the cones with F as a face, changes
    only across their facets through F, and by (a) the matched cone of
    such a facet has F as a face too; so those cones cover a
    neighbourhood of z in K.  B is n-dimensional and holds z, so its
    interior meets one of their interiors; the interiors are disjoint, so
    B is one of those cones and has F as a face.  Hence A ∩ B = F, a
    face of both.
    A cone that is not n-dimensional, a shared facet that breaks (a), a
    one-cone facet that does not support the fan (as in a fan whose union
    is not convex, or two cones meeting in part of a facet) or a point
    found twice ends the certificate undecided.
    """
    walls = {}
    for c in cones:
        if c.dim != n:
            return False
        for a, mask in zip(c._h_description[1], c._facet_masks):
            key = tuple(r for i, r in enumerate(c.rays) if mask >> i & 1)
            walls.setdefault(key, []).append(a)
    fan_rays = {r for c in cones for r in c.rays}
    for a, *rest in walls.values():
        if rest:
            if rest != [tuple(-x for x in a)]:  # (a)
                return False
        elif any(_idot(a, r) < 0 for r in fan_rays):  # (b)
            return False
    point = [sum(col) for col in zip(*cones[0].rays)]
    return not any(c.contains(point) for c in cones[1:])


class Fan(Record):
    """A fan given by its maximal cones; compatibility (every pairwise
    intersection is a face of both sides) is verified on construction.

    When every maximal cone is full-dimensional, as in every Newton fan
    and every fan that simplicialize, stellar_subdivide and regularize_fan
    build from one, the facet certificate verifies it, linear in the
    cones.  Any other fan, and any fan the certificate cannot decide (a
    fan whose union is not convex, or one that is not a fan at all), goes
    through the pairwise check: one intersect_cones per pair of maximal
    cones."""

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
        if self.maximal and _ridge_certificate(self.ambient_dim,
                                               self.maximal):
            return
        for a, b in itertools.combinations(self.maximal, 2):
            meet = intersect_cones(a, b)
            if not (meet.is_face_of(a) and meet.is_face_of(b)):
                raise GeometryError(
                    f"cones {a.rays} and {b.rays} intersect in "
                    f"{meet.rays}, not a common face")

    def contains_cone(self, cone):
        return any(cone.is_face_of(c) for c in self.maximal)


def support_function(s, alpha):
    """Minimum of the pairing with the support; finite on the orthant.
    One integer dot product per point, on the scaled direction and
    support."""
    alpha = vec(alpha)
    if len(alpha) != s.dim:
        raise SupportError("direction dimension mismatch")
    if any(x < 0 for x in alpha):
        raise SupportError("support function needs a nonnegative direction")
    (ialpha,), aden = _scaled([alpha])
    ipts, den = s._scaled_points
    return Fraction(min(_idot(ialpha, p) for p in ipts), aden * den)


def newton_fan(s):
    """Dual fan of the Newton polyhedron: one maximal cone per vertex,
    the directions minimized at that vertex.

    The cone at v is {y >= 0 : <u - v, y> >= 0 for every other vertex u},
    the normal cone of the polyhedron at v.  The polyhedron is pointed and
    full-dimensional, so the primitive normals of the facets through v are
    that cone's extreme rays: they are read off the integer facets, with
    no double description."""
    n = s.dim
    np_ = newton_polyhedron(s)
    cones = []
    for i in _members(np_.vmask):
        rays = tuple(w for w, _, g in np_.ifacets if g >> i & 1)
        if len(rays) < n:
            raise InternalConsistencyError(
                f"vertex {render_point(s.points[i])} has a degenerate dual "
                "cone")
        cones.append(LatticeCone(n, rays))
    return Fan(n, tuple(cones))


# --- subdivisions -----------------------------------------------------------

def _simplices(cone, key=None):
    """The pulling triangulation of the cone, as sorted ray tuples.

    The rays, sorted by key (lexicographically by default), are the bits
    of geometry._pulling over the facet masks, so every face is coned from
    its first ray in that order.  The rule depends only on a face's rays,
    so a face shared by two cones is triangulated the same way in both,
    and a simplicial cone is its own piece."""
    rays = sorted(cone.rays, key=key)
    if not rays:
        return ((),)
    masks = [sum(1 << i for i, r in enumerate(rays) if not _idot(a, r))
             for a in cone._h_description[1]]
    whole = (1 << len(rays)) - 1
    return tuple(tuple(sorted(rays[i] for i in s))
                 for s in _pulling(whole, whole, masks, {}))


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
    add up to the whole.  Each (base cone, piece) containment is tested
    once.

    Volumes are measured by |det| in one fixed set of dim coordinate rows
    per base cone, rows on which the base cone's span projects
    injectively."""
    if sub.ambient_dim != base.ambient_dim:
        raise GeometryError("ambient dimension mismatch")
    inside = {parent: [piece for piece in sub.maximal
                       if all(map(parent.contains, piece.rays))]
              for parent in base.maximal}
    if set(sub.maximal) - set().union(*inside.values()):
        return False
    for parent, pieces in inside.items():
        if not parent.rays:
            continue
        d = parent.dim
        whole = _simplices(parent)
        rows = next(rows for rows in itertools.combinations(
            range(parent.ambient_dim), d) if _measure(whole[0], rows))
        want = sum(_measure(s, rows) for s in whole)
        have = sum(_measure(s, rows) for piece in pieces if piece.dim == d
                   for s in _simplices(piece))
        if have != want:
            return False
    return True


def is_admissible(sub, s):
    """Strict orthant faces on which the support function vanishes must
    appear unsubdivided.  Raises when sub is not a subdivision of the
    Newton fan at all."""
    return is_admissible_subdivision(sub, newton_fan(s), s)


def is_admissible_subdivision(sub, base, s):
    """is_admissible against base, the Newton fan of s already built."""
    if not is_subdivision(sub, base):
        raise GeometryError("not a subdivision of the Newton fan")
    n = s.dim
    for k in range(1, n):
        for axes in itertools.combinations(range(n), k):
            bary = tuple(1 if j in axes else 0 for j in range(n))
            # supports are nonnegative, so the barycentre vanishes only
            # when every axis of the face does
            if support_function(s, bary) != 0:
                continue
            face = LatticeCone(n, tuple(sorted(_unit(n, a) for a in axes)))
            if not sub.contains_cone(face):
                return False
    return True


def is_regular_cone(c):
    """Unimodularity: the entries of c._minors have gcd 1 (for k = n, the
    one minor is the determinant).  They all vanish exactly when the cone
    is not simplicial, which raises."""
    g = gcd(*c._minors.values())
    if not g:
        raise GeometryError("regularity is only defined for simplicial cones")
    return g == 1


def box_points(c):
    """Nonzero lattice points of the half-open fundamental box, ordered by
    coordinate sum then lexicographically, each with its coordinates in
    the rays.

    With M, adjugate A and D from the minor chart, a lattice point R lambda
    has lambda = A p_rows / D, so D lambda runs over the subgroup of
    (Z/D)^k that A's columns generate, at most D residues u; the box
    points are the R u / D that are integral.  The chart raises on a
    cone that is not simplicial.
    """
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
    """Star subdivision of a simplicial fan at a primitive ray: xi has the
    ambient length, integer entries, none negative, and gcd 1.

    Membership and the pieces are read off each cone's minor chart (which
    raises on a cone that is not simplicial): with lambda = adjugate
    xi_rows, xi lies in the cone iff every lambda_r >= 0 and
    sum lambda_r r = D xi (the span test, for lower-dimensional cones), and
    the pieces swap xi for each ray r with lambda_r > 0."""
    ray = tuple(int(x) for x in xi)
    if (ray != tuple(xi) or len(ray) != fan.ambient_dim
            or any(x < 0 for x in ray)):
        raise GeometryError(f"ray {render_point(xi)} is not a nonnegative "
                            f"integer vector of length {fan.ambient_dim}")
    if gcd(*ray) != 1:
        raise GeometryError(f"ray {ray} is not primitive: gcd {gcd(*ray)}")
    out = []
    for c in fan.maximal:
        rows, adj, d = c._minor_chart
        lam = [sum(x * ray[j] for x, j in zip(a, rows)) for a in adj]
        if any(l < 0 for l in lam) or any(
                sum(l * r[j] for l, r in zip(lam, c.rays)) != d * ray[j]
                for j in range(c.ambient_dim)):
            out.append(c)
            continue
        out.extend(LatticeCone(c.ambient_dim, tuple(sorted(
            ray if q == r else q for q in c.rays)))
            for r, l in zip(c.rays, lam) if l > 0)
    return Fan(fan.ambient_dim, tuple(out))


def simplicialize(fan, priority=()):
    """Pulling subdivision making every cone simplicial without new rays.

    Each face is pulled at its first ray, priority rays first (in the
    given order), then lexicographically: _simplices over that one order,
    so shared faces subdivide identically.  A simplicial cone is kept.
    """
    priority = [tuple(int(x) for x in r) for r in priority]

    def order(ray):
        if ray in priority:
            return (0, priority.index(ray), ray)
        return (1, 0, ray)

    return Fan(fan.ambient_dim, tuple(
        c if rays == c.rays else LatticeCone(fan.ambient_dim, rays)
        for c in fan.maximal for rays in _simplices(c, order)))


def regularize_fan(fan):
    """Stellar refinement until every cone is regular.

    Always subdivides a non-regular cone of smallest dimension at the
    fundamental-box point xi of smallest coordinate sum; its proper faces
    are regular by minimality, so xi is interior and regular cones are
    never touched.  Terminates because piece multiplicities strictly drop.
    Cones are sorted ray tuples.  The cones through xi are the target's
    star, the cones that hold it; each becomes one piece per target ray,
    xi in that ray's place.  So the faces that go are those that contain
    the target, and the new faces are those through xi: each is judged once.
    """
    n = fan.ambient_dim
    for c in fan.maximal:
        if not c.is_simplicial:
            raise GeometryError("regularize_fan needs a simplicial fan")
    cones = {c.rays for c in fan.maximal}
    faces = {f for c in cones for k in range(1, len(c) + 1)
             for f in itertools.combinations(c, k)}
    bad = set()
    while True:
        bad.update(f for f in faces if not is_regular_cone(LatticeCone(n, f)))
        if not bad:
            return Fan(n, tuple(LatticeCone(n, c) for c in cones))
        target = min(bad, key=lambda r: (len(r), r))
        boxed = box_points(LatticeCone(n, target))
        if not boxed:
            raise InternalConsistencyError(
                f"non-regular cone {target} has an empty box")
        xi, lam = boxed[0]
        if any(l == 0 for l in lam):
            raise InternalConsistencyError(
                "minimal non-regular cone has a boundary box point; "
                "a smaller face should have been non-regular")
        star = {c for c in cones if set(target).issubset(c)}
        pieces = {tuple(sorted(xi if q == r else q for q in c))
                  for c in star for r in target}
        cones = cones - star | pieces
        bad = {f for f in bad if not set(target).issubset(f)}
        faces = {f for p in pieces for k in range(1, len(p) + 1)
                 for f in itertools.combinations(p, k) if xi in f}


def regularize(c):
    """Regular subdivision of one simplicial cone, its regular faces kept."""
    if not c.is_simplicial:
        raise GeometryError("regularize needs a simplicial cone")
    return regularize_fan(Fan(c.ambient_dim, (c,)))


def pyramid_subdivision(sigma_alpha, i, tau_sub):
    """Cone the apex ray e_i over a regular subdivision of the opposite
    facet and certify that every piece is regular.

    The certificate is the minor argument on each facet piece tau with
    rays q_1..q_n.  Its n maximal minors d_j (tau._minors, row j left
    out) satisfy d_j = |c_j| d_i, because the i-th coordinate row is an
    integer combination of the others along the edge direction; and
    their gcd is 1, because tau is regular.  So d_i divides the gcd and
    is 1, and |det| of the piece, d_i by expansion along e_i, is 1.  Two
    facts are checked: the divisibility pattern (d_i nonzero and dividing
    every d_j) and the full |det| = 1.  Either failing means the apex
    structure was violated and raises InternalConsistencyError.
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
        minors = [abs(tau._minors[tuple(c for c in range(n1) if c != j)])
                  for j in range(n1)]
        d_i = minors[i - 1]
        if d_i == 0 or any(d % d_i for d in minors):
            raise InternalConsistencyError(
                f"apex relation violated on piece {tau.rays}: minors "
                f"{minors} lack the divisibility pattern for axis {i}")
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
