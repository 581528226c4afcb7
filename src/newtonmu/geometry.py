"""Exact rational convex geometry: hull rows, bounded pieces, triangulations.

Results are fractions.Fraction or int; there is no floating point and no
epsilon anywhere.  Polytopes are not a value type here: a hull is handed on
as its homogenized integer rows, and a bounded piece is read off such rows
as its vertices and facet vertex masks.

The kernels run on Python integers.  Rational points are scaled once by the
lcm of their denominators, and Fractions appear again only in the results.
Two integer eliminations do the work: _extreme_rays, the one
double-description routine (Fukuda & Prodon 1996), whose updates are
integer combinations divided by their gcd, and _int_det (below).  Given
rows as equalities only, the cone _extreme_rays returns is their null
space, all lineality, so null spaces are read off it too.  _hull_rows reads
the affine hull of finite points off the null space of the point
differences and the facets off the rays of a dual cone (_dual_facets,
which has no other caller).  No Newton polyhedron is read off either:
polyhedra places every one, from its axis simplex or its first point.
_bounded_piece is the one reader of a bounded polytope given by
constraints: one _extreme_rays call on its homogenized rows, whose rays
with t > 0 are the vertices and whose zero sets give the relative facets
as vertex masks, with no hull and no normal solved for;
newton_number.union_volume_vector reads its intersections with it.  The
fans call _extreme_rays directly, for a cone's facet normals with their
zero sets over its rays, and for the meet of two cones.  Those are all
its callers:
none of them runs in a Newton polyhedron build, nor in the apex test and
the difference region of a pair S in S' with a point of S on every
axis.  _int_det is the one determinant routine: orders 2 to 4 written
out, and Bareiss (1968) elimination on an integer matrix above.  Every
caller hands it an integer matrix: the fan kernels, and _minor, the
integer section volumes of a simplicial complex that _totals sums and
newton_number's projection formula reads.  _combine, the update of
_extreme_rays, also gives polyhedra._place the normal of each facet it
makes, from the pencil of the two facet planes through the facet's
horizon ridge.
_pulling is the one pulling triangulation, over bitmasks of points, so no
face is hulled either; it triangulates the bounded pieces of unions, the
compact facets of Newton polyhedra (those under the boundary, and those
that polyhedra._place cones the placed points over) and the fans' cones
(over ray masks).  _maximal_meets is the one step that finds a face's
facets from bitmasks; _pulling and _face_lattice both use it.
_closure is the one face rule: the meet of the facet masks that contain
a set of points is the least face holding them (Ziegler 1995, §2.2).
_vertex_mask, the one vertex rule for Newton polyhedra, reads it, and so
do apex._edges_at for compact edges and the fans' face test.
_face_lattice is the one face-lattice walk, level by level down from the
facets: polyhedra runs it on Newton polyhedra and fans on cones.

Record is the base of the package's immutable value types: the fields are
the class annotations, and no code is generated per class.  A record can
be made from its integer facts (Record._from_facts), with a field such
as a support's Fraction points left to a lazy fact; _unscaled, the
inverse of _scaled, builds those points when they are read.

Nothing is memoized at module level: hull rows, bounded pieces and
triangulations are computed on every call.  The package's memos live on
their inputs, as lazy facts (_lazy) or seeded into the instance dict: on
a polyhedra.SupportSet its integer points and least axis points, its
Fraction points once read, its Newton polyhedron, its placement record
and the totals of its Newton number (newton_number._lower_totals); the
points of a Newton polyhedron; a region's integer form, its totals and
its Fraction simplices once read; a cone's rows on the cone.

Determinism: vertices are kept in lexicographic order, facets are sorted by
(normal, offset), and the pulling triangulation always cones from the
lexicographically smallest vertex, so identical inputs give byte-identical
structures in every run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

DIMENSION_CAP = 8


class GeometryError(ValueError):
    """A geometric precondition failed."""


class DimensionCapExceeded(GeometryError):
    """Ambient dimension above the supported cap."""


class InternalConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


class _lazy:
    """A fact of a record computed on first access and stored in the
    instance dict, where later reads find it before this descriptor: a
    functools.cached_property without the lock that it takes on every
    first access before Python 3.12.  Record compares, hashes and shows
    its fields only, so equality, hashing and repr do not see it."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Record:
    """Base of the package's immutable value types.

    A subclass's annotated fields, in order, are its _fields; instances are
    built from exactly that many positional arguments, then __post_init__
    runs when the class defines one.  Equality, hashing and repr read the
    field tuple as a frozen dataclass's do, so hash(x) == hash(field tuple),
    but no method is generated per class.  Fields cannot be set or deleted;
    lazy facts (_lazy) still store their values in the instance dict.
    """

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)
        cls._astuple = staticmethod(
            get if len(fields) > 1 else lambda x: (get(x),))
        # whether to call __post_init__ is decided once per class; the call
        # itself goes through the class, so a wrapper set on it later (a
        # tracer's) runs
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"positional arguments {fields}, got {len(args)}")
        self.__dict__.update(zip(fields, args))
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _from_facts(cls, **facts):
        """An instance whose instance dict is facts, with no __post_init__:
        a field left out must be a lazy fact (_lazy) of those given, built
        when first read."""
        self = object.__new__(cls)
        self.__dict__.update(facts)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._astuple
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        return (type(self).__qualname__ + "(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._astuple(self))) + ")")


ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs):
    """Normalise a sequence of numbers to a tuple of Fractions."""
    return tuple(frac(x) for x in xs)


def render_point(p):
    """A point as message text, each rational written as str writes it,
    as the reports write rationals: (0, 3/2).  An int prints as the
    integral Fraction of its value does."""
    return "(" + ", ".join(map(str, p)) + ")"


def _render_scaled(ipoint, den):
    """render_point of the integer point ipoint over den: over den = 1
    the ints themselves, with no Fraction built."""
    return render_point(ipoint if den == 1 else _unscaled([ipoint], den)[0])


def _unit(n, i):
    """The unit vector e_i of Z^n, an integer tuple."""
    return (0,) * i + (1,) + (0,) * (n - 1 - i)


def primitive_vector(v):
    """Scale a nonzero rational vector to the primitive integer vector with
    the same direction (gcd of entries 1, orientation preserved)."""
    w = _integer_row(vec(v))
    if w is None:
        raise GeometryError("zero vector has no primitive form")
    return w


# --- exact integer linear algebra ----------------------------------------

def _integer_row(row):
    """Coprime integer row with the direction of a rational row; None for
    the zero row.  An int is its own numerator over denominator 1."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    if g == 0:
        return None
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _combine(s, u, t, v):
    """The primitive integer vector s*u - t*v."""
    w = [s * x - t * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple([x // g for x in w]) if g > 1 else tuple(w)


def _idot(a, b):
    return sum(map(mul, a, b))


def _scaled(points):
    """The points times the lcm of their denominators, as integer tuples,
    and that lcm."""
    den = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (den // x.denominator) for x in p)
            for p in points], den


def _unscaled(ipts, den):
    """The integer points ipts over den as Fraction tuples, the inverse of
    _scaled: one Fraction per distinct coordinate value."""
    value = {x: Fraction(x, den) for x in set().union(*ipts)}
    return tuple(tuple(map(value.__getitem__, p)) for p in ipts)


def _int_det(rows):
    """Determinant of a square integer matrix, an int.

    Orders 2 to 4 are written out.  Above, fraction-free elimination
    (Bareiss 1968): every update m_ij <- (m_ij m_kk - m_ik m_kj) / p, with
    p the previous pivot, is an exact integer division, so no rational
    arithmetic runs.
    """
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:      # Laplace expansion along the first two rows
        (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, o, p, q) = rows
        return ((a * f - b * e) * (k * q - l * p)
                - (a * g - c * e) * (j * q - l * o)
                + (a * h - d * e) * (j * p - k * o)
                + (b * g - c * f) * (i * q - l * m)
                - (b * h - d * f) * (i * p - k * m)
                + (c * h - d * g) * (i * o - j * m))
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        lead, pk = m[k], m[k][k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - f * lead[j]) // prev
        prev = pk
    return sign * m[-1][-1] if n else 1


def _minor(ipts, w, axes):
    """|det| of the k x k minor, on the k axes, of the differences of the
    points ipts[i] for i in w[1:] from ipts[w[0]]: k! times the k-volume
    of their simplex, times den^k."""
    p = ipts[w[0]]
    return abs(_int_det([[ipts[i][c] - p[c] for c in axes] for i in w[1:]]))


def _totals(n, ipts, simplices):
    """The integer totals T_k = k! V_k den^k, k = 0..n, of a simplicial
    complex in R^n given as index tuples into the integer points ipts, its
    vertices times den; the simplices list their vertices in one global
    order (sorted points or increasing indices), so equal faces are equal
    tuples.  No simplices give zeros at once.

    Each simplex is read once.  One with n + 1 vertices adds the |det| of
    its n x n difference matrix to T_n; a flat one (union_volume_vector
    passes flat pieces) adds nothing there.  The section with R^A, for a
    proper axis set A of size k, is the face W_A of the vertices supported
    inside A, a k-simplex when it has k + 1 of them; those vertices are
    off the open orthant (they have a zero coordinate), so simplices with
    the same vertices off it have the same sections.  When those vertices
    can each take a distinct axis of their support (taken greedily, the
    lowest free one, fewest axes first), no A holds more than |A| of
    them, and the simplex has no section.  For any other such vertex set,
    A runs over the subsets of the union of their supports, and each
    section face adds its k x k minor to T_k once, keyed by its index
    tuple: 1 for the origin, a coordinate difference on an axis, a _minor
    above.
    """
    totals = [0] * (n + 1)
    if not simplices:
        return totals
    offs = set()
    for simplex in set(simplices):
        if len(simplex) == n + 1:
            totals[n] += _minor(ipts, simplex, range(n))
        off = [(i, sum([1 << c for c, x in enumerate(ipts[i]) if x]))
               for i in simplex if 0 in ipts[i]]
        used = 0
        for mask in sorted([mask for _, mask in off], key=int.bit_count):
            free = mask & ~used
            used |= free & -free
        if used.bit_count() < len(off):
            offs.add(tuple(off))
    full = (1 << n) - 1
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
                        totals[k] += _minor(ipts, w, [c for c in range(n)
                                                      if a >> c & 1])
            if not a:
                break
            a = (a - 1) & union
    return totals


# --- double description ---------------------------------------------------

def _extreme_rays(equalities, inequalities, dim):
    """Double description of the cone {x : <e, x> = 0, <a, x> >= 0} in Q^dim.

    Rows are rational sequences of length dim, scaled to coprime integer
    rows first.  Returns (rays, lineality, zeros): the primitive integer
    extreme rays of the cone modulo its lineality space, an integer basis
    of that space and the rays' zero sets (below), so the cone is pointed
    exactly when the basis is empty, and then the rays are its extreme rays.
    With no inequalities there are no rays and the lineality basis is the
    null space of the equality rows.

    The lineality basis has one primitive vector per free column, in column
    order, positive at that column and zero at the other free columns.  A
    column is free when the lineality vector that starts as its unit vector
    is never split off.  A row splits off the first vector it is nonzero
    on, so every vector stays zero past its own column; the free columns
    are those of the rational reduced row echelon form, and the basis is
    that form's null space basis scaled to primitive integers.
    _hull_rows reads the equalities of an affine hull off it.

    The cone starts as the whole space, all lineality.  A row that is
    nonzero on the lineality space splits one lineality vector off: an
    equality drops it, an inequality keeps it as a new ray, and the other
    lineality vectors and rays move into the row's hyperplane.  Every other
    inequality is a double-description step (Fukuda & Prodon 1996): rays on
    its nonnegative side stay, and each pair of rays on opposite sides that
    is adjacent, meaning no third ray is tight on every inequality both of
    them are tight on, gives the ray where their 2-face meets the
    hyperplane.  Zero sets are bitmasks over the nonzero inequality rows
    processed so far, in order, and every update is an integer combination
    divided by its gcd (Bareiss 1968), so no rational arithmetic runs.
    """
    rows = []
    for is_eq, group in ((True, equalities), (False, inequalities)):
        for row in group:
            if len(row) != dim:
                raise GeometryError(
                    f"constraint row of length {len(row)} in dimension {dim}")
            row = _integer_row(row)
            if row is not None:
                rows.append((is_eq, row))
    lin = [_unit(dim, i) for i in range(dim)]
    rays, masks = [], []
    bits = 0
    subspace_dim = dim
    for is_eq, a in rows:
        vals = [sum(x * y for x, y in zip(a, v)) for v in lin]
        k = next((i for i, v in enumerate(vals) if v), None)
        if k is not None:
            pivot, s = lin[k], vals[k]
            if s < 0:
                pivot, s = tuple(-x for x in pivot), -s
            lin = [_combine(s, v, vals[i], pivot)
                   for i, v in enumerate(lin) if i != k]
            rays = [_combine(s, r, sum(x * y for x, y in zip(a, r)), pivot)
                    for r in rays]
            if is_eq:
                subspace_dim -= 1
                continue
            bit = 1 << bits
            bits += 1
            masks = [m | bit for m in masks]
            rays.append(pivot)
            masks.append(bit - 1)
            continue
        if is_eq:
            continue  # implied by the earlier equalities
        bit = 1 << bits
        bits += 1
        vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        # the span of a 2-face (an edge modulo lineality) is cut out by its
        # tight rows, so an adjacent pair shares at least this many
        need = subspace_dim - 2 - len(lin)
        new_rays, new_masks = [], []
        for i in pos:
            mi, vi = masks[i], vals[i]
            for j in neg:
                z = mi & masks[j]
                if z.bit_count() < need:
                    continue
                if any(mk & z == z for k, mk in enumerate(masks)
                       if k != i and k != j):
                    continue
                new_rays.append(_combine(vi, rays[j], vals[j], rays[i]))
                new_masks.append(z | bit)
        for r, m, v in zip(rays, masks, vals):
            if v > 0:
                new_rays.append(r)
                new_masks.append(m)
            elif v == 0:
                new_rays.append(r)
                new_masks.append(m | bit)
        rays, masks = new_rays, new_masks
    return rays, lin, masks


def _dual_facets(ipts, equalities):
    """Facets of the hull of integer points P inside the flat cut out by
    the equality normals e.

    They are the rays (w, c) with w != 0 of the cone of valid inequalities
    {(w, c) : <e, w> = 0, <w, P> >= c}, which is pointed when the hull is
    full-dimensional in that flat.  Returns the pairs (w primitive,
    c = least <w, P>) sorted by w.
    """
    n = len(ipts[0])
    rays, _, _ = _extreme_rays([e + (0,) for e in equalities],
                               [p + (-1,) for p in ipts], n + 1)
    facets = []
    for ray in rays:
        if any(ray[:n]):  # else the ray (0, -1) of the valid 0 >= -1
            w = _integer_row(ray[:n])
            facets.append((w, min(_idot(w, p) for p in ipts)))
    facets.sort()
    return facets


# --- hulls and bounded pieces --------------------------------------------

def _members(mask):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _closure(mask, facet_masks):
    """The meet of the facet masks that contain mask, -1 when none does.

    When facet_masks are the facets of a polyhedron, as bitmasks over its
    points, this is the least face holding the points of mask: every face
    is the meet of the facets that contain it (Ziegler, *Lectures on
    Polytopes*, 1995, §2.2)."""
    meet = -1
    for g in facet_masks:
        if g & mask == mask:
            meet &= g
    return meet


def _vertex_mask(candidates, facet_masks):
    """The bitmask of the candidate point indices i that are vertices:
    those whose _closure is i alone."""
    vmask = 0
    for i in candidates:
        if _closure(1 << i, facet_masks) == 1 << i:
            vmask |= 1 << i
    return vmask


_hull_cache = {}  # unused; the benchmark's cache reset still names it


def _hull_rows(points):
    """The hull of a list of rational points as the homogenized integer rows
    (a, -b) that _bounded_piece reads: (equalities, facets), meaning
    <a, x> = b on the affine hull and <a, x> >= b on each facet.

    The points are scaled by the lcm D of their denominators to integer
    points P.  The equality normals e are the integer null space of the
    differences P - P_0.  The facets (w, c) come from _dual_facets with w
    confined to the difference space (<e, w> = 0), where the hull is
    bounded and full-dimensional, so the dual cone is pointed and
    lower-dimensional inputs need no special care.  The rows are
    (D e, -<e, P_0>) and (D w, -c); all of this runs on integers.
    """
    if not points:
        raise GeometryError("empty point set has no hull")
    n = len(points[0])
    if any(len(p) != n for p in points):
        raise GeometryError("points of mixed dimension")
    ipts, den = _scaled(points)
    diffs = [tuple(x - y for x, y in zip(p, ipts[0])) for p in ipts[1:]]
    _, normals, _ = _extreme_rays(diffs, (), n)
    found = _dual_facets(ipts, normals) if len(normals) < n else ()
    return ([tuple(den * x for x in e) + (-_idot(e, ipts[0]),)
             for e in normals],
            [tuple(den * x for x in w) + (-c,) for w, c in found])


def _bounded_piece(equalities, inequalities, dim):
    """The bounded polytope {x in Q^dim : <a, x> = b on the equality rows,
    <a, x> >= b on the inequality rows}, each row given homogenized as
    (a, -b); None when it is empty.

    One _extreme_rays call on the cone {(x, t) : <a, x> = b t,
    <a, x> >= b t, t >= 0}: the vertices are x / t over its rays with
    t > 0, and when no ray has t > 0 the system is infeasible.  A feasible
    system whose cone has a ray with t = 0 or a lineality space is
    unbounded and raises GeometryError.  Returns (vertices, facets, flat):
    the vertices in lexicographic order; the relative facets as sorted
    bitmasks over them, which are the inclusion-maximal proper sets of
    vertices on which one row is tight (a facet is the face cut out by any
    row tight on it but not on the whole polytope); and flat, true when
    some inequality is tight on every vertex.  When no inequality is
    tight on the whole flat of the equalities, flat means the polytope is
    lower-dimensional inside that flat.
    """
    rays, lineality, zeros = _extreme_rays(
        equalities, [(0,) * dim + (1,)] + list(inequalities), dim + 1)
    verts = sorted((tuple(Fraction(x, r[-1]) for x in r[:-1]), z)
                   for r, z in zip(rays, zeros) if r[-1] > 0)
    if not verts:
        return None
    if lineality or len(verts) < len(rays):
        raise GeometryError("constraint system is unbounded")
    whole = (1 << len(verts)) - 1
    sets = {sum(1 << i for i, (_, z) in enumerate(verts) if z >> b & 1)
            for b in range(len(inequalities) + 1)}
    flat = whole in sets
    sets -= {0, whole}
    facets = sorted(m for m in sets
                    if not any(m & o == m != o for o in sets))
    return tuple(v for v, _ in verts), facets, flat


def _maximal_meets(face, masks, keep=-1):
    """The inclusion-maximal proper meets face & g, g in masks, that share
    a bit with keep.

    When face is the bitmask of a face of a polyhedron, masks are the
    masks of the facets of a face containing it (of the polyhedron, say)
    and keep marks the points, these are the facets of the face: every
    proper face is the meet of the facets containing it, and a meet with
    no point is empty.  Meets are taken largest first, so each needs to be
    tested only against the maximal ones already kept."""
    out = []
    for m in sorted({face & g for g in masks if face & g & keep} - {face},
                    key=int.bit_count, reverse=True):
        if not any(m & o == m for o in out):
            out.append(m)
    return out


def _face_lattice(m, facets):
    """The faces with a point on them, level by level, as one tuple of
    bitmasks per dimension from the facets down to the vertices (of a
    pointed cone: the rays, its apex left out).

    Bits 0..m-1 of a face's bitmask are the points on it; higher bits may
    mark more generators, such as a Newton polyhedron's recession axes.
    facets holds the facets' masks.  Face lattices are graded (Ziegler
    1995, Thm 2.7), so a face's dimension is its level, with no linear
    algebra.  The facets of a face are its _maximal_meets with its
    siblings, the facets of a face it is a facet of, keeping the points.
    """
    keep = (1 << m) - 1
    levels = []
    level = dict.fromkeys(facets, facets)   # face -> its siblings
    while level:
        levels.append(tuple(level))
        below = {}
        for face, siblings in level.items():
            subs = _maximal_meets(face, siblings, keep)
            for sub in subs:
                below.setdefault(sub, subs)
        level = below
    return levels


def _pulling(face, vmask, facet_masks, memo):
    """Pulling triangulation (De Loera, Rambau & Santos 2010) of a face, as
    increasing tuples of point indices, memoized in memo.

    Masks are over the polytope's points.  The face's facets are its
    _maximal_meets with facet_masks; its least vertex (lowest bit of
    face & vmask) is coned over the simplices of those that miss it, and a
    lone vertex is its own simplex.

    The rule depends only on the vertex set of each face, so a face shared
    by two polytopes is triangulated the same way in both, and polytopes
    glued along whole common faces triangulate into a simplicial complex.
    polyhedra._place relies on this across the facets of a Newton
    polyhedron, and newton_number.union_volume_vector on the triangulation
    restricting to every face."""
    if face not in memo:
        verts = face & vmask
        apex = verts & -verts
        first = (apex.bit_length() - 1,)
        if verts == apex:
            memo[face] = (first,)
        else:
            memo[face] = tuple(
                first + s for m in _maximal_meets(face, facet_masks)
                if not m & apex
                for s in _pulling(m, vmask, facet_masks, memo))
    return memo[face]


_tri_cache = {}  # unused; the benchmark's cache reset still names it
