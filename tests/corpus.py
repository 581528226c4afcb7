"""Shared supports, families, and seeded random generators for the tests."""

from fractions import Fraction as F

from newtonmu.families import family
from newtonmu.polyhedra import newton_polyhedron, support_set
from oracles import dot


def family_from_spoly(p, n_params=0):
    """The family whose terms are p's, constant in the parameters."""
    return family(p.n_vars, n_params, [(m, c) for m, c in p.terms])


def bs_base_support():
    return support_set(3, [(5, 0, 0), (0, 7, 1), (0, 0, 15), (0, 8, 0)])


def bs_deformed_support():
    return support_set(3, [(5, 0, 0), (0, 7, 1), (0, 0, 15), (0, 8, 0),
                           (1, 6, 0)])


def bs_family():
    """x^5 + y^7 z + z^15 + y^8 + s x y^6"""
    return family(3, 1, [
        ((5, 0, 0), 1), ((0, 7, 1), 1), ((0, 0, 15), 1), ((0, 8, 0), 1),
        ((1, 6, 0), [((1,), 1)]),
    ])


def bs_scaled_family(lam):
    """Axes 1 and 2 stretched by an integer factor; stays mu-constant."""
    return family(3, 1, [
        ((5 * lam, 0, 0), 1), ((0, 7 * lam, 1), 1), ((0, 0, 15), 1),
        ((0, 8 * lam, 0), 1), ((lam, 6 * lam, 0), [((1,), 1)]),
    ])


def quintic_family():
    """x1^5 + x2^6 + x3^5 + x2^3 x3^2 + 2 s x1^2 x2^2 x3 + s^2 x1^4 x2"""
    return family(3, 1, [
        ((5, 0, 0), 1), ((0, 6, 0), 1), ((0, 0, 5), 1), ((0, 3, 2), 1),
        ((2, 2, 1), [((1,), 2)]), ((4, 1, 0), [((2,), 1)]),
    ])


def exe2d_support(a):
    a = F(a)
    return support_set(2, [(2, 0), (0, 2), (F(3, 2) * (1 - a), 2 * a)])


def exe2d_augmented(a):
    return exe2d_support(a).augment([(F(3, 2), 0)])


def exe3d_support(a):
    a = F(a)
    return support_set(3, [(1, 0, 0), (0, 2, 0), (F(3, 4) * (1 - a), 2 * a, 0),
                           (0, 0, 1)])


def exe3d_augmented(a):
    return exe3d_support(a).augment([(F(3, 4), 0, 0)])


def brieskorn(exponents):
    n = len(exponents)
    pts = [tuple(e if j == i else 0 for j in range(n))
           for i, e in enumerate(exponents)]
    return support_set(n, pts)


# --- seeded random generators ------------------------------------------------

def random_convenient_support(rng, n, max_intercept=5, extra=2):
    """Lattice support with every axis covered; integer coordinates keep the
    vertex condition automatic."""
    pts = {tuple(rng.randint(2, max_intercept) if j == i else 0
                 for j in range(n))
           for i in range(n)}
    while len(pts) < n + extra:
        p = tuple(rng.randint(0, 4) for _ in range(n))
        if any(c > 0 for c in p):
            pts.add(p)
    return support_set(n, sorted(pts))


def lattice_points_on_plane(normal, offset, n, box=7):
    """Lattice points of the orthant box with <normal, x> equal the offset."""
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if dot(normal, prefix) == offset:
                out.append(tuple(prefix))
            return
        for c in range(box + 1):
            rec(prefix + [c])

    rec([])
    return out


def boundary_plane_augmentation(rng, s):
    """A point on a random compact facet hyperplane of the polyhedron, or
    None when the small box holds no new lattice point on it."""
    np_ = newton_polyhedron(s)
    facets = list(np_.compact_facets())
    rng.shuffle(facets)
    existing = set(s.points)
    for nrm, off, _ in facets:
        cands = [p for p in lattice_points_on_plane(nrm, off, s.dim)
                 if tuple(map(F, p)) not in existing and any(p)]
        if cands:
            return s.augment([cands[rng.randrange(len(cands))]])
    return None


def interior_point_below(rng, s, tries=200):
    """A strictly positive lattice point strictly under the boundary."""
    np_ = newton_polyhedron(s)
    for _ in range(tries):
        p = tuple(rng.randint(1, 4) for _ in range(s.dim))
        if not np_.contains(p):
            return p
    return None


def rational(rng):
    """A nonnegative rational with numerator 0..6 over 1, 2 or 3, whole
    half the time."""
    return F(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))


def mixed(rng):
    """A rational with numerator -6..6 over 2, 3 or 6."""
    return F(rng.randint(-6, 6), rng.choice((2, 3, 6)))


def grid(rng):
    """A point of a small rational grid on one axis."""
    return rng.choice((F(0), F(1, 2), F(1), F(3, 2), F(2), F(7, 3)))


def _small_int(rng):
    return rng.randint(-3, 3)


def _point(rng, n):
    """A nonzero point of n rationals."""
    while True:
        p = tuple(rational(rng) for _ in range(n))
        if any(p):
            return p


def _axis_points(rng, n):
    return [tuple(rng.randint(1, 6) if j == i else 0 for j in range(n))
            for i in range(n)]


def supports(rng, dims=(2, 3, 4), convenient=False):
    """Supports of 1..8 - n rational points, with axis points 1..6 when
    convenient, and half the time one point dominated by another support
    point."""
    n = rng.choice(dims)
    pts = [_point(rng, n) for _ in range(rng.randint(1, 8 - n))]
    if convenient:
        pts += _axis_points(rng, n)
    if rng.random() < 0.5:
        p = rng.choice(pts)
        i = rng.randrange(n)
        step = rational(rng)
        while not step:
            step = rational(rng)
        pts.append(p[:i] + (p[i] + step,) + p[i + 1:])
    return support_set(n, pts)


def extra_points(rng, n):
    """One or two rational points of R^n, the zero ones dropped."""
    extra = [tuple(rational(rng) for _ in range(n))
             for _ in range(rng.randint(1, 2))]
    return [p for p in extra if any(p)]


def wide_supports(rng):
    """Supports in dimension 5 and 6 with up to 12 rational points, half
    of them convenient."""
    n = rng.choice((5, 6))
    pts = [_point(rng, n) for _ in range(rng.randint(1, 12))]
    if rng.random() < 0.5:
        pts = pts[:12 - n] + _axis_points(rng, n)
    return support_set(n, pts)


def flats(rng, entry=rational, small=_small_int):
    """Points spanning an affine flat of dimension d <= n: single points,
    collinear and coplanar sets, and full-dimensional sets."""
    n = rng.randint(1, 4)
    d = rng.randint(0, n)
    base = tuple(entry(rng) for _ in range(n))
    dirs = [tuple(small(rng) for _ in range(n)) for _ in range(d)]
    coeffs = [tuple(entry(rng) for _ in range(d))
              for _ in range(rng.randint(1, 7))]
    return [tuple(b + sum(c * u[k] for c, u in zip(cs, dirs))
                  for k, b in enumerate(base)) for cs in coeffs]


def touching_pairs(rng):
    """A convenient support s and s plus up to three points, each on the
    hyperplane <w, x> = c of a compact facet of hull(s): inside the facet
    (a convex combination of its points), anywhere on the hyperplane in
    the orthant (of its axis intercepts), or strictly below it (a point of
    the facet shrunk toward the origin, often still above the other
    facets' hyperplanes)."""
    s = supports(rng, convenient=True)
    n = s.dim
    facets = newton_polyhedron(s).compact_facets()
    extra = []
    for _ in range(rng.randint(1, 3)):
        w, c, active = rng.choice(facets)
        kind = rng.choice(("facet", "plane", "below"))
        corners = active if kind != "plane" else [
            tuple(c / w[i] if j == i else 0 for j in range(n))
            for i in range(n)]
        weights = [0]
        while not any(weights):
            weights = [rng.randint(0, 3) for _ in corners]
        p = tuple(sum(t * q[k] for t, q in zip(weights, corners))
                  / sum(weights) for k in range(n))
        if kind == "below":
            shrink = rng.choice((F(2, 3), F(3, 4), F(7, 8)))
            p = tuple(x * shrink for x in p)
        extra.append(p)
    return s, s.augment(extra)


def orthant_unions(rng):
    """(n, pieces) for n = 1..3: up to three sets of one to five points of
    a small rational grid, a third of them flattened into a coordinate
    subspace, so the intersections of their hulls are often empty, a point
    or lower-dimensional, and the origin is a vertex of some of them."""
    n = rng.randint(1, 3)
    polys = []
    for _ in range(rng.randint(0, 3)):
        pts = [tuple(grid(rng) for _ in range(n))
               for _ in range(rng.randint(1, 5))]
        flat = set()
        if rng.randint(0, 2) == 0:
            flat = set(rng.sample(range(n), rng.randint(0, n - 1)))
        polys.append([tuple(0 if i in flat else x for i, x in enumerate(p))
                      for p in pts])
    return n, polys
