"""Shared supports, families, and seeded random generators for the tests."""

from fractions import Fraction as F

from newtonmu.families import family
from newtonmu.geometry import dot
from newtonmu.polyhedra import newton_polyhedron, support_set


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
