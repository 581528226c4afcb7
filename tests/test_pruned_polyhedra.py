"""Pruned, lazily-faced Newton polyhedra and difference regions.

newton_polyhedron places the support points, reads the vertices off the
facet masks and walks the face lattice only when faces is first read.
edges_at_vertex reads the edges at a vertex off meets of the facet
masks, and difference_region reads its simplices off the pyramids of the
points placed on the smaller polyhedron.  The former routines, kept in oracles.py, walk the face
lattice (edges_at_vertex_lattice) and hull and triangulate each piece
(difference_region_constraints); the regions are compared by their typed
volume vectors, since the two triangulate the region differently.
"""

import random
from fractions import Fraction as F

from newtonmu import geometry, newton_number, polyhedra
from newtonmu.apex import edges_at_vertex, mu_constant_test
from newtonmu.geometry import _bounded_piece, _pulling, vec
from newtonmu.newton_number import difference_region, volume_vector
from newtonmu.polyhedra import NewtonPolyhedron, newton_polyhedron, support_set
from corpus import bs_base_support, bs_deformed_support
from oracles import difference_region_constraints, edges_at_vertex_lattice
from test_conversion import typed

CASES = 80

# The Polytope stack, replaced by geometry._hull_rows, geometry._bounded_piece
# and geometry._pulling; the hull half lives on in oracles.py.
DELETED = ("polytope_from_constraints", "intersect_polytopes",
           "triangulate_polytope", "_index_simplices", "polytope_volume",
           "_piece_simplices", "Polytope", "convex_hull", "_polytope",
           "sign_canonical")


def assert_deleted():
    assert not any(hasattr(mod, name) for mod in (geometry, newton_number)
                   for name in DELETED)


def _rational(rng):
    return F(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))


def _point(rng, n, coord):
    """A point other than the origin."""
    while True:
        p = tuple(coord(rng) for _ in range(n))
        if any(p):
            return p


def crowded_points(rng):
    """(n, points) for n = 2..4: a convenient point list, all ints half
    the time, with one to three points given twice and one to three
    points above another point of the list."""
    n = rng.choice((2, 3, 4))
    coord = rng.choice((_rational, lambda r: r.randint(0, 6)))
    pts = [_point(rng, n, coord) for _ in range(rng.randint(1, 7 - n))]
    pts += [tuple(rng.randint(1, 6) if j == i else 0 for j in range(n))
            for i in range(n)]
    for _ in range(rng.randint(1, 3)):
        p = rng.choice(pts)
        i = rng.randrange(n)
        pts += [p, p[:i] + (p[i] + rng.randint(1, 3),) + p[i + 1:]]
    return n, pts


def nested_pairs(rng):
    """A crowded convenient support and the support with up to two more
    points, half of them shrunk toward the origin, so that most pairs add
    vertices below the boundary."""
    n, pts = crowded_points(rng)
    s = support_set(n, pts)
    extra = []
    for _ in range(rng.randint(1, 2)):
        shrink = rng.choice((F(1), F(1, 2), F(1, 3)))
        extra.append(tuple(x * shrink for x in _point(rng, n, _rational)))
    return s, s.augment(extra)


def test_integer_input_matches_fraction_input():
    """Input given as ints and the same input given as Fractions take one
    path, scaled to integers, and give the same support, with Fraction
    points, and the same scaled points."""
    for k in range(CASES):
        n, pts = crowded_points(random.Random(k))
        s = support_set(n, pts)
        t = support_set(n, [vec(p) for p in pts])
        assert typed(s) == typed(t), k
        assert s._scaled_points == t._scaled_points, k


def test_edges_at_vertex_match_lattice():
    for k in range(CASES):
        for s in nested_pairs(random.Random(k)):
            np_ = newton_polyhedron(s)
            for v in np_.vertices:
                assert typed(edges_at_vertex(np_, v)) == typed(
                    edges_at_vertex_lattice(np_, v)), k


def test_difference_region_matches_constraints():
    for k in range(CASES):
        s, sp = nested_pairs(random.Random(k))
        assert typed(volume_vector(difference_region(s, sp))) == typed(
            volume_vector(difference_region_constraints(s, sp))), k


def test_flat_piece_gives_no_simplex():
    """A piece read off its homogenized rows: the corner simplex
    x, y, z >= 0, x + y + z <= 1 is one simplex, and the triangle left when
    z <= 0 is added is flat, with z >= 0 tight on every vertex."""
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 1)]
    verts, facets, flat = _bounded_piece((), rows, 3)
    assert verts == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert not flat and _pulling(0b1111, 0b1111, facets, {}) == (
        (0, 1, 2, 3),)
    verts, facets, flat = _bounded_piece((), rows + [(0, 0, -1, 0)], 3)
    assert len(verts) == 3 and len(facets) == 3 and flat


def test_mu_sweep_path_walks_no_face_lattice(monkeypatch):
    """The apex test with its Newton-number cross-check and the difference
    region, on the Briancon-Speder pair whose added vertex (1, 6, 0) lies
    off the positive orthant, read neither the faces nor the Fraction
    facets of either polyhedron and hull no point set: the Polytope stack
    is gone, and _hull_rows, the hull reader left, refuses to run.  The
    polyhedron's integer record is all there is: polyhedra keeps no
    second, private integer view."""
    def refuse(*args, **kwargs):
        raise AssertionError("a hull routine was called")

    assert_deleted()
    monkeypatch.setattr(geometry, "_hull_rows", refuse)
    monkeypatch.setattr(newton_number, "_hull_rows", refuse)
    s, sp = bs_base_support(), bs_deformed_support()
    res = mu_constant_test(s, sp)
    assert res.verdict and res.certificates[0].alpha == (1, 6, 0)
    assert difference_region(s, sp).simplices
    for np_ in (newton_polyhedron(s), newton_polyhedron(sp)):
        assert "faces" not in np_.__dict__
        assert "facets" not in np_.__dict__
    assert not hasattr(polyhedra, "_IntegerView")


VIEWS = {"facets", "vertices", "faces"}


def test_faces_are_no_field():
    """The fields are the integer record, which the support's points
    determine; the Fraction views are cached properties, so equality and
    hashing are the same whether or not they were built."""
    assert NewtonPolyhedron._fields == (
        "dim", "points", "ipts", "den", "ifacets", "vmask")
    a, b = newton_polyhedron(bs_base_support()), \
        newton_polyhedron(bs_base_support())
    assert a is not b
    assert not VIEWS & (a.__dict__.keys() | b.__dict__.keys())
    assert a == b and hash(a) == hash(b)
    assert len(a.faces) == 17 and len(a.facets) == 5 and len(a.vertices) == 4
    assert VIEWS <= a.__dict__.keys() and not VIEWS & b.__dict__.keys()
    assert a == b and hash(a) == hash(b)
    assert (a.faces, a.facets, a.vertices) == (b.faces, b.facets, b.vertices)
