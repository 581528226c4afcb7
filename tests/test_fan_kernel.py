"""The integer cone kernel of newtonmu.fans against the cross-section and
bounding-box oracles.

Each property compares a whole result with the type of every number in it,
for cones in dimension 2..4: simplicial, lower-dimensional and
non-simplicial ones, proper and improper fans, covering and non-covering
subdivisions.  A last test runs the fan pipeline with the polytope
routines disabled, so it shows the cone kernel builds no polytope.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from newtonmu import fans, geometry, newton_number
from newtonmu.fans import (Fan, LatticeCone, box_points, cone_from_rays,
                           intersect_cones, is_admissible, is_regular_cone,
                           is_subdivision, newton_fan, orthant_fan,
                           regularize_fan, simplicialize, stellar_subdivide)
from newtonmu.geometry import (GeometryError, InternalConsistencyError,
                               convex_hull, primitive_vector)
from newtonmu.newton_number import union_volume_vector
from newtonmu.polyhedra import support_set
from corpus import bs_deformed_support
from oracles import (box_points_scan, cone_contains, cone_dim,
                     cone_faces_section, cone_from_rays_section,
                     fan_compatible_section, intersect_cones_section,
                     is_face_of_section, is_subdivision_chart, mat_rank,
                     union_volume_vector_hulls)
from test_conversion import typed

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)


def generators(n, size, entry=4):
    vector = st.tuples(*[st.integers(0, entry)] * n).filter(any)
    return st.lists(vector, min_size=size, max_size=size)


@st.composite
def cones(draw, n=None):
    """Cones from 1 to n + 2 generators: simplicial, lower-dimensional
    and non-simplicial ones."""
    n = n or draw(st.integers(2, 4))
    size = draw(st.integers(1, n + 2))
    return cone_from_rays(n, draw(generators(n, size)))


@st.composite
def simplicial_cones(draw, full=False):
    """Cones on k <= n independent generators, k = n when full.  Entries
    stay below 3 for n = 4, where the bounding box the scan oracle solves
    on would have up to 13^4 points."""
    n = draw(st.integers(2, 4))
    k = n if full else draw(st.integers(1, n))
    entry = 3 if n < 4 else 2
    gens = draw(generators(n, k, entry).filter(lambda g: mat_rank(g) == k))
    return cone_from_rays(n, gens)


@st.composite
def cone_pairs(draw):
    n = draw(st.integers(2, 4))
    return draw(cones(n)), draw(cones(n))


def _points(cone):
    """Rays, sums of rays and nearby lattice points of a cone."""
    pts = list(cone.rays)
    pts += [tuple(map(sum, zip(a, b)))
            for a, b in itertools.combinations(cone.rays, 2)]
    n = cone.ambient_dim
    for r in cone.rays[:2]:
        for i in range(n):
            for step in (-1, 1):
                pts.append(r[:i] + (r[i] + step,) + r[i + 1:])
    return pts + [(0,) * n]


@given(cones())
@PROPERTY
def test_cone_queries_match_section(c):
    assert typed((c.dim, c.is_simplicial)) == typed(
        (cone_dim(c), len(c.rays) == cone_dim(c)))
    for p in _points(c):
        assert c.contains(p) is cone_contains(c, p), p
    faces = cone_faces_section(c)
    assert typed(c.faces()) == typed(faces)
    assert typed(c.facets()) == typed(tuple(
        f for f in faces if cone_dim(f) == cone_dim(c) - 1))
    for f in c.faces():
        assert f.is_face_of(c) and is_face_of_section(f, c)


@st.composite
def generator_sets(draw, n, d):
    """Nonnegative integer combinations of d independent vectors of Z^n,
    so the cone is lower-dimensional when d < n: half the time d + 1 or
    d + 2 points of the moment curve (1, t, t^2, ...) in that basis, all
    extreme, so the cone is non-simplicial for d >= 3; else up to d + 3
    combinations with small coefficients, with zero vectors, repeated
    directions and redundant generators among them."""
    basis = draw(generators(n, d, entry=3).filter(lambda g: mat_rank(g) == d))
    if draw(st.booleans()):
        coeffs = [tuple(t ** i for i in range(d))
                  for t in range(d + draw(st.integers(1, 2)))]
    else:
        coeffs = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d),
                               min_size=1, max_size=d + 3))
    return [tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n))
            for cs in coeffs]


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2),
                                  (4, 3), (4, 4)])
@settings(PROPERTY, max_examples=20)
@given(data=st.data())
def test_cone_from_rays_matches_section(n, d, data):
    gens = data.draw(generator_sets(n, d))
    assert typed(cone_from_rays(n, gens)) == typed(
        cone_from_rays_section(n, gens))


@given(cone_pairs())
@PROPERTY
def test_intersect_cones_matches_section(pair):
    a, b = pair
    meet = intersect_cones(a, b)
    assert typed(meet) == typed(intersect_cones_section(a, b))
    for x, y in ((meet, a), (meet, b), (a, b), (b, a)):
        assert x.is_face_of(y) is is_face_of_section(x, y)
    for f in a.faces():
        assert f.is_face_of(b) is is_face_of_section(f, b)


def test_intersect_cones_rejects_a_line():
    # not a pointed cone: rays pointing both ways along the first axis
    line = LatticeCone(2, ((-1, 0), (1, 0)))
    with pytest.raises(InternalConsistencyError):
        intersect_cones(line, line)


@given(simplicial_cones())
@PROPERTY
def test_box_points_match_scan(c):
    assert typed(box_points(c)) == typed(box_points_scan(c))


@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(cones(n), min_size=2, max_size=3)))
@PROPERTY
def test_fan_check_matches_section(cs):
    """Random cones overlap improperly more often than not."""
    n = cs[0].ambient_dim
    try:
        Fan(n, tuple(cs))
        built = True
    except GeometryError:
        built = False
    assert built is fan_compatible_section(tuple(set(cs)))


@given(simplicial_cones(full=True), st.integers(0, 3))
@PROPERTY
def test_stellar_pieces_with_their_parent_are_improper(c, pick):
    """A stellar piece overlaps its parent cone in a cone that is not a
    face of the parent."""
    box = [p for p, _ in box_points(c)] or [tuple(map(sum, zip(*c.rays)))]
    xi = primitive_vector(box[pick % len(box)])
    pieces = stellar_subdivide(Fan(c.ambient_dim, (c,)), xi).maximal
    assert fan_compatible_section(pieces)
    if len(pieces) > 1:
        with pytest.raises(GeometryError):
            Fan(c.ambient_dim, pieces + (c,))
        assert not fan_compatible_section(pieces + (c,))


@given(cones(), st.integers(0, 7))
@PROPERTY
def test_is_subdivision_matches_chart(c, drop):
    n = c.ambient_dim
    base = Fan(n, (c,))
    sub = simplicialize(base)
    interior = primitive_vector(tuple(map(sum, zip(*c.rays))))
    sub = stellar_subdivide(sub, interior)
    assert is_subdivision(sub, base) and is_subdivision_chart(sub, base)
    if len(sub.maximal) > 1:
        # not covering: one piece left out
        i = drop % len(sub.maximal)
        short = Fan(n, sub.maximal[:i] + sub.maximal[i + 1:])
        assert not is_subdivision(short, base)
        assert not is_subdivision_chart(short, base)
    other = orthant_fan(n)
    assert is_subdivision(base, other) is is_subdivision_chart(base, other)
    assert is_subdivision(other, base) is is_subdivision_chart(other, base)


@st.composite
def convenient_supports(draw):
    n = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n).filter(any),
                        max_size=3))
    pts += [tuple(draw(st.integers(1, 5)) if j == i else 0 for j in range(n))
            for i in range(n)]
    return support_set(n, pts)


@given(convenient_supports())
@PROPERTY
def test_newton_fan_subdivides_the_orthant(s):
    n = s.dim
    nf = newton_fan(s)
    assert is_subdivision(nf, orthant_fan(n))
    assert is_subdivision_chart(nf, orthant_fan(n))
    simp = simplicialize(nf)
    assert is_subdivision(simp, nf) and is_subdivision_chart(simp, nf)


def test_box_points_of_a_deep_cone():
    """Determinant 143: the bounding box has about a million lattice
    points, the group 143 residues."""
    rays = [(0, 0, 1), (0, 1, 0), (143, 91, 77)]
    c = cone_from_rays(3, rays)
    pts = box_points(c)
    assert len(pts) == 142
    for p, lam in pts:
        assert all(isinstance(x, int) for x in p)
        assert all(isinstance(x, F) and 0 <= x < 1 for x in lam)
        assert tuple(sum(l * r[j] for l, r in zip(lam, c.rays))
                     for j in range(3)) == p
    assert pts == tuple(sorted(pts, key=lambda t: (sum(t[0]), t[0])))


def test_regularize_brieskorn_7_11_13():
    s = support_set(3, [(7, 0, 0), (0, 11, 0), (0, 0, 13)])
    nf = newton_fan(s)
    reg = regularize_fan(simplicialize(nf))
    assert len(reg.maximal) == 75
    assert all(is_regular_cone(c) for c in reg.maximal)
    assert is_subdivision(reg, nf)


def test_cone_kernel_builds_no_polytope(monkeypatch):
    """With convex_hull, triangulate_polytope and determinant raising, the
    fan pipeline of the resolution runs on the Briancon-Speder generic
    support, a non-simplicial 3-D cone lists its faces and is measured
    against its simplicial subdivision, and a union of polytopes built
    beforehand gets its volume vector."""
    names = ("convex_hull", "triangulate_polytope", "determinant")
    assert not any(hasattr(fans, name) for name in names)
    gens = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)]
    want_faces = cone_faces_section(cone_from_rays_section(3, gens))
    polys = [convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]),
             convex_hull([(1, 0, 0), (3, 0, 0), (1, 2, 0), (1, 1, 1)]),
             convex_hull([(0, 0, 0), (1, 1, 0)])]
    want_union = union_volume_vector_hulls(polys, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a polytope routine was called")

    for name in names:
        monkeypatch.setattr(geometry, name, refuse)
        if hasattr(newton_number, name):
            monkeypatch.setattr(newton_number, name, refuse)
    s = bs_deformed_support()
    nf = newton_fan(s)
    reg = regularize_fan(simplicialize(nf))
    assert is_subdivision(reg, nf) and is_admissible(reg, s)
    cone = cone_from_rays(3, gens)
    assert len(cone.rays) == 4 and not cone.is_simplicial
    assert typed(cone.faces()) == typed(want_faces)
    whole = Fan(3, (cone,))
    assert is_subdivision(simplicialize(whole), whole)
    assert typed(union_volume_vector(polys, 3)) == typed(want_union)
