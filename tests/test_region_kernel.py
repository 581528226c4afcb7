"""The integer Newton-number stage against the Fraction oracles.

lower_region (bitmask pulling), volume_vector (integer minors),
union_volume_vector (one pulling triangulation per intersection) and
newton_fan (direct dual-cone rays) are compared whole, with the type of
every number, against the library's former routines kept in oracles.py.
difference_region reads its simplices off the pyramids of the placed
points, which triangulate the region differently from the former
per-facet pieces, so its typed volume vector is compared with theirs,
its Newton number with the drop nu(S) - nu(S'), and on small regions
every two simplices are checked to meet in a common face.
newton_number_set is compared with the pyramid formula, which shares no
triangulation code with either, and with the public path through
lower_region, whose Fraction points the fused newton_number_set never
builds.
"""

import itertools
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from newtonmu import geometry, newton_number
from newtonmu.fans import newton_fan
from newtonmu.newton_number import (difference_region, newton_number_region,
                                    newton_number_set, union_volume_vector,
                                    volume_vector)
from newtonmu.polyhedra import lower_region, newton_polyhedron, support_set
from oracles import (convex_hull, difference_region_bounded,
                     difference_region_hulls, lower_region_hulls,
                     newton_fan_section, nu_2d_staircase, nu_pyramid,
                     polytope_from_constraints, union_volume_vector_hulls,
                     volume_vector_fractions)
from test_conversion import rational, supports, typed
from test_pruned_polyhedra import assert_deleted

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)


@given(supports(dims=(1, 2, 3, 4), convenient=True))
@PROPERTY
def test_lower_region_matches_hulls(s):
    region = lower_region(s)
    assert typed(region) == typed(lower_region_hulls(s))
    assert typed(volume_vector(region)) == typed(
        volume_vector_fractions(region))


SMALL = 8    # regions of at most this many simplices are checked pairwise


def assert_common_faces(region):
    """Every two simplices of the region meet in the hull of their common
    vertices, which is empty when they share none: their intersection is
    read off both simplices' facets by oracles.polytope_from_constraints."""
    hulls = [convex_hull(t) for t in region.simplices]
    for (a, ha), (b, hb) in itertools.combinations(
            zip(region.simplices, hulls), 2):
        meet = polytope_from_constraints(
            (), ha.facets + hb.facets, region.ambient_dim)
        common = tuple(sorted(set(a) & set(b)))
        assert (meet.vertices if meet else ()) == common


def assert_region(s, sp):
    """The region's typed volume vector is both former routines', and the
    Fraction sum's; its Newton number is the drop nu(S) - nu(S'); on small
    regions the simplices form a simplicial complex."""
    region = difference_region(s, sp)
    vv = typed(volume_vector(region))
    assert vv == typed(volume_vector(difference_region_hulls(s, sp)))
    assert vv == typed(volume_vector(difference_region_bounded(s, sp)))
    assert vv == typed(volume_vector_fractions(region))
    assert newton_number_region(region) == (newton_number_set(s)
                                            - newton_number_set(sp))
    if len(region.simplices) <= SMALL:
        assert_common_faces(region)


@given(supports(dims=(1, 2, 3, 4), convenient=True),
       st.lists(st.tuples(*[rational] * 4), min_size=1, max_size=2))
@PROPERTY
def test_difference_region_volumes_match_fractions(s, extra):
    extra = [p[:s.dim] for p in extra if any(p[:s.dim])]
    assert_region(s, s.augment(extra))


def refuse(*args):
    raise AssertionError("a double description ran")


def test_difference_region_builds_no_hull(monkeypatch):
    """difference_region reads every piece off the pyramids of the placed
    points: the Polytope stack is gone, and with _hull_rows,
    _extreme_rays and _bounded_piece raising once hull(s) is built, a
    rational 3-D pair still gives the region whose Newton number is the
    drop nu(S) - nu(S')."""
    def no_hull(points):
        raise AssertionError("_hull_rows called")

    s = support_set(3, [(F(5, 2), 0, 0), (0, F(7, 3), 0), (0, 0, 3),
                        (1, F(1, 2), 1), (F(1, 2), 1, F(3, 2))])
    extra = [(F(1, 2), F(1, 2), F(1, 2)), (F(3, 2), 0, F(1, 3))]
    drop = newton_number_set(s) - newton_number_set(s.augment(extra))
    sp = s.augment(extra)
    assert_deleted()
    monkeypatch.setattr(geometry, "_hull_rows", no_hull)
    monkeypatch.setattr(newton_number, "_hull_rows", no_hull)
    for name in ("_extreme_rays", "_bounded_piece"):
        monkeypatch.setattr(geometry, name, refuse)
    region = difference_region(s, sp)
    assert region.simplices and newton_number_region(region) == drop


@st.composite
def touching_pairs(draw):
    """A convenient support s and s plus up to three points, each on the
    hyperplane <w, x> = c of a compact facet of hull(s): inside the facet
    (a convex combination of its points), anywhere on the hyperplane in
    the orthant (of its axis intercepts), or strictly below it (a point of
    the facet shrunk toward the origin, often still above the other
    facets' hyperplanes)."""
    s = draw(supports(dims=(2, 3, 4), convenient=True))
    n = s.dim
    facets = newton_polyhedron(s).compact_facets()
    extra = []
    for _ in range(draw(st.integers(1, 3))):
        w, c, active = draw(st.sampled_from(facets))
        kind = draw(st.sampled_from(("facet", "plane", "below")))
        corners = active if kind != "plane" else [
            tuple(c / w[i] if j == i else 0 for j in range(n))
            for i in range(n)]
        weights = draw(st.lists(st.integers(0, 3), min_size=len(corners),
                                max_size=len(corners)).filter(any))
        p = tuple(sum(t * q[k] for t, q in zip(weights, corners))
                  / sum(weights) for k in range(n))
        if kind == "below":
            shrink = draw(st.sampled_from((F(2, 3), F(3, 4), F(7, 8))))
            p = tuple(x * shrink for x in p)
        extra.append(p)
    return s, s.augment(extra)


@given(touching_pairs())
@PROPERTY
def test_difference_region_skip_is_exact(pair):
    """Points on a facet, on its plane or below it: a point that sees no
    facet adds no pyramid, and one on the plane of an unseen facet next
    to a seen one adds no facet at that ridge; the region still has the
    former routines' volumes."""
    assert_region(*pair)


def test_difference_region_skips_flat_pieces(monkeypatch):
    """Added points on or above every compact-facet hyperplane of hull(s)
    see no facet: the region is empty, and once hull(s) is built no
    double description runs."""
    pairs = [
        # on the facets x + 4y = 6 and 3x + 2y = 8, and above both
        (support_set(2, [(6, 0), (2, 1), (0, 4)]),
         [(4, F(1, 2)), (1, F(5, 2)), (5, 3)]),
        # on the plane x + y + z = 4, inside the facet, and above it
        (support_set(3, [(4, 0, 0), (0, 4, 0), (0, 0, 4)]),
         [(1, 1, 2), (F(4, 3), F(4, 3), F(4, 3)), (0, 2, 2), (5, 0, 1)]),
    ]
    for s, extra in pairs:
        sp = s.augment(extra)
        newton_polyhedron(s)
        with monkeypatch.context() as patch:
            for name in ("_extreme_rays", "_bounded_piece"):
                patch.setattr(geometry, name, refuse)
            assert difference_region(s, sp).simplices == ()
        assert newton_number_set(s) == newton_number_set(sp)


grid = st.sampled_from((F(0), F(1, 2), F(1), F(3, 2), F(2), F(7, 3)))


@st.composite
def orthant_unions(draw):
    """(n, pieces) for n = 1..3: up to three sets of one to five points of
    a small rational grid, a third of them flattened into a coordinate
    subspace, so the intersections of their hulls are often empty, a point
    or lower-dimensional, and the origin is a vertex of some of them."""
    n = draw(st.integers(1, 3))
    polys = []
    for _ in range(draw(st.integers(0, 3))):
        pts = draw(st.lists(st.tuples(*[grid] * n), min_size=1, max_size=5))
        flat = set()
        if draw(st.integers(0, 2)) == 0:
            flat = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        polys.append([tuple(0 if i in flat else x for i, x in enumerate(p))
                      for p in pts])
    return n, polys


def _square(x, y):
    return [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]


@given(orthant_unions())
@example((2, [_square(0, 0), _square(1, 0), _square(1, 1), _square(3, 3)]))
@PROPERTY
def test_union_volume_vector_matches_hulls(case):
    """Squares meeting the first in an edge, in a corner and not at all
    are the explicit example."""
    n, polys = case
    assert typed(union_volume_vector(polys, n)) == typed(
        union_volume_vector_hulls(polys, n))


@given(supports(dims=(1, 2, 3, 4), convenient=True))
@PROPERTY
def test_fused_newton_number_matches_region(s):
    """newton_number_set, from index simplices and integer points, equals
    the Newton number of the public lower_region, and for n = 2 the
    staircase formula, on rational supports with dominated points."""
    nu = newton_number_set(s)
    assert typed(nu) == typed(newton_number_region(lower_region(s)))
    if s.dim == 2:
        assert nu == nu_2d_staircase(s.points)


@given(supports())
@PROPERTY
def test_newton_fan_matches_sections(s):
    assert typed(newton_fan(s)) == typed(newton_fan_section(s))


@given(supports(dims=(3, 4), convenient=True))
@settings(PROPERTY, max_examples=40)
def test_newton_number_matches_pyramids(s):
    assert newton_number_set(s) == nu_pyramid(s)
