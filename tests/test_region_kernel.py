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
builds.  Each property draws its cases from random.Random(k) for the
first CASES seeds k, fewer where it says so, the same in every run and
every order of the suite.
"""

import itertools
import random
from fractions import Fraction as F

from newtonmu import geometry, newton_number
from newtonmu.fans import newton_fan
from newtonmu.newton_number import (difference_region, newton_number_region,
                                    newton_number_set, union_volume_vector,
                                    volume_vector)
from newtonmu.polyhedra import lower_region, newton_polyhedron, support_set
from corpus import extra_points, orthant_unions, supports, touching_pairs
from oracles import (convex_hull, difference_region_bounded,
                     difference_region_hulls, lower_region_hulls,
                     newton_fan_section, nu_2d_staircase, nu_pyramid,
                     polytope_from_constraints, union_volume_vector_hulls,
                     volume_vector_fractions)
from test_conversion import typed
from test_pruned_polyhedra import assert_deleted

CASES = 80


def test_lower_region_matches_hulls():
    for k in range(CASES):
        s = supports(random.Random(k), dims=(1, 2, 3, 4), convenient=True)
        region = lower_region(s)
        assert typed(region) == typed(lower_region_hulls(s)), k
        assert typed(volume_vector(region)) == typed(
            volume_vector_fractions(region)), k


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


def assert_region(s, sp, k):
    """The region's typed volume vector is both former routines', and the
    Fraction sum's; its Newton number is the drop nu(S) - nu(S'); on small
    regions the simplices form a simplicial complex."""
    region = difference_region(s, sp)
    vv = typed(volume_vector(region))
    assert vv == typed(volume_vector(difference_region_hulls(s, sp))), k
    assert vv == typed(volume_vector(difference_region_bounded(s, sp))), k
    assert vv == typed(volume_vector_fractions(region)), k
    assert newton_number_region(region) == (newton_number_set(s)
                                            - newton_number_set(sp)), k
    if len(region.simplices) <= SMALL:
        assert_common_faces(region)


def test_difference_region_volumes_match_fractions():
    for k in range(CASES):
        rng = random.Random(k)
        s = supports(rng, dims=(1, 2, 3, 4), convenient=True)
        assert_region(s, s.augment(extra_points(rng, s.dim)), k)


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


def test_difference_region_skip_is_exact():
    """Points on a facet, on its plane or below it: a point that sees no
    facet adds no pyramid, and one on the plane of an unseen facet next
    to a seen one adds no facet at that ridge; the region still has the
    former routines' volumes."""
    for k in range(CASES):
        assert_region(*touching_pairs(random.Random(k)), k)


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


def _square(x, y):
    return [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]


def test_union_volume_vector_matches_hulls():
    """Squares meeting the first in an edge, in a corner and not at all
    are the explicit case."""
    cases = {"squares": (2, [_square(0, 0), _square(1, 0), _square(1, 1),
                             _square(3, 3)])}
    cases.update((k, orthant_unions(random.Random(k))) for k in range(CASES))
    for k, (n, polys) in cases.items():
        assert typed(union_volume_vector(polys, n)) == typed(
            union_volume_vector_hulls(polys, n)), k


def test_fused_newton_number_matches_region():
    """newton_number_set, from index simplices and integer points, equals
    the Newton number of the public lower_region, and for n = 2 the
    staircase formula, on rational supports with dominated points."""
    for k in range(CASES):
        s = supports(random.Random(k), dims=(1, 2, 3, 4), convenient=True)
        nu = newton_number_set(s)
        assert typed(nu) == typed(newton_number_region(lower_region(s))), k
        if s.dim == 2:
            assert nu == nu_2d_staircase(s.points), k


def test_newton_fan_matches_sections():
    for k in range(CASES):
        s = supports(random.Random(k))
        assert typed(newton_fan(s)) == typed(newton_fan_section(s)), k


def test_newton_number_matches_pyramids():
    for k in range(40):
        s = supports(random.Random(k), dims=(3, 4), convenient=True)
        assert newton_number_set(s) == nu_pyramid(s), k
