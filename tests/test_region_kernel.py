"""The integer Newton-number stage against the Fraction oracles.

lower_region and difference_region (bitmask pulling), volume_vector
(integer minors), union_volume_vector (one pulling triangulation per
intersection) and newton_fan (direct dual-cone rays) are compared whole,
with the type of every number, against the library's former routines kept
in oracles.py; newton_number_set is compared with the pyramid formula,
which shares no triangulation code with either, and with the public path
through lower_region, whose Fraction points the fused newton_number_set
never builds.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from newtonmu import geometry, newton_number
from newtonmu.fans import newton_fan
from newtonmu.geometry import convex_hull
from newtonmu.newton_number import (difference_region, newton_number_region,
                                    newton_number_set, union_volume_vector,
                                    volume_vector)
from newtonmu.polyhedra import lower_region, newton_polyhedron, support_set
from oracles import (difference_region_hulls, lower_region_hulls,
                     newton_fan_section, nu_2d_staircase, nu_pyramid,
                     union_volume_vector_hulls, volume_vector_fractions)
from test_conversion import rational, supports, typed

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)


@given(supports(dims=(1, 2, 3, 4), convenient=True))
@PROPERTY
def test_lower_region_matches_hulls(s):
    region = lower_region(s)
    assert typed(region) == typed(lower_region_hulls(s))
    assert typed(volume_vector(region)) == typed(
        volume_vector_fractions(region))


@given(supports(dims=(1, 2, 3, 4), convenient=True),
       st.lists(st.tuples(*[rational] * 4), min_size=1, max_size=2))
@PROPERTY
def test_difference_region_volumes_match_fractions(s, extra):
    extra = [p[:s.dim] for p in extra if any(p[:s.dim])]
    region = difference_region(s, s.augment(extra))
    assert typed(region) == typed(difference_region_hulls(s, s.augment(extra)))
    assert typed(volume_vector(region)) == typed(
        volume_vector_fractions(region))


def test_difference_region_builds_no_hull(monkeypatch):
    """difference_region reads every piece off one double-description
    call: with convex_hull raising, a rational 3-D pair still gives the
    region whose Newton number is the drop nu(S) - nu(S')."""
    def no_hull(points, dim_cap=None):
        raise AssertionError("convex_hull called")

    s = support_set(3, [(F(5, 2), 0, 0), (0, F(7, 3), 0), (0, 0, 3),
                        (1, F(1, 2), 1), (F(1, 2), 1, F(3, 2))])
    sp = s.augment([(F(1, 2), F(1, 2), F(1, 2)), (F(3, 2), 0, F(1, 3))])
    drop = newton_number_set(s) - newton_number_set(sp)
    monkeypatch.setattr(geometry, "convex_hull", no_hull)
    monkeypatch.setattr(newton_number, "convex_hull", no_hull)
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
    """Pieces over facets that no point of s' lies below are skipped; the
    region, with every type, is still the hulled oracle's."""
    s, sp = pair
    assert typed(difference_region(s, sp)) == typed(
        difference_region_hulls(s, sp))


def test_difference_region_skips_flat_pieces(monkeypatch):
    """Added points on or above every compact-facet hyperplane of hull(s)
    leave only flat pieces: the region is empty and no piece is solved."""
    def no_piece(*args):
        raise AssertionError("polytope_from_constraints called")

    monkeypatch.setattr(newton_number, "polytope_from_constraints", no_piece)
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
        assert difference_region(s, sp).simplices == ()
        assert newton_number_set(s) == newton_number_set(sp)


grid = st.sampled_from((F(0), F(1, 2), F(1), F(3, 2), F(2), F(7, 3)))


@st.composite
def orthant_unions(draw):
    """(n, polytopes) for n = 1..3: up to three hulls of one to five points
    of a small rational grid, a third of them flattened into a coordinate
    subspace, so intersections are often empty, a point or
    lower-dimensional, and the origin is a vertex of some of them."""
    n = draw(st.integers(1, 3))
    polys = []
    for _ in range(draw(st.integers(0, 3))):
        pts = draw(st.lists(st.tuples(*[grid] * n), min_size=1, max_size=5))
        flat = set()
        if draw(st.integers(0, 2)) == 0:
            flat = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        polys.append(convex_hull([tuple(0 if i in flat else x
                                        for i, x in enumerate(p))
                                  for p in pts]))
    return n, polys


def _square(x, y):
    return convex_hull([(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)])


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
