"""The integer Newton-number stage against the Fraction oracles.

lower_region and difference_region (bitmask pulling), volume_vector
(integer minors) and newton_fan (direct dual-cone rays) are compared
whole, with the type of every number, against the library's former
routines kept in oracles.py; newton_number_set is compared with the
pyramid formula, which shares no triangulation code with either.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from newtonmu import geometry, newton_number
from newtonmu.fans import newton_fan
from newtonmu.newton_number import (difference_region, newton_number_region,
                                    newton_number_set, volume_vector)
from newtonmu.polyhedra import lower_region, support_set
from oracles import (difference_region_hulls, lower_region_hulls,
                     newton_fan_section, nu_pyramid, volume_vector_fractions)
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
    monkeypatch.setattr(geometry, "_tri_cache", {})
    region = difference_region(s, sp)
    assert region.simplices and newton_number_region(region) == drop


@given(supports())
@PROPERTY
def test_newton_fan_matches_sections(s):
    assert typed(newton_fan(s)) == typed(newton_fan_section(s))


@given(supports(dims=(3, 4), convenient=True))
@settings(PROPERTY, max_examples=40)
def test_newton_number_matches_pyramids(s):
    assert newton_number_set(s) == nu_pyramid(s)
