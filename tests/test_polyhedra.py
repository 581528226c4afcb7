from fractions import Fraction as F

import pytest

from newtonmu.apex import mu_constant_test
from newtonmu.geometry import DIMENSION_CAP, DimensionCapExceeded
from newtonmu.fans import support_function
from newtonmu.newton_number import d_set_and_i_set, difference_region
from newtonmu.polyhedra import (SupportError, added_vertices, check_nested,
                                convenience_report, lower_region,
                                newton_polyhedron, support_set)
from corpus import (bs_base_support, bs_deformed_support, exe2d_support,
                    exe2d_augmented)


def test_support_set_validation():
    with pytest.raises(SupportError):
        support_set(2, [])
    with pytest.raises(SupportError):
        support_set(2, [(0, 0)])
    with pytest.raises(SupportError):
        support_set(2, [(-1, 2)])
    s = support_set(2, [(2, 0), (0, 2), (2, 0)])
    assert s.points == ((0, 2), (2, 0))


def test_support_dimension_cap():
    """support_set, the one entry point for supports, refuses dimensions
    above DIMENSION_CAP and accepts the cap itself."""
    units = [tuple(2 * int(j == i) for j in range(9)) for i in range(9)]
    assert DIMENSION_CAP == 8
    with pytest.raises(DimensionCapExceeded,
                       match="^dimension 9 exceeds cap 8$"):
        support_set(9, units)
    assert support_set(8, [u[:8] for u in units[:8]]).dim == 8


def test_support_set_operations():
    s = bs_deformed_support()
    assert "axes_with_point" not in s.__dict__
    axes = s.axes_with_point    # found once, then read off the support
    assert axes == frozenset({0, 1, 2}) and s.axes_with_point is axes
    r = s.restrict((1, 2))  # 0-based internal axes: keep y and z
    assert r.dim == 2 and (7, 1) in r.points
    aug = s.augment([(9, 9, 9)])
    assert (9, 9, 9) in aug.points and len(aug.points) == 6


def test_brieskorn_polyhedron():
    s = support_set(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    np_ = newton_polyhedron(s)
    assert np_.vertices == ((0, 0, 5), (0, 3, 0), (2, 0, 0))
    faces = np_.compact_faces()
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 0, 0, 1, 1, 1, 2]
    assert np_.contains((1, 1, 1)) and not np_.contains((0, 0, 4))
    assert support_function(s, (1, 1, 1)) == 2


def test_bs_base_compact_faces():
    np_ = newton_polyhedron(bs_base_support())
    faces = np_.compact_faces()
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 4, 1: 5, 2: 2}
    assert len(faces) == 11


def test_convenience_report():
    conv = convenience_report(exe2d_support(F(3, 4)))
    assert conv.axis_convenient and not conv.convenient
    assert conv.vertex_condition == {1: False, 2: True}
    # the a=1/2 support still has the vertex (3/4, 1): pre-convenient only
    conv = convenience_report(exe2d_support(F(1, 2)))
    assert conv.axis_convenient and not conv.convenient
    conv = convenience_report(bs_deformed_support())
    assert conv.convenient
    conv = convenience_report(support_set(2, [(2, 0), (1, 1)]))
    assert not conv.axis_convenient and conv.missing_axes == (2,)
    # augmenting with (3/2, 0) swallows the fractional vertex: the sweep
    # point lies on the line 2x/3 + y/2 = 1 for every a
    conv = convenience_report(exe2d_augmented(F(3, 4)))
    assert conv.convenient
    conv = convenience_report(support_set(2, [(2, 0), (0, 2), (F(1, 2), 1)]))
    assert conv.vertex_condition == {1: False, 2: True}


def test_nested_and_added_vertices():
    s, sp = bs_base_support(), bs_deformed_support()
    check_nested(s, sp)
    assert added_vertices(s, sp) == ((1, 6, 0),)
    assert added_vertices(s, s) == ()
    for check in (check_nested, added_vertices, mu_constant_test):
        with pytest.raises(SupportError, match="not nested"):
            check(sp, s)
    # (3,4,1) already lies inside the polyhedron: nothing added
    assert added_vertices(s, s.augment([(3, 4, 1)])) == ()
    # (1,5,2) sits on a compact facet but is no vertex
    assert added_vertices(s, s.augment([(1, 5, 2)])) == ()
    # (1,1,1) is strictly below the boundary
    assert added_vertices(s, s.augment([(1, 1, 1)])) == ((1, 1, 1),)


def test_nested_rejects_mismatched_dimensions():
    """zip would compare only the common coordinates and call these nested."""
    plane = support_set(2, [(1, 0), (0, 1)])
    space = support_set(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for a, b in ((plane, space), (space, plane)):
        for check in (check_nested, added_vertices, difference_region,
                      d_set_and_i_set, mu_constant_test):
            with pytest.raises(SupportError, match="dimension"):
                check(a, b)


def test_lower_region():
    region = lower_region(support_set(2, [(2, 0), (0, 2)]))
    assert region.ambient_dim == 2
    assert len(region.simplices) >= 1
    verts = {v for simplex in region.simplices for v in simplex}
    assert (0, 0) in verts and (2, 0) in verts and (0, 2) in verts
    with pytest.raises(SupportError):
        lower_region(support_set(2, [(2, 0)]))
