"""The double-description conversions against the exhaustive-scan oracles.

Each property compares a whole result, with the type of every number in
it, so a canonical form that differs only by int versus Fraction fails too.
"""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from newtonmu.geometry import (GeometryError, _extreme_rays, convex_hull,
                               polytope_from_constraints,
                               triangulate_polytope)
from newtonmu.newton_number import volume_vector
from newtonmu.polyhedra import (check_nested, lower_region, newton_polyhedron,
                                support_set)
from oracles import (_face_lattice, convex_hull_scan, newton_polyhedron_scan,
                     polytope_from_constraints_scan,
                     triangulate_polytope_hulls)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)

rational = st.builds(F, st.integers(0, 6), st.sampled_from([1, 1, 2, 3]))


def typed(x):
    """Structure with every number tagged by its type."""
    if dataclasses.is_dataclass(x):
        return typed(dataclasses.astuple(x))
    if isinstance(x, (tuple, list)):
        return tuple(typed(y) for y in x)
    if isinstance(x, frozenset):
        return frozenset(typed(y) for y in x)
    return (type(x).__name__, x)


@st.composite
def supports(draw, dims=(2, 3, 4), convenient=False):
    """Supports with rational points and, half the time, points dominated
    by another support point."""
    n = draw(st.sampled_from(dims))
    point = st.tuples(*[rational] * n).filter(any)
    pts = draw(st.lists(point, min_size=1, max_size=8 - n))
    if convenient:
        pts += [tuple(draw(st.integers(1, 6)) if j == i else 0
                      for j in range(n)) for i in range(n)]
    if draw(st.booleans()):
        p = draw(st.sampled_from(pts))
        i = draw(st.integers(0, n - 1))
        pts.append(p[:i] + (p[i] + draw(rational.filter(bool)),) + p[i + 1:])
    return support_set(n, pts)


@st.composite
def flats(draw, entry=rational, small=st.integers(-3, 3)):
    """Points spanning an affine flat of dimension d <= n: single points,
    collinear and coplanar sets, and full-dimensional sets."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, n))
    base = draw(st.tuples(*[entry] * n))
    dirs = draw(st.lists(st.tuples(*[small] * n), min_size=d, max_size=d))
    coeffs = draw(st.lists(st.tuples(*[entry] * d), min_size=1,
                           max_size=7))
    return [tuple(b + sum(c * u[k] for c, u in zip(cs, dirs))
                  for k, b in enumerate(base)) for cs in coeffs]


@given(supports())
@PROPERTY
def test_newton_polyhedron_matches_scan(s):
    assert typed(newton_polyhedron(s)) == typed(newton_polyhedron_scan(s))


@given(st.one_of(supports(dims=(5,)), supports(dims=(5,), convenient=True)))
@settings(PROPERTY, max_examples=30)
def test_newton_polyhedron_matches_scan_n5(s):
    assert typed(newton_polyhedron(s)) == typed(newton_polyhedron_scan(s))


@st.composite
def wide_supports(draw):
    """Supports in dimension 5 and 6 with up to 12 rational points, half
    of them convenient."""
    n = draw(st.sampled_from((5, 6)))
    point = st.tuples(*[rational] * n).filter(any)
    pts = draw(st.lists(point, min_size=1, max_size=12))
    if draw(st.booleans()):
        pts = pts[:12 - n] + [tuple(draw(st.integers(1, 6)) if j == i else 0
                                    for j in range(n)) for i in range(n)]
    return support_set(n, pts)


@given(wide_supports())
@settings(PROPERTY, max_examples=25)
def test_face_lattice_matches_ranks(s):
    """The graded lattice walk against the pairwise-meet fixpoint with
    Fraction rank dimensions, on supports too large for the facet scan."""
    np_ = newton_polyhedron(s)
    assert np_.faces == _face_lattice(s.dim, np_.facets)
    assert np_.vertices == tuple(sorted(f.points[0] for f in np_.faces
                                        if f.dim == 0))


@given(flats())
@PROPERTY
def test_convex_hull_matches_scan(pts):
    hull = convex_hull(pts)
    assert typed(hull) == typed(convex_hull_scan(pts))
    assert triangulate_polytope(hull) == tuple(sorted(
        tuple(sorted(s)) for s in triangulate_polytope_hulls(hull)))


mixed = st.builds(F, st.integers(-6, 6), st.sampled_from([2, 3, 6]))


@given(flats(entry=mixed, small=mixed))
@PROPERTY
def test_convex_hull_mixed_denominators_match_scan(pts):
    """Coordinates over 2, 3 and 6: the points are scaled by their lcm
    and the offsets come back as Fractions over it."""
    assert typed(convex_hull(pts)) == typed(convex_hull_scan(pts))


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__",
                      "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_no_fraction_arithmetic_in_the_kernel(monkeypatch):
    """convex_hull, newton_polyhedron, lower_region, volume_vector and
    check_nested run on integers only: on rational inputs, built fresh,
    no Fraction operator is called."""
    calls = []
    for name in FRACTION_OPERATORS:
        def counted(*args, _op=getattr(F, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(F, name, counted)
    pts = [(F(1, 2), 0, 3), (0, F(2, 3), 1), (2, 1, 0), (F(5, 6), F(1, 3), 1),
           (1, 1, F(1, 2)), (0, 0, F(7, 2))]
    flat = [(F(1, 2), F(1, 2), 0), (0, 1, F(1, 3)), (1, 0, 2),
            (F(1, 3), F(2, 3), F(5, 6)), (F(1, 6), F(5, 6), 1)]
    s = support_set(3, pts)
    convenient = s.augment([(F(5, 2), 0, 0), (0, F(4, 3), 0)])
    convex_hull(pts)
    convex_hull(flat)
    newton_polyhedron(s)
    region = lower_region(convenient)
    volume_vector(region)
    check_nested(convenient, convenient.augment([(F(1, 3), F(1, 2), 1)]))
    assert region.simplices and calls == []
    assert F(1, 2) + F(1, 3) == F(5, 6) and calls == ["__add__"]


def test_convex_hull_degenerate_inputs_match_scan():
    for pts in ([(1, 2, 3)] * 3,                                # a point
                [(0, 0, 0), (1, 1, 1), (3, 3, 3), (2, 2, 2)],   # a segment
                [(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1),    # coplanar
                 (2, 2, 1)],
                [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1),      # d=2 in R^4
                 (1, 1, 1, 1), (F(1, 2), F(1, 2), F(1, 2), F(1, 2))]):
        assert typed(convex_hull(pts)) == typed(convex_hull_scan(pts))


def _both(eqs, ineqs, n):
    new = polytope_from_constraints(eqs, ineqs, n)
    old = polytope_from_constraints_scan(eqs, ineqs, n)
    assert typed(new) == typed(old)
    return new


@given(supports(dims=(2, 3), convenient=True), st.lists(
    st.tuples(rational, rational, rational), min_size=1, max_size=2))
@PROPERTY
def test_difference_region_pieces_match_scan(s, extra):
    """The systems difference_region solves: the cone over a compact facet
    <w, x> >= c of the smaller polyhedron (the rays of its dual cone), cut
    by <w, x> <= c and by the facets of the bigger one.  Some pieces are
    lower-dimensional, where the bigger polyhedron touches the facet."""
    n = s.dim
    extra = [p[:n] for p in extra if any(p[:n])]
    big = newton_polyhedron(s.augment(extra))
    big_ineqs = [(nrm, off) for nrm, off, _, _ in big.facets]
    for nrm, off, active in newton_polyhedron(s).compact_facets():
        normals, _, _ = _extreme_rays((), active, n)
        _both([], [(r, 0) for r in normals]
              + [(tuple(-x for x in nrm), -off)] + big_ineqs, n)


@given(supports())
@PROPERTY
def test_newton_fan_dual_cones_match_scan(s):
    """The systems newton_fan solves: the directions minimized at a vertex,
    sliced by the coordinate-sum-one hyperplane."""
    n = s.dim
    np_ = newton_polyhedron(s)
    orthant = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    for v in np_.vertices:
        ineqs = orthant + [(tuple(a - b for a, b in zip(w, v)), 0)
                           for w in np_.vertices if w != v]
        assert _both([((1,) * n, 1)], ineqs, n) is not None


def test_infeasible_systems_return_none():
    square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2)]
    assert _both([], square + [((1, 1), 5)], 2) is None
    assert _both([((1, 1), 7)], square, 2) is None
    # infeasible, with the line x_2 free in every direction
    assert _both([], [((1, 0), 1), ((-1, 0), 0)], 2) is None


def test_unbounded_system_raises():
    with pytest.raises(GeometryError):
        polytope_from_constraints([], [((1, 0), 0), ((0, 1), 0)], 2)
    with pytest.raises(GeometryError):
        polytope_from_constraints([], [((1, 0), 0), ((-1, 0), -1)], 2)
    with pytest.raises(GeometryError):
        polytope_from_constraints([], [((1, 0, 0), 0)], 2)


def test_extreme_rays():
    # the quadrant, pointed: two rays and no lineality
    rays, lin, _ = _extreme_rays([], [(1, 0), (0, 1)], 2)
    assert sorted(rays) == [(0, 1), (1, 0)] and lin == []
    # a half-plane: one ray modulo a line
    rays, lin, _ = _extreme_rays([], [(1, 0)], 2)
    assert len(rays) == 1 and rays[0][0] > 0 and lin == [(0, 1)]
    # rational rows; the cone over a square pyramid has four rays, each
    # tight on the rows its zero set names
    rows = [(F(1, 2), 0, 0), (0, F(1, 3), 0), (-1, 0, 1), (0, -1, 1)]
    rays, lin, zeros = _extreme_rays([], rows, 3)
    assert sorted(rays) == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert sorted(zip(rays, zeros)) == [((0, 0, 1), 0b0011),
                                        ((0, 1, 1), 0b1001),
                                        ((1, 0, 1), 0b0110),
                                        ((1, 1, 1), 0b1100)]
    # an equality leaves the rays of the slice
    rays, lin, _ = _extreme_rays([(1, -1, 0)], [(1, 0, 0), (0, 0, 1)], 3)
    assert sorted(rays) == [(0, 0, 1), (1, 1, 0)] and lin == []
