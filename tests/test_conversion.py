"""The double-description conversions against the exhaustive-scan oracles.

Each property compares a whole result, with the type of every number in
it, so a canonical form that differs only by int versus Fraction fails too.
The bounded-piece reader returns vertices and vertex masks, not a
Polytope; those are compared with the scan's vertices and facet vertex
sets, and its flat flag with the scan's dimension.  The hull reader
returns integer rows; their affine hull and facets are compared with the
scan's as primitive integer rows, and the vertices and facet masks that
the bounded-piece reader reads off them with the scan's vertices and
triangulation.  Each property draws its cases from random.Random(k) for
the first CASES seeds k, fewer where it says so, the same in every run
and every order of the suite.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from newtonmu.apex import mu_constant_test
from newtonmu.fans import newton_fan, support_function
from newtonmu.geometry import (GeometryError, Record, _bounded_piece,
                               _extreme_rays, _hull_rows, _pulling,
                               primitive_vector)
from newtonmu.newton_number import (SeriesNewtonNumber, difference_region,
                                    newton_number_region, newton_number_series,
                                    newton_number_set, volume_vector)
from newtonmu.polyhedra import (check_nested, convenience_report,
                                newton_polyhedron, support_set)
from corpus import extra_points, flats, mixed, supports, wide_supports
from oracles import (_face_lattice, convex_hull, convex_hull_scan,
                     lower_region, mat_rank, newton_polyhedron_scan,
                     polytope_from_constraints_scan, sign_canonical,
                     triangulate_polytope_hulls)

CASES = 80


def typed(x):
    """Structure with every number tagged by its type; a record is read
    through its fields, so the numbers inside it are tagged too."""
    if isinstance(x, Record):
        return typed(x._astuple(x))
    if isinstance(x, (tuple, list)):
        return tuple(typed(y) for y in x)
    if isinstance(x, frozenset):
        return frozenset(typed(y) for y in x)
    return (type(x).__name__, x)


def _matches_scan(s, k):
    """The polyhedron's Fraction views, which are cached properties that
    astuple does not see, equal the scan's record."""
    np_, scan = newton_polyhedron(s), newton_polyhedron_scan(s)
    assert typed((np_.dim, np_.facets, np_.vertices, np_.faces)) == typed(
        tuple(scan)), k


def test_newton_polyhedron_matches_scan():
    for k in range(CASES):
        _matches_scan(supports(random.Random(k)), k)


def test_newton_polyhedron_matches_scan_n5():
    """Plain and convenient supports in turn."""
    for k in range(30):
        _matches_scan(supports(random.Random(k), dims=(5,),
                               convenient=k % 2 == 1), k)


def test_face_lattice_matches_ranks():
    """The graded lattice walk against the pairwise-meet fixpoint with
    Fraction rank dimensions, on supports too large for the facet scan."""
    for k in range(25):
        s = wide_supports(random.Random(k))
        np_ = newton_polyhedron(s)
        assert np_.faces == _face_lattice(s.dim, np_.facets), k
        assert np_.vertices == tuple(sorted(f.points[0] for f in np_.faces
                                            if f.dim == 0)), k


def _hull_matches_scan(pts, k=None):
    """The oracle convex_hull equals the scan, typed, and _hull_rows cuts
    out the scan's affine hull (the same reduced null-space basis) and has
    its facets, as primitive integer rows with equalities up to sign.  The
    rows give _bounded_piece the scan's vertices, and _pulling over the
    facet masks it returns triangulates them as triangulate_polytope_hulls
    triangulates the hull."""
    hull, scan = convex_hull(pts), convex_hull_scan(pts)
    assert typed(hull) == typed(scan), k
    eqs, facets = _hull_rows(pts)
    assert sorted(sign_canonical(primitive_vector(r)) for r in eqs) == sorted(
        sign_canonical(primitive_vector(e + (-c,)))
        for e, c in scan.equalities), k
    assert sorted(map(primitive_vector, facets)) == sorted(
        primitive_vector(w + (-c,)) for w, c in scan.facets), k
    verts, masks, _ = _bounded_piece(eqs, facets, len(pts[0]))
    assert verts == scan.vertices, k
    whole = (1 << len(verts)) - 1
    assert sorted(tuple(verts[i] for i in s)
                  for s in _pulling(whole, whole, masks, {})) == sorted(
        tuple(sorted(s)) for s in triangulate_polytope_hulls(hull)), k


def test_convex_hull_matches_scan():
    for k in range(CASES):
        _hull_matches_scan(flats(random.Random(k)), k)


def test_convex_hull_mixed_denominators_match_scan():
    """Coordinates over 2, 3 and 6: the points are scaled by their lcm
    and the offsets come back as Fractions over it."""
    for k in range(CASES):
        _hull_matches_scan(flats(random.Random(k), entry=mixed, small=mixed),
                           k)


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__",
                      "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
FRACTION_ORDER = ("__lt__", "__le__", "__gt__", "__ge__")


def count_fraction_calls(monkeypatch, names):
    """The list that each call of the named Fraction methods appends its
    name to, from now on."""
    calls = []
    for name in names:
        def counted(*args, _op=getattr(F, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(F, name, counted)
    return calls


RATIONAL_POINTS = [(F(1, 2), 0, 3), (0, F(2, 3), 1), (2, 1, 0),
                   (F(5, 6), F(1, 3), 1), (1, 1, F(1, 2)), (0, 0, F(7, 2))]


def test_no_fraction_arithmetic_in_the_kernel(monkeypatch):
    """support_set, _hull_rows, newton_polyhedron (also on a support with
    dominated points), lower_region, volume_vector, check_nested,
    difference_region, NewtonPolyhedron.contains, newton_fan and
    support_function run on integers only: on rational inputs, built
    fresh, no Fraction operator is called."""
    calls = count_fraction_calls(monkeypatch, FRACTION_OPERATORS)
    pts = RATIONAL_POINTS
    flat = [(F(1, 2), F(1, 2), 0), (0, 1, F(1, 3)), (1, 0, 2),
            (F(1, 3), F(2, 3), F(5, 6)), (F(1, 6), F(5, 6), 1)]
    s = support_set(3, pts)
    # (2, 1, 1/2) lies above (2, 1, 0) and (1, 3/2, 1) above (5/6, 1/3, 1)
    dominated = support_set(3, pts + [(2, 1, F(1, 2)), (1, F(3, 2), 1)])
    convenient = s.augment([(F(5, 2), 0, 0), (0, F(4, 3), 0)])
    _hull_rows(pts)
    _hull_rows(flat)
    newton_polyhedron(s)
    newton_polyhedron(dominated)
    region = lower_region(convenient)
    volume_vector(region)
    below = convenient.augment([(F(1, 3), F(1, 2), 1)])
    check_nested(convenient, below)
    difference = difference_region(convenient, below)
    np_ = newton_polyhedron(convenient)
    assert np_.contains((F(5, 2), 0, 0)) and not np_.contains(
        (F(1, 3), F(1, 2), 1))
    assert len(newton_fan(convenient).maximal) == len(np_.vertices)
    assert support_function(convenient, (1, F(1, 2), 2)) == F(2, 3)
    assert region.simplices and difference.simplices and calls == []
    assert F(1, 2) + F(1, 3) == F(5, 6) and calls == ["__add__"]


def test_no_fraction_arithmetic_in_the_newton_numbers(monkeypatch):
    """convenience_report, newton_number_set, newton_number_region (on a
    lower and on a difference region) and mu_constant_test call no Fraction
    operator and no ordering comparison on rational inputs, built fresh
    for each call: each Newton number is one Fraction built from two ints.
    Equality stays allowed, for the verdict's comparison of the two
    Newton numbers.  The pair fails the vertex condition on both sides,
    so the warnings are rendered too."""
    calls = count_fraction_calls(monkeypatch,
                                 FRACTION_OPERATORS + FRACTION_ORDER)

    def pair():
        s = support_set(3, RATIONAL_POINTS).augment([(F(5, 2), 0, 0),
                                                     (0, F(4, 3), 0)])
        return s, s.augment([(F(1, 3), F(1, 2), 1), (0, F(1, 2), F(1, 2))])

    report = convenience_report(pair()[1])
    assert report.axis_convenient and report.vertex_condition == {
        1: True, 2: False, 3: False}
    assert newton_number_set(pair()[1]) == F(-17, 8)
    assert newton_number_region(lower_region(pair()[0])) == F(-7, 18)
    assert newton_number_region(difference_region(*pair())) == F(125, 72)
    res = mu_constant_test(*pair())
    assert not res.verdict and len(res.warnings) == 2
    assert (res.nu_s, res.nu_s_prime) == (F(-7, 18), F(-17, 8))
    assert calls == []
    assert F(1, 2) < F(2, 3) and calls == ["__lt__"]


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool" / "mu_sweep.json"


def test_an_integer_pair_builds_fractions_only_for_its_report(monkeypatch):
    """A mu_sweep pool case, as the benchmark runs it on its integer
    points: support_set of both supports, mu_constant_test, then the
    Newton number of difference_region.  Fraction.__new__ runs at most
    three times, once per Newton number, plus once per coordinate of the
    points that the certificates and the warnings render; the supports,
    the placements and the region build none.  Some cases render no
    point, and those build the three numbers alone."""
    calls = count_fraction_calls(monkeypatch, ["__new__"])
    bare = 0
    for case in json.loads(POOL.read_text())["cases"]:
        n = case["n"]
        calls.clear()
        s = support_set(n, [tuple(p) for p in case["s"]])
        sp = support_set(n, [tuple(p) for p in case["sp"]])
        res = mu_constant_test(s, sp)
        diff = newton_number_region(difference_region(s, sp))
        points = {p for c in res.certificates
                  for p in (c.alpha, c.beta, *c.edge.endpoints,
                            *c.edge.points, *(b for _, b in c.good_pairs))}
        rendered = len(points) + sum("admits no apex" in w
                                     for w in res.warnings)
        assert len(calls) <= 3 + n * rendered, (case["id"], len(calls))
        assert {"verdict": res.verdict, "nu_s": str(res.nu_s),
                "nu_sp": str(res.nu_s_prime),
                "diff": str(diff)} == case["expect"]
        bare += not rendered and len(calls) == 3
    assert bare > 50


def test_an_unread_report_builds_only_the_three_newton_numbers(monkeypatch):
    """On every mu_sweep pool case, as the benchmark runs it on fresh
    integer supports, mu_constant_test and then newton_number_region of
    difference_region call Fraction.__new__ three times, once per Newton
    number, plus, for each certificate, once per distinct coordinate
    value of the points it names (its edge's points, beta and the good
    betas): the apex search builds a certificate's Fraction fields
    eagerly, and a warning renders the integer point it names.  The 507
    cases without a certificate build exactly three, and there are 33
    with one."""
    calls = count_fraction_calls(monkeypatch, ["__new__"])
    certified = warned = 0
    for case in json.loads(POOL.read_text())["cases"]:
        n = case["n"]
        s = support_set(n, [tuple(p) for p in case["s"]])
        sp = support_set(n, [tuple(p) for p in case["sp"]])
        calls.clear()
        res = mu_constant_test(s, sp)
        newton_number_region(difference_region(s, sp))
        named = sum(len({x for p in (*c.edge.points, c.beta,
                                     *(b for _, b in c.good_pairs))
                         for x in p}) for c in res.certificates)
        assert len(calls) == 3 + named, (case["id"], len(calls))
        certified += bool(res.certificates)
        warned += bool(res.warnings)
    assert (certified, warned) == (33, 272)


def test_a_refused_pair_and_a_series_build_no_fraction_point(monkeypatch):
    """SupportSet.augment hands support_set the stored integer points of
    a support over den = 1, and difference_region builds S u S' of a
    pair that _placement refuses from the two supports' integer points
    when their dens agree, so only the Newton numbers returned build
    Fractions: one for newton_number_region of the difference region
    of the refused CI pair {(4, 0), (2, 2), (0, 4)} in
    {(4, 0), (1, 1), (0, 4)} (7 when S u S' was built from the Fraction
    points), and one per multiple tried for newton_number_series on
    {(5, 0, 3), (0, 7, 1), (0, 0, 15), (12, 8, 0)}, whose facet
    signature is read off the integer facets (155 with the Fraction
    ones)."""
    calls = count_fraction_calls(monkeypatch, ["__new__"])
    s = support_set(2, [(4, 0), (2, 2), (0, 4)])
    sp = support_set(2, [(4, 0), (1, 1), (0, 4)])
    nu = newton_number_region(difference_region(s, sp))
    assert len(calls) == 1 and nu == 8
    calls.clear()
    series = newton_number_series(support_set(
        3, [(5, 0, 3), (0, 7, 1), (0, 0, 15), (12, 8, 0)]))
    assert len(calls) == 7
    assert series == SeriesNewtonNumber(F(1547), False,
                                        (1, 2, 4, 8, 16, 32, 64), (1, 2))


def test_convex_hull_degenerate_inputs_match_scan():
    for pts in ([(1, 2, 3)] * 3,                                # a point
                [(0, 0, 0), (1, 1, 1), (3, 3, 3), (2, 2, 2)],   # a segment
                [(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1),    # coplanar
                 (2, 2, 1)],
                [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1),      # d=2 in R^4
                 (1, 1, 1, 1), (F(1, 2), F(1, 2), F(1, 2), F(1, 2))]):
        _hull_matches_scan(pts)


def _mask(indices):
    return sum(1 << i for i in indices)


def _rows(pairs):
    """Homogenized rows (a, -b) of (normal, offset) pairs."""
    return [tuple(nrm) + (-F(off),) for nrm, off in pairs]


def _both(eqs, ineqs, n, k=None):
    """_bounded_piece against the scan: the same vertices, the facets as
    the scan's facet vertex sets, and flat exactly when the scan's polytope
    is lower-dimensional in the flat of the equalities."""
    new = _bounded_piece(_rows(eqs), _rows(ineqs), n)
    old = polytope_from_constraints_scan(eqs, ineqs, n)
    if old is None:
        assert new is None, k
        return None
    verts, facets, flat = new
    assert typed(verts) == typed(old.vertices), k
    assert facets == sorted(map(_mask, old.facet_vertices)), k
    rank = mat_rank([nrm for nrm, _ in eqs]) if eqs else 0
    assert flat == (old.dim < n - rank), k
    return new


def test_difference_region_pieces_match_scan():
    """The systems oracles.difference_region_bounded solves: the cone
    over a compact facet <w, x> >= c of the smaller polyhedron (the rays of
    its dual cone), cut by <w, x> <= c and by the facets of the bigger one.
    Some pieces are lower-dimensional, where the bigger polyhedron touches
    the facet."""
    for k in range(CASES):
        rng = random.Random(k)
        s = supports(rng, dims=(2, 3), convenient=True)
        n = s.dim
        big = newton_polyhedron(s.augment(extra_points(rng, n)))
        big_ineqs = [(nrm, off) for nrm, off, _, _ in big.facets]
        for nrm, off, active in newton_polyhedron(s).compact_facets():
            normals, _, _ = _extreme_rays((), active, n)
            _both([], [(r, 0) for r in normals]
                  + [(tuple(-x for x in nrm), -off)] + big_ineqs, n, k)


def test_newton_fan_dual_cones_match_scan():
    """The systems newton_fan solves: the directions minimized at a vertex,
    sliced by the coordinate-sum-one hyperplane."""
    for k in range(CASES):
        s = supports(random.Random(k))
        n = s.dim
        np_ = newton_polyhedron(s)
        orthant = [(tuple(int(j == i) for j in range(n)), 0)
                   for i in range(n)]
        for v in np_.vertices:
            ineqs = orthant + [(tuple(a - b for a, b in zip(w, v)), 0)
                               for w in np_.vertices if w != v]
            assert _both([((1,) * n, 1)], ineqs, n, k) is not None, k


def test_infeasible_systems_return_none():
    square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2)]
    assert _both([], square + [((1, 1), 5)], 2) is None
    assert _both([((1, 1), 7)], square, 2) is None
    # infeasible, with the line x_2 free in every direction
    assert _both([], [((1, 0), 1), ((-1, 0), 0)], 2) is None


def test_unbounded_system_raises():
    with pytest.raises(GeometryError):
        _bounded_piece([], [(1, 0, 0), (0, 1, 0)], 2)
    with pytest.raises(GeometryError):
        _bounded_piece([], [(1, 0, 0), (-1, 0, 1)], 2)
    with pytest.raises(GeometryError):   # a row of the wrong length
        _bounded_piece([], [(1, 0, 0, 0)], 2)


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
    # integer rows need no common denominator: they give the rays, zero
    # sets and lineality of the same rows as Fractions, all ints
    eqs, rows = [(2, -2, 0, 4)], [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, -2),
                                  (-1, -1, 2, 0)]
    assert typed(_extreme_rays(eqs, rows, 4)) == typed(_extreme_rays(
        [tuple(map(F, r)) for r in eqs], [tuple(map(F, r)) for r in rows], 4))
