"""Nested supports in one build: points placed on a Newton polyhedron.

polyhedra._placement places the points of S' on the Newton polyhedron of
an axis-convenient S whose points S' holds, one at a time.  The polyhedron
it gives must be the former double-description build of S'
(oracles._double_description), with the type of every number, and the
difference region read off its pyramids must have the volume vector of
the former per-facet pieces (oracles.difference_region_bounded) and the
Newton number nu(S) - nu(S').  Both are checked on every pair of the
mu_sweep benchmark pool and on seeded random pairs for n = 2..5, with
one and with several added points of every kind below.  On the pool,
the recorded answers and the section scan's volume vectors are checked
too.

Every support is placed (_placed): one of dimension n > 1 with a point
on each axis on the polyhedron of its least axis points, any other on
its first point and the facet at infinity.  Both must be typed-equal to
the former double description too, and no build runs _extreme_rays, so
the apex test with the difference region of a pair runs no double
description at all.  Each facet normal that placement takes from the
pencil of a horizon ridge's two facet planes is the former normal from
the minors (oracles._ridge_normal), and placement computes no
determinant.  A large build stays cheap: the ridge pre-filter of _place
passes over seed pairs that share too few points to meet in a ridge.
"""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from newtonmu import fans, geometry, newton_number, polyhedra
from newtonmu.apex import mu_constant_test
from newtonmu.newton_number import (difference_region, newton_number_region,
                                    newton_number_set, volume_vector)
from newtonmu.polyhedra import (SupportError, _placed, _placement,
                                added_vertices, newton_polyhedron,
                                support_set)
from newtonmu.geometry import _members
from corpus import (bs_base_support, bs_deformed_support,
                    interior_point_below, random_convenient_support)
from oracles import (_double_description, _ridge_normal,
                     difference_region_bounded, lower_region,
                     volume_vector_scan)
from test_conversion import typed
from test_region_kernel import assert_common_faces

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool" / "mu_sweep.json"


def direct_build(support):
    """The former double-description build, kept as the reference of
    every placed build."""
    return _double_description(support)


def assert_placed(s, sp):
    """sp, fresh, gets the placed polyhedron, typed-equal to the direct
    build; the region read off the pyramids has the former routine's
    typed volume vector and the Newton number nu(S) - nu(S')."""
    assert "_newton_polyhedron" not in sp.__dict__
    assert _placement(s, sp) is not None
    assert typed(newton_polyhedron(sp)) == typed(direct_build(sp))
    region = difference_region(s, sp)
    assert typed(volume_vector(region)) == typed(
        volume_vector(difference_region_bounded(s, sp)))
    assert newton_number_region(region) == (newton_number_set(s)
                                            - newton_number_set(sp))
    return region


def test_placement_matches_the_direct_build_on_the_pool():
    """Every pair of the pool is placed as assert_placed checks, and gives
    the recorded verdict and Newton numbers; the volume vectors of the
    difference region and both lower regions, from the integer totals,
    are typed-equal to the former section scan's."""
    cases = json.loads(POOL.read_text())["cases"]
    assert len(cases) == 540
    for case in cases:
        n = case["n"]
        s = support_set(n, [tuple(p) for p in case["s"]])
        sp = support_set(n, [tuple(p) for p in case["sp"]])
        region = assert_placed(s, sp)
        res = mu_constant_test(s, sp)
        assert {"verdict": res.verdict, "nu_s": str(res.nu_s),
                "nu_sp": str(res.nu_s_prime),
                "diff": str(newton_number_region(region))} == case["expect"]
        for r in (region, lower_region(s), lower_region(sp)):
            assert typed(volume_vector(r)) == typed(volume_vector_scan(r))


KINDS = ("rational", "facet", "plane", "below", "above", "dominated")


def random_pair(rng, n, kinds):
    """A convenient rational support s, with a dominated point half the
    time, and s plus one point of each of the given kinds (KINDS): a
    rational point shrunk toward the origin; a point inside a compact
    facet of hull(s), anywhere on its plane in the orthant, or on the
    facet shrunk below the plane (as oracles' touching_pairs draws them);
    an old vertex plus a nonnegative step, which dominates that vertex;
    or a point drawn before (a point of s if none) plus a positive step,
    which it dominates."""
    def rational():
        return F(rng.randint(0, 8), rng.choice((1, 1, 2, 3)))

    pts = [tuple(rng.randint(2, 8) if j == i else 0 for j in range(n))
           for i in range(n)]
    for _ in range(rng.randint(1, 7 - n)):
        p = tuple(rational() for _ in range(n))
        if any(p):
            pts.append(p)
    if rng.random() < 0.5:
        p, i = rng.choice(pts), rng.randrange(n)
        pts.append(p[:i] + (p[i] + rng.randint(1, 3),) + p[i + 1:])
    s = support_set(n, pts)
    np_ = newton_polyhedron(s)
    facets = np_.compact_facets()
    extra = []
    for kind in kinds:
        w, c, active = rng.choice(facets)
        if kind == "rational":
            shrink = rng.choice((F(2, 3), F(1, 2), F(1, 3)))
            p = tuple(rational() * shrink for _ in range(n))
        elif kind in ("facet", "plane", "below"):
            corners = active if kind != "plane" else [
                tuple(c / w[i] if j == i else 0 for j in range(n))
                for i in range(n)]
            weights = [rng.randint(0, 3) for _ in corners]
            if not any(weights):
                weights[0] = 1
            p = tuple(sum(t * q[k] for t, q in zip(weights, corners))
                      / sum(weights) for k in range(n))
            if kind == "below":
                p = tuple(x * rng.choice((F(2, 3), F(3, 4), F(7, 8)))
                          for x in p)
        elif kind == "above":
            v = rng.choice(np_.vertices)
            p = tuple(x + rng.randint(0, 2) for x in v)
        else:
            q, i = rng.choice(extra or pts), rng.randrange(n)
            p = q[:i] + (q[i] + rng.choice((F(1, 2), 1, 2)),) + q[i + 1:]
        if any(p):
            extra.append(p)
    return s, s.augment(extra or [s.points[0]])


def test_placement_matches_the_direct_build_seeded():
    """Ninety seeds, n = 2..5 in turn, each with one added point, of each
    kind in turn, and with two to four of random kinds placed one at a
    time.  Regions of up to 16 simplices form a simplicial complex, and
    over a third of the pairs cut a region off."""
    cut = 0
    for k in range(90):
        rng = random.Random(k)
        n = 2 + k % 4
        several = [rng.choice(KINDS) for _ in range(rng.randint(2, 4))]
        for kinds in ([KINDS[k % len(KINDS)]], several):
            region = assert_placed(*random_pair(rng, n, kinds))
            if len(region.simplices) <= 16:
                assert_common_faces(region)
            cut += bool(region.simplices)
    assert cut > 60


def test_placement_in_dimension_one():
    """The horizon of a point is the empty face: the new facet is the
    placed point alone, and the pyramid the segment down to it."""
    s = support_set(1, [(F(5, 2),), (4,)])
    sp = s.augment([(3,), (F(1, 3),), (1,)])
    region = assert_placed(s, sp)
    assert region.simplices == (((F(1, 3),), (F(5, 2),)),)


def test_placement_needs_a_nested_parent():
    """No placement without each point of s in s', an axis point of s
    on every axis, and one dimension; hull(s') is then built on its
    own."""
    s = support_set(2, [(3, 0), (0, 3)])
    assert _placement(s, support_set(2, [(2, 0), (0, 3)])) is None
    assert _placement(support_set(2, [(3, 0), (1, 1)]),
                      support_set(2, [(3, 0), (1, 1), (0, 1)])) is None
    assert _placement(s, support_set(3, [(3, 0, 0), (0, 3, 0)])) is None
    sp = support_set(2, [(3, 0), (0, 3), (1, 1)])
    assert _placement(s, sp) is not None
    assert "_newton_polyhedron" in sp.__dict__


def test_difference_region_of_a_pair_that_drops_points():
    """hull(s) inside hull(s') although s' lacks points of s: the points
    are placed over the union of the two supports, and the region has the
    former routine's volumes and the drop of the Newton numbers."""
    for s, sp in [
            (support_set(2, [(4, 0), (0, 4), (2, 2), (3, 3)]),
             support_set(2, [(4, 0), (0, 4), (1, 1)])),
            (support_set(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 2),
                             (2, 2, 2)]),
             support_set(3, [(3, 0, 0), (0, 3, 0), (0, 0, F(5, 2)),
                             (1, 1, 1)]))]:
        assert _placement(s, sp) is None
        region = difference_region(s, sp)
        assert typed(volume_vector(region)) == typed(
            volume_vector(difference_region_bounded(s, sp)))
        assert newton_number_region(region) == (newton_number_set(s)
                                                - newton_number_set(sp))
        assert_common_faces(region)


def test_mu_constant_test_places_the_bigger_polyhedron(monkeypatch):
    """Once hull(S) is built, the apex test with its Newton-number
    cross-check and the difference region of the Briancon-Speder pair run
    no double description: hull(S') is placed once, and the region is
    read off the memoized pyramids."""
    def refuse(*args):
        raise AssertionError("a double description ran")

    s, sp = bs_base_support(), bs_deformed_support()
    direct = direct_build(sp)
    newton_polyhedron(s)
    for name in ("_extreme_rays", "_bounded_piece"):
        monkeypatch.setattr(geometry, name, refuse)
    res = mu_constant_test(s, sp)
    region = difference_region(s, sp)
    base, recorded = sp.__dict__["_placed"]
    assert base is s and recorded is region
    assert res.verdict and typed(newton_polyhedron(sp)) == typed(direct)
    assert newton_number_region(region) == res.nu_s - res.nu_s_prime == 0


def test_placed_pairs_skip_the_nesting_check(monkeypatch):
    """A pair that _placement places is nested by construction: the apex
    test and the difference region run with check_nested refusing.  An
    unplaced pair keeps the check and its error text."""
    def refuse(*args):
        raise AssertionError("check_nested ran")

    s, sp = bs_base_support(), bs_deformed_support()
    with monkeypatch.context() as patch:
        for module in (polyhedra, newton_number):
            patch.setattr(module, "check_nested", refuse)
        assert mu_constant_test(s, sp).verdict
        assert added_vertices(s, sp) == ((1, 6, 0),)
        assert newton_number_region(difference_region(s, sp)) == 0
    small, big = support_set(2, [(2, 0), (0, 2)]), support_set(2, [(3, 0),
                                                                   (0, 3)])
    assert _placement(small, big) is None
    for check in (added_vertices, difference_region):
        with pytest.raises(SupportError, match="^polyhedra not nested"):
            check(small, big)


def test_placement_refuses_a_finer_denominator_of_s():
    """_placement places only when the denominator of S divides that of
    S': here S' = {(1/3, 0), (0, 1/3), (1/3, 1/3)} holds no point of
    S = {(1/2, 0), (0, 1/2)}, though its integer points (1, 0) and (0, 1)
    over 3 equal those of S over 2.  The difference region then has the
    Newton number nu(S) - nu(S') = -7/36."""
    s = support_set(2, [(F(1, 2), 0), (0, F(1, 2))])
    sp = support_set(2, [(F(1, 3), 0), (0, F(1, 3)), (F(1, 3), F(1, 3))])
    assert newton_number_region(difference_region(s, sp)) == F(-7, 36) == (
        newton_number_set(s) - newton_number_set(sp))
    assert _placement(s, sp) is None


def random_axis_support(rng, n):
    """An axis-convenient rational support: one to three points on each
    axis, then up to six points, each with every coordinate positive, on
    a coordinate hyperplane (one to n - 1 coordinates zero), or a point
    drawn before plus a nonnegative step, which it dominates."""
    def rational():
        return F(rng.randint(1, 8), rng.choice((1, 1, 2, 3)))

    pts = [tuple(rational() if j == i else 0 for j in range(n))
           for i in range(n) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            p = tuple(rational() for _ in range(n))
        elif kind == 1:
            zeros = rng.sample(range(n), rng.randint(1, n - 1))
            p = tuple(0 if i in zeros else rational() for i in range(n))
        else:
            p = tuple(x + rng.choice((0, F(1, 2), 1))
                      for x in rng.choice(pts))
        pts.append(p)
    return support_set(n, pts)


def test_axis_simplex_placement_matches_the_double_description():
    """On 240 seeds, n = 2..5 in turn, the polyhedron of an
    axis-convenient support placed on its axis simplex is typed-equal to
    the double description, and newton_polyhedron builds it.  Every
    fifth support is an axis simplex alone; the others have several
    points on an axis, dominated points and points on coordinate
    hyperplanes often."""
    seen = {"several": 0, "dominated": 0, "hyperplane": 0}
    for k in range(240):
        rng = random.Random(k)
        n = 2 + k % 4
        if k % 5 == 4:
            s = support_set(n, [tuple(F(rng.randint(1, 9), rng.randint(1, 3))
                                      if j == i else 0 for j in range(n))
                                for i in range(n)])
        else:
            s = random_axis_support(rng, n)
        placed = _placed(s)
        assert typed(placed) == typed(_double_description(s)), k
        assert typed(newton_polyhedron(s)) == typed(placed), k
        support = [sum(1 << i for i, x in enumerate(p) if x)
                   for p in s.points]
        seen["several"] += len(support) - len(set(support)) > 0
        seen["dominated"] += any(p != q and all(x <= y for x, y in zip(p, q))
                                 for p in s.points for q in s.points)
        seen["hyperplane"] += any(1 < mask.bit_count() < n
                                  for mask in support)
    assert min(seen.values()) > 60, seen


def random_off_axis_support(rng, n, kind):
    """A support of dimension n: a single point (kind 0), or two to eight
    points with none on one random axis and a point on each other axis
    (kind 1), or with no point on any axis (kind 2).
    The coordinates are rational half the time, and half of the supports
    of kinds 1 and 2 gain a point above one of theirs, which it
    dominates.  In dimension 1 every point is on the axis, so every kind
    keeps it."""
    rational = rng.random() < 0.5

    def coordinate():
        x = rng.randint(0, 6)
        return F(x, rng.choice((1, 2, 3))) if rational else x

    axis = rng.randrange(n)

    def allowed(p):
        on = [i for i, x in enumerate(p) if x]
        return on and (n == 1 or kind == 0 or len(on) > 1
                       or kind == 1 and on != [axis])

    pts = []
    while len(pts) < (1 if kind == 0 else rng.randint(2, 8)):
        p = tuple(coordinate() for _ in range(n))
        if allowed(p):
            pts.append(p)
    if kind == 1:
        pts += [tuple(rng.randint(1, 6) if j == i else 0 for j in range(n))
                for i in range(n) if i != axis]
    if kind and rng.random() < 0.5:
        p, i = rng.choice(pts), rng.randrange(n)
        pts.append(p[:i] + (p[i] + rng.randint(1, 3),) + p[i + 1:])
    return support_set(n, pts)


def test_every_support_is_placed_as_the_double_description(monkeypatch):
    """On 300 seeds, n = 1..6 in turn, a support that misses one axis or
    every axis, or is a single point, with rational and dominated points
    often, is placed on its first point and the facet at infinity:
    newton_polyhedron is typed-equal to the former double description,
    computed beforehand, while _extreme_rays refuses.  So are a line and
    a 3-space support that misses the z-axis."""
    line = support_set(1, [(F(5, 2),), (4,)])
    cases = [line, support_set(3, [(4, 0, 0), (0, 5, 0), (1, 0, 2),
                                   (0, 1, 3)])]
    seen = dict.fromkeys(("single", "one axis", "every axis", "rational",
                          "dominated"), 0)
    for k in range(300):
        rng = random.Random(k)
        n = 1 + k % 6
        s = random_off_axis_support(rng, n, k // 6 % 3)
        cases.append(s)
        missing = len(s.missing_axes)
        seen["single"] += len(s.points) == 1
        seen["one axis"] += missing == 1
        seen["every axis"] += missing == n > 1
        seen["rational"] += s._scaled_points[1] > 1
        seen["dominated"] += any(p != q and all(x <= y for x, y in zip(p, q))
                                 for p in s.points for q in s.points)
    expected = [typed(_double_description(s)) for s in cases]

    def refuse(*args):
        raise AssertionError("_extreme_rays ran")

    monkeypatch.setattr(geometry, "_extreme_rays", refuse)
    for k, (s, expect) in enumerate(zip(cases, expected)):
        assert typed(newton_polyhedron(s)) == expect, k
    assert newton_polyhedron(line).ifacets == (((1,), 5, 1),)
    assert min(seen.values()) > 30, seen


def test_mu_sweep_path_runs_no_double_description(monkeypatch):
    """mu_constant_test and then the Newton number of the difference
    region, on fresh supports, make no _extreme_rays call: hull(S) is
    placed on its axis simplex and hull(S') on hull(S).  Checked on the
    Briancon-Speder pair and on the first pool pair of each n."""
    calls = []
    extreme_rays = geometry._extreme_rays

    def counted(*args):
        calls.append(args)
        return extreme_rays(*args)

    for module in (geometry, fans):
        monkeypatch.setattr(module, "_extreme_rays", counted)
    cases = json.loads(POOL.read_text())["cases"]
    pairs = [(bs_base_support(), bs_deformed_support(), None)]
    for n in (2, 3, 4):
        case = next(c for c in cases if c["n"] == n)
        pairs.append((support_set(n, case["s"]), support_set(n, case["sp"]),
                      case["expect"]))
    for s, sp, expect in pairs:
        res = mu_constant_test(s, sp)
        diff = newton_number_region(difference_region(s, sp))
        assert expect in (None, {"verdict": res.verdict,
                                 "nu_s": str(res.nu_s),
                                 "nu_sp": str(res.nu_s_prime),
                                 "diff": str(diff)})
    assert len(pairs) == 4 and calls == []


def next_point(rng, s, interior):
    """A point of the orthant on the hyperplane <w, x> = c of a random
    compact facet of hull(s): each coordinate 0 or drawn up to the
    intercept c / w_k, then one solved for; a lattice point when s is an
    integer support.  When interior, a point strictly under the Newton
    boundary: such a point shrunk, or for an integer support a lattice
    point (corpus' interior_point_below).  None when the draws miss."""
    integer = s._scaled_points[1] == 1
    if interior and integer:
        return interior_point_below(rng, s)
    w, c, _ = rng.choice(newton_polyhedron(s).compact_facets())

    def coordinate(x):
        if rng.random() < 0.4:
            return F(0)
        if integer:
            return F(rng.randint(0, c // x))
        return c / x * F(rng.randint(0, 6), 6)

    for _ in range(40):
        p, i = [coordinate(x) for x in w], rng.randrange(len(w))
        p[i] = 0
        p[i] = (c - sum(x * y for x, y in zip(w, p))) / w[i]
        if p[i] >= 0 and any(p) and not (integer and p[i].denominator > 1):
            return tuple(x * rng.choice((F(1, 2), F(2, 3), F(7, 8)))
                         for x in p) if interior else tuple(p)
    return None


def test_pencil_normals_match_the_ridge_minors(monkeypatch):
    """Every normal _place forms from the pencil of a horizon ridge's two
    facet planes (geometry._combine) is the former normal from the minors
    of the ridge's vertices and the placed point (oracles._ridge_normal).
    On 200 seeds, n = 2..5 in turn, integer and rational axis-convenient
    supports take boundary-plane and interior points one at a time, so
    the facets that are new after a step are the ones that step formed."""
    formed = []
    combine = polyhedra._combine

    def recorded(*args):
        formed.append(combine(*args))
        return formed[-1]

    monkeypatch.setattr(polyhedra, "_combine", recorded)
    checked = {False: 0, True: 0}
    for k in range(200):
        rng = random.Random(k)
        n = 2 + k % 4
        integer = k % 8 < 4
        s = (random_convenient_support(rng, n, max_intercept=8, extra=4)
             if integer else random_axis_support(rng, n))
        for interior in (True, False, False, True, False):
            alpha = next_point(rng, s, interior)
            sp = s if alpha is None else s.augment([alpha])
            if len(sp.points) == len(s.points):
                continue
            small = newton_polyhedron(s)
            formed.clear()
            assert _placement(s, sp) is not None
            ipts = sp._scaled_points[0]
            (j,) = [i for i, p in enumerate(sp.points) if p not in s.points]
            old = {w for w, _, _ in small.ifacets}
            new = [(w, g) for w, _, g in newton_polyhedron(sp).ifacets
                   if w not in old]
            assert sorted(formed) == sorted(w for w, _ in new), k
            verts = set(small.vertices)
            for w, g in new:
                ridge = [ipts[i] for i in _members(g & ~(1 << j))
                         if sp.points[i] in verts]
                assert w == _ridge_normal(ridge, ipts[j]), k
            checked[interior] += len(new)
            s = sp
    assert min(checked.values()) > 100, checked


def test_placement_computes_no_determinant(monkeypatch):
    """_placement forms every new facet normal by the pencil update, with
    no call to geometry._int_det, on the Briancon-Speder pair and the
    first pool pair of each n, with hull(S) built first."""
    calls = []
    int_det = geometry._int_det

    def counted(*args):
        calls.append(args)
        return int_det(*args)

    for module in (geometry, polyhedra, newton_number, fans):
        monkeypatch.setattr(module, "_int_det", counted, raising=False)
    cases = json.loads(POOL.read_text())["cases"]
    pairs = [(bs_base_support(), bs_deformed_support())]
    for n in (2, 3, 4):
        case = next(c for c in cases if c["n"] == n)
        pairs.append((support_set(n, case["s"]), support_set(n, case["sp"])))
    for s, sp in pairs:
        newton_polyhedron(s)
        calls.clear()
        assert _placement(s, sp) is not None
        assert calls == []


def convex_support(n, count, rng):
    """count points of Z^n near convex position: the axis points 60 e_i and
    points round(60 (y_i / sum y)^2) for uniform y."""
    pts = {tuple(60 if j == i else 0 for j in range(n)) for i in range(n)}
    while len(pts) < count:
        y = [rng.random() for _ in range(n)]
        total = sum(y)
        p = tuple(round(60 * (x / total) ** 2) for x in y)
        if any(p):
            pts.add(p)
    return support_set(n, sorted(pts))


def test_placement_is_bounded():
    """The n = 5 support of 80 points near convex position (629 facets) is
    built far inside 3 s: about 0.2-0.5 s with the ridge pre-filter of
    _place, 14-18 s without it."""
    s = convex_support(5, 80, random.Random(1))
    start = time.perf_counter()
    assert len(newton_polyhedron(s).ifacets) == 629
    assert time.perf_counter() - start < 3
