"""Newton numbers off the placement: nu(S) from the pyramids of the
build of hull(S), nu(S') of a nested pair from nu(S) and the difference
region.

Placing the points of a support on a base polyhedron cuts lower(base)
into lower(support) and the pyramids D, so its totals are those of the
base less those of D (newton_number._lower_totals): the base is the
support's axis simplex, whose totals are the elementary symmetric sums
of its intercepts, or the polyhedron of a parent that the support was
placed on.  newton_number_set and volume_vector_set must agree, typed,
with the Newton number and the volume vector of oracles.lower_region,
which triangulates the compact facets afresh, and with the former
section scan, on seeded supports of dimension 1 to 6.

mu_constant_test reads both numbers as newton_number_set of its
supports: when S' holds the points of S, nu(S') is nu(S) less the
Newton number of the difference region D that placing S' on hull(S)
cut, and otherwise it is read off the build of S' on its own.  The
Newton numbers it reports must be typed-equal to those of fresh supports:
on every pair of the mu_sweep benchmark pool and on seeded pairs for
n = 2..5, placed ones and ones whose S' lacks a point of S, some with a
denominator of S' that is no multiple of that of S, some outside the
vertex condition, with both verdicts.  No library module can build a
lower region; a pair places twice and pulls no facet, and each support
keeps one placement record, its base and the region D it cut.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from newtonmu import newton_number, polyhedra
from newtonmu.apex import mu_constant_test, vertex_location_check
from newtonmu.newton_number import (difference_region, newton_number_region,
                                    newton_number_set, volume_vector,
                                    volume_vector_set)
from newtonmu.polyhedra import (SupportError, _placement, convenience_report,
                                newton_polyhedron, support_set)
from corpus import bs_base_support, bs_deformed_support
from oracles import _double_description, lower_region, volume_vector_scan
from test_conversion import typed
from test_placement import KINDS, random_pair

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool" / "mu_sweep.json"


def fresh(support):
    return newton_number_set(support_set(support.dim, support.points))


def pool_pairs():
    cases = json.loads(POOL.read_text())["cases"]
    assert len(cases) == 540
    for case in cases:
        n = case["n"]
        yield (support_set(n, [tuple(p) for p in case["s"]]),
               support_set(n, [tuple(p) for p in case["sp"]]))


def assert_oracle(s, sp):
    """mu_constant_test's Newton numbers are typed-equal to those of
    fresh supports; a pair outside the theorem whose verdict disagrees
    names them in its error.  Returns the verdict, or None for such a
    pair."""
    nu_s, nu_sp = fresh(s), fresh(sp)
    try:
        res = mu_constant_test(s, sp)
    except SupportError as exc:
        assert f"Newton numbers {nu_s} vs {nu_sp}: the vertex" in str(exc)
        return None
    assert typed((res.nu_s, res.nu_s_prime)) == typed((nu_s, nu_sp))
    return res.verdict


def test_nu_s_prime_matches_fresh_supports_on_the_pool():
    verdicts = {assert_oracle(s, sp) for s, sp in pool_pairs()}
    assert verdicts == {False, True}


def nested_pair(rng, n, way):
    """A pair from test_placement.random_pair, as it is ("placed"); with
    s given a point over 7 that a point of s dominates and s' lacks
    ("sevenths"), so that the denominator of s' is no multiple of that of
    s; or with a point of s' replaced by one below it on one
    axis ("below"), a point of s or an added one."""
    s, sp = random_pair(rng, n, [rng.choice(KINDS)
                                 for _ in range(rng.randint(1, 3))])
    if way == "sevenths":
        p, i = rng.choice(s.points), rng.randrange(n)
        s = s.augment([p[:i] + (p[i] + F(rng.choice((1, 3, 8)), 7),)
                       + p[i + 1:]])
    elif way == "below":
        p = rng.choice(sp.points)
        i = rng.choice([i for i, x in enumerate(p) if x])
        shrink = rng.choice((0, F(1, 2), F(2, 3)))
        if not any(p[:i] + p[i + 1:]):
            shrink = shrink or F(1, 2)
        sp = support_set(n, [q for q in sp.points if q != p]
                         + [p[:i] + (p[i] * shrink,) + p[i + 1:]])
    return s, sp


def test_nu_s_prime_matches_fresh_supports_seeded():
    """Two hundred seeds, n = 2..5 and the three ways of nested_pair in
    turn.  Over half the pairs are not placed, over a quarter have a
    denominator of s' that is no multiple of that of s, and over a
    third fail the vertex condition, one of them with a verdict that
    disagrees with its Newton numbers."""
    verdicts, dropped, coprime, failing = set(), 0, 0, 0
    for k in range(200):
        rng = random.Random(k)
        n = 2 + k % 4
        s, sp = nested_pair(rng, n, ("placed", "sevenths", "below")[k % 3])
        verdicts.add(assert_oracle(s, sp))
        dropped += _placement(s, sp) is None
        coprime += bool(sp._scaled_points[1] % s._scaled_points[1])
        failing += not (convenience_report(s).convenient
                        and convenience_report(sp).convenient)
    assert verdicts == {None, False, True}
    assert dropped > 100 and coprime > 50 and failing > 60


def count_calls(monkeypatch, calls, names):
    """Record in calls the name of each call of the given (module, name)
    bindings."""
    for module, name in names:
        def counted(*args, _f=getattr(module, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(module, name, counted)


def test_a_pair_builds_no_lower_region_of_s_prime(monkeypatch):
    """Neither polyhedra nor newton_number has a lower_region or a
    _lower_form, so no library path builds a lower region.  On every
    pool case mu_constant_test places twice, and each placement records
    the region of the pyramids it cut: D0 of S placed on its axis
    simplex, and D of S' placed on hull(S).  It sums the two, once each.
    The benchmark's second step, the Newton number of difference_region,
    builds and sums nothing: the region is D off the record of S', with
    its totals, and its Newton number is nu(S) - nu(S').

    A pair that _placement refuses (the CI pair, and seeded "below" and
    "sevenths" pairs) runs check_nested once, places S and S' each on
    its axis simplex and sums the two D0: no difference region and no
    second hull of S'.  vertex_location_check places and reads a pair
    as mu_constant_test does."""
    for module in (polyhedra, newton_number):
        assert not hasattr(module, "lower_region")
        assert not hasattr(module, "_lower_form")
    calls = []
    count_calls(monkeypatch, calls, [
        (polyhedra, "_totals"), (newton_number, "_totals"),
        (polyhedra, "_place"), (polyhedra, "_region"),
        (polyhedra, "check_nested"), (newton_number, "check_nested")])
    placed = ["_place", "_place", "_region", "_region", "_totals", "_totals"]
    for s, sp in pool_pairs():
        calls.clear()
        res = mu_constant_test(s, sp)
        assert sorted(calls) == placed
        calls.clear()
        region = difference_region(s, sp)
        assert newton_number_region(region) == res.nu_s - res.nu_s_prime
        assert calls == []
    refused = [(support_set(2, [(4, 0), (2, 2), (0, 4)]),
                support_set(2, [(4, 0), (1, 1), (0, 4)]))]
    for k in range(40):
        s, sp = nested_pair(random.Random(k), 2 + k % 4,
                            ("below", "sevenths")[k % 2])
        if _placement(s, sp) is None:
            refused.append((s, sp))
    assert len(refused) > 30
    for s, sp in refused:
        s, sp = (support_set(x.dim, x.points) for x in (s, sp))
        calls.clear()
        mu_constant_test(s, sp)
        assert sorted(calls) == [*placed, "check_nested"]
    calls.clear()
    assert vertex_location_check(bs_base_support(), bs_deformed_support())
    assert sorted(calls) == placed


def test_a_pool_case_places_twice_and_pulls_nothing(monkeypatch):
    """A pool case (the apex test, then the Newton number of the
    difference region) places twice, S on its axis simplex and S' on
    hull(S), triangulates no facet by pulling, since every facet that a
    point sees is a simplex or was cut by the placement itself, and
    builds two regions, the pyramids D0 of S and the benchmark's D."""
    calls = []
    count_calls(monkeypatch, calls, [
        (polyhedra, "_place"), (polyhedra, "_pulling"),
        (polyhedra, "_region")])
    for s, sp in pool_pairs():
        calls.clear()
        mu_constant_test(s, sp)
        newton_number_region(difference_region(s, sp))
        assert sorted(calls) == ["_place", "_place", "_region", "_region"]


def rule_support(rng, n, k):
    """An axis-convenient support of dimension n: every fifth one the
    axis simplex alone, the others one to three points on each axis, at
    least 2, and one to six more points, each with every coordinate
    positive, on a coordinate hyperplane (n > 1), or a point drawn
    before plus a nonnegative step, which it dominates.  The first two
    kinds are often shrunk toward the origin by one factor, so that they
    lie below the axis simplex.  Coordinates are rational, with
    denominators 1, 2 and 3 mixed."""
    def rational():
        return F(rng.randint(1, 8), rng.choice((1, 1, 2, 3)))

    def shrunk(m):
        """m coordinates, shrunk by one factor."""
        f = rng.choice((1, F(1, 3), F(1, 6)))
        return [rational() * f for _ in range(m)]

    pts = [tuple(rational() + 2 if j == i else 0 for j in range(n))
           for i in range(n) for _ in range(1 if k % 5 == 4 else
                                            rng.randint(1, 3))]
    for _ in range(0 if k % 5 == 4 else rng.randint(1, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            p = tuple(shrunk(n))
        elif kind == 1 and n > 1:
            zeros = rng.sample(range(n), rng.randint(1, n - 1))
            xs = iter(shrunk(n - len(zeros)))
            p = tuple(0 if i in zeros else next(xs) for i in range(n))
        else:
            p = tuple(x + rng.choice((0, F(1, 2), 1))
                      for x in rng.choice(pts))
        pts.append(p)
    return support_set(n, pts)


def on_a_facet_plane(rng, s):
    """A point on the plane of a compact facet of hull(s), in the
    orthant: a combination of the plane's axis intercepts.  Outside the
    facet it sees another facet, and the facet grows by it."""
    w, c, _ = rng.choice(newton_polyhedron(s).compact_facets())
    weights = [rng.randint(0, 3) for _ in w]
    weights[rng.randrange(len(w))] += 1
    return tuple(F(c * x, sum(weights) * y) for x, y in zip(weights, w))


def below_a_fat_facet(sp):
    """A point just below the centre of a compact facet of hull(sp) with
    more than n vertices, which is no simplex, or None."""
    np_ = newton_polyhedron(sp)
    for _, _, active in np_.compact_facets():
        verts = [p for p in active if p in np_.vertices]
        if len(verts) > sp.dim:
            return tuple(sum(xs) * F(9, 10 * len(verts))
                         for xs in zip(*verts))
    return None


def test_newton_numbers_off_the_placement(monkeypatch):
    """Three hundred seeds, n = 1..6 in turn: newton_number_set and
    volume_vector_set, read off the placement, are typed-equal to those
    of oracles.lower_region, which pulls the compact facets afresh, and
    to the former section scan.  The supports cover the
    axis simplex alone (D0 empty), several points on an axis, dominated
    points and points on coordinate hyperplanes, whose pyramids have
    sections (D0 adds to some T_k, k < n).

    A child placed on S, S plus a rational point or, for n > 2, plus a
    point on the plane of a compact facet, reads its Newton number off
    that of S and runs no second placement.  So does a grandchild placed
    on the child below a facet that the plane point made no simplex,
    which that placement pulls.  A support whose polyhedron was seeded
    by hand is placed for it."""
    calls = []
    count_calls(monkeypatch, calls, [(polyhedra, "_place"),
                                     (polyhedra, "_pulling")])
    seen = {"empty": 0, "several": 0, "dominated": 0, "sections": 0,
            "mixed": 0, "pulled": 0}

    def placed_child(parent, extra, k):
        """The child, and whether its placement pulled a facet."""
        child = parent.augment([extra])
        calls.clear()
        assert _placement(parent, child) is not None
        pulled = "_pulling" in calls
        calls.clear()
        nu = newton_number_set(child)
        assert "_place" not in calls
        assert typed(nu) == typed(newton_number_region(
            lower_region(support_set(child.dim, child.points)))), k
        return child, pulled

    for k in range(300):
        rng = random.Random(k)
        n = 1 + k % 6
        s = rule_support(rng, n, k)
        nu = newton_number_set(s)
        region = lower_region(support_set(n, s.points))
        assert typed(nu) == typed(newton_number_region(region)) == typed(
            volume_vector_scan(region).newton_number()), k
        assert typed(volume_vector_set(s)) == typed(volume_vector(region)), k
        ipts, den = s._scaled_points
        pyramids = s.__dict__["_placed"][1]
        assert pyramids._integer_form[:2] == (ipts, den), k
        d0, _ = pyramids._integer_totals
        seen["empty"] += not any(d0)
        seen["sections"] += any(d0[:n])
        axes = [p for p in ipts if sum(map(bool, p)) == 1]
        seen["several"] += len(axes) > n
        seen["dominated"] += any(p != q and all(x <= y for x, y in zip(p, q))
                                 for p in ipts for q in ipts)
        seen["mixed"] += len({x.denominator for p in s.points
                              for x in p} - {1}) > 1
        if n > 2 and len(newton_polyhedron(s).compact_facets()) > 1:
            alpha = on_a_facet_plane(rng, s)
        else:
            alpha = tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3)))
                          for _ in range(n))
        if any(alpha) and alpha not in s.points:
            sp, _ = placed_child(s, alpha, k)
            beta = below_a_fat_facet(sp)
            if beta is not None:
                seen["pulled"] += placed_child(sp, beta, k)[1]
        if k % 10 == 0:     # a polyhedron seeded by hand
            copy = support_set(n, s.points)
            seeded = copy.__dict__["_newton_polyhedron"] = (
                _double_description(copy))
            assert typed(newton_number_set(copy)) == typed(nu), k
            assert "_placed" in copy.__dict__
            assert copy.__dict__["_newton_polyhedron"] is seeded
    assert seen.pop("pulled") > 25 and min(seen.values()) > 40, seen


def test_a_missing_axis_keeps_its_error_text():
    """newton_number_set raises the text lower_region raises for a
    support that misses an axis."""
    s = support_set(3, [(2, 0, 0), (0, 3, 0), (1, 1, 1)])
    with pytest.raises(SupportError) as region_error:
        lower_region(s)
    with pytest.raises(SupportError) as number_error:
        newton_number_set(s)
    assert str(number_error.value) == str(region_error.value) == (
        "region under the Newton boundary is unbounded: no support point "
        "on axis 3")


def test_a_support_keeps_one_placement_record():
    """A support's placement is one record, its _placed entry: the base
    it was placed on and the region D of the pyramids cut, whose totals
    are a lazy fact of D.  On every pool pair, a support S' whose Newton
    number was read off its own record, its least axis points and D0,
    and which is then placed on S keeps its Newton number, and its
    record becomes (S, D).  difference_region(S, S') is that recorded
    region, with Newton number nu(S) - nu(S'), and
    difference_region(S', S') is empty, with Newton number 0, and
    leaves the record as it was."""
    for k, (s, sp) in enumerate(pool_pairs()):
        nu_sp = newton_number_set(sp)      # off its own record, D0
        ipts = sp._scaled_points[0]
        start, d0 = sp.__dict__["_placed"]
        assert start == tuple(ipts[i] for i in sp._least_axis_points), k
        region = difference_region(s, sp)
        base, recorded = sp.__dict__["_placed"]
        assert base is s and recorded is region and region is not d0, k
        assert newton_number_set(sp) == nu_sp == fresh(sp), k
        assert newton_number_region(region) == newton_number_set(s) - nu_sp
        same = difference_region(sp, sp)
        assert same.simplices == () and newton_number_region(same) == 0, k
        assert sp.__dict__["_placed"][1] is region, k
