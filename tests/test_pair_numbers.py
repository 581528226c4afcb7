"""nu(S') of a nested pair from nu(S) and the difference region.

mu_constant_test builds no lower region of S': lower(S) is tiled by
lower(S') and the difference region D, so its totals are those of S less
those of D (newton_number._pair_numbers).  The Newton numbers it reports
must be typed-equal to newton_number_set of fresh supports, which build
their own lower regions: on every pair of the mu_sweep benchmark pool and
on seeded pairs for n = 2..5, placed ones and ones whose S' lacks a point
of S, some with a denominator of S' that is no multiple of that of S,
some outside the vertex condition, with both verdicts.  A pair builds
one lower region, that of S, and no lower region of S'.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

from newtonmu import newton_number
from newtonmu.apex import mu_constant_test, vertex_location_check
from newtonmu.newton_number import (difference_region, newton_number_region,
                                    newton_number_set)
from newtonmu.polyhedra import (SupportError, _placement, convenience_report,
                                support_set)
from corpus import bs_base_support, bs_deformed_support
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


def test_a_pair_builds_no_lower_region_of_s_prime(monkeypatch):
    """On every pool case mu_constant_test builds one lower region, that
    of S, and sums two: lower(S) and D.  The benchmark's second step, the
    Newton number of difference_region, builds D afresh and sums it once
    more; it is nu(S) - nu(S').  vertex_location_check reads a pair as
    mu_constant_test does."""
    calls = []
    for name in ("_lower_form", "_totals"):
        def counted(*args, _f=getattr(newton_number, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(newton_number, name, counted)
    for s, sp in pool_pairs():
        calls.clear()
        res = mu_constant_test(s, sp)
        assert sorted(calls) == ["_lower_form", "_totals", "_totals"]
        calls.clear()
        region = difference_region(s, sp)
        assert newton_number_region(region) == res.nu_s - res.nu_s_prime
        assert calls == ["_totals"]
    calls.clear()
    assert vertex_location_check(bs_base_support(), bs_deformed_support())
    assert sorted(calls) == ["_lower_form", "_totals", "_totals"]
