"""The main theorem, exhaustively in a planar box.

A convenient planar staircase with exponents at most E has a first
point (0, b) on the y-axis, x strictly increasing and y strictly
decreasing from point to point, and a last point (a, 0) on the x-axis;
there are C(2E, E) - 1 of them.  Each is augmented, one at a time, by
every point of [0, E]^2 other than the origin and its own points, and
each pair S in S' runs through mu_constant_test.  On every pair the apex
verdict must equal nu(S) = nu(S'), and nu(S') <= nu(S): adding a point
to a convenient support does not raise its Newton number, the
monotonicity the paper proves for convenient polyhedra (Arnold's
question).  Given an oracle, both numbers must also equal it;
test_apex passes oracles.nu_2d_staircase, which shares no code with
placement, on the box E = 5 (251 staircases, 7904 pairs).

The other half of the theorem goes through resolve: check_resolve_box
turns each pair into the family f_0 + s x^p, f_0 the staircase's
polynomial, all coefficients 1.  A false apex verdict must be refused as
not mu-constant.  A true one must resolve with every chart unit or
smooth-verified and no warning, or be refused for a degenerate base,
the latter exactly when nondegeneracy_check(f_0) says degenerate.  On a
resolved family the paper's own construction is checked at each apex
certificate (alpha, i): the emitted cones inside sigma_alpha, the
Newton-fan cone of S' at alpha, all hold e_i, and
fans.pyramid_subdivision, given their facets opposite e_i, returns
exactly them.  test_resolution runs the box E = 3 (236 families, 10
certificates).

check_milnor_box judges the theorem's other half by the Groebner Milnor
oracle, which shares no code with the Newton numbers.  On every pair
whose germs f_0 and f_1 = f_0 + x^p (all coefficients 1) are both called
nondegenerate by nondegeneracy_check, mu(f_0) = nu(S) and
mu(f_1) = nu(S') (Kouchnirenko), and the apex verdict must be
mu(f_0) = mu(f_1).  A germ with an axis
point at exponent 1 is smooth at the origin, mu = 0.  The pairs with a
germ not called nondegenerate are counted as skipped.  test_milnor runs
the box E = 3 (236 pairs, none skipped).

The file has no test_ prefix, so pytest does not collect it.  Run as a
script, it checks a larger box without the oracle and prints its size,
with --resolve the resolve box, or with --milnor the Milnor box:

    PYTHONPATH=src python tests/planar_box.py 6
    PYTHONPATH=src python tests/planar_box.py --resolve 4
    PYTHONPATH=src python tests/planar_box.py --milnor 4
"""

import sys
from collections import Counter
from itertools import combinations
from operator import mul

from newtonmu.apex import mu_constant_test
from newtonmu.families import family, spoly
from newtonmu.fans import (Fan, LatticeCone, newton_fan, pyramid_subdivision,
                           support_function)
from newtonmu.geometry import GeometryError, _unit
from newtonmu.milnor import milnor_number, nondegeneracy_check
from newtonmu.polyhedra import SupportError, support_set
from newtonmu.resolution import simultaneous_resolution


def staircases(e):
    """Every convenient planar staircase with exponents at most e, as a
    list of integer points sorted by x."""
    steps = range(1, e + 1)
    for k in steps:
        for xs in combinations(steps, k):
            for ys in combinations(steps, k):
                yield list(zip((0, *xs), (*reversed(ys), 0)))


def check_box(e, oracle=None):
    """Run every pair of the box of exponents at most e through
    mu_constant_test and check it (see above); oracle, when given, maps
    a list of points to its Newton number.  Returns the numbers of
    staircases and of pairs."""
    box = [(x, y) for x in range(e + 1) for y in range(e + 1) if x or y]
    count = pairs = 0
    for pts in staircases(e):
        count += 1
        s = support_set(2, pts)
        nu = None if oracle is None else oracle(pts)
        for p in box:
            if p in pts:
                continue
            res = mu_constant_test(s, s.augment([p]))
            where = f"{pts} + {p}"
            assert res.verdict == (res.nu_s == res.nu_s_prime), where
            assert res.nu_s_prime <= res.nu_s, where
            if oracle is not None:
                assert (res.nu_s, res.nu_s_prime) == (
                    nu, oracle(pts + [p])), where
            pairs += 1
    return count, pairs


def check_apex_pyramid(sp, fan, cert, where):
    """Check the apex pyramid of the certificate cert (alpha, i) in the
    emitted fan of the generic support sp (see above).  sigma_alpha is
    the Newton-fan cone whose ray sum, an interior point, is minimized
    at alpha."""
    n, e = sp.dim, _unit(sp.dim, cert.i - 1)

    def at_alpha(cone):
        y = tuple(map(sum, zip(*cone.rays)))
        return support_function(sp, y) == sum(map(mul, cert.alpha, y))

    sigma = next(filter(at_alpha, newton_fan(sp).maximal))
    inside = tuple(c for c in fan.maximal if all(map(sigma.contains, c.rays)))
    assert inside and all(e in c.rays for c in inside), where
    opposite = tuple(LatticeCone(n, tuple(r for r in c.rays if r != e))
                     for c in inside)
    assert pyramid_subdivision(sigma, cert.i, Fan(n, opposite)).maximal \
        == inside, where


def check_resolve_box(e):
    """Run the family f_0 + s x^p of every pair of the box of exponents
    at most e through simultaneous_resolution and check its outcome (see
    above).  Returns a Counter of the outcomes: "resolved", "not
    mu-constant" and "degenerate base", and of the certificates whose
    "apex pyramid" was checked."""
    box = [(x, y) for x in range(e + 1) for y in range(e + 1) if x or y]
    outcomes = Counter()
    for pts in staircases(e):
        s = support_set(2, pts)
        terms = [(p, 1) for p in pts]
        degenerate = nondegeneracy_check(
            spoly(2, terms)).verdict == "degenerate"
        for p in box:
            if p in pts:
                continue
            where = f"{pts} + s {p}"
            sp = s.augment([p])
            mu = mu_constant_test(s, sp)
            try:
                res = simultaneous_resolution(
                    family(2, 1, terms + [(p, [((1,), 1)])]))
            except GeometryError as err:
                refusal = str(err)
            else:
                assert mu.verdict and not degenerate, where
                assert {c.status for c in res.charts} <= {
                    "unit", "smooth-verified"}, where
                assert res.warnings == (), where
                for cert in mu.certificates:
                    check_apex_pyramid(sp, res.fan, cert, where)
                outcomes["resolved"] += 1
                outcomes["apex pyramid"] += len(mu.certificates)
                continue
            if not mu.verdict:
                assert refusal.startswith("family is not mu-constant"), where
                outcomes["not mu-constant"] += 1
            else:
                assert degenerate, where
                assert refusal.startswith(
                    "base polynomial is degenerate on face"), where
                outcomes["degenerate base"] += 1
    return outcomes


def _nondegenerate_mu(germs, pts):
    """mu of the germ with support pts, all coefficients 1, when
    nondegeneracy_check calls it nondegenerate, else None; memoized in
    germs by support."""
    key = tuple(sorted(pts))
    if key not in germs:
        f = spoly(2, [(p, 1) for p in key])
        if nondegeneracy_check(f).verdict != "nondegenerate":
            germs[key] = None
        else:
            try:
                germs[key] = milnor_number(f)
            except SupportError as err:
                assert str(err) == "origin is not a critical point", key
                germs[key] = 0
    return germs[key]


def check_milnor_box(e):
    """Judge every pair of the box of exponents at most e by the Milnor
    oracle (see above).  Returns a Counter of the judged pairs by apex
    verdict, "true" and "false", and of the "skipped" ones."""
    box = [(x, y) for x in range(e + 1) for y in range(e + 1) if x or y]
    germs = {}
    outcomes = Counter()
    for pts in staircases(e):
        s = support_set(2, pts)
        mu0 = _nondegenerate_mu(germs, pts)
        for p in box:
            if p in pts:
                continue
            mu1 = _nondegenerate_mu(germs, pts + [p])
            if mu0 is None or mu1 is None:
                outcomes["skipped"] += 1
                continue
            res = mu_constant_test(s, s.augment([p]))
            where = f"{pts} + {p}"
            assert (mu0, mu1) == (res.nu_s, res.nu_s_prime), where
            assert res.verdict == (mu0 == mu1), where
            outcomes[str(res.verdict).lower()] += 1
    return outcomes


if __name__ == "__main__":
    if sys.argv[1] == "--milnor":
        e = int(sys.argv[2])
        outcomes = check_milnor_box(e)
        print(f"exponents at most {e}: {outcomes['true']} true and "
              f"{outcomes['false']} false verdicts judged, "
              f"{outcomes['skipped']} pairs skipped for a germ not called "
              "nondegenerate; mu = nu on both germs of every judged pair, "
              "and its verdict is mu(f_0) = mu(f_1)")
    elif sys.argv[1] == "--resolve":
        e = int(sys.argv[2])
        outcomes = check_resolve_box(e)
        pyramids = outcomes.pop("apex pyramid", 0)
        print(f"exponents at most {e}: {sum(outcomes.values())} families, "
              + ", ".join(f"{v} {k}" for k, v in sorted(outcomes.items()))
              + "; every outcome agrees with the apex verdict and the "
              f"base's nondegeneracy, and {pyramids} apex pyramids match "
              "the emitted fan")
    else:
        e = int(sys.argv[1])
        count, pairs = check_box(e)
        print(f"exponents at most {e}: {count} staircases, {pairs} pairs; "
              "every verdict equals nu(S) = nu(S'), and nu(S') <= nu(S)")
