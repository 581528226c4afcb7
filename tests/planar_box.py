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
the latter exactly when nondegeneracy_check(f_0) says degenerate.
test_resolution runs the box E = 3 (236 families).

The file has no test_ prefix, so pytest does not collect it.  Run as a
script, it checks a larger box without the oracle and prints its size,
or with --resolve the resolve box:

    PYTHONPATH=src python tests/planar_box.py 6
    PYTHONPATH=src python tests/planar_box.py --resolve 4
"""

import sys
from collections import Counter
from itertools import combinations

from newtonmu.apex import mu_constant_test
from newtonmu.families import family, spoly
from newtonmu.geometry import GeometryError
from newtonmu.milnor import nondegeneracy_check
from newtonmu.polyhedra import support_set
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


def check_resolve_box(e):
    """Run the family f_0 + s x^p of every pair of the box of exponents
    at most e through simultaneous_resolution and check its outcome (see
    above).  Returns a Counter of the outcomes: "resolved", "not
    mu-constant" and "degenerate base"."""
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
            verdict = mu_constant_test(s, s.augment([p])).verdict
            try:
                res = simultaneous_resolution(
                    family(2, 1, terms + [(p, [((1,), 1)])]))
            except GeometryError as err:
                refusal = str(err)
            else:
                assert verdict and not degenerate, where
                assert {c.status for c in res.certificates} <= {
                    "unit", "smooth-verified"}, where
                assert res.report.warnings == (), where
                outcomes["resolved"] += 1
                continue
            if not verdict:
                assert refusal.startswith("family is not mu-constant"), where
                outcomes["not mu-constant"] += 1
            else:
                assert degenerate, where
                assert refusal.startswith(
                    "base polynomial is degenerate on face"), where
                outcomes["degenerate base"] += 1
    return outcomes


if __name__ == "__main__":
    if sys.argv[1] == "--resolve":
        e = int(sys.argv[2])
        outcomes = check_resolve_box(e)
        print(f"exponents at most {e}: {sum(outcomes.values())} families, "
              + ", ".join(f"{v} {k}" for k, v in sorted(outcomes.items()))
              + "; every outcome agrees with the apex verdict and the "
              "base's nondegeneracy")
    else:
        e = int(sys.argv[1])
        count, pairs = check_box(e)
        print(f"exponents at most {e}: {count} staircases, {pairs} pairs; "
              "every verdict equals nu(S) = nu(S'), and nu(S') <= nu(S)")
