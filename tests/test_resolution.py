import random
from fractions import Fraction as F

import pytest

from newtonmu import fans, resolution
from newtonmu.apex import mu_constant_test
from newtonmu.families import family
from newtonmu.fans import cone_from_rays, is_regular_cone, support_function
from newtonmu.geometry import GeometryError
from newtonmu.milnor import milnor_number, nondegeneracy_check
from newtonmu.newton_number import newton_number_region, newton_number_set
from newtonmu.polyhedra import SupportError, support_set
from newtonmu.resolution import (chart_pullback, make_chart,
                                 simultaneous_resolution)
from corpus import (boundary_plane_augmentation, bs_family,
                    interior_point_below, random_convenient_support)
from oracles import _double_description, lower_region


def test_chart_pullback():
    # x1 = y1, x2 = y1 y2: x1^2 + x2^2 -> y1^2 (1 + y2^2)
    fam2 = family(2, 0, [((2, 0), 1), ((0, 2), 1)])
    tt = chart_pullback(fam2, make_chart(cone_from_rays(2, [(1, 1), (0, 1)])))
    assert tt.monomial_exponents == (0, 2)
    assert [m for m, _ in tt.strict_part.terms] == [(0, 0), (2, 0)]
    tt = chart_pullback(fam2, make_chart(cone_from_rays(2, [(1, 0), (0, 1)])))
    assert tt.monomial_exponents == (0, 0)
    assert tt.strict_part.terms == fam2.terms


def test_make_chart_requires_regular():
    with pytest.raises(GeometryError):
        make_chart(cone_from_rays(2, [(1, 2), (2, 1)]))


def test_trivial_family():
    res = simultaneous_resolution(family(2, 0, [((2, 0), 1), ((0, 2), 1)]))
    assert len(res.charts) == 2
    assert all(c.status == "unit" for c in res.certificates)
    assert res.report.nu == 1 and res.report.verd == ()


def test_bs_resolution():
    res = simultaneous_resolution(bs_family())
    assert len(res.charts) == 9
    assert res.report.nu == 364 and res.report.verd == ((1, 6, 0),)
    assert res.report.status_counts == (("smooth-verified", 1), ("unit", 8))
    assert res.report.nondegeneracy == "nondegenerate"
    s_gen = bs_family().generic_support()
    for chart, transform in zip(res.charts, res.transforms):
        assert is_regular_cone(chart.cone)
        for pos, q in enumerate(chart.generators):
            assert transform.monomial_exponents[pos] == support_function(
                s_gen, q)
    verd_cert = [c for c in res.certificates if c.status != "unit"]
    assert len(verd_cert) == 1
    assert verd_cert[0].status == "smooth-verified"
    w = dict(verd_cert[0].witness)
    assert w["apex_axis"] == 3 and w["beta"] == (0, 7, 1)
    assert w["linear_at_zero"] == 1 and w["constant_at_zero"] == 0
    assert w["apex_position"] == 1
    assert verd_cert[0].chart.generators == ((0, 0, 1), (2, 1, 1), (3, 2, 1))


def test_skip_smoothness_leaves_unchecked():
    res = simultaneous_resolution(bs_family(), skip_smoothness=True)
    statuses = dict(res.report.status_counts)
    assert statuses.get("unchecked") == 1 and statuses.get("unit") == 8
    assert any("skipped" in wmsg for wmsg in res.report.warnings)


def test_rejects_non_mu_constant_family():
    bad = family(2, 1, [((3, 0), 1), ((0, 3), 1), ((1, 1), [((1,), 1)])])
    with pytest.raises(GeometryError) as ei:
        simultaneous_resolution(bad)
    assert "added vertices without a good apex: (1, 1)" in str(ei.value)


def test_rejects_non_convenient_base():
    bad = family(2, 1, [((3, 0), 1), ((1, 1), [((1,), 1)])])
    with pytest.raises(SupportError):
        simultaneous_resolution(bad)


def test_resolution_builds_the_newton_fan_once(monkeypatch):
    """The emitted fan is checked admissible against the Newton fan the
    resolution built, not a second one."""
    built = []

    def counting(s):
        built.append(s)
        return newton_fan(s)

    newton_fan = fans.newton_fan
    monkeypatch.setattr(fans, "newton_fan", counting)
    monkeypatch.setattr(resolution, "newton_fan", counting)
    simultaneous_resolution(bs_family())
    assert len(built) == 1


def _coefficient(rng):
    return F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def test_main_theorem_on_random_families():
    """The main theorem as a property: on random nondegenerate convenient
    bases with random rational coefficients, deformed by s times one
    monomial on a compact facet's hyperplane or strictly under the Newton
    boundary, the apex verdict is the equality of Newton numbers, nu(S')
    agrees with a second build of S' by the double description, and
    simultaneous_resolution succeeds exactly when it says mu-constant and
    otherwise refuses the family; in the plane the base's Milnor number is
    its Newton number (Kouchnirenko).  Draws whose base is not certified
    nondegenerate are skipped and counted."""
    rng = random.Random(15)
    budget = 20_000
    draws = skipped = 0
    verdicts = set()
    for k in range(28):
        n = 2 + k % 2
        s = random_convenient_support(rng, n, max_intercept=5, extra=2)
        if k % 4 < 2:
            sp = boundary_plane_augmentation(rng, s)
            if sp is None:
                continue
            (alpha,) = set(sp.points) - set(s.points)
        else:
            alpha = interior_point_below(rng, s)
            if alpha is None:
                continue
            sp = s.augment([alpha])
        draws += 1
        terms = [(tuple(map(int, p)), _coefficient(rng)) for p in s.points]
        fam = family(n, 1, terms + [(tuple(map(int, alpha)),
                                     [((1,), _coefficient(rng))])])
        if nondegeneracy_check(fam.base(), budget).verdict != "nondegenerate":
            skipped += 1
            continue
        test = mu_constant_test(s, sp)
        verdict = test.verdict
        assert verdict == (test.nu_s == test.nu_s_prime)
        # nu(S') again on a second build of S': a fresh copy whose
        # polyhedron is the double description's, its lower region
        # triangulated from that polyhedron, with no placement
        copy = support_set(n, sp.points)
        copy.__dict__["_newton_polyhedron"] = _double_description(copy)
        assert test.nu_s_prime == newton_number_region(lower_region(copy))
        assert "_placed" not in copy.__dict__
        verdicts.add(verdict)
        if verdict:
            res = simultaneous_resolution(fam, budget=budget)
            assert res.report.nu == newton_number_set(s)
        else:
            with pytest.raises(GeometryError, match="not mu-constant"):
                simultaneous_resolution(fam, budget=budget)
        if n == 2:
            assert milnor_number(fam.base(), budget) == newton_number_set(s)
    assert verdicts == {True, False}
    assert draws >= 10 and 2 * skipped < draws, (draws, skipped)
