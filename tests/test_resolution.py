import random
from fractions import Fraction as F

import pytest

from newtonmu import fans, resolution
from newtonmu.apex import ApexCertificate, MuConstancyResult, mu_constant_test
from newtonmu.families import family, spoly
from newtonmu.fans import is_regular_cone, support_function
from newtonmu.geometry import GeometryError, InternalConsistencyError
from newtonmu.milnor import milnor_number, nondegeneracy_check
from newtonmu.newton_number import newton_number_region, newton_number_set
from newtonmu.polyhedra import SupportError, support_set
from newtonmu.resolution import (_certify_added, chart_pullback, make_chart,
                                 simultaneous_resolution)
from corpus import (boundary_plane_augmentation, bs_family,
                    interior_point_below, random_convenient_support)
from oracles import _double_description, cone_from_rays, lower_region
from planar_box import check_resolve_box


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


def test_chart_inputs_are_checked():
    """make_chart refuses a lower-dimensional cone; chart_pullback refuses
    a chart of another dimension and the zero family."""
    with pytest.raises(GeometryError,
                       match="^chart cone must be full-dimensional$"):
        make_chart(cone_from_rays(3, [(1, 0, 0), (0, 1, 0)]))
    plane = make_chart(cone_from_rays(2, [(1, 0), (0, 1)]))
    with pytest.raises(SupportError, match="^chart dimension does not "):
        chart_pullback(family(3, 0, [((2, 0, 0), 1)]), plane)
    with pytest.raises(SupportError,
                       match="^cannot pull back the zero family$"):
        chart_pullback(family(2, 0, [((1, 0), 1), ((1, 0), -1)]), plane)


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


def _quartic_family(s_terms):
    """x^4 + y^4 + z^4 + x^2 y + s (the given monomials)."""
    base = [((4, 0, 0), 1), ((0, 4, 0), 1), ((0, 0, 4), 1), ((2, 1, 0), 1)]
    return family(3, 1, base + [(m, [((1,), 1)]) for m in s_terms])


@pytest.mark.parametrize("s_terms, rendered", [
    # (3, 0, 0) has a good apex; (0, 0, 1) has none
    (((0, 0, 1), (3, 0, 0)), "(0, 0, 1) (no apex)"),
    # (0, 3, 0) has an apex that is not good; (0, 0, 1) has none
    (((0, 0, 1), (0, 3, 0)), "(0, 0, 1) (no apex), (0, 3, 0)"),
])
def test_refusal_names_exactly_the_vertices_without_a_good_apex(s_terms,
                                                               rendered):
    with pytest.raises(GeometryError) as ei:
        simultaneous_resolution(_quartic_family(s_terms))
    assert str(ei.value) == ("family is not mu-constant; added vertices "
                             f"without a good apex: {rendered}")


def test_rejects_degenerate_base():
    """x^2 + 2xy + y^2 + s x^3 adds no vertex, and its base (x + y)^2 is
    degenerate on its one edge."""
    fam = family(2, 1, [((2, 0), 1), ((1, 1), 2), ((0, 2), 1),
                        ((3, 0), [((1,), 1)])])
    with pytest.raises(GeometryError) as ei:
        simultaneous_resolution(fam)
    assert str(ei.value) == ("base polynomial is degenerate on face "
                             "[(0, 2), (1, 1), (2, 0)]")


def _drop_certificates(s, s_prime):
    res = mu_constant_test(s, s_prime)
    return MuConstancyResult(res.verdict, (), res.nu_s, res.nu_s_prime,
                             res.warnings)


def _orthant_fan(fan):
    return fans.orthant_fan(fan.ambient_dim)


def _support_function_plus_one(s, q):
    return support_function(s, q) + 1


# each chart check of simultaneous_resolution on Briancon-Speder, with the
# fault that makes it fire: (patched names, the error message)
CHART_CHECKS = {
    "regularity": (
        {"regularize_fan": lambda fan: fan},
        "regularization left a non-regular cone "
        "((0, 0, 1), (0, 1, 0), (3, 2, 1))"),
    "admissibility": (
        {"is_admissible_subdivision": lambda *args: False},
        "emitted fan is not admissible"),
    "support function": (
        {"support_function": _support_function_plus_one},
        "monomial exponent at generator (0, 0, 1) disagrees with the "
        "support function"),
    "dual vertex": (
        {"regularize_fan": _orthant_fan,
         "is_admissible_subdivision": lambda *args: True},
        "chart ((0, 0, 1), (0, 1, 0), (1, 0, 0)) has 0 dual vertices; "
        "expected exactly one"),
    "unit": (
        {"mu_constant_test": _drop_certificates},
        "unit chart over (1, 6, 0) has vanishing constant term at s = 0"),
}


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_chart_checks_fire(monkeypatch, check):
    patches, message = CHART_CHECKS[check]
    for name, fake in patches.items():
        monkeypatch.setattr(resolution, name, fake)
    with pytest.raises(InternalConsistencyError) as ei:
        simultaneous_resolution(bs_family())
    assert str(ei.value) == message


def _added_chart():
    """The Briancon-Speder chart over (1, 6, 0), its base and certificate."""
    fam = bs_family()
    res = simultaneous_resolution(fam)
    (transform,) = [t for t, c in zip(res.transforms, res.certificates)
                    if c.status != "unit"]
    (cert,) = mu_constant_test(fam.base().support(),
                               fam.generic_support()).certificates
    return fam.base(), transform, cert


def _with_certificate(cert, i=None, beta=None):
    return ApexCertificate(cert.alpha, cert.axes, i or cert.i, cert.edge,
                           beta or cert.beta, True, cert.good_pairs)


def test_added_chart_checks_fire():
    """_certify_added on the chart over (1, 6, 0) with a base that keeps
    alpha's term, a base without beta's term, a wrong beta, and an apex
    axis whose ray the chart lacks."""
    base, transform, cert = _added_chart()
    alpha = (1, 6, 0)
    with_alpha = spoly(3, [*base.terms, (alpha, 1)])
    without_beta = spoly(3, [t for t in base.terms if t[0] != (0, 7, 1)])
    for args, error, message in (
            ((with_alpha, cert), InternalConsistencyError,
             "added vertex (1, 6, 0) has a coefficient surviving at s = 0"),
            ((without_beta, cert), InternalConsistencyError,
             "apex term (0, 7, 1) vanishes at s = 0"),
            ((base, _with_certificate(cert, beta=(0, 8, 0))),
             InternalConsistencyError,
             "good apex (0, 8, 0) pulls back to (0, 0, 1), not the unit "
             "vector at the apex position"),
            ((base, _with_certificate(cert, i=1)), GeometryError,
             "chart over added vertex (1, 6, 0) does not contain the apex "
             "ray e_1; conflicting apex axes between added vertices are "
             "not supported")):
        chart_base, chart_cert = args
        with pytest.raises(error) as ei:
            _certify_added(chart_base, transform, alpha, chart_cert, False,
                           10**6, [])
        assert str(ei.value) == message


@pytest.mark.parametrize("patch, result, warnings", [
    (("SMOOTH_MONOMIAL_CAP", 0), "beyond cap",
     ["strict transform beyond the smoothness cap; certificate left "
      "unchecked"]),
    (("_smoothness_on_hyperplane", lambda *args: False), "nonempty",
     [f"strict transform singular somewhere on hyperplane {k}; not "
      "localized, certificate left unchecked" for k in (2, 3)]),
])
def test_smoothness_branches_leave_the_chart_unchecked(monkeypatch, patch,
                                                        result, warnings):
    """Beyond the monomial cap, and with a strict transform singular on
    both exceptional hyperplanes, the chart over (1, 6, 0) is unchecked
    and says why."""
    monkeypatch.setattr(resolution, *patch)
    res = simultaneous_resolution(bs_family())
    assert res.report.status_counts == (("unchecked", 1), ("unit", 8))
    chart = "chart ((0, 0, 1), (2, 1, 1), (3, 2, 1)): "
    assert list(res.report.warnings) == [chart + w for w in warnings]
    (cert,) = [c for c in res.certificates if c.status != "unit"]
    assert dict(cert.witness)["singular_locus"] == ((2, result), (3, result))


def test_small_budgets_leave_checks_undecided():
    """Briancon-Speder within a budget of 50: two faces of the base are
    left unchecked, each a warning, and the chart over (1, 6, 0) is still
    smooth-verified.  Within 10, both smoothness tests of that chart run
    out of budget too, and it is unchecked."""
    faces = ["nondegeneracy unchecked on face [(0, 0, 15), (0, 7, 1), "
             "(5, 0, 0)]",
             "nondegeneracy unchecked on face [(0, 7, 1), (0, 8, 0), "
             "(5, 0, 0)]"]
    res = simultaneous_resolution(bs_family(), budget=50)
    assert res.report.nondegeneracy == "unknown"
    assert res.report.status_counts == (("smooth-verified", 1), ("unit", 8))
    assert list(res.report.warnings) == faces
    res = simultaneous_resolution(bs_family(), budget=10)
    assert res.report.status_counts == (("unchecked", 1), ("unit", 8))
    chart = "chart ((0, 0, 1), (2, 1, 1), (3, 2, 1)): "
    assert list(res.report.warnings) == faces + [
        f"{chart}smoothness budget exceeded on hyperplane {k}"
        for k in (2, 3)]
    (cert,) = [c for c in res.certificates if c.status != "unit"]
    assert dict(cert.witness)["singular_locus"] == (
        (2, "budget exceeded"), (3, "budget exceeded"))


def test_resolve_over_the_planar_box_of_exponents_up_to_3():
    """The theorem through resolve on every family f_0 + s x^p of the
    planar box of exponents at most 3 (planar_box.check_resolve_box): a
    false apex verdict is refused as not mu-constant, and a true one
    resolves with every chart unit or smooth-verified and no warning (no
    base in this box is degenerate; the box at 4 has 11, a CI step)."""
    assert check_resolve_box(3) == {"resolved": 185, "not mu-constant": 51}


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
