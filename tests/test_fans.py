import collections
import random
from fractions import Fraction as F

import pytest

from newtonmu import fans
from newtonmu.fans import (Fan, LatticeCone, box_points, cone_from_rays,
                           intersect_cones, is_admissible, is_regular_cone,
                           is_subdivision, newton_fan, orthant_fan,
                           pyramid_subdivision, regularize, regularize_fan,
                           simplicialize, stellar_subdivide, support_function)
from newtonmu.geometry import (GeometryError, InternalConsistencyError,
                               primitive_vector)
from newtonmu.polyhedra import NewtonPolyhedron, newton_polyhedron, support_set
from corpus import (bs_base_support, bs_deformed_support,
                    random_convenient_support)
from oracles import regularize_fan_records


def test_support_function():
    f_sup = bs_base_support()
    assert support_function(f_sup, (1, 1, 1)) == 5
    assert support_function(f_sup, (0, 0, 0)) == 0
    assert support_function(support_set(2, [(2, 0), (0, 2)]), (1, 0)) == 0


def test_newton_fan_2d():
    want = {((0, 1), (1, 1)), ((1, 0), (1, 1))}
    nf = newton_fan(support_set(2, [(2, 0), (0, 2)]))
    assert set(c.rays for c in nf.maximal) == want
    nf2 = newton_fan(support_set(2, [(1, 0), (0, 1)]))
    assert set(c.rays for c in nf2.maximal) == want
    assert is_subdivision(nf, orthant_fan(2))


def test_bs_fans():
    bs_fan = newton_fan(bs_deformed_support())
    assert len(bs_fan.maximal) == 5
    sigma_alpha = cone_from_rays(3, [(0, 0, 1), (2, 1, 1), (3, 2, 1)])
    assert sigma_alpha in bs_fan.maximal and sigma_alpha.dim == 3
    assert is_subdivision(bs_fan, orthant_fan(3))
    assert is_admissible(bs_fan, bs_deformed_support()) is True

    base_fan = newton_fan(bs_base_support())
    assert len(base_fan.maximal) == 4
    assert sum(1 for c in base_fan.maximal if not c.is_simplicial) == 1
    reg = regularize_fan(simplicialize(base_fan))
    assert len(reg.maximal) == 13
    assert all(is_regular_cone(c) for c in reg.maximal)
    assert is_subdivision(reg, base_fan)


def test_admissibility_boundary_faces():
    b3 = support_set(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    b3fan = newton_fan(b3)
    assert is_admissible(b3fan, b3) is True
    # splitting a cone that meets a vanishing coordinate face is refused
    split = stellar_subdivide(b3fan, (1, 1, 0))
    assert is_admissible(split, b3) is False


def test_stellar_subdivide_needs_a_primitive_ray():
    """The zero vector, a short vector, a multiple of a ray, a vector
    with a negative entry and one with a fractional entry are refused by
    name; a primitive ray gives the star subdivision."""
    fan = orthant_fan(3)
    for xi, text in (((0, 0, 0), "not primitive: gcd 0"),
                     ((1, 1), r"\(1, 1\) is not a nonnegative integer"),
                     ((2, 2, 0), "not primitive: gcd 2"),
                     ((1, -1, 0), "nonnegative integer vector of length 3"),
                     ((F(3, 2), 1, 0), r"\(3/2, 1, 0\) is not a nonneg")):
        with pytest.raises(GeometryError, match=text):
            stellar_subdivide(fan, xi)
    assert [c.rays for c in stellar_subdivide(fan, (1, 1, 1)).maximal] == [
        ((0, 0, 1), (0, 1, 0), (1, 1, 1)), ((0, 0, 1), (1, 0, 0), (1, 1, 1)),
        ((0, 1, 0), (1, 0, 0), (1, 1, 1))]
    assert [c.rays for c in stellar_subdivide(fan, (1, 1, 0)).maximal] == [
        ((0, 0, 1), (0, 1, 0), (1, 1, 0)), ((0, 0, 1), (1, 0, 0), (1, 1, 0))]


def test_regularity():
    assert is_regular_cone(cone_from_rays(2, [(1, 1), (0, 1)]))
    assert not is_regular_cone(cone_from_rays(2, [(1, 2), (2, 1)]))
    assert is_regular_cone(cone_from_rays(3, [(1, 2, 1), (3, 1, 0)]))
    assert not is_regular_cone(cone_from_rays(3, [(1, 2, 0), (3, 1, 0)]))


def test_non_simplicial_cones_are_refused():
    """Regularity, the fundamental box and the stellar step, at a ray
    inside the cone or outside it, refuse a cone that is not simplicial."""
    square = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    fan = Fan(3, (square,))
    with pytest.raises(GeometryError):
        is_regular_cone(square)
    with pytest.raises(GeometryError):
        box_points(square)
    for xi in ((1, 1, 1), (0, 0, 1)):
        with pytest.raises(GeometryError):
            stellar_subdivide(fan, xi)


def test_box_points():
    bp = box_points(cone_from_rays(2, [(1, 2), (2, 1)]))
    assert [p for p, _ in bp] == [(1, 1), (2, 2)]


def test_regularize_2d():
    r = regularize(cone_from_rays(2, [(1, 2), (2, 1)]))
    assert set(c.rays for c in r.maximal) == {((1, 1), (1, 2)),
                                              ((1, 1), (2, 1))}
    # Hirzebruch-Jung staircases
    for k in (2, 3):
        r = regularize(cone_from_rays(2, [(1, 0), (1, k)]))
        want = {tuple(sorted(((1, j), (1, j + 1)))) for j in range(k)}
        assert set(c.rays for c in r.maximal) == want
    r = regularize(cone_from_rays(2, [(1, 1), (0, 1)]))
    assert [c.rays for c in r.maximal] == [((0, 1), (1, 1))]
    r = regularize(cone_from_rays(2, [(1, 0), (2, 5)]))
    assert set(c.rays for c in r.maximal) == {((1, 0), (1, 1)),
                                              ((1, 1), (1, 2)),
                                              ((1, 2), (2, 5))}


def test_simplicialize_four_ray_cone():
    c4 = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert not c4.is_simplicial and len(c4.rays) == 4
    sf = simplicialize(Fan(3, (c4,)))
    assert len(sf.maximal) == 2
    assert all(c.is_simplicial for c in sf.maximal)
    assert intersect_cones(*sf.maximal).dim == 2
    assert is_subdivision(sf, Fan(3, (c4,)))


def test_bs_regularization_pipeline():
    F_sup = bs_deformed_support()
    bs_fan = newton_fan(F_sup)
    sigma_alpha = cone_from_rays(3, [(0, 0, 1), (2, 1, 1), (3, 2, 1)])
    simp = simplicialize(bs_fan, priority=[(0, 0, 1)])
    assert set(simp.maximal) == set(bs_fan.maximal)
    reg = regularize_fan(simp)
    assert len(reg.maximal) == 9
    assert all(is_regular_cone(c) for c in reg.maximal)
    assert is_subdivision(reg, bs_fan)
    assert is_admissible(reg, F_sup) is True
    assert sigma_alpha in reg.maximal


def test_pyramid_subdivision():
    sigma_alpha = cone_from_rays(3, [(0, 0, 1), (2, 1, 1), (3, 2, 1)])
    base = cone_from_rays(3, [(2, 1, 1), (3, 2, 1)])
    pyr = pyramid_subdivision(sigma_alpha, 3, regularize(base))
    assert [c.rays for c in pyr.maximal] == [((0, 0, 1), (2, 1, 1),
                                              (3, 2, 1))]
    toy = cone_from_rays(2, [(1, 1), (0, 1)])
    tpyr = pyramid_subdivision(toy, 2, Fan(2, (cone_from_rays(2, [(1, 1)]),)))
    assert [c.rays for c in tpyr.maximal] == [((0, 1), (1, 1))]


def test_pyramid_rejects_broken_apex_relation():
    bad_sigma = cone_from_rays(3, [(0, 0, 1), (1, 1, 0), (1, 3, 0)])
    bad_base = cone_from_rays(3, [(1, 1, 0), (1, 3, 0)])
    with pytest.raises(GeometryError):
        pyramid_subdivision(bad_sigma, 3, Fan(3, (bad_base,)))


def test_pyramid_rejects_nonunimodular_result():
    # base is regular but the pyramid with apex e3 has determinant 2
    sigma = cone_from_rays(3, [(0, 0, 1), (1, 1, 1), (2, 0, 1)])
    base = cone_from_rays(3, [(1, 1, 1), (2, 0, 1)])
    with pytest.raises(InternalConsistencyError,
                       match="divisibility pattern for axis 3"):
        pyramid_subdivision(sigma, 3, Fan(3, (base,)))


def test_pyramid_checks_the_full_determinant(monkeypatch):
    """The minors of the regular piece pass, but the 3 x 3 determinant of
    the piece with its apex ray is made to read 2: the second check
    fires."""
    sigma_alpha = cone_from_rays(3, [(0, 0, 1), (2, 1, 1), (3, 2, 1)])
    tau_sub = regularize(cone_from_rays(3, [(2, 1, 1), (3, 2, 1)]))
    det = fans._int_det
    monkeypatch.setattr(fans, "_int_det",
                        lambda rows: 2 if len(rows) == 3 else det(rows))
    with pytest.raises(InternalConsistencyError,
                       match="not unimodular despite the certified minors"):
        pyramid_subdivision(sigma_alpha, 3, tau_sub)


def test_newton_fan_rejects_a_degenerate_dual_cone(monkeypatch):
    """A vertex on fewer than n facets has no full-dimensional normal
    cone.  With the facet y >= 0 dropped from the record of x^2 + y^3,
    the vertex (2, 0) lies on the compact facet alone."""
    s = support_set(2, [(2, 0), (0, 3)])
    real = newton_polyhedron(s)
    assert real.ifacets[0][0] == (0, 1)
    broken = NewtonPolyhedron._from_facts(
        dim=2, ipts=real.ipts, den=real.den, ifacets=real.ifacets[1:],
        vmask=real.vmask)
    monkeypatch.setattr(fans, "newton_polyhedron", lambda support: broken)
    with pytest.raises(InternalConsistencyError,
                       match=r"vertex \(2, 0\) has a degenerate dual cone"):
        newton_fan(s)


def test_regularize_fan_rejects_an_empty_box(monkeypatch):
    """The cone over (0, 1) and (2, 1) in the Newton fan of x + y^2 has
    determinant 2, so its box must hold a point."""
    simp = simplicialize(newton_fan(support_set(2, [(1, 0), (0, 2)])))
    monkeypatch.setattr(fans, "box_points", lambda cone: ())
    with pytest.raises(InternalConsistencyError,
                       match=r"cone \(\(0, 1\), \(2, 1\)\) has an empty box"):
        regularize_fan(simp)


def test_regularize_fan_property():
    """Forty seeded supports, n = 2, 3, 4 in turn: the same fans in every
    run and every order of the suite, with the maximal cones of the former
    loop, which held every face as a LatticeCone record."""
    for k in range(40):
        n = 2 + k % 3
        s = random_convenient_support(random.Random(k), n, max_intercept=5,
                                      extra=2)
        nf = newton_fan(s)
        simp = simplicialize(nf)
        reg = regularize_fan(simp)
        assert [c.rays for c in reg.maximal] == [
            c.rays for c in regularize_fan_records(simp)], k
        assert all(is_regular_cone(c) for c in reg.maximal)
        assert is_subdivision(reg, nf)
        assert is_subdivision(reg, orthant_fan(n))


@pytest.mark.parametrize("e", [60, 120])
def test_regularize_fan_deep_planar(e):
    """x + y^e takes e - 1 stellar steps, each adding one cone; the
    property supports above take a few at most."""
    simp = simplicialize(newton_fan(support_set(2, [(1, 0), (0, e)])))
    reg = regularize_fan(simp)
    assert [c.rays for c in reg.maximal] == [
        c.rays for c in regularize_fan_records(simp)]
    assert len(reg.maximal) == e + 1
    assert all(is_regular_cone(c) for c in reg.maximal)


GUARDED = {
    "x+y^60": (lambda: support_set(2, [(1, 0), (0, 60)]), 59),
    "bs_base": (bs_base_support, 4),
    "seed4": (lambda: random_convenient_support(random.Random(4), 3), 5),
}


@pytest.mark.parametrize("name", GUARDED)
def test_regularize_fan_reads_one_minor_chart_per_step(monkeypatch, name):
    """Each step reads the minor chart of its target, for its box points,
    and of no other cone: the loop tests no cone for membership."""
    build, steps = GUARDED[name]
    simp = simplicialize(newton_fan(build()))
    counts = collections.Counter()
    chart = LatticeCone.__dict__["_minor_chart"]
    minor_chart = chart.func

    def counted_chart(cone):
        counts["charts"] += 1
        return minor_chart(cone)

    def counted_box_points(cone):
        counts["box_points"] += 1
        return box_points(cone)

    monkeypatch.setattr(chart, "func", counted_chart)
    monkeypatch.setattr(fans, "box_points", counted_box_points)
    regularize_fan(simp)
    assert counts == {"charts": steps, "box_points": steps}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stellar_step_on_a_star(n):
    """The fact the regularization loop rests on, against the chart-based
    stellar step: starring a simplicial fan at the primitive sum xi of
    the rays of a face tau (a ray, an edge or a whole cone) replaces each
    cone that holds tau by one piece per ray of tau, with xi in that ray's
    place, and keeps every other cone."""
    for k in range(10):
        rng = random.Random(k)
        fan = simplicialize(newton_fan(random_convenient_support(rng, n)))
        for c in rng.sample(fan.maximal, 2):
            for tau in (rng.sample(c.rays, 1), rng.sample(c.rays, 2), c.rays):
                xi = primitive_vector(tuple(map(sum, zip(*tau))))
                star = {d.rays for d in fan.maximal
                        if set(tau).issubset(d.rays)}
                want = {d.rays for d in fan.maximal} - star | {
                    tuple(sorted(xi if q == r else q for q in d))
                    for d in star for r in tau}
                got = stellar_subdivide(fan, xi).maximal
                assert [d.rays for d in got] == sorted(
                    want, key=lambda rays: (len(rays), rays)), (k, tau)
