from fractions import Fraction as F

import pytest

from newtonmu.degenerate import (arc_grid, arc_order, b1d_detector,
                                 monomial_arc, relative_jacobian,
                                 valuative_falsifier)
from newtonmu.families import family, spoly
from newtonmu.polyhedra import SupportError
from corpus import bs_family, family_from_spoly, quintic_family


def test_arc_validation():
    with pytest.raises(SupportError):
        monomial_arc((0, 1), (1,))
    with pytest.raises(SupportError):
        monomial_arc((1, 1), (1,), x_coeffs=(0, 1))
    with pytest.raises(SupportError):
        monomial_arc((1, 1), (1,), x_coeffs=(1,))


def test_arc_order():
    bs = bs_family()
    res = arc_order(bs.partial_s(1), monomial_arc((1, 1, 1), (1,)))
    assert res.order == 7 and not res.initial_form_vanishes
    with pytest.raises(SupportError):
        arc_order(family(2, 1, []), monomial_arc((1, 1), (1,)))


def test_arc_order_cancellation_flag():
    g = family_from_spoly(spoly(2, [((2, 0), 1), ((0, 2), -1)]), n_params=1)
    res = arc_order(g, monomial_arc((1, 1), (1,)))
    assert res.order == 2 and res.initial_form_vanishes
    res = arc_order(g, monomial_arc((1, 1), (1,), x_coeffs=(2, 1)))
    assert res.order == 2 and not res.initial_form_vanishes
    assert res.initial_value == F(3)


def test_relative_jacobian():
    jac = relative_jacobian(bs_family())
    assert len(jac) == 3
    assert str(jac[0].specialize((F(0),))) == "5*x1^4"


def test_falsifier_finds_violation():
    fam_bad = family(2, 1, [((3, 0), 1), ((0, 3), 1),
                            ((1, 1), [((1,), 1)])])
    rep = valuative_falsifier(fam_bad, [monomial_arc((1, 1), (1,))])
    assert rep.falsified and rep.arcs[0].verdict == "violation"
    row = rep.arcs[0].rows[0]
    assert row.lhs_order == 2 and row.rhs_order == 2 and row.rhs_exact
    assert "monomial arcs" in rep.disclaimer


def test_falsifier_bs_grid_consistent():
    arcs = arc_grid(3, 1, (1, 2, 3))
    assert len(arcs) == 27
    rep = valuative_falsifier(bs_family(), arcs)
    assert not rep.falsified
    assert all(v.verdict == "consistent" for v in rep.arcs)


def test_falsifier_ambiguity():
    # at r=(1,1) the s-partial xy - x^2 cancels at order 2, tied with the
    # Jacobian minimum: indeterminate; separating the coefficients decides
    fam_amb = family(2, 1, [((3, 0), 1), ((0, 3), 1),
                            ((1, 1), [((1,), 1)]), ((2, 0), [((1,), -1)])])
    rep = valuative_falsifier(fam_amb, [monomial_arc((1, 1), (1,))])
    row = rep.arcs[0].rows[0]
    assert row.lhs_vanishes and row.lhs_order == 2 and row.rhs_order == 2
    assert rep.arcs[0].verdict == "indeterminate" and not rep.falsified
    rep = valuative_falsifier(
        fam_amb, [monomial_arc((1, 1), (1,), x_coeffs=(1, 2))])
    assert rep.arcs[0].verdict == "violation" and rep.falsified


def test_b1d_quintic():
    res = b1d_detector(quintic_family(), (1, 2))
    assert res.found and res.i == 3 and res.beta == (2, 2, 1)
    assert res.restriction is None


def test_b1d_axis_validation():
    with pytest.raises(SupportError):
        b1d_detector(quintic_family(), (1, 2, 3))
    with pytest.raises(SupportError):
        b1d_detector(quintic_family(), ())


def test_b1d_handoff():
    fam_flat = family(3, 1, [((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1),
                             ((1, 1, 0), [((1,), 1)])])
    res = b1d_detector(fam_flat, (1, 2))
    assert not res.found and res.i is None and res.beta is None
    sub = res.restriction
    assert sub.n_vars == 3
    assert sub.generic_support().points == ((0, 3, 0), (1, 1, 0), (3, 0, 0))


def test_b1d_hypothesis_enforced():
    fam_nohyp = family(2, 1, [((1, 1), 1), ((2, 2), [((1,), 1)])])
    with pytest.raises(SupportError):
        b1d_detector(fam_nohyp, (2,))
