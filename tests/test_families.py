from fractions import Fraction as F

import pytest

from newtonmu.families import SupportError, family, spoly
from corpus import bs_family, family_from_spoly, quintic_family


def test_bs_family_supports_and_partials():
    bs = bs_family().check_deformation()
    assert bs.generic_support().points == tuple(sorted(
        [(0, 0, 15), (0, 7, 1), (0, 8, 0), (1, 6, 0), (5, 0, 0)]))
    assert bs.base_support().points == tuple(sorted(
        [(0, 0, 15), (0, 7, 1), (0, 8, 0), (5, 0, 0)]))
    d1 = bs.partial_x(1)
    assert d1.terms == tuple(sorted([
        ((4, 0, 0), (((0,), F(5)),)), ((0, 6, 0), (((1,), F(1)),))]))
    assert bs.partial_s(1).terms == (((1, 6, 0), (((0,), F(1)),)),)
    assert str(bs.specialize([0])) == "x3^15 + x2^7*x3 + x2^8 + x1^5"


def test_quintic_family():
    deg4 = quintic_family().check_deformation()
    assert deg4.generic_support().points == tuple(sorted(
        [(5, 0, 0), (0, 6, 0), (0, 0, 5), (0, 3, 2), (2, 2, 1), (4, 1, 0)]))
    d3 = deg4.partial_x(3)
    assert d3.terms == tuple(sorted([
        ((0, 0, 4), (((0,), F(5)),)), ((0, 3, 1), (((0,), F(2)),)),
        ((2, 2, 0), (((1,), F(2)),))]))
    # restriction to x3 = 0 keeps the ambient dimension
    r = deg4.restrict((1, 2))
    assert [m for m, _ in r.terms] == sorted([(5, 0, 0), (0, 6, 0),
                                              (4, 1, 0)])


def test_cancelling_coefficient_dropped():
    f2 = family(2, 1, [((2, 0), 1), ((0, 2), 1),
                       ((1, 1), [((1,), 1), ((1,), -1)])])
    assert f2.generic_support().points == ((0, 2), (2, 0))


def test_repeated_exponent_merges_its_coefficients():
    """family() adds the coefficients of a repeated exponent, and a term
    whose merged coefficient cancels goes."""
    f = family(2, 1, [((2, 0), [((0,), 1)]),
                      ((2, 0), [((0,), -1), ((1,), 3)]), ((0, 3), 5)])
    assert f.terms == (((0, 3), (((0,), 5),)), ((2, 0), (((1,), 3),)))
    g = family(2, 1, [((2, 0), [((1,), 2)]), ((2, 0), [((1,), -2)]),
                      ((0, 3), 5)])
    assert g.terms == (((0, 3), (((0,), 5),)),)


def test_spoly_arithmetic():
    p = spoly(2, [((2, 0), 1), ((0, 2), "1/2"), ((0, 2), "1/2")])
    assert p.coefficient((0, 2)) == 1
    assert p.partial(2).terms == (((0, 1), F(2)),)
    assert family_from_spoly(p).base().terms == p.terms


def test_validation():
    # floats convert exactly at the library level; the CLI rejects them
    assert spoly(2, [((2, 0), 0.5)]).coefficient((2, 0)) == F(1, 2)
    with pytest.raises(SupportError):
        family(2, 1, [((-1, 0), 1)])
    with pytest.raises(SupportError):
        spoly(2, [((1, 0, 0), 1)])
