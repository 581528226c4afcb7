import random
from fractions import Fraction as F

import pytest

import oracles
from newtonmu.degenerate import arc_order, monomial_arc
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


def _value(rng):
    """A small rational as an int, a str or a Fraction; zero included."""
    p, q = rng.randint(-3, 3), rng.choice((1, 1, 2, 3))
    return rng.choice((p, f"{p}/{q}", F(p, q))) if q > 1 else p


def _exponents(rng, length, pool):
    """An exponent, drawn again from pool half of the time so that
    exponents repeat."""
    if pool and rng.random() < 0.5:
        return rng.choice(pool)
    e = tuple(rng.randint(0, 3) for _ in range(length))
    pool.append(e)
    return e


def _coefficient(rng, m, pool):
    """A bare rational, or (s-exponent, value) pairs that may repeat an
    s-exponent, some with a pair and its negative, so that they cancel."""
    if rng.random() < 0.3:
        return _value(rng)
    pairs = []
    for _ in range(rng.randint(0, 3)):
        se, v = _exponents(rng, m, pool), _value(rng)
        pairs += [(se, v), (se, -F(v))] if rng.random() < 0.2 else [(se, v)]
    return pairs


def test_term_algebra_matches_the_former_loops():
    """spoly, family, every partial, base, specialize and arc_order
    against the former loops (oracles): 1-4 variables, 0-2 parameters,
    repeated exponents, and coefficients that cancel or are int, str or
    Fraction; the records are equal and have the same repr."""
    for k in range(300):
        rng = random.Random(k)
        n, m = rng.randint(1, 4), rng.randint(0, 2)
        x_pool, s_pool = [], []
        raw = [(_exponents(rng, n, x_pool), _value(rng))
               for _ in range(rng.randint(0, 6))]
        got, want = spoly(n, raw), oracles.spoly(n, raw)
        assert repr(got) == repr(want), k
        for axis in range(1, n + 1):
            assert repr(got.partial(axis)) == repr(oracles.partial(want, axis))
        raw = [(_exponents(rng, n, x_pool), _coefficient(rng, m, s_pool))
               for _ in range(rng.randint(0, 6))]
        fam, ref = family(n, m, raw), oracles.family(n, m, raw)
        assert repr(fam) == repr(ref), k
        for axis in range(1, n + 1):
            assert (repr(fam.partial_x(axis))
                    == repr(oracles.partial_x(ref, axis))), k
        for index in range(1, m + 1):
            assert (repr(fam.partial_s(index))
                    == repr(oracles.partial_s(ref, index))), k
        assert repr(fam.base()) == repr(oracles.base(ref)), k
        point = [_value(rng) for _ in range(m)]
        assert (repr(fam.specialize(point))
                == repr(oracles.specialize(ref, point))), k
        if not fam.is_zero:
            arc = monomial_arc(
                [rng.randint(1, 3) for _ in range(n)],
                [rng.randint(1, 3) for _ in range(m)],
                [rng.choice((1, -1, F(1, 2), 2)) for _ in range(n)],
                [rng.choice((1, -1, F(2, 3))) for _ in range(m)])
            assert (repr(arc_order(fam, arc))
                    == repr(oracles.arc_order(ref, arc))), k
