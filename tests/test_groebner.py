import random
from fractions import Fraction as F

import pytest
import sympy

import oracles
from newtonmu import groebner
from newtonmu.families import spoly
from newtonmu.groebner import (DEFAULT_BUDGET, BudgetExceeded, _make_row,
                               _Meter, _reduce_full, _to_dicts,
                               groebner_basis, grevlex_key,
                               ideal_contains_one, leading_monomials,
                               quotient_dimension, spoly_from_engine)


def normal_form(p, basis, budget=DEFAULT_BUDGET):
    """Remainder of p on full reduction by the given basis polynomials."""
    dicts, n_vars = _to_dicts([p] + list(basis))
    meter = _Meter(budget)
    rows = [_make_row(d) for d in dicts[1:] if d]
    remainder, _ = _reduce_full(dicts[0], rows, meter, 0)
    return spoly_from_engine(n_vars, remainder)


def _sympy_leads(polys, n):
    """Leading monomials of the reduced grevlex basis, via sympy."""
    xs = sympy.symbols(f"x1:{n + 1}")
    exprs = []
    for p in polys:
        e = 0
        for mono, c in p.terms:
            term = sympy.Rational(c.numerator, c.denominator)
            for xi, ei in zip(xs, mono):
                term *= xi ** ei
            e += term
        exprs.append(e)
    basis = sympy.groebner(exprs, *xs, order="grevlex")
    out = set()
    for e in basis.exprs:
        poly = sympy.Poly(e, *xs)
        lead = max(poly.monoms(), key=lambda m: grevlex_key(m))
        out.add(tuple(int(v) for v in lead))
    return tuple(sorted(out))


def test_grevlex_key_order():
    # total degree first, then inverted last-exponent comparison
    assert grevlex_key((2, 0)) > grevlex_key((1, 0))
    assert grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((3, 0, 0)) > grevlex_key((0, 3, 0)) > grevlex_key(
        (0, 0, 3))


def test_monomial_ideal():
    x = spoly(2, [((1, 0), 1)])
    y = spoly(2, [((0, 1), 1)])
    gb = groebner_basis([x, y])
    assert {p.terms for p in gb} == {x.terms, y.terms}
    gb = groebner_basis([spoly(2, [((1, 0), 2)]), spoly(2, [((0, 2), 3)])])
    assert {p.terms[0][0] for p in gb} == {(1, 0), (0, 2)}
    assert all(p.terms[0][1] == 1 for p in gb)


def test_cusp_jacobian_style_ideal():
    g1 = spoly(2, [((0, 2), 1), ((3, 0), -1)])
    g2 = spoly(2, [((1, 1), 1)])
    gb = groebner_basis([g1, g2])
    assert leading_monomials(gb) == ((0, 3), (1, 1), (3, 0))
    assert leading_monomials(gb) == _sympy_leads([g1, g2], 2)


def test_normal_form():
    gb = groebner_basis([spoly(2, [((0, 2), 1), ((3, 0), -1)]),
                         spoly(2, [((1, 1), 1)])])
    assert normal_form(spoly(2, [((4, 1), 1)]), gb).terms == ()
    nf = normal_form(spoly(2, [((1, 0), 1)]), gb)
    assert nf.terms == (((1, 0), 1),)


def test_contains_one():
    assert ideal_contains_one([spoly(1, [((1,), 1)]),
                               spoly(1, [((0,), 1), ((1,), -1)])])
    assert not ideal_contains_one([spoly(2, [((1, 0), 1)])])


def test_quotient_dimension():
    x = spoly(2, [((1, 0), 1)])
    basis = groebner_basis([x, spoly(2, [((0, 2), 1)])])
    assert quotient_dimension(basis) == 2
    assert quotient_dimension(groebner_basis([x])) is None
    assert quotient_dimension(groebner_basis([spoly(1, [((0,), 1)])])) == 0
    # one step per counted monomial
    assert quotient_dimension(basis, budget=2) == 2
    with pytest.raises(BudgetExceeded, match="after 2 steps"):
        quotient_dimension(basis, budget=1)


def test_budget():
    g1 = spoly(2, [((0, 2), 1), ((3, 0), -1)])
    g2 = spoly(2, [((1, 1), 1)])
    with pytest.raises(BudgetExceeded):
        groebner_basis([g1, g2], budget=2)


def test_random_ideals_against_sympy():
    rng = random.Random(7031)
    for _ in range(12):
        n = rng.choice([2, 2, 3])
        polys = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 3) for _ in range(n))
                terms[mono] = rng.choice([-2, -1, 1, 2, 3])
            polys.append(spoly(n, sorted(terms.items())))
        polys = [p for p in polys if p.terms]
        if not polys:
            continue
        gb = groebner_basis(polys)
        assert leading_monomials(gb) == _sympy_leads(polys, n)


def _random_ideal(rng):
    """One to three generators in n = 1..3 variables, up to four terms
    with exponents up to 3 and small integer and fractional coefficients,
    now and then a zero one."""
    n = rng.randint(1, 3)
    polys = []
    for _ in range(rng.randint(1, 3)):
        terms = [(tuple(rng.randint(0, 3) for _ in range(n)),
                  rng.choice([-3, -2, -1, 1, 2, 3, F(1, 2), F(-2, 3)]))
                 for _ in range(rng.randint(0, 4))]
        polys.append(spoly(n, terms))
    return polys


def _engine_run(engine, dicts, budget):
    """Rows, reduced basis and steps used of one engine, every number
    tagged by its type and every dict read in order; or the text of its
    BudgetExceeded."""
    meter = _Meter(budget)
    try:
        rows = engine._buchberger(dicts, meter)
        got = [(r.lead, type(r.lead_coeff), r.lead_coeff,
                [(m, type(c), c) for m, c in r.tail.items()], r.sugar)
               for r in rows]
        basis = engine._interreduce(rows, meter)
    except BudgetExceeded as exc:
        return str(exc)
    basis = [[(m, type(c), c) for m, c in d.items()] for d in basis]
    return got, basis, meter.used


def test_heap_engine_matches_min_scan_engine():
    """The heap engine returns the former engine's rows in order, its
    reduced basis, its step count at a budget the ideal fits in, and its
    BudgetExceeded text at a random budget in 0..60."""
    exhausted = 0
    for k in range(400):
        rng = random.Random(k)
        dicts, _ = _to_dicts(_random_ideal(rng))
        fits = _engine_run(groebner, dicts, 20_000)
        assert isinstance(fits, tuple), k
        assert fits == _engine_run(oracles, dicts, 20_000), k
        budget = rng.randint(0, 60)
        tight = _engine_run(groebner, dicts, budget)
        assert tight == _engine_run(oracles, dicts, budget), k
        exhausted += isinstance(tight, str)
    assert exhausted > 40
