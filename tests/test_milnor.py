import random
import re
import time
from fractions import Fraction
from math import gcd, prod

import pytest

import oracles
from newtonmu import milnor
from newtonmu.families import spoly
from newtonmu.geometry import InternalConsistencyError
from newtonmu.groebner import BudgetExceeded
from newtonmu.milnor import (kouchnirenko_crosscheck, milnor_number,
                             nondegeneracy_check, render_face)
from newtonmu.polyhedra import SupportError
from corpus import brieskorn
from planar_box import check_milnor_box


def P(n, *terms):
    return spoly(n, list(terms))


def test_small_plane_curves():
    assert milnor_number(P(2, ((2, 0), 1), ((0, 3), 1))) == 2
    assert milnor_number(P(2, ((2, 0), 1), ((0, 2), 1))) == 1


def test_brieskorn_3d_grid():
    for a in (2, 3, 4):
        for b in (2, 3):
            for c in (2, 4):
                f = P(3, ((a, 0, 0), 1), ((0, b, 0), 1), ((0, 0, c), 1))
                assert milnor_number(f) == (a - 1) * (b - 1) * (c - 1)


def test_bs_base():
    bs = P(3, ((5, 0, 0), 1), ((0, 7, 1), 1), ((0, 0, 15), 1), ((0, 8, 0), 1))
    assert milnor_number(bs) == 364
    assert nondegeneracy_check(bs).verdict == "nondegenerate"


def test_milnor_number_is_bounded():
    """Counting a truncated quotient is charged to the budget: a germ
    whose singularity is not isolated runs out of budget fast, and an
    isolated one keeps its mu at a budget of at least mu."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        milnor_number(P(4, ((2, 0, 0, 0), 1)))  # a^2: quotients grow as N^3
    assert time.perf_counter() - start < 5
    # mu = 64; each truncation takes 15 Groebner steps and counts 64
    # monomials
    f = P(3, ((5, 0, 0), 1), ((0, 5, 0), 1), ((0, 0, 5), 1))
    assert milnor_number(f, budget=64) == 64
    with pytest.raises(BudgetExceeded):
        milnor_number(f, budget=63)


@pytest.mark.parametrize("f, message", [
    (P(2), "zero polynomial has no Milnor number"),
    (P(2, ((0, 0), 1), ((2, 0), 1)),
     "polynomial does not vanish at the origin"),
    (P(2, ((1, 0), 1), ((0, 2), 1)), "origin is not a critical point"),
])
def test_milnor_number_input_errors(f, message):
    with pytest.raises(SupportError, match=f"^{message}$"):
        milnor_number(f)


def test_milnor_number_gives_up_past_the_last_truncation(monkeypatch):
    """With the last truncation at 4, two rungs never run, so no value is
    confirmed."""
    monkeypatch.setattr(milnor, "MAX_TRUNCATION", 4)
    with pytest.raises(BudgetExceeded, match=re.escape(
            "Milnor number did not stabilize up to truncation 4; the "
            "singularity may not be isolated")):
        milnor_number(P(2, ((2, 0), 1), ((0, 3), 1)))


def test_infinite_truncated_quotient_is_an_internal_error(monkeypatch):
    """A truncated quotient always has finite dimension; an infinite one
    is a fault of the Groebner engine."""
    monkeypatch.setattr(milnor, "quotient_dimension", lambda *args: None)
    with pytest.raises(InternalConsistencyError, match=re.escape(
            "truncated Jacobian quotient came out infinite-dimensional")):
        milnor_number(P(2, ((2, 0), 1), ((0, 3), 1)))


def test_nondegeneracy_verdicts():
    r = nondegeneracy_check(P(2, ((2, 0), 1), ((0, 3), 1)))
    assert r.verdict == "nondegenerate"
    r = nondegeneracy_check(P(2, ((2, 0), 1), ((0, 3), 1)), budget=0)
    assert r.verdict == "unknown"
    assert [(v.dim, v.status, v.detail) for v in r.faces] == [
        (0, "nondegenerate", "monomial face")] * 2 + [
        (1, "unchecked", "budget exceeded")]
    with pytest.raises(SupportError, match="^zero polynomial$"):
        nondegeneracy_check(P(2))
    r = nondegeneracy_check(P(2, ((2, 0), 1), ((1, 1), 2), ((0, 2), 1)))
    assert r.verdict == "degenerate"
    bad = [v for v in r.faces if v.status == "degenerate"]
    assert len(bad) == 1 and bad[0].dim == 1
    assert render_face(bad[0].points) == "[(0, 2), (1, 1), (2, 0)]"
    # x^3 + y^3 + z^3 - 3xyz: squarefree edges, and a torus zero (1, 1, 1)
    # of the 2-face's partials
    r = nondegeneracy_check(P(3, ((3, 0, 0), 1), ((0, 3, 0), 1),
                              ((0, 0, 3), 1), ((1, 1, 1), -3)))
    assert [(v.dim, v.status, v.detail) for v in r.faces if v.dim] == (
        [(1, "nondegenerate", "edge polynomial squarefree")] * 3
        + [(2, "degenerate", "face partials share a torus zero")])


def _edge_terms(start, end, c_start, c_end, rng, squared):
    """Terms on the segment from start to end whose polynomial in the
    lattice step t is c_start times one factor (1 + r t) per step.  When
    c_end is given, the last factor makes the end coefficient c_end; when
    squared is set and two factors are left free, the first is doubled."""
    g = gcd(*(b - a for a, b in zip(start, end)))
    roots = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
             for _ in range(g)]
    free = g - (c_end is not None)
    if squared and free >= 2:
        roots[1] = roots[0]
    if c_end is not None:
        roots[-1] = c_end / (c_start * prod(roots[:-1]))
    coeffs = [c_start]
    for r in roots:
        coeffs = [a + r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    step = tuple((b - a) // g for a, b in zip(start, end))
    return [(tuple(a + k * d for a, d in zip(start, step)), c)
            for k, c in enumerate(coeffs)]


def _random_germ(rng):
    """A germ whose compact edges are products of linear factors in the
    lattice step, half of them with one factor squared: the two edges
    through an even vertex below the chord in the plane, or the three
    edges of an even axis triangle in space."""
    if rng.random() < 0.5:
        big = rng.choice([6, 8, 12, 16])
        top = (big // 2 - 1) // 2
        mid = (2 * rng.randint(1, top), 2 * rng.randint(1, top))
        chain = [(big, 0), mid, (0, big)]
        edges = list(zip(chain, chain[1:]))
    else:
        chain = [(rng.choice([2, 4, 6]), 0, 0), (0, rng.choice([2, 4, 6]), 0),
                 (0, 0, rng.choice([2, 4]))]
        edges = list(zip(chain, chain[1:] + chain[:1]))
    terms = {chain[0]: Fraction(rng.choice([1, 2, -1]))}
    for u, v in edges:
        terms.update(_edge_terms(u, v, terms[u], terms.get(v), rng,
                                 rng.random() < 0.5))
    return spoly(len(chain[0]), sorted(terms.items()))


def _edge_oracle(points, coeffs):
    uni = oracles._edge_univariate(points, coeffs)
    deriv = [c * k for k, c in enumerate(uni)][1:]
    common = oracles._poly_gcd_degree(uni, deriv)
    if common == 0:
        return "nondegenerate", "edge polynomial squarefree"
    return ("degenerate",
            f"edge polynomial has a repeated factor of degree {common}")


def test_edge_verdicts_match_the_euclid_oracle():
    """Every edge verdict, read off the Groebner basis of (p, p'), is the
    status and detail of the former dense Euclid on the same edge, over
    seeded germs in two and three variables whose edges are products of
    linear factors, half of them with a squared factor."""
    seen = set()
    for k in range(40):
        f = _random_germ(random.Random(k))
        coeffs = f.as_dict()
        for v in nondegeneracy_check(f).faces:
            if v.dim == 1:
                assert (v.status, v.detail) == _edge_oracle(v.points, coeffs), f
                seen.add(v.status)
    assert seen == {"degenerate", "nondegenerate"}


def test_crosscheck_nondegenerate():
    c = kouchnirenko_crosscheck(P(2, ((3, 0), 1), ((0, 3), 1)))
    assert c.mu == 4 and c.nu == 4
    assert c.equal is True and c.nondegeneracy == "nondegenerate"


def test_crosscheck_notes():
    """x^2 has a non-isolated singularity and an unbounded Newton region;
    at budget 0 nothing about x^2 + y^3 is decided but its nu."""
    c = kouchnirenko_crosscheck(P(2, ((2, 0), 1)), budget=50)
    assert (c.mu, c.nu, c.nu_stabilized, c.equal) == (None, None, False, None)
    assert c.notes == (
        "Newton number series did not stabilize; nu may be infinite",
        "Milnor oracle gave up: step budget exhausted after 51 steps")
    c = kouchnirenko_crosscheck(P(2, ((2, 0), 1), ((0, 3), 1)), budget=0)
    assert (c.mu, c.nu, c.nondegeneracy, c.equal) == (None, 2, "unknown",
                                                      None)
    assert c.notes == (
        "nondegeneracy undecided on some faces",
        "Milnor oracle gave up: step budget exhausted after 1 steps")


@pytest.mark.parametrize("shift, message", [
    (-1, "mu = 3 < nu = 4 contradicts the Milnor-Newton inequality"),
    (1, "mu = 5 != nu = 4 on a nondegenerate polynomial"),
])
def test_crosscheck_catches_a_wrong_milnor_number(monkeypatch, shift,
                                                  message):
    """x^3 + y^3 is nondegenerate with nu = 4: a Milnor number one below
    breaks mu >= nu, one above breaks mu = nu."""
    monkeypatch.setattr(milnor, "milnor_number",
                        lambda f, budget: 4 + shift)
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        kouchnirenko_crosscheck(P(2, ((3, 0), 1), ((0, 3), 1)))


def test_crosscheck_degenerate_has_excess():
    c = kouchnirenko_crosscheck(P(2, ((2, 0), 1), ((1, 1), 2), ((0, 2), 1),
                                  ((5, 0), 1), ((0, 5), 1)))
    assert c.nondegeneracy == "degenerate"
    assert c.mu is not None and c.mu > c.nu


def test_randomized_crosschecks():
    """mu >= nu always; equality whenever the face check passes."""
    rng = random.Random(40917)
    done = 0
    while done < 20:
        n = rng.choice([2, 2, 3])
        exps = [rng.randint(2, 4 if n == 3 else 5) for _ in range(n)]
        pts = list(brieskorn(exps).points)
        for _ in range(rng.randint(0, 2)):
            extra = tuple(rng.randint(0, 3) for _ in range(n))
            if any(extra) and sum(extra) >= 2:
                pts.append(extra)
        terms = {}
        for p in set(tuple(int(c) for c in q) for q in pts):
            terms[p] = rng.choice([1, 1, 1, 2, -1])
        f = spoly(n, sorted(terms.items()))
        c = kouchnirenko_crosscheck(f)
        if c.mu is None:
            continue
        assert c.mu >= c.nu, f
        if c.nondegeneracy == "nondegenerate":
            assert c.mu == c.nu, f
        done += 1


def test_milnor_oracle_judges_the_planar_box_of_exponents_up_to_3():
    """The Groebner Milnor oracle on every pair of the planar box of
    exponents at most 3 (planar_box.check_milnor_box): mu = nu on both
    germs, and the apex verdict is mu(f_0) = mu(f_1).  No germ in this box
    is degenerate, so every pair is judged; the box at 4 skips 24, a CI
    step."""
    assert check_milnor_box(3) == {"true": 185, "false": 51}
