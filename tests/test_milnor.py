import random
import time

import pytest

from newtonmu.families import spoly
from newtonmu.groebner import BudgetExceeded
from newtonmu.milnor import (kouchnirenko_crosscheck, milnor_number,
                             nondegeneracy_check)
from corpus import brieskorn


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


def test_nondegeneracy_verdicts():
    r = nondegeneracy_check(P(2, ((2, 0), 1), ((0, 3), 1)))
    assert r.verdict == "nondegenerate"
    r = nondegeneracy_check(P(2, ((2, 0), 1), ((1, 1), 2), ((0, 2), 1)))
    assert r.verdict == "degenerate"
    bad = [v for v in r.faces if v.status == "degenerate"]
    assert len(bad) == 1 and bad[0].dim == 1


def test_crosscheck_nondegenerate():
    c = kouchnirenko_crosscheck(P(2, ((3, 0), 1), ((0, 3), 1)))
    assert c.mu == 4 and c.nu == 4
    assert c.equal is True and c.nondegeneracy == "nondegenerate"


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
