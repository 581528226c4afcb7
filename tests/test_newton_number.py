import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from newtonmu.geometry import GeometryError
from newtonmu.newton_number import (d_set_and_i_set, difference_region,
                                    newton_number_region, newton_number_series,
                                    newton_number_set, newton_number_union,
                                    partial_homothety,
                                    positivity_decomposition,
                                    projection_formula_check,
                                    union_volume_vector, volume_vector)
from newtonmu.polyhedra import (CompactRegion, SupportError, lower_region,
                                support_set)
from corpus import (bs_base_support, bs_deformed_support, exe2d_augmented,
                    exe2d_support, exe3d_augmented, exe3d_support, brieskorn,
                    random_convenient_support)
from oracles import nu_2d_staircase


def test_one_dimensional():
    assert newton_number_set(support_set(1, [(3,)])) == 2


def test_brieskorn_products():
    for a, b in [(2, 2), (3, 4), (5, 6)]:
        assert newton_number_set(brieskorn((a, b))) == (a - 1) * (b - 1)
    for abc in [(2, 2, 2), (3, 4, 2), (4, 4, 4)]:
        a, b, c = abc
        assert newton_number_set(brieskorn(abc)) == (a - 1) * (b - 1) * (c - 1)


def test_2d_sweep():
    for a, want in [(F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)),
                    (F(3, 4), F(3, 4))]:
        assert newton_number_set(exe2d_support(a)) == want
        assert newton_number_set(exe2d_augmented(a)) == F(1, 2)
    vv = volume_vector(lower_region(exe2d_support(F(1, 2))))
    assert vv.V == (1, 4, F(7, 4))


def test_3d_sweep():
    for a in [F(1, 4), F(1, 2), F(3, 4)]:
        assert (newton_number_set(exe3d_support(a))
                == newton_number_set(exe3d_augmented(a)))


def test_bs_pair():
    assert newton_number_set(bs_base_support()) == 364
    assert newton_number_set(bs_deformed_support()) == 364
    # restriction of the base to the yz-plane
    assert newton_number_set(support_set(2, [(7, 1), (0, 15), (8, 0)])) == 91


def test_missing_axis_rejected():
    with pytest.raises(SupportError):
        newton_number_set(support_set(2, [(2, 0)]))


def test_series():
    res = newton_number_series(support_set(2, [(2, 0)]), missing_axis_cap=32)
    assert not res.stabilized
    res = newton_number_series(support_set(2, [(2, 0), (1, 1)]),
                               missing_axis_cap=32)
    assert res.stabilized and res.value == 1 and res.augmented_axes == (2,)
    res = newton_number_series(support_set(2, [(2, 0), (0, 2)]))
    assert res.stabilized and res.value == 1 and res.tried_m == ()


def test_difference_region_identity():
    for a in [F(1, 4), F(1, 2), F(3, 4)]:
        s, sp = exe2d_support(a), exe2d_augmented(a)
        got = newton_number_region(difference_region(s, sp))
        assert got == newton_number_set(s) - newton_number_set(sp)
    reg = difference_region(bs_base_support(), bs_deformed_support())
    assert newton_number_region(reg) == 0


def test_projection_formula():
    pyr = CompactRegion(3, (tuple(sorted([
        (F(5), F(0), F(0)), (F(0), F(8), F(0)),
        (F(1), F(6), F(0)), (F(0), F(7), F(1))])),))
    lhs, rhs = projection_formula_check(pyr, (1, 2))
    assert lhs == rhs == 0


def test_positivity_decomposition():
    reg = difference_region(bs_base_support(), bs_deformed_support())
    pieces = positivity_decomposition(reg, (1, 2))
    assert pieces
    assert sum(newton_number_region(z) for z, _ in pieces) == 0


def test_partial_homothety_identity():
    f_sup, F_sup = bs_base_support(), bs_deformed_support()
    nf, nF = newton_number_set(f_sup), newton_number_set(F_sup)
    for lam in [F(1, 2), 2, 3]:
        hf = partial_homothety(f_sup, (1, 2), lam)
        hF = partial_homothety(F_sup, (1, 2), lam)
        assert (newton_number_set(hF) - newton_number_set(hf)
                == lam ** 2 * (nF - nf))


def test_d_and_i_sets():
    di = d_set_and_i_set(exe2d_support(F(1, 2)), exe2d_augmented(F(1, 2)))
    assert di.d_set == ((1,), (1, 2)) and di.i_set == (1,)
    assert not di.degenerate
    di = d_set_and_i_set(bs_base_support(), bs_base_support())
    assert di.degenerate and di.i_set == (1, 2, 3)


def test_union():
    a = [(F(0),), (F(1),)]
    b = [(F(1, 2),), (F(2),)]
    assert newton_number_union([a, b], 1) == 1
    assert newton_number_union([], 1) == 0


@pytest.mark.parametrize("pieces, message", [
    ([[]], "empty point set has no hull"),
    ([[(0, 0), (1, 0, 0)]], "points of mixed dimension"),
    ([[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]],
     "piece 0 has dimension 3 in ambient dimension 2"),
    ([[(0, 0), (1, 1)], [(0, 0, 0), (1, 0, 0)]],
     "piece 1 has dimension 3 in ambient dimension 2"),
    ([[(0,), (1,)]], "piece 0 has dimension 1 in ambient dimension 2"),
])
def test_union_pieces_error_contract(pieces, message):
    """A piece with no points, with points of mixed dimension, or of a
    dimension other than the ambient one raises GeometryError."""
    with pytest.raises(GeometryError, match=f"^{message}$"):
        union_volume_vector(pieces, 2)


# --- oracle cross-checks ------------------------------------------------------

def test_staircase_oracle_on_named_cases():
    cases = [
        [(2, 0), (0, 2)],
        [(3, 0), (0, 3)],
        [(7, 1), (0, 15), (8, 0)],
        [(2, 0), (0, 2), (F(3, 8), F(3, 2))],
        [(5, 0), (1, 1), (0, 5)],
    ]
    for pts in cases:
        s = support_set(2, pts)
        assert newton_number_set(s) == nu_2d_staircase(pts), pts


def test_staircase_oracle_randomized():
    rng = random.Random(20240817)
    for _ in range(120):
        s = random_convenient_support(rng, 2, max_intercept=6, extra=3)
        assert newton_number_set(s) == nu_2d_staircase(s.points), s.points


coord2 = st.tuples(st.integers(min_value=0, max_value=6),
                   st.integers(min_value=0, max_value=6))


@given(st.lists(coord2, min_size=0, max_size=5),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_staircase_oracle_property(extra, a, b):
    pts = [(a, 0), (0, b)] + [p for p in extra if any(p)]
    s = support_set(2, pts)
    assert newton_number_set(s) == nu_2d_staircase(pts)


@given(st.permutations((0, 1, 2)), st.integers(min_value=0, max_value=2 ** 30))
@settings(derandomize=True, deadline=None, max_examples=40)
def test_permutation_invariance(perm, seed):
    rng = random.Random(seed)
    s = random_convenient_support(rng, 3, max_intercept=4, extra=2)
    permuted = support_set(3, [tuple(p[i] for i in perm) for p in s.points])
    assert newton_number_set(s) == newton_number_set(permuted)


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(derandomize=True, deadline=None, max_examples=40)
def test_semicontinuity_under_augmentation(seed):
    rng = random.Random(seed)
    s = random_convenient_support(rng, 2, max_intercept=5, extra=2)
    extra = tuple(rng.randint(0, 4) for _ in range(2))
    if not any(extra):
        extra = (1, 1)
    sp = s.augment([extra])
    assert newton_number_set(sp) <= newton_number_set(s)
