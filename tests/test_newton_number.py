import itertools
import random
import re
from fractions import Fraction as F

import pytest

from newtonmu import newton_number
from newtonmu.geometry import (GeometryError, InternalConsistencyError,
                               _bounded_piece, _hull_rows, _pulling, _scaled,
                               _totals)
from newtonmu.newton_number import (NewtonVolumeVector, d_set_and_i_set,
                                    difference_region,
                                    newton_number_region, newton_number_series,
                                    newton_number_set, newton_number_union,
                                    partial_homothety,
                                    positivity_decomposition,
                                    projection_formula_check,
                                    union_volume_vector, volume_vector)
from newtonmu.polyhedra import CompactRegion, SupportError, support_set
from corpus import (bs_base_support, bs_deformed_support, exe2d_augmented,
                    exe2d_support, exe3d_augmented, exe3d_support, brieskorn,
                    extra_points, random_convenient_support, supports)
from oracles import (_volumes, lower_region, nu_2d_staircase,
                     volume_vector_fractions, volume_vector_scan)
from oracles import d_set_and_i_set as d_and_i_by_restriction
from test_conversion import typed
from test_placement import KINDS, random_pair


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


def test_positivity_decomposition_rejects_a_disconnected_section():
    """Two triangles on the x-axis that share no edge: the section on the
    x-axis is disconnected through codimension-one faces."""
    region = CompactRegion(2, (((1, 0), (1, 1), (2, 0)),
                               ((3, 0), (3, 1), (4, 0))))
    with pytest.raises(GeometryError, match="a coordinate section is "
                       "disconnected through codimension-one faces"):
        positivity_decomposition(region, (1,))


def _two_triangles():
    """The difference region of S = {(6,0), (0,5), (2,3)} and S plus
    (0,4): two triangles on the edge from (0,4) to (2,3), fully supported
    on axes (1, 2) and (2,)."""
    s = support_set(2, [(6, 0), (0, 5), (2, 3)])
    return difference_region(s, s.augment([(0, 4)]))


def test_positivity_decomposition_walks_a_connected_section():
    """The section on R^2 is the two triangles, which share an edge, so
    the connectivity walk reaches the second one; the pieces are the two
    triangles, with Newton numbers 2 and 1."""
    region = _two_triangles()
    assert newton_number_region(region) == 3
    pieces = positivity_decomposition(region, (2,))
    assert [axes for _, axes in pieces] == [(1, 2), (2,)]
    assert [newton_number_region(z) for z, _ in pieces] == [2, 1]


def test_broken_projection_identity_is_an_internal_error(monkeypatch):
    """A projection Newton number one too large breaks the projection
    identity of the piece on axis 2."""
    union = newton_number.newton_number_union
    monkeypatch.setattr(newton_number, "newton_number_union",
                        lambda *args: union(*args) + 1)
    with pytest.raises(InternalConsistencyError, match=re.escape(
            "internal consistency failure: projection identity broke on a "
            "piece with axes (2,): 1 != 2")):
        positivity_decomposition(_two_triangles(), (2,))


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


def test_d_and_i_sets_match_the_restrictions():
    """d_set_and_i_set against the former restriction loop
    (oracles.d_set_and_i_set) on 300 seeded pairs, n = 2..4 with rational
    points: a support and the support with one or two points more (half
    the pairs), the pair swapped, mostly not nested, and two unrelated
    supports.  Both return equal records or raise the same error text."""
    errors, changed = 0, 0
    for k in range(300):
        rng = random.Random(k)
        s = supports(rng)
        sp = s.augment(extra_points(rng, s.dim))
        a, b = rng.choice(((s, sp), (s, sp), (sp, s),
                           (s, supports(rng, (s.dim,)))))
        try:
            want = d_and_i_by_restriction(a, b)
        except SupportError as e:
            errors += 1
            with pytest.raises(SupportError) as got:
                d_set_and_i_set(a, b)
            assert str(got.value) == str(e), k
            continue
        assert d_set_and_i_set(a, b) == want, k
        changed += not want.degenerate
    assert (errors, changed) == (114, 129)


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


def test_staircase_oracle_property():
    """Sixty seeds: intercepts a, b in 1..6 and up to five more points of
    the grid 0..6 x 0..6, the origin dropped."""
    for k in range(60):
        rng = random.Random(k)
        extra = [(rng.randint(0, 6), rng.randint(0, 6))
                 for _ in range(rng.randint(0, 5))]
        pts = [(rng.randint(1, 6), 0), (0, rng.randint(1, 6))] + [
            p for p in extra if any(p)]
        s = support_set(2, pts)
        assert newton_number_set(s) == nu_2d_staircase(pts), pts


def test_permutation_invariance():
    """Forty seeds, the six axis permutations in turn."""
    perms = list(itertools.permutations(range(3)))
    for k in range(40):
        rng = random.Random(k)
        perm = perms[k % len(perms)]
        s = random_convenient_support(rng, 3, max_intercept=4, extra=2)
        permuted = support_set(3, [tuple(p[i] for i in perm)
                                   for p in s.points])
        assert newton_number_set(s) == newton_number_set(permuted), k


def test_semicontinuity_under_augmentation():
    for k in range(40):
        rng = random.Random(k)
        s = random_convenient_support(rng, 2, max_intercept=5, extra=2)
        extra = tuple(rng.randint(0, 4) for _ in range(2))
        if not any(extra):
            extra = (1, 1)
        sp = s.augment([extra])
        assert newton_number_set(sp) <= newton_number_set(s), k


# --- the integer totals against the former section scan ----------------------

def assert_region_totals(region):
    """volume_vector and newton_number_region, from the region's integer
    form, against the section scan and the Fraction simplex volumes, with
    the type of every number."""
    vv = typed(volume_vector(region))
    assert vv == typed(volume_vector_scan(region))
    assert vv == typed(volume_vector_fractions(region))
    assert typed(newton_number_region(region)) == typed(
        volume_vector_scan(region).newton_number())


def random_piece(rng, n):
    """One to six points of a small rational grid in R^n, often flattened
    into a coordinate subspace or onto a line through two of them, so
    the hull is a lower-dimensional polytope as often as not."""
    def coord():
        return F(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))

    pts = [tuple(coord() for _ in range(n))
           for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.4:
        flat = rng.sample(range(n), rng.randint(1, n))
        pts = [tuple(0 if i in flat else x for i, x in enumerate(p))
               for p in pts]
    if rng.random() < 0.3 and len(pts) > 1:
        a, b = pts[0], pts[1]
        pts = [a, b] + [tuple(x + t * (y - x) for x, y in zip(a, b))
                        for t in (F(1, 3), F(1, 2), 2)]
    return pts


def test_totals_match_the_section_scan():
    """A hundred seeds, n = 1..5 in turn.  The integer totals
    (geometry._totals) give typed-equal volume vectors and Newton
    numbers to the former per-subspace scan (oracles._volumes) and to one
    Fraction simplex volume per section face
    (oracles.volume_vector_fractions): on the lower region of a rational
    convenient support, on the difference region of that support and one
    with added points of random kinds (test_placement.random_pair), and
    on the pulling triangulation that union_volume_vector sums for a
    piece, flat ones included."""
    flat = 0
    for k in range(100):
        rng = random.Random(k)
        n = 1 + k % 5
        kinds = [rng.choice(KINDS) for _ in range(rng.randint(1, 3))]
        s, sp = random_pair(rng, n, kinds)
        for support in (s, sp):
            region = lower_region(support)
            assert_region_totals(region)
            assert newton_number_set(support) == newton_number_region(region)
        assert_region_totals(difference_region(s, sp))
        for _ in range(3):
            eqs, ineqs = _hull_rows(random_piece(rng, n))
            verts, facets, _ = _bounded_piece(eqs, ineqs, n)
            whole = (1 << len(verts)) - 1
            simplices = _pulling(whole, whole, facets, {})
            ipts, den = _scaled(verts)
            totals = _totals(n, ipts, simplices)
            want = NewtonVolumeVector(_volumes(n, ipts, den, simplices))
            assert typed(NewtonVolumeVector(newton_number._fractions(
                totals, den))) == typed(want)
            assert typed(newton_number._newton_fraction(totals, den)) == (
                typed(want.newton_number()))
            region = CompactRegion(n, tuple(tuple(verts[i] for i in t)
                                            for t in simplices))
            assert typed(volume_vector_fractions(region)) == typed(want)
            flat += len(simplices[0]) <= n
    assert flat > 60

