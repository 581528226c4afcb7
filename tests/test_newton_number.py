import itertools
import random
import re
from fractions import Fraction as F

import pytest

from newtonmu import geometry, newton_number
from newtonmu.geometry import (GeometryError, InternalConsistencyError,
                               _bounded_piece, _hull_rows, _pulling, _scaled,
                               _totals)
from newtonmu.newton_number import (NewtonVolumeVector, d_set_and_i_set,
                                    difference_region, minimal_full_support,
                                    newton_number_region, newton_number_series,
                                    newton_number_set, newton_number_union,
                                    partial_homothety,
                                    positivity_decomposition,
                                    projection_formula_check,
                                    union_volume_vector, volume_vector,
                                    volume_vector_set)
from newtonmu.polyhedra import (CompactRegion, SupportError, newton_polyhedron,
                                support_set)
from corpus import (bs_base_support, bs_deformed_support, exe2d_augmented,
                    exe2d_support, exe3d_augmented, exe3d_support, brieskorn,
                    extra_points, random_convenient_support, supports)
import oracles
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
    assert volume_vector_set(exe2d_support(F(1, 2))) == vv


def test_3d_sweep():
    for a in [F(1, 4), F(1, 2), F(3, 4)]:
        assert (newton_number_set(exe3d_support(a))
                == newton_number_set(exe3d_augmented(a)))


def test_bs_pair():
    assert newton_number_set(bs_base_support()) == 364
    assert newton_number_set(bs_deformed_support()) == 364
    # restriction of the base to the yz-plane
    assert newton_number_set(support_set(2, [(7, 1), (0, 15), (8, 0)])) == 91
    # a polyhedron seeded by hand has no placement record, so the support
    # is placed for its Newton number
    s = bs_base_support()
    s.__dict__["_newton_polyhedron"] = newton_polyhedron(bs_base_support())
    assert newton_number_set(s) == 364


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
    with pytest.raises(ValueError, match="missing_axis_cap must be positive"):
        newton_number_series(support_set(2, [(2, 0)]), missing_axis_cap=0)


def test_difference_region_identity():
    for a in [F(1, 4), F(1, 2), F(3, 4)]:
        s, sp = exe2d_support(a), exe2d_augmented(a)
        got = newton_number_region(difference_region(s, sp))
        assert got == newton_number_set(s) - newton_number_set(sp)
    reg = difference_region(bs_base_support(), bs_deformed_support())
    assert newton_number_region(reg) == 0
    # a pair placed over a finer den; a pair refused for placement, since
    # S' lacks the point (2, 2) of S, with S' over the den of S and over a
    # finer one; a smaller support that misses an axis
    s = support_set(2, [(2, 0), (0, 2)])
    sp = s.augment([(F(1, 2), F(1, 2))])
    assert newton_number_region(difference_region(s, sp)) == 2
    assert newton_number_set(sp) == -1
    s = support_set(2, [(4, 0), (2, 2), (0, 4)])
    for middle, nu in (((1, 1), 1), ((F(1, 2), 1), -1)):
        sp = support_set(2, [(4, 0), middle, (0, 4)])
        assert newton_number_region(difference_region(s, sp)) == 9 - nu
    s = support_set(2, [(2, 0), (1, 1)])
    with pytest.raises(SupportError, match=re.escape(
            "difference region is unbounded: no support point on axis 2 "
            "of the smaller set")):
        difference_region(s, s.augment([(0, 3)]))


def test_projection_formula():
    pyr = CompactRegion(3, (tuple(sorted([
        (F(5), F(0), F(0)), (F(0), F(8), F(0)),
        (F(1), F(6), F(0)), (F(0), F(7), F(1))])),))
    lhs, rhs = projection_formula_check(pyr, (1, 2))
    assert lhs == rhs == 0
    assert minimal_full_support(pyr.simplices[0], 3) == {0, 1}


@pytest.mark.parametrize("simplices, axes, message", [
    ((), (1,), "projection formula needs a nonempty region"),
    ((((1,), (2,)),), (),
     "hypothesis failure: a simplex has minimal full-supporting subspace "
     "different from the given axes ()"),
    ((((0,), (1,)),), (), "hypothesis failure: region contains the origin"),
    ((((1,), (2,)), ((3,), (4,))), (1,),
     "hypothesis failure: simplices have different sections on the given "
     "coordinate subspace"),
    ((((1,),),), (1,), "simplex has no full-supporting subspace; is it "
     "really n-dimensional?"),
])
def test_projection_formula_hypotheses(simplices, axes, message):
    """Each hypothesis of the projection formula on a least bad region
    in dimension 1; a region of one point is no 1-simplex."""
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        projection_formula_check(CompactRegion(1, simplices), axes)


def test_positivity_decomposition():
    reg = difference_region(bs_base_support(), bs_deformed_support())
    pieces = positivity_decomposition(reg, (1, 2))
    assert pieces
    assert sum(newton_number_region(z) for z, _ in pieces) == 0
    assert positivity_decomposition(CompactRegion(3, ()), (1, 2)) == []


@pytest.mark.parametrize("n, simplices, axes, message", [
    (1, (((0,), (1,)),), (1,), "origin in region"),
    (2, (((1, 0), (1, F(1, 2)), (2, 0)),), (1,),
     "vertex coordinate 1/2 on axis 2 lies strictly between 0 and 1"),
    (2, (((0, 1), (1, 0), (2, 0)),), (2,),
     "full-dimensional section on axes (1,), which do not contain the "
     "given axes"),
    (2, (((1, 1), (1, 2), (2, 1)),), (1,),
     "empty or degenerate section on axes (1,)"),
    (1, (((1,), (2,)), ((3,),)), (1,),
     "section on axes (1,) is not pure 1-dimensional"),
    (2, (((1, 1), (2, 2), (3, 3)),), (1, 2),
     "simplex (1, 1) (2, 2) (3, 3) has affinely dependent vertices"),
    (2, (((0, 2), (0, 3), (1, 0)), ((0, 2), (0, 3), (1, 3))), (2,),
     "two simplices meet in (1/4, 9/4), which is not a common vertex"),
])
def test_positivity_hypotheses(n, simplices, axes, message):
    """Each hypothesis of the positivity decomposition on a least bad
    region: the origin as a vertex, a coordinate in (0, 1) off I, a
    full-dimensional section on axes without I, no full-dimensional
    section on axes with I, a point of a section in no top face, a
    simplex on a line, and two triangles on one edge that overlap (before
    the overlap check, these broke the projection identity, an internal
    error for bad input; the flat simplex passed as one piece)."""
    with pytest.raises(GeometryError, match=re.escape(
            f"hypothesis failure: {message}")):
        positivity_decomposition(CompactRegion(n, simplices), axes)


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


def test_positivity_checks_each_piece_and_the_sum(monkeypatch):
    """The sign check on the pieces fires on no region known to pass the
    hypotheses: it guards the positivity theorem, and a projection check
    that returns -1 for each piece makes it fire.  The pieces' Newton
    numbers sum to the region's on every region that passes the
    hypotheses, since two simplices with a common section face fall in
    one piece; positivity_decomposition no longer checks the sum, so it
    is checked here, on the difference regions of 40 seeds and their
    broken copies (_broken_regions), under every axis set."""
    passed = 0
    for k in range(40):
        n = 2 + k % 2
        for region in _broken_regions(random.Random(k), n):
            for size in range(n + 1):
                for axes in itertools.combinations(range(1, n + 1), size):
                    try:
                        pieces = positivity_decomposition(region, axes)
                    except GeometryError:
                        continue
                    passed += bool(pieces)
                    assert sum(newton_number_region(z) for z, _ in pieces
                               ) == newton_number_region(region), (k, axes)
    assert passed == 63
    monkeypatch.setattr(newton_number, "projection_formula_check",
                        lambda z, axes: (F(-1), F(-1)))
    with pytest.raises(GeometryError, match=re.escape(
            "hypothesis failure: piece with axes (1, 2) has negative "
            "Newton number -1")):
        positivity_decomposition(_two_triangles(), (2,))


def _outcome(func, *args):
    """repr of what func returns, or the type and text of its error."""
    try:
        return repr(func(*args))
    except (GeometryError, InternalConsistencyError) as e:
        return type(e).__name__, str(e)


def _broken_regions(rng, n):
    """The difference region of a random nested pair (test_placement's
    random_pair, points added by cutting kinds), and that region broken
    by hand: a vertex moved to the origin, a coordinate moved into
    (0, 1), a simplex dropped, or the simplices of a second region
    merged in."""
    cutting = ("rational", "facet", "plane", "below")
    region = difference_region(*random_pair(
        rng, n, [rng.choice(cutting) for _ in range(rng.randint(1, 3))]))
    simplices = list(region.simplices)
    out = [region]
    if simplices:
        i = rng.randrange(len(simplices))
        for vertex in ((F(0),) * n, None):
            s = list(simplices[i])
            j = rng.randrange(n + 1)
            if vertex is None:
                a = rng.randrange(n)
                vertex = s[j][:a] + (F(rng.randint(1, 5), 6),) + s[j][a + 1:]
            s[j] = vertex
            out.append(CompactRegion(n, tuple(sorted(
                simplices[:i] + [tuple(sorted(s))] + simplices[i + 1:]))))
        if len(simplices) > 1:
            out.append(CompactRegion(n, tuple(simplices[:i]
                                              + simplices[i + 1:])))
    other = difference_region(*random_pair(rng, n, [rng.choice(cutting)]))
    out.append(CompactRegion(n, tuple(sorted(
        set(simplices) | set(other.simplices)))))
    return out


def test_positivity_stack_matches_the_former_code():
    """minimal_full_support, projection_formula_check and
    positivity_decomposition against the former frozenset and Fraction
    code, kept verbatim in oracles.py, over 160 seeds, n = 2 and 3: each
    seed's difference region and its broken copies (_broken_regions),
    under every axis set I.  Both return records equal by repr, or raise
    the same error type and text.  The Fraction determinant and simplex
    volume left geometry with the frozenset support."""
    assert not any(hasattr(mod, name) for mod in (geometry, newton_number)
                   for name in ("determinant", "simplex_volume", "_support"))
    regions, seen = 0, set()
    for k in range(160):
        rng = random.Random(k)
        n = 2 + k % 2
        for region in _broken_regions(rng, n):
            regions += 1
            for simplex in region.simplices:
                assert _outcome(minimal_full_support, simplex, n) == (
                    _outcome(oracles.minimal_full_support, simplex, n)), k
            for size in range(n + 1):
                for axes in itertools.combinations(range(1, n + 1), size):
                    for name in ("projection_formula_check",
                                 "positivity_decomposition"):
                        got = _outcome(getattr(newton_number, name),
                                       region, axes)
                        assert got == _outcome(getattr(oracles, name),
                                               region, axes), (k, axes)
                        seen.add(re.split(r"[\d(;]", got[1])[0].strip()
                                 if isinstance(got, tuple) else got[:2])
    assert regions == 572
    # a pair of Fractions, pieces, no pieces, and eleven of the error
    # texts: all but those of the two checks on the pieces (identity,
    # sign), of the flat-simplex check (test_positivity_hypotheses fires
    # it) and of the one raise that needs a simplex short of n + 1
    # vertices; the former code's sum check never fires
    assert len(seen) == 14, sorted(seen)


def test_partial_homothety_identity():
    f_sup, F_sup = bs_base_support(), bs_deformed_support()
    for axes, lam, message in (((1,), 0, "homothety factor must be positive"),
                               ((4,), 2, "axis 4 out of range 1..3"),
                               ((1, 1), 2, "duplicate axes")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            partial_homothety(f_sup, axes, lam)
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
    # three disjoint segments: no intersection is nonempty
    assert newton_number_union([[(0,), (1,)], [(2,), (3,)], [(4,), (5,)]],
                               1) == 2
    assert newton_number_union([[()]], 0) == 1
    assert newton_number_union([], 0) == 0


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

