import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from newtonmu import apex
from newtonmu.apex import (edge_convenience, edges_at_vertex, find_apex,
                           mu_constant_test, vertex_location_check)
from newtonmu.geometry import InternalConsistencyError, _members, _scaled
from newtonmu.newton_number import newton_number_set
from newtonmu.polyhedra import (SupportError, added_vertices,
                                newton_polyhedron, support_set)
from corpus import (boundary_plane_augmentation, bs_base_support,
                    bs_deformed_support, exe2d_augmented, exe2d_support,
                    exe3d_augmented, exe3d_support, random_convenient_support)
from oracles import (_on_segment, find_apex as fraction_find_apex,
                     nu_2d_staircase)
from planar_box import check_box
from test_conversion import typed
from test_pair_numbers import nested_pair
from test_placement import KINDS, random_pair

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool" / "mu_sweep.json"


def test_bs_vertex_edges_and_apex():
    f_sup, F_sup = bs_base_support(), bs_deformed_support()
    edges = edges_at_vertex(newton_polyhedron(F_sup), (1, 6, 0))
    assert len(edges) == 3
    cert = find_apex(f_sup, F_sup, (1, 6, 0))
    assert cert.good and cert.i == 3 and cert.beta == (0, 7, 1)
    res = mu_constant_test(f_sup, F_sup)
    assert res.verdict and len(res.certificates) == 1
    assert res.nu_s == res.nu_s_prime == 364
    assert vertex_location_check(f_sup, F_sup) is True


def test_two_apexes():
    s = support_set(3, [(2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 3)])
    sp = s.augment([(0, 0, 2)])
    cert = find_apex(s, sp, (0, 0, 2))
    # both axis directions work; the report keeps every one, smallest axis first
    assert cert.good and cert.i == 1 and cert.beta == (1, 0, 1)
    assert cert.good_pairs == ((1, (1, 0, 1)), (2, (0, 1, 1)))
    res = mu_constant_test(s, sp)
    assert res.verdict and res.nu_s == res.nu_s_prime


def test_2d_sweep_verdicts():
    cases = [(F(1, 4), False, "not"), (F(1, 2), True, "convenient"),
             (F(3, 4), False, "strict")]
    for a, want_verdict, want_cls in cases:
        s, sp = exe2d_support(a), exe2d_augmented(a)
        res = mu_constant_test(s, sp)
        assert res.verdict == want_verdict
        assert res.verdict == (res.nu_s == res.nu_s_prime)
        cert = res.certificates[0]
        ec = edge_convenience(cert.edge, s, (1,), (1, 2))
        assert ec.classification == want_cls and not ec.vacuous
        if a == F(3, 4):
            assert cert.beta == (F(3, 8), F(3, 2)) and not cert.good


def test_3d_sweep_verdicts():
    for a in [F(1, 4), F(1, 2), F(3, 4)]:
        res = mu_constant_test(exe3d_support(a), exe3d_augmented(a))
        assert res.verdict
        assert (3, (0, 0, 1)) in res.certificates[0].good_pairs


def test_equal_supports_trivially_constant():
    f_sup = bs_base_support()
    res = mu_constant_test(f_sup, f_sup)
    assert res.verdict and res.certificates == ()


def test_interior_vertex_drops_nu():
    s = support_set(2, [(3, 0), (0, 3)])
    sp = s.augment([(1, 1)])
    res = mu_constant_test(s, sp)
    assert not res.verdict and res.certificates == ()
    assert res.nu_s_prime < res.nu_s
    with pytest.raises(SupportError):
        vertex_location_check(s, sp)


def test_vertex_location_check_names_a_pair_that_is_not_nested():
    """The Newton numbers of a pair come from its difference region, so a
    pair that is not nested is named as such before any number is
    compared."""
    s = support_set(2, [(2, 0), (0, 2)])
    with pytest.raises(SupportError, match="^polyhedra not nested"):
        vertex_location_check(s, support_set(2, [(3, 0), (0, 1)]))


def test_cross_check_raises_inside_the_theorem(monkeypatch):
    """A convenient integer pair meets every hypothesis, so an apex verdict
    that contradicts the Newton numbers is an internal error."""
    s = support_set(3, [(2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 3)])
    sp = s.augment([(0, 0, 2)])
    monkeypatch.setattr(apex, "_apex", lambda *args: None)
    with pytest.raises(InternalConsistencyError):
        mu_constant_test(s, sp)


def test_verdict_tracks_nu_equality():
    """Sixty pairs from the first seeds, n = 2 and 3 in turn, whose small
    box holds a lattice point on a compact facet plane of the support:
    the support augmented by one of them."""
    checked, verdicts = 0, set()
    for k in range(200):
        rng = random.Random(k)
        s = random_convenient_support(rng, 2 + k % 2, max_intercept=5,
                                      extra=2)
        sp = boundary_plane_augmentation(rng, s)
        if sp is None:
            continue
        res = mu_constant_test(s, sp)
        assert res.verdict == (res.nu_s == res.nu_s_prime), k
        assert res.nu_s == newton_number_set(s)
        assert res.nu_s_prime == newton_number_set(sp)
        verdicts.add(res.verdict)
        checked += 1
        if checked == 60:
            break
    assert checked == 60 and verdicts == {False, True}


def test_the_planar_box_of_exponents_up_to_5():
    """Every convenient planar staircase with exponents at most 5, each
    with every other point of the box added (planar_box): the verdict is
    nu(S) = nu(S'), nu(S') <= nu(S), and both numbers are those of
    oracles.nu_2d_staircase."""
    assert check_box(5, nu_2d_staircase) == (251, 7904)


def test_integer_edge_test_matches_fraction_segment_test():
    """apex._on_edge against the former Fraction test, on rational points
    with small denominators in n = 2..4 scaled to one denominator: on
    degenerate and proper segments, at the ends, between them, on the line
    beyond either end and off the line.  It returns t |d_k| as an int,
    with d_k the first nonzero entry of d = b - a."""
    for k in range(300):
        rng = random.Random(k)
        n = 2 + k % 3

        def point():
            return tuple(F(rng.randint(0, 6), rng.choice((1, 2, 3)))
                         for _ in range(n))

        a = point()
        b = a if k % 5 == 0 else point()
        t = rng.choice((0, 1, F(rng.randint(1, 5), 6),
                        F(-rng.randint(1, 4), 3), 1 + F(rng.randint(1, 4), 3)))
        p = tuple(x + t * (y - x) for x, y in zip(a, b))
        if k % 4 == 3:
            i = rng.randrange(n)
            p = p[:i] + (p[i] + F(1, rng.choice((1, 2, 5))),) + p[i + 1:]
        (ia, ib, ip), _ = _scaled([a, b, p])
        d = tuple(x - y for x, y in zip(ib, ia))
        want = _on_segment(p, a, b)
        got = apex._on_edge(ip, ia, d)
        if want is None:
            assert got is None, k
        else:
            assert type(got) is int, k
            assert got == want * next((abs(x) for x in d if x), 0), k


def apex_pairs():
    """The 540 pairs of the mu_sweep pool, read as test_placement reads
    it, then 120 seeded rational pairs (test_placement.random_pair),
    n = 2..5 in turn, with one to three added points of random kinds."""
    for case in json.loads(POOL.read_text())["cases"]:
        n = case["n"]
        yield (support_set(n, [tuple(p) for p in case["s"]]),
               support_set(n, [tuple(p) for p in case["sp"]]))
    for k in range(120):
        rng = random.Random(k)
        yield random_pair(rng, 2 + k % 4, [rng.choice(KINDS) for _ in
                                           range(rng.randint(1, 3))])


def test_public_apex_readers_keep_their_results():
    """added_vertices, now a wrapper over the vertex indices, returns the
    vertices of hull(S') that are no vertices of hull(S) as typed Fraction
    points, in the order of the points of S'.  find_apex, now a wrapper
    over the index search, is typed-equal to the former Fraction search
    (oracles.find_apex) at every vertex of hull(S'), added or old."""
    added, certified = 0, 0
    for s, sp in apex_pairs():
        old = set(newton_polyhedron(s).vertices)
        new = tuple(v for v in newton_polyhedron(sp).vertices
                    if v not in old)
        assert typed(added_vertices(s, sp)) == typed(new)
        for alpha in newton_polyhedron(sp).vertices:
            cert = find_apex(s, sp, alpha)
            assert typed(cert) == typed(fraction_find_apex(s, sp, alpha))
            certified += cert is not None
        added += len(new)
    assert added > 300 and certified > 1000, (added, certified)


def test_find_apex_at_a_point_that_is_no_vertex():
    """An alpha with full support gives None, vertex or not, as before;
    any other point that is no vertex of hull(S') raises the former
    SupportError text."""
    s = support_set(2, [(3, 0), (0, 3)])
    sp = s.augment([(1, 1)])
    for alpha in ((1, 1), (1, 2), (F(5, 2), 7)):
        assert find_apex(s, sp, alpha) is None
        assert fraction_find_apex(s, sp, alpha) is None
    for alpha, text in (((0, 2), "(0, 2)"), ((F(1, 2), 0), "(1/2, 0)"),
                        ((4, 0), "(4, 0)")):
        for search in (find_apex, fraction_find_apex):
            with pytest.raises(SupportError) as error:
                search(s, sp, alpha)
            assert str(error.value) == (
                f"{text} is not a vertex of the Newton boundary")


# the mu-test pairs of the CI's installed-script step, as (n, S, S')
CI_PAIRS = [
    (2, [(4, 0), (2, 2), (0, 4)], [(4, 0), (1, 1), (0, 4)]),
    (2, [(4, 0), (3, 3), (0, 4)], [(4, 0), (0, 4)]),
    (3, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 1, 0)],
     [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 1, 0), (1, 1, 1)]),
    (3, [(F(5, 2), 0, 0), (0, 3, 0), (0, 0, F(7, 3))],
     [(F(5, 2), 0, 0), (0, 3, 0), (0, 0, F(7, 3)), (0, 1, F(3, 2))]),
    (2, [(3, 0), (0, 2)], [(3, 0), (0, 2), (F(3, 2), F(1, 2))]),
    (2, [(0, 4), (1, 1), (2, 0), (4, 2)],
     [(0, 4), (1, 1), (2, 0), (4, 2), (0, 2)]),
]


def certificate_pairs():
    """Factories of fresh pairs: the 540 mu_sweep pool pairs, 120 seeded
    nested_pair pairs, n = 2..5, half "below" and half "sevenths", and
    the CI pairs."""
    for case in json.loads(POOL.read_text())["cases"]:
        yield lambda c=case: (support_set(c["n"], [tuple(p) for p in c["s"]]),
                              support_set(c["n"], [tuple(p) for p in c["sp"]]))
    for k in range(120):
        yield lambda k=k: nested_pair(random.Random(k), 2 + k % 4,
                                      ("below", "sevenths")[k % 2])
    for n, s, sp in CI_PAIRS:
        yield lambda n=n, s=s, sp=sp: (support_set(n, s), support_set(n, sp))


def test_lazy_certificates_match_the_eager_search():
    """apex._apex, at every vertex of hull(S') of every pair of
    certificate_pairs, against the former Fraction search
    (oracles.find_apex) at that vertex's point: the certificates are
    typed-equal, with the same repr and hash."""
    certified, good, bad = 0, 0, 0
    for make in certificate_pairs():
        s, sp = make()
        for a in _members(newton_polyhedron(sp).vmask):
            old = fraction_find_apex(s, sp, sp.points[a])
            new = apex._apex(*make(), a)
            if old is None:
                assert new is None
                continue
            assert repr(new) == repr(old) and hash(new) == hash(old)
            assert typed(new) == typed(old)
            certified += 1
            good += old.good
            bad += not old.good
    assert certified > 1000 and good > 50 and bad > 500, (certified, good,
                                                         bad)
