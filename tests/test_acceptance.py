"""Acceptance gate: ten criteria, exact equality everywhere, one printed
pass line per criterion (run with -s to see them)."""

import itertools
import json
import random
import time
from fractions import Fraction as F

from newtonmu.apex import mu_constant_test
from newtonmu.cli import main
from newtonmu.degenerate import (arc_grid, b1d_detector, monomial_arc,
                                 valuative_falsifier)
from newtonmu.families import family, spoly
from newtonmu.fans import is_admissible, is_regular_cone, support_function
from newtonmu.milnor import (kouchnirenko_crosscheck, milnor_number,
                             nondegeneracy_check)
from newtonmu.newton_number import (difference_region, newton_number_region,
                                    newton_number_set, partial_homothety)
from newtonmu.polyhedra import added_vertices
from newtonmu.resolution import simultaneous_resolution
from corpus import (boundary_plane_augmentation, brieskorn, bs_family,
                    bs_scaled_family, exe2d_augmented, exe2d_support,
                    exe3d_augmented, exe3d_support, interior_point_below,
                    quintic_family, random_convenient_support)
from oracles import determinant


def _pass(k, budget, t0, msg):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {k} overran: {elapsed:.1f}s"
    print(f"criterion {k:2d}: PASS ({elapsed:5.1f}s) {msg}", flush=True)


def test_criterion_01_brieskorn_grid():
    t0 = time.monotonic()
    for a, b in itertools.product(range(2, 7), repeat=2):
        assert newton_number_set(brieskorn((a, b))) == (a - 1) * (b - 1)
    for abc in itertools.product(range(2, 5), repeat=3):
        s = brieskorn(abc)
        want = (abc[0] - 1) * (abc[1] - 1) * (abc[2] - 1)
        assert newton_number_set(s) == want
        f = spoly(3, [(p, 1) for p in s.points])
        assert milnor_number(f) == want
    _pass(1, 60, t0, "25 planar + 27 spatial Brieskorn cases, mu agrees")


def test_criterion_02_2d_sweep():
    t0 = time.monotonic()
    for a in (F(1, 4), F(1, 2), F(3, 4)):
        s, sp = exe2d_support(a), exe2d_augmented(a)
        assert newton_number_set(s) == a
        assert newton_number_set(sp) == F(1, 2)
        res = mu_constant_test(s, sp)
        assert res.verdict == (a == F(1, 2))
        assert res.verdict == (res.nu_s == res.nu_s_prime)
    _pass(2, 5, t0, "nu(S) = a, nu(S(alpha)) = 1/2, equality iff a = 1/2")


def test_criterion_03_3d_sweep():
    t0 = time.monotonic()
    for a in (F(1, 4), F(1, 2), F(3, 4)):
        s, sp = exe3d_support(a), exe3d_augmented(a)
        assert newton_number_set(s) == newton_number_set(sp)
        res = mu_constant_test(s, sp)
        assert res.verdict
        assert any(beta == (0, 0, 1) for _, beta in
                   res.certificates[0].good_pairs)
    _pass(3, 5, t0, "nu equal for all a, good apex beta = (0,0,1)")


def test_criterion_04_briancon_speder():
    t0 = time.monotonic()
    for lam in (1, 2):
        fam = bs_scaled_family(lam)
        s = fam.base_support()
        sp = fam.generic_support()
        assert added_vertices(s, sp) == ((lam, 6 * lam, 0),)
        res = mu_constant_test(s, sp)
        assert res.verdict and res.nu_s == res.nu_s_prime
        cert = res.certificates[0]
        assert cert.good and cert.i == 3 and cert.beta == (0, 7 * lam, 1)
        assert nondegeneracy_check(fam.base()).verdict == "nondegenerate"
        if lam == 1:
            assert res.nu_s == 364
    _pass(4, 30, t0, "Verd {(1,6,0)}, apex (0,7,1) at i = 3, nu 364; "
                     "stretched families pass too")


def test_criterion_05_equivalence_suite():
    t0 = time.monotonic()
    rng = random.Random(50915)
    done = 0
    while done < 200:
        n = 2 if done % 2 == 0 else 3
        s = random_convenient_support(rng, n, max_intercept=5, extra=2)
        sp = boundary_plane_augmentation(rng, s)
        if sp is None:
            continue
        res = mu_constant_test(s, sp)
        assert res.verdict == (res.nu_s == res.nu_s_prime), (
            s.points, sp.points)
        done += 1
    _pass(5, 600, t0, f"{done} randomized augmentations, verdict matched "
                      "nu equality every time")


def test_criterion_06_monotonicity_suite():
    t0 = time.monotonic()
    rng = random.Random(60916)
    done = interior = 0
    while done < 100:
        n = 2 if done % 2 == 0 else 3
        s = random_convenient_support(rng, n, max_intercept=5, extra=2)
        if done % 2 == 0:
            sp = boundary_plane_augmentation(rng, s)
            if sp is None:
                continue
        else:
            alpha = interior_point_below(rng, s)
            if alpha is None:
                continue
            sp = s.augment([alpha])
        nu_s, nu_sp = newton_number_set(s), newton_number_set(sp)
        assert nu_s >= 0 and nu_sp >= 0
        assert newton_number_region(difference_region(s, sp)) == nu_s - nu_sp
        if done % 2 == 1:
            # strictly interior new point: the number must strictly drop
            assert nu_sp < nu_s
            interior += 1
            lam = rng.choice([F(1, 2), 2, 3])
            k = rng.randint(1, n)
            axes = tuple(sorted(rng.sample(range(1, n + 1), k)))
            hs = partial_homothety(s, axes, lam)
            hsp = partial_homothety(sp, axes, lam)
            assert (newton_number_set(hsp) - newton_number_set(hs)
                    == lam ** k * (nu_sp - nu_s))
        done += 1
    _pass(6, 600, t0, f"{done} nested pairs ({interior} interior with "
                      "homothety identity), difference formula exact")


def test_criterion_07_resolution_pipeline():
    t0 = time.monotonic()
    fam = bs_family()
    res = simultaneous_resolution(fam)
    s_gen = fam.generic_support()
    assert is_admissible(res.fan, s_gen) is True
    for chart, transform in zip(res.charts, res.transforms):
        assert is_regular_cone(chart.cone)
        assert abs(determinant(chart.generators)) == 1
        for pos, q in enumerate(chart.generators):
            assert transform.monomial_exponents[pos] == support_function(
                s_gen, q)
    statuses = dict(res.report.status_counts)
    assert "unchecked" not in statuses
    verd_certs = [c for c in res.certificates if c.status == "smooth-verified"]
    assert len(verd_certs) == 1
    w = dict(verd_certs[0].witness)
    assert w["constant_at_zero"] == 0 and w["linear_at_zero"] != 0
    _pass(7, 300, t0, f"{len(res.charts)} unimodular charts, admissible fan, "
                      "m vectors exact, normal form at the new vertex")


def test_criterion_08_degenerate_regression():
    t0 = time.monotonic()
    res = b1d_detector(quintic_family(), (1, 2))
    assert res.found and res.beta == (2, 2, 1)

    bad = family(2, 1, [((3, 0), 1), ((0, 3), 1), ((1, 1), [((1,), 1)])])
    rep = valuative_falsifier(bad, [monomial_arc((1, 1), (1,))])
    assert rep.falsified

    rep = valuative_falsifier(bs_family(), arc_grid(3, 1, (1, 2, 3)))
    assert len(rep.arcs) == 27 and not rep.falsified
    assert all(v.verdict != "violation" for v in rep.arcs)
    _pass(8, 120, t0, "beta = (2,2,1); x^3+y^3+sxy falsified; no violation "
                      "on the 27-arc grid")


def test_criterion_09_kouchnirenko_inequality():
    t0 = time.monotonic()
    corpus = [
        spoly(2, [((2, 0), 1), ((0, 3), 1)]),
        spoly(2, [((3, 0), 1), ((0, 3), 1)]),
        spoly(2, [((2, 0), 1), ((1, 1), 2), ((0, 2), 1), ((5, 0), 1),
                  ((0, 5), 1)]),
        spoly(2, [((2, 0), 1), ((1, 1), 2), ((0, 2), 1)]),   # mu infinite
        spoly(3, [((5, 0, 0), 1), ((0, 7, 1), 1), ((0, 0, 15), 1),
                  ((0, 8, 0), 1)]),
        spoly(3, [((5, 0, 0), 1), ((0, 6, 0), 1), ((0, 0, 5), 1),
                  ((0, 3, 2), 1)]),
    ]
    for a, b in [(2, 2), (3, 5), (6, 6)]:
        corpus.append(spoly(2, [((a, 0), 1), ((0, b), 1)]))
    rng = random.Random(90919)
    while len(corpus) < 25:
        n = rng.choice([2, 2, 3])
        pts = set(brieskorn([rng.randint(2, 4) for _ in range(n)]).points)
        for _ in range(rng.randint(0, 2)):
            q = tuple(rng.randint(0, 3) for _ in range(n))
            if any(q) and sum(q) >= 2:
                pts.add(tuple(map(F, q)))
        corpus.append(spoly(n, sorted(
            (tuple(int(c) for c in p), rng.choice([1, 1, 2, -1]))
            for p in pts)))
    completable = skipped = 0
    for f in corpus:
        c = kouchnirenko_crosscheck(f)
        if c.mu is None:
            skipped += 1
            continue
        completable += 1
        assert c.mu >= c.nu, f
        if c.nondegeneracy == "nondegenerate":
            assert c.mu == c.nu, f
    assert completable >= 20
    _pass(9, 600, t0, f"mu >= nu on {completable} completable cases "
                      f"({skipped} skipped as non-isolated), equality under "
                      "nondegeneracy")


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    docs = {
        "base.json": {
            "schema_version": 1, "variables": ["x", "y", "z"],
            "parameters": [],
            "support": [["5", "0", "0"], ["0", "7", "1"], ["0", "0", "15"],
                        ["0", "8", "0"]]},
        "fam.json": {
            "schema_version": 1, "variables": ["x", "y", "z"],
            "parameters": ["s"],
            "terms": [
                {"exponent": [5, 0, 0],
                 "coefficient": [{"s_exponent": [0], "value": "1"}]},
                {"exponent": [0, 7, 1],
                 "coefficient": [{"s_exponent": [0], "value": "1"}]},
                {"exponent": [0, 0, 15],
                 "coefficient": [{"s_exponent": [0], "value": "1"}]},
                {"exponent": [0, 8, 0],
                 "coefficient": [{"s_exponent": [0], "value": "1"}]},
                {"exponent": [1, 6, 0],
                 "coefficient": [{"s_exponent": [1], "value": "1"}]}]},
        "poly.json": {
            "schema_version": 1, "variables": ["x", "y", "z"],
            "parameters": [],
            "terms": [
                {"exponent": [5, 0, 0],
                 "coefficient": [{"s_exponent": [], "value": "1"}]},
                {"exponent": [0, 7, 1],
                 "coefficient": [{"s_exponent": [], "value": "1"}]},
                {"exponent": [0, 0, 15],
                 "coefficient": [{"s_exponent": [], "value": "1"}]},
                {"exponent": [0, 8, 0],
                 "coefficient": [{"s_exponent": [], "value": "1"}]}]},
        "arcs.json": [{"x_orders": [1, 1, 1], "s_orders": [1]}],
    }
    paths = {}
    for name, obj in docs.items():
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    commands = [
        ["nu", paths["base.json"]],
        ["nu", paths["base.json"], "--emit-polytope"],
        ["mu-test", paths["base.json"], paths["fam.json"]],
        ["resolve", paths["fam.json"]],
        ["fan", paths["base.json"]],
        ["regularize", paths["base.json"]],
        ["milnor", paths["poly.json"]],
        ["nondeg", paths["poly.json"]],
        ["valuative", paths["fam.json"], "--arcs", paths["arcs.json"]],
        ["b1d", paths["fam.json"], "--axes", "1,2"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, argv
            outs.append(captured.out.encode())
        assert outs[0] == outs[1], argv
    _pass(10, 600, t0, f"{len(commands)} report commands byte-identical "
                       "across repeated runs")
