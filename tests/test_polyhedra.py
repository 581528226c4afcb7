import random
from collections import Counter
from fractions import Fraction as F

import pytest

from newtonmu import polyhedra
from newtonmu.apex import mu_constant_test
from newtonmu.geometry import DIMENSION_CAP, DimensionCapExceeded, _scaled
from newtonmu.fans import support_function
from newtonmu.newton_number import d_set_and_i_set, difference_region
from newtonmu.polyhedra import (SupportError, added_vertices, check_nested,
                                convenience_report, newton_polyhedron,
                                support_set)
from corpus import (bs_base_support, bs_deformed_support, exe2d_support,
                    exe2d_augmented)
from oracles import (lower_region, restrict,
                     support_set as fraction_support_set)
from test_conversion import typed


def test_support_set_validation():
    with pytest.raises(SupportError):
        support_set(2, [])
    with pytest.raises(SupportError):
        support_set(2, [(0, 0)])
    with pytest.raises(SupportError):
        support_set(2, [(-1, 2)])
    s = support_set(2, [(2, 0), (0, 2), (2, 0)])
    assert s.points == ((0, 2), (2, 0))


def test_support_dimension_cap():
    """support_set, the one entry point for supports, refuses dimensions
    above DIMENSION_CAP and accepts the cap itself."""
    units = [tuple(2 * int(j == i) for j in range(9)) for i in range(9)]
    assert DIMENSION_CAP == 8
    with pytest.raises(DimensionCapExceeded,
                       match="^dimension 9 exceeds cap 8$"):
        support_set(9, units)
    assert support_set(8, [u[:8] for u in units[:8]]).dim == 8


def test_support_set_operations():
    s = bs_deformed_support()
    assert "missing_axes" not in s.__dict__
    assert s.missing_axes == ()    # found once, then read off the support
    assert "missing_axes" in s.__dict__
    assert support_set(3, [(0, 1, 1), (2, 0, 0)]).missing_axes == (2, 3)
    r = restrict(s, (1, 2))  # 0-based internal axes: keep y and z
    assert r.dim == 2 and (7, 1) in r.points
    aug = s.augment([(9, 9, 9)])
    assert (9, 9, 9) in aug.points and len(aug.points) == 6


def test_brieskorn_polyhedron():
    s = support_set(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    np_ = newton_polyhedron(s)
    assert np_.vertices == ((0, 0, 5), (0, 3, 0), (2, 0, 0))
    faces = np_.compact_faces()
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 0, 0, 1, 1, 1, 2]
    assert np_.contains((1, 1, 1)) and not np_.contains((0, 0, 4))
    assert support_function(s, (1, 1, 1)) == 2


def test_bs_base_compact_faces():
    np_ = newton_polyhedron(bs_base_support())
    faces = np_.compact_faces()
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 4, 1: 5, 2: 2}
    assert len(faces) == 11


def test_convenience_report():
    conv = convenience_report(exe2d_support(F(3, 4)))
    assert conv.axis_convenient and not conv.convenient
    assert conv.vertex_condition == {1: False, 2: True}
    # the a=1/2 support still has the vertex (3/4, 1): pre-convenient only
    conv = convenience_report(exe2d_support(F(1, 2)))
    assert conv.axis_convenient and not conv.convenient
    conv = convenience_report(bs_deformed_support())
    assert conv.convenient
    conv = convenience_report(support_set(2, [(2, 0), (1, 1)]))
    assert not conv.axis_convenient and conv.missing_axes == (2,)
    # augmenting with (3/2, 0) swallows the fractional vertex: the sweep
    # point lies on the line 2x/3 + y/2 = 1 for every a
    conv = convenience_report(exe2d_augmented(F(3, 4)))
    assert conv.convenient
    conv = convenience_report(support_set(2, [(2, 0), (0, 2), (F(1, 2), 1)]))
    assert conv.vertex_condition == {1: False, 2: True}


def test_nested_and_added_vertices():
    s, sp = bs_base_support(), bs_deformed_support()
    check_nested(s, sp)
    assert added_vertices(s, sp) == ((1, 6, 0),)
    assert added_vertices(s, s) == ()
    for check in (check_nested, added_vertices, mu_constant_test):
        with pytest.raises(SupportError, match="not nested"):
            check(sp, s)
    # (3,4,1) already lies inside the polyhedron: nothing added
    assert added_vertices(s, s.augment([(3, 4, 1)])) == ()
    # (1,5,2) sits on a compact facet but is no vertex
    assert added_vertices(s, s.augment([(1, 5, 2)])) == ()
    # (1,1,1) is strictly below the boundary
    assert added_vertices(s, s.augment([(1, 1, 1)])) == ((1, 1, 1),)


def test_nested_rejects_mismatched_dimensions():
    """zip would compare only the common coordinates and call these nested."""
    plane = support_set(2, [(1, 0), (0, 1)])
    space = support_set(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for a, b in ((plane, space), (space, plane)):
        for check in (check_nested, added_vertices, difference_region,
                      d_set_and_i_set, mu_constant_test):
            with pytest.raises(SupportError, match="dimension"):
                check(a, b)


def test_lower_region():
    region = lower_region(support_set(2, [(2, 0), (0, 2)]))
    assert region.ambient_dim == 2
    assert len(region.simplices) >= 1
    verts = {v for simplex in region.simplices for v in simplex}
    assert (0, 0) in verts and (2, 0) in verts and (0, 2) in verts
    with pytest.raises(SupportError):
        lower_region(support_set(2, [(2, 0)]))


def test_integer_points_skip_the_scaling_with_the_same_result(monkeypatch):
    """support_set takes points whose coordinates are all of type int as
    their own integer scaling, and every other input through frac and
    _scaled.  On 200 seeds, n = 1..5, the same duplicated, unsorted points
    given as ints (in lists and tuples), Fractions, strings and a mix give
    typed-equal supports, equal _scaled_points and Fraction coordinates
    only.  An empty, origin, negative, wrong-length or over-cap input
    raises the same exception with the same text on both paths, and bool
    coordinates go through frac."""
    scaled = []

    def counted(points):
        scaled.append(points)
        return _scaled(points)

    monkeypatch.setattr(polyhedra, "_scaled", counted)

    def outcome(dim, points):
        scaled.clear()
        try:
            s = support_set(dim, points)
        except (SupportError, DimensionCapExceeded) as e:
            return bool(scaled), (type(e), str(e))
        assert {type(x) for p in s.points for x in p} == {F}
        return bool(scaled), (typed(s), typed(s._scaled_points))

    errors = Counter()
    for k in range(200):
        rng = random.Random(k)
        n = 1 + k % 5
        pts = [tuple(rng.randint(0, 6) for _ in range(n))
               for _ in range(rng.randint(1, 6))]
        pts += rng.sample(pts, rng.randint(0, len(pts)))
        rng.shuffle(pts)
        dim = n
        flaw = rng.randrange(6) if k % 2 else None
        if flaw == 0:
            pts = []
        elif flaw == 1:
            pts.insert(rng.randrange(len(pts) + 1), (0,) * n)
        elif flaw == 2:
            p = list(rng.choice(pts))
            p[rng.randrange(n)] = -rng.randint(1, 3)
            pts.append(tuple(p))
        elif flaw == 3:
            pts.append(rng.choice(pts) + (1,))
        elif flaw == 4:
            dim = DIMENSION_CAP + 1
        as_int = [list(p) if rng.random() < 0.5 else p for p in pts]
        as_fraction = [tuple(map(F, p)) for p in pts]
        as_str = [tuple(map(str, p)) for p in pts]
        mixed = [tuple(rng.choice((int, F, str))(x) for x in p) for p in pts]
        path, expected = outcome(dim, as_int)
        assert not path, k
        for points in (as_fraction, as_str):
            assert outcome(dim, points) == (bool(pts), expected), k
        assert outcome(dim, mixed)[1] == expected, k
        if isinstance(expected[0], type):
            errors[next(word for word in ("empty", "origin", "negative",
                                          "cap", "does not have")
                        if word in expected[1])] += 1
    assert len(errors) == 5 and min(errors.values()) > 10, errors
    flags = [(True, False), (0, 2)]
    assert outcome(2, flags) == (True, outcome(2, [(1, 0), (0, 2)])[1])


def support_input(rng, k):
    """A support_set input of one of six kinds in turn: integer points,
    rational ones (Fractions, strings and ints mixed), integer points
    with dominated ones above them, repeated points, bool coordinates
    among ints, and invalid points (a negative coordinate, the origin, a
    point of the wrong dimension, an empty list or a dimension past the
    cap), each in a random order."""
    kind = k % 6
    n = rng.randint(1, 4)

    def point():
        return [rng.randint(0, 5) for _ in range(n)]

    pts = [p for p in (point() for _ in range(rng.randint(1, 6))) if any(p)]
    pts = pts or [[1] * n]
    if kind == 1:
        pts = [[rng.choice((x, F(x, rng.choice((2, 3))), f"{x}/4"))
                for x in p] for p in pts]
    elif kind == 2:
        pts += [[x + rng.randint(0, 2) for x in p] for p in pts]
    elif kind == 3:
        pts += rng.sample(pts, len(pts))
    elif kind == 4:
        pts = [[bool(x) if rng.random() < 0.5 else x for x in p]
               for p in pts]
    elif kind == 5:
        bad = rng.choice(("negative", "origin", "dimension", "empty", "cap"))
        if bad == "negative":
            pts.append([-1] + point()[1:])
        elif bad == "origin":
            pts.append([0] * n)
        elif bad == "dimension":
            pts.append(point() + [1])
        elif bad == "empty":
            pts = []
        else:
            n = DIMENSION_CAP + 1
    rng.shuffle(pts)
    return n, [tuple(p) for p in pts]


def tangled_input(rng, k):
    """A support_set input where the check of the whole set and the loop
    that names the first bad point could disagree, of five kinds in
    turn: a short point with a negative one, a long point with the
    origin, bool coordinates among ints, ints and Fractions mixed in one
    point set, and an empty tuple point.  The bool and mixed kinds get
    one flaw of the others half the time.  Valid points go in too, and
    the order is random."""
    kind = k % 5
    n = rng.randint(1, 4)

    def point():
        return tuple(rng.randint(0, 5) for _ in range(n))

    def negative():
        p = list(point())
        p[rng.randrange(n)] = -rng.choice((1, 2, F(1, 2)))
        return tuple(p)

    flaws = (negative, lambda: point()[:rng.randrange(n)],
             lambda: point() + (rng.randint(0, 2),), lambda: (0,) * n)
    pts = [p for p in (point() for _ in range(rng.randint(1, 4))) if any(p)]
    if kind == 0:
        pts += [negative(), point()[:rng.randrange(n)]]
    elif kind == 1:
        pts += [(0,) * rng.randint(0, 1) + point() + (rng.randint(0, 2),),
                (0,) * n]
    elif kind in (2, 3):
        pts = [tuple((bool(x) if kind == 2 else F(x, rng.choice((1, 2))))
                     if rng.random() < 0.5 else x for x in p) for p in pts]
        if rng.random() < 0.5:
            pts.append(rng.choice(flaws)())
    else:
        pts.append(())
    rng.shuffle(pts)
    return n, pts


def test_support_set_matches_the_former_fraction_record():
    """On 600 seeded inputs (support_input) and 400 tangled ones
    (tangled_input), support_set, which stores the integer form, checks
    the whole set at once and builds its Fraction points when read, gives
    the points, _scaled_points and missing_axes of the former support_set
    (oracles.support_set), typed, or the same error type and text.  Over
    every pair of the valid inputs, two new supports are equal, and hash
    equal, exactly when the former ones are, and each hashes as its
    former record."""
    made, errors = [], Counter()
    for k in range(600):
        n, pts = support_input(random.Random(k), k)
        try:
            old = fraction_support_set(n, pts)
        except (SupportError, DimensionCapExceeded) as exc:
            with pytest.raises(type(exc)) as new_error:
                support_set(n, pts)
            assert str(new_error.value) == str(exc), k
            errors[str(exc).split()[-1]] += 1
            continue
        new = support_set(n, pts)
        assert typed(new.points) == typed(old.points), k
        assert new._scaled_points == old._scaled_points, k
        assert new.missing_axes == old.missing_axes, k
        # the same points in the reverse order make an equal support
        made += [(new, old), (support_set(n, pts[::-1]),
                              fraction_support_set(n, pts[::-1]))]
    tangled = Counter()
    for k in range(400):
        n, pts = tangled_input(random.Random(k), k)
        try:
            old = fraction_support_set(n, pts)
        except (SupportError, DimensionCapExceeded) as exc:
            with pytest.raises(type(exc)) as new_error:
                support_set(n, pts)
            assert str(new_error.value) == str(exc), k
            tangled[next(word for word in ("origin", "negative", "dimension")
                         if word in str(exc))] += 1
            continue
        new = support_set(n, pts)
        assert typed(new.points) == typed(old.points), k
        assert new._scaled_points == old._scaled_points, k
        assert new.missing_axes == old.missing_axes, k
        tangled["valid"] += 1
    assert len(tangled) == 4 and min(tangled.values()) > 20, tangled
    for new, old in made:
        assert hash(new) == hash(old) and new == old
    equal = 0
    for a, old_a in made[:200]:
        for b, old_b in made[:200]:
            assert (a == b) == (old_a == old_b)
            assert a != b or hash(a) == hash(b)
            equal += a == b and a is not b
    assert len(made) > 900 and equal > 200 and len(errors) >= 4, errors
