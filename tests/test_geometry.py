import random
from fractions import Fraction as F

import pytest

from newtonmu.geometry import (GeometryError, _bounded_piece, _extreme_rays,
                               _hull_rows, _idot, _int_det, _pulling,
                               primitive_vector)
from newtonmu.newton_number import union_volume_vector
from oracles import (determinant, leibniz_det, nullspace, simplex_volume,
                     solve_unique)


def test_primitive_vector():
    assert primitive_vector((4, 6)) == (2, 3)
    assert primitive_vector((0, -2, 4)) == (0, -1, 2)
    assert primitive_vector((F(1, 2), F(3, 4))) == (2, 3)
    with pytest.raises(GeometryError):
        primitive_vector((0, 0))


def test_determinant_and_solve():
    assert determinant([(1, 2), (3, 4)]) == -2
    assert determinant([(0, 0, 1), (2, 1, 1), (3, 2, 1)]) == 1
    assert solve_unique([(2, 0), (0, 3)], (4, 9)) == (2, 3)
    ns = nullspace([(1, 1, 1)])
    assert len(ns) == 2 and all(_idot((1, 1, 1), v) == 0 for v in ns)


def _contains(rows, point):
    """Whether a point satisfies hull rows (equalities, facets)."""
    eqs, facets = rows
    x = tuple(point) + (1,)
    return (all(_idot(r, x) == 0 for r in eqs)
            and all(_idot(r, x) >= 0 for r in facets))


def test_hull_square():
    sq = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    rows = _hull_rows(sq)
    assert rows[0] == [] and len(rows[1]) == 4   # full-dimensional
    verts, masks, _ = _bounded_piece(*rows, 2)
    assert verts == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert _contains(rows, (1, 1)) and not _contains(rows, (3, 0))
    assert union_volume_vector([sq], 2).V == (1, 4, 4)
    assert len(_pulling(0b1111, 0b1111, masks, {})) == 2


def test_hull_lower_dimensional():
    seg = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    eqs, facets = _hull_rows(seg)
    assert len(eqs) == 2                           # a line in R^3
    assert _bounded_piece(eqs, facets, 3)[0] == ((0, 0, 0), (2, 2, 2))
    axis_seg = [(0, 0, 0), (3, 0, 0), (1, 0, 0)]
    assert union_volume_vector([axis_seg], 3).V == (1, 3, 0, 0)


def test_simplex_volume_subspace():
    # 2-volume of a triangle living in the xy-plane of 3-space
    tri = ((0, 0, 0), (2, 0, 0), (0, 2, 0))
    assert simplex_volume(tri, (0, 1)) == 2
    assert simplex_volume(((0, 0), (1, 0), (0, 1))) == F(1, 2)


def test_constraints_roundtrip():
    sq = [(0, 0), (2, 0), (0, 2), (2, 2)]
    verts, facets, flat = _bounded_piece(*_hull_rows(sq), 2)
    assert verts == tuple(sorted(sq)) and len(facets) == 4 and not flat
    assert _bounded_piece([], [(1, 0, -1), (-1, 0, 0)], 2) is None


def test_intersection():
    a = [(0, 0), (2, 0), (0, 2), (2, 2)]
    b = [(1, 1), (3, 1), (1, 3), (3, 3)]
    assert union_volume_vector([a, b], 2).V[2] == 7
    far = [(5, 5), (6, 5), (5, 6)]
    assert union_volume_vector([a, far], 2).V[2] == 4 + F(1, 2)
    assert union_volume_vector([a, b, far], 2).V[2] == 7 + F(1, 2)


def _points(rng, count, n):
    return [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(count)]


def test_hull_idempotent():
    """The hull of the vertices that _bounded_piece reads off a hull's
    rows has the same rows, and every point satisfies them."""
    for k in range(100):
        rng = random.Random(k)
        pts = _points(rng, rng.randint(1, 8), 2)
        rows = _hull_rows(pts)
        verts = _bounded_piece(*rows, 2)[0]
        assert _hull_rows(verts) == rows, k
        assert all(_contains(rows, p) for p in pts), k


def test_simplex_volume_permutation_invariant():
    for k in range(100):
        pts = _points(random.Random(k), 4, 3)
        base = simplex_volume(tuple(pts))
        rotated = simplex_volume(tuple(pts[1:] + pts[:1]))
        assert base == rotated, k
        mirrored = simplex_volume(tuple(tuple(reversed(p)) for p in pts))
        assert base == mirrored, k


def _integer_matrices(rng, count):
    """Integer matrices of widths 1-9 with zero, repeated and dependent
    rows mixed in, and some with no rows at all."""
    for _ in range(count):
        width = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, width + 2)):
            kind = rng.random()
            if kind < 0.1:
                rows.append((0,) * width)
            elif kind < 0.25 and rows:
                rows.append(rng.choice(rows))
            elif kind < 0.45 and len(rows) >= 2:
                a, b = rng.sample(rows, 2)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
            else:
                rows.append(tuple(rng.choice((0, 0, 0, 1, -1, 2, -3, 5))
                                  for _ in range(width)))
        yield rows, width


def test_lineality_is_the_reduced_form_null_space():
    """With equalities only, the lineality basis of _extreme_rays is the
    reduced row echelon basis of the null space, scaled to primitive
    integers, vector for vector and in order."""
    cases = list(_integer_matrices(random.Random(20200128), 3000))
    cases += [([], w) for w in range(1, 10)]
    cases += [([(0,) * w], w) for w in range(1, 10)]
    cases += [([(1, 2, 3), (1, 2, 3), (2, 4, 6)], 3),
              ([(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)], 4),
              ([(0, 2, -4)], 3)]
    for rows, width in cases:
        rays, lineality, _ = _extreme_rays(rows, (), width)
        assert rays == []
        assert lineality == [primitive_vector(v)
                             for v in nullspace(rows, width)], (rows, width)


def test_determinant_matches_leibniz():
    rng = random.Random(1968)
    for _ in range(400):
        k = rng.randint(1, 4)
        m = [[F(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 4, 6, 9)))
              for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.2:
            m[-1] = list(m[0])  # singular
        assert determinant(m) == leibniz_det(m)
    assert determinant([(F(1, 2), 3), (F(2, 3), F(-5, 4))]) == F(-5, 8) - 2
    assert determinant([]) == 1
    with pytest.raises(GeometryError):
        determinant([(1, 2, 3), (4, 5, 6)])


def test_int_det_matches_leibniz():
    """_int_det, orders 2 to 4 written out and Bareiss elimination above,
    is the Leibniz sum on 600 seeded integer matrices of orders 0..5 with
    entries -9..9, one in five with a zero row and one in five singular
    by a row that is plus or minus another; order 0 gives 1."""
    for k in range(600):
        rng = random.Random(k)
        order = k % 6
        m = [[rng.randint(-9, 9) for _ in range(order)] for _ in range(order)]
        if order and k % 5 == 1:
            m[rng.randrange(order)] = [0] * order
        elif order > 1 and k % 5 == 2:
            i, j = rng.sample(range(order), 2)
            m[i] = [rng.choice((1, -1)) * x for x in m[j]]
        det = _int_det([tuple(r) for r in m] if rng.random() < 0.5 else m)
        assert type(det) is int and det == leibniz_det(m), k
    assert _int_det([]) == leibniz_det([]) == 1
