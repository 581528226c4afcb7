"""The integer cone kernel of newtonmu.fans against the cross-section and
bounding-box oracles.

Each property compares a whole result with the type of every number in it,
for cones in dimension 2..4: simplicial, lower-dimensional and
non-simplicial ones, proper and improper fans, covering and non-covering
subdivisions.  Each draws its examples from random.Random(k) for the
first CASES seeds k, fewer where it says so, the same in every run and
every order of the suite.  The subdivision steps are compared with their former
code on the cones of random Newton fans, and Fan's facet certificate and
its pairwise fallback with the section oracle on regularized fans, Newton
fans and their broken variants.  The last tests run the fan
pipeline with the polytope routines disabled, so they show the cone
kernel builds no polytope, and the subdivision steps with the double
description disabled, so they show those steps read cached
H-descriptions and minor charts only.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from newtonmu import fans, geometry, newton_number
from newtonmu.fans import (Fan, LatticeCone, _simplices, box_points,
                           intersect_cones, is_admissible, is_regular_cone,
                           is_subdivision, newton_fan, orthant_fan,
                           regularize_fan, simplicialize, stellar_subdivide)
from newtonmu.geometry import (GeometryError, InternalConsistencyError,
                               _idot, primitive_vector)
from newtonmu.newton_number import union_volume_vector
from newtonmu.polyhedra import support_set
from corpus import (bs_base_support, bs_deformed_support,
                    random_convenient_support, supports)
from oracles import (box_points_scan, cone_contains, cone_dim,
                     cone_faces_section, cone_from_rays,
                     cone_from_rays_section, fan_compatible_section,
                     intersect_cones_section,
                     is_face_of_section, is_regular_cone_two_branch,
                     is_subdivision_chart, mat_rank, simplicialize_recursive,
                     stellar_raw_contains, union_volume_vector_hulls)
from test_conversion import typed
from test_pruned_polyhedra import assert_deleted

CASES = 80


def generators(rng, n, size, entry=4):
    """size nonzero vectors of Z^n with entries in 0..entry."""
    out = []
    while len(out) < size:
        v = tuple(rng.randint(0, entry) for _ in range(n))
        if any(v):
            out.append(v)
    return out


def independent(rng, n, k, entry):
    """k linearly independent generators."""
    while True:
        gens = generators(rng, n, k, entry)
        if mat_rank(gens) == k:
            return gens


def cones(rng, n=None):
    """Cones from 1 to n + 2 generators: simplicial, lower-dimensional
    and non-simplicial ones."""
    n = n or rng.randint(2, 4)
    return cone_from_rays(n, generators(rng, n, rng.randint(1, n + 2)))


def simplicial_cones(rng, full=False):
    """Cones on k <= n independent generators, k = n when full.  Entries
    stay below 3 for n = 4, where the bounding box the scan oracle solves
    on would have up to 13^4 points."""
    n = rng.randint(2, 4)
    k = n if full else rng.randint(1, n)
    return cone_from_rays(n, independent(rng, n, k, 3 if n < 4 else 2))


def _points(cone):
    """Rays, sums of rays and nearby lattice points of a cone."""
    pts = list(cone.rays)
    pts += [tuple(map(sum, zip(a, b)))
            for a, b in itertools.combinations(cone.rays, 2)]
    n = cone.ambient_dim
    for r in cone.rays[:2]:
        for i in range(n):
            for step in (-1, 1):
                pts.append(r[:i] + (r[i] + step,) + r[i + 1:])
    return pts + [(0,) * n]


def test_cone_queries_match_section():
    for k in range(CASES):
        c = cones(random.Random(k))
        assert typed((c.dim, c.is_simplicial)) == typed(
            (cone_dim(c), len(c.rays) == cone_dim(c))), k
        for p in _points(c):
            assert c.contains(p) is cone_contains(c, p), (k, p)
        faces = cone_faces_section(c)
        assert typed(c.faces()) == typed(faces), k
        assert typed(c.facets()) == typed(tuple(
            f for f in faces if cone_dim(f) == cone_dim(c) - 1)), k
        for f in c.faces():
            assert f.is_face_of(c) and is_face_of_section(f, c), k
        for j in range(len(c.rays) + 1):
            for rays in itertools.combinations(c.rays, j):
                sub = LatticeCone(c.ambient_dim, rays)
                assert sub.is_face_of(c) is is_face_of_section(sub, c), k
        zero = LatticeCone(c.ambient_dim, ())
        assert c.is_face_of(zero) is is_face_of_section(c, zero), k
        assert c._facet_masks == [
            sum(1 << i for i, r in enumerate(c.rays) if not _idot(a, r))
            for a in c._h_description[1]], k


def generator_sets(rng, n, d):
    """Nonnegative integer combinations of d independent vectors of Z^n,
    so the cone is lower-dimensional when d < n: half the time d + 1 or
    d + 2 points of the moment curve (1, t, t^2, ...) in that basis, all
    extreme, so the cone is non-simplicial for d >= 3; else up to d + 3
    combinations with small coefficients, with zero vectors, repeated
    directions and redundant generators among them."""
    basis = independent(rng, n, d, 3)
    if rng.random() < 0.5:
        coeffs = [tuple(t ** i for i in range(d))
                  for t in range(d + rng.randint(1, 2))]
    else:
        coeffs = [tuple(rng.randint(0, 2) for _ in range(d))
                  for _ in range(rng.randint(1, d + 3))]
    return [tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n))
            for cs in coeffs]


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2),
                                  (4, 3), (4, 4)])
def test_cone_from_rays_matches_section(n, d):
    for k in range(20):
        gens = generator_sets(random.Random(k), n, d)
        assert typed(cone_from_rays(n, gens)) == typed(
            cone_from_rays_section(n, gens)), k


def test_intersect_cones_matches_section():
    for k in range(CASES):
        rng = random.Random(k)
        n = rng.randint(2, 4)
        a, b = cones(rng, n), cones(rng, n)
        meet = intersect_cones(a, b)
        assert typed(meet) == typed(intersect_cones_section(a, b)), k
        for x, y in ((meet, a), (meet, b), (a, b), (b, a)):
            assert x.is_face_of(y) is is_face_of_section(x, y), k
        for f in a.faces():
            assert f.is_face_of(b) is is_face_of_section(f, b), k


def test_intersect_cones_rejects_a_line():
    # not a pointed cone: rays pointing both ways along the first axis
    line = LatticeCone(2, ((-1, 0), (1, 0)))
    with pytest.raises(InternalConsistencyError,
                       match="meet in a cone with a line"):
        intersect_cones(line, line)


def test_box_points_match_scan():
    for k in range(CASES):
        c = simplicial_cones(random.Random(k))
        assert typed(box_points(c)) == typed(box_points_scan(c)), k


def test_fan_check_matches_section():
    """Random cones overlap improperly more often than not."""
    for k in range(CASES):
        rng = random.Random(k)
        n = rng.randint(2, 4)
        cs = [cones(rng, n) for _ in range(rng.randint(2, 3))]
        try:
            Fan(n, tuple(cs))
            built = True
        except GeometryError:
            built = False
        assert built is fan_compatible_section(tuple(set(cs))), k


def _cone(n, rays):
    return LatticeCone(n, tuple(sorted(rays)))


def cornered_support(rng, n):
    """Axis points 3..6 and two to four points of [0, 2]^n, many of them
    vertices: the Newton fan often has non-simplicial cones and, for
    n = 4, non-simplicial facets."""
    pts = [tuple(rng.randint(3, 6) if j == i else 0 for j in range(n))
           for i in range(n)]
    pts += [tuple(rng.randint(0, 2) for _ in range(n))
            for _ in range(rng.randint(2, 4))]
    return support_set(n, [p for p in pts if any(p)])


def fan_variants(rng, n):
    """A complete regularized fan of the orthant (the facet certificate
    decides it), the same with cones removed (a union that is not convex
    in general, decided by the pairwise check), and broken variants: an
    overlapping cone added, a cone folded across a ridge it shares, one
    cone subdivided at a point of that ridge without its neighbour, and
    the orthant cone over the whole fan, covering each point twice.
    Then a Newton fan, often with non-simplicial cones (the certificate
    decides it), the same with one non-simplicial cone replaced by its
    pulling pieces (not a fan when a neighbour keeps a shared
    non-simplicial facet whole), and the same with an overlapping cone
    added."""
    s = random_convenient_support(rng, n, max_intercept=3, extra=1)
    full = regularize_fan(simplicialize(newton_fan(s))).maximal
    out = {"complete": full}
    if len(full) > 1:
        drop = rng.sample(full, rng.randint(1, len(full) - 1))
        out["removed"] = tuple(c for c in full if c not in drop)
    rays = sorted({r for c in full for r in c.rays})
    for _ in range(10):
        c = _cone(n, rng.sample(rays, n))
        if c not in full and mat_rank(c.rays) == n:
            out["overlap"] = full + (c,)
            break
    shared = {}
    for c in full:
        for r in c.rays:
            shared.setdefault(tuple(q for q in c.rays if q != r),
                              []).append((c, r))
    pairs = [(ridge, cs) for ridge, cs in shared.items() if len(cs) == 2]
    if pairs:
        ridge, ((c, _), (_, far)) = rng.choice(pairs)
        rest = tuple(e for e in full if e != c)
        into_d = primitive_vector(tuple(map(sum, zip(far, *ridge))))
        out["folded"] = rest + (_cone(n, ridge + (into_d,)),)
    if pairs and n > 2:     # for n = 2 a ridge is one ray: nothing hangs
        xi = primitive_vector(tuple(map(sum, zip(*ridge))))
        opposite = next(q for q in c.rays if q not in ridge)
        out["hanging"] = rest + tuple(
            _cone(n, [xi if q == r else q for q in ridge] + [opposite])
            for r in ridge)
    orthant = orthant_fan(n).maximal[0]
    if orthant not in full:
        out["twice"] = full + (orthant,)
    nf = newton_fan(cornered_support(rng, n)).maximal
    out["newton"] = nf
    flat = [c for c in nf if not c.is_simplicial]
    if flat:
        # a cone with a non-simplicial facet shared by a neighbour first:
        # its pieces cut that facet, which the neighbour keeps whole
        c = max(flat, key=lambda c: any(
            len(f.rays) >= n and f.is_face_of(d)
            for f in c.facets() for d in nf if d != c))
        out["split"] = tuple(d for d in nf if d != c) + tuple(
            LatticeCone(n, rays) for rays in _simplices(c))
    rays = sorted({r for c in nf for r in c.rays})
    for _ in range(10):
        c = _cone(n, rng.sample(rays, n))
        if c not in nf and mat_rank(c.rays) == n:
            out["newton overlap"] = nf + (c,)
            break
    return out


def test_ridge_certificate_matches_section(monkeypatch):
    """Fan accepts exactly the fans the cross-section oracle accepts, for
    fans of every kind of fan_variants, n = 2..4, and both the facet
    certificate and the pairwise check decide some of the accepted ones;
    the certificate decides every Newton fan."""
    certificate = fans._ridge_certificate
    decided = []

    def recorded(n, cones):
        decided.append(certificate(n, cones))
        return decided[-1]

    monkeypatch.setattr(fans, "_ridge_certificate", recorded)
    seen = set()
    for k in range(18):
        n = 2 + k % 3
        for kind, cones in fan_variants(random.Random(k), n).items():
            decided.clear()
            try:
                Fan(n, cones)
                built = True
            except GeometryError:
                built = False
            assert built is fan_compatible_section(tuple(set(cones))), (k,
                                                                       kind)
            seen.add((kind, built, decided[0]))
    assert ("complete", True, True) in seen
    assert ("removed", True, False) in seen
    assert {(built, certified) for kind, built, certified in seen
            if kind == "newton"} == {(True, True)}
    assert {kind for kind, built, _ in seen if not built} == {
        "overlap", "folded", "hanging", "twice", "split", "newton overlap"}
    assert not any(certified and not built for _, built, certified in seen)


def _same_side():
    """(5,1) is a ridge of two cones on the same side, and the ray sum
    (1,1) of the first cone is covered once."""
    return 2, [((0, 1), (1, 0)), ((4, 1), (5, 1)), ((3, 1), (5, 1)),
               ((3, 1), (4, 1))]


def _double_cover():
    """The orthant cone over its stellar subdivision at (1,1,0), (1,0,1)
    and (0,1,1): every ridge is matched or on the boundary, and the ray
    sum of the first cone is covered twice."""
    fan = orthant_fan(3)
    for xi in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        fan = stellar_subdivide(fan, xi)
    return 3, [c.rays for c in orthant_fan(3).maximal + fan.maximal]


def _crossing_planes():
    """Two plane cones of R^3 that cross along the ray (1,2,0), inside
    the second: every facet is in one cone and supports the fan, and the
    ray sum of the first cone lies in no other."""
    return 3, [((0, 0, 1), (1, 2, 0)), ((0, 1, 0), (1, 0, 0))]


@pytest.mark.parametrize("build", [_same_side, _double_cover,
                                   _crossing_planes])
def test_ridge_certificate_needs_each_of_its_checks(build):
    """Three non-fans that pass every check of the facet certificate but
    one: the opposite sides of a shared facet, the point covered once, or
    the full dimension of every cone."""
    n, rays = build()
    cones = tuple(LatticeCone(n, r) for r in rays)
    assert not fan_compatible_section(cones)
    assert not fans._ridge_certificate(n, cones)
    with pytest.raises(GeometryError):
        Fan(n, cones)


def test_stellar_pieces_with_their_parent_are_improper():
    """A stellar piece overlaps its parent cone in a cone that is not a
    face of the parent."""
    for k in range(CASES):
        rng = random.Random(k)
        c = simplicial_cones(rng, full=True)
        box = [p for p, _ in box_points(c)] or [tuple(map(sum, zip(*c.rays)))]
        xi = primitive_vector(box[rng.randint(0, 3) % len(box)])
        pieces = stellar_subdivide(Fan(c.ambient_dim, (c,)), xi).maximal
        assert fan_compatible_section(pieces), k
        if len(pieces) > 1:
            with pytest.raises(GeometryError):
                Fan(c.ambient_dim, pieces + (c,))
            assert not fan_compatible_section(pieces + (c,)), k


def test_is_subdivision_matches_chart():
    for k in range(CASES):
        rng = random.Random(k)
        c = cones(rng)
        n = c.ambient_dim
        base = Fan(n, (c,))
        sub = simplicialize(base)
        interior = primitive_vector(tuple(map(sum, zip(*c.rays))))
        sub = stellar_subdivide(sub, interior)
        assert is_subdivision(sub, base) and is_subdivision_chart(sub, base)
        if len(sub.maximal) > 1:
            # not covering: one piece left out
            i = rng.randint(0, 7) % len(sub.maximal)
            short = Fan(n, sub.maximal[:i] + sub.maximal[i + 1:])
            assert not is_subdivision(short, base), k
            assert not is_subdivision_chart(short, base), k
        other = orthant_fan(n)
        assert is_subdivision(base, other) is is_subdivision_chart(
            base, other), k
        assert is_subdivision(other, base) is is_subdivision_chart(
            other, base), k


def convenient_supports(rng):
    n = rng.randint(2, 4)
    pts = generators(rng, n, rng.randint(0, 3), entry=5)
    pts += [tuple(rng.randint(1, 5) if j == i else 0 for j in range(n))
            for i in range(n)]
    return support_set(n, pts)


def test_newton_fan_subdivides_the_orthant():
    for k in range(CASES):
        s = convenient_supports(random.Random(k))
        n = s.dim
        nf = newton_fan(s)
        assert is_subdivision(nf, orthant_fan(n)), k
        assert is_subdivision_chart(nf, orthant_fan(n)), k
        simp = simplicialize(nf)
        assert is_subdivision(simp, nf) and is_subdivision_chart(simp, nf), k


def test_newton_fans_take_no_pairwise_check(monkeypatch):
    """The facet certificate decides every Newton fan: with intersect_cones
    counted, building the Newton fans of seeded convenient and
    non-convenient supports, n = 2..4, of cornered supports and of the
    Briancon-Speder supports intersects no pair of cones, and some of
    those fans have non-simplicial cones."""
    calls = []
    pairwise = fans.intersect_cones
    monkeypatch.setattr(fans, "intersect_cones",
                        lambda a, b: calls.append(1) or pairwise(a, b))
    drawn = [bs_base_support(), bs_deformed_support(), support_set(
        3, [(5, 0, 3), (0, 7, 1), (0, 0, 15), (12, 8, 0)])]
    for k in range(CASES):
        rng = random.Random(k)
        drawn += [supports(rng, convenient=k % 2 == 0),
                  cornered_support(rng, 2 + k % 3)]
    non_simplicial = sum(
        not all(c.is_simplicial for c in newton_fan(s).maximal)
        for s in drawn)
    assert not calls
    assert non_simplicial == 51 and {s.dim for s in drawn} == {2, 3, 4}


def _stellar_maximal(cones, xi):
    """The maximal cones of the library's stellar step on the fan of the
    given cones."""
    return stellar_subdivide(Fan(cones[0].ambient_dim, cones), xi).maximal


def _outcome(fn, *args):
    """fn's typed result, or the GeometryError it raised."""
    try:
        return typed(fn(*args))
    except GeometryError:
        return GeometryError


@pytest.mark.parametrize("n", [2, 3, 4])
def test_subdivision_steps_match_former_code(n):
    """simplicialize, is_regular_cone and the stellar step against their
    former code: on a random Newton fan, on one random cone (often
    non-simplicial) and on one random cone of dimension n - 1 (for n = 4
    often non-simplicial), with priority rays drawn from them, on their
    facets and on the zero cone, at rays drawn as primitive sums of those
    rays, inside and outside each cone."""
    for k in range(25):
        rng = random.Random(k)
        nf = newton_fan(random_convenient_support(rng, n, extra=4))
        extra = cones(rng, n)
        flat = cone_from_rays(n, generator_sets(rng, n, n - 1))
        zero = LatticeCone(n, ())
        rays = sorted({r for c in nf.maximal + (extra, flat) for r in c.rays})
        priority = [rng.choice(rays) for _ in range(rng.randint(0, 3))]
        for fan in (nf, Fan(n, nf.maximal[0].facets()), Fan(n, (extra,)),
                    Fan(n, extra.facets()), Fan(n, (flat,)), Fan(n, (zero,))):
            assert typed(simplicialize(fan, priority)) == typed(
                simplicialize_recursive(fan, priority)), k
        simp = simplicialize(nf, priority)
        xis = [primitive_vector(tuple(map(sum, zip(*(
            rng.choice(rays) for _ in range(rng.randint(1, 3)))))))
            for _ in range(3)]
        for c in {*simp.maximal, *nf.maximal, *extra.faces(),
                  *flat.faces()} | {f for c in nf.maximal for f in c.facets()}:
            assert _outcome(is_regular_cone, c) == _outcome(
                is_regular_cone_two_branch, c), k
            for xi in xis:
                assert _outcome(_stellar_maximal, (c,), xi) == _outcome(
                    stellar_raw_contains, (c,), xi), k
        for xi in xis:
            assert typed(_stellar_maximal(simp.maximal, xi)) == typed(
                stellar_raw_contains(simp.maximal, xi)), k


def test_box_points_of_a_deep_cone():
    """Determinant 143: the bounding box has about a million lattice
    points, the group 143 residues."""
    rays = [(0, 0, 1), (0, 1, 0), (143, 91, 77)]
    c = cone_from_rays(3, rays)
    pts = box_points(c)
    assert len(pts) == 142
    for p, lam in pts:
        assert all(isinstance(x, int) for x in p)
        assert all(isinstance(x, F) and 0 <= x < 1 for x in lam)
        assert tuple(sum(l * r[j] for l, r in zip(lam, c.rays))
                     for j in range(3)) == p
    assert pts == tuple(sorted(pts, key=lambda t: (sum(t[0]), t[0])))


def test_regularize_brieskorn_7_11_13():
    s = support_set(3, [(7, 0, 0), (0, 11, 0), (0, 0, 13)])
    nf = newton_fan(s)
    reg = regularize_fan(simplicialize(nf))
    assert len(reg.maximal) == 75
    assert all(is_regular_cone(c) for c in reg.maximal)
    assert is_subdivision(reg, nf)


def test_cone_kernel_builds_no_polytope():
    """With the Polytope stack and the Fraction determinant gone, the fan
    pipeline of the resolution runs on the Briancon-Speder generic
    support, a non-simplicial 3-D cone lists its faces and is measured
    against its simplicial subdivision, and a union of polytopes given by
    their points gets its volume vector."""
    names = ("convex_hull", "_polytope", "determinant")
    assert not any(hasattr(mod, name) for name in names
                   for mod in (fans, geometry, newton_number))
    assert_deleted()
    gens = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)]
    want_faces = cone_faces_section(cone_from_rays_section(3, gens))
    polys = [[(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
             [(1, 0, 0), (3, 0, 0), (1, 2, 0), (1, 1, 1)],
             [(0, 0, 0), (1, 1, 0)]]
    want_union = union_volume_vector_hulls(polys, 3)

    s = bs_deformed_support()
    nf = newton_fan(s)
    reg = regularize_fan(simplicialize(nf))
    assert is_subdivision(reg, nf) and is_admissible(reg, s)
    cone = cone_from_rays(3, gens)
    assert len(cone.rays) == 4 and not cone.is_simplicial
    assert typed(cone.faces()) == typed(want_faces)
    whole = Fan(3, (cone,))
    assert is_subdivision(simplicialize(whole), whole)
    assert typed(union_volume_vector(polys, 3)) == typed(want_union)


def test_subdivision_steps_run_without_double_description(monkeypatch):
    """With _extreme_rays raising, is_regular_cone, box_points, the
    stellar step and _simplices run on cones whose H-description is
    cached: full-dimensional, lower-dimensional, non-simplicial and zero
    cones.  The stellar step's output Fan is left unbuilt: its check reads
    the new pieces' facets off a double description."""
    gens = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)]
    square = cone_from_rays(3, gens)
    simplicial = [cone_from_rays(3, [(1, 2, 0), (2, 1, 0), (0, 1, 3)]),
                  cone_from_rays(3, [(1, 2, 0), (2, 1, 0)]),
                  LatticeCone(3, ())]
    cones = simplicial + [square]
    for c in cones:
        c._h_description
    want = [(c, is_regular_cone_two_branch(c), box_points_scan(c))
            for c in simplicial]
    want_pieces = [(c, _simplices(c)) for c in cones]

    def refuse(*args, **kwargs):
        raise AssertionError("a double description was run")

    monkeypatch.setattr(fans, "_extreme_rays", refuse)
    monkeypatch.setattr(fans, "Fan", lambda n, maximal: maximal)
    for c, regular, box in want:
        assert is_regular_cone(c) is regular
        assert typed(box_points(c)) == typed(box)
        starred = stellar_subdivide(Fan(3, (c,)), (1, 1, 1))
        assert tuple(sorted(starred, key=lambda p: (len(p.rays), p.rays))) \
            == stellar_raw_contains((c,), (1, 1, 1))
    for c, pieces in want_pieces:
        assert _simplices(c) == pieces
    assert len(square.rays) == 4 and len(_simplices(square)) == 2
    with pytest.raises(GeometryError):
        is_regular_cone(square)
