"""Good apices and the polyhedral mu-constancy decision.

A vertex alpha added to a Newton boundary, supported on a proper axis set I,
has an apex for the axis i outside I when exactly one compact boundary edge
at alpha leaves the hyperplane {x_i = 0}; the apex is the nearest point of
the old vertex set on that edge.  The apex is good when its coordinates
outside I follow the Kronecker pattern of i.  Newton numbers of nested
convenient supports agree exactly when every added vertex has a good apex,
and mu_constant_test decides this combinatorially, then cross-checks the
verdict against the Newton numbers, which do not read the apices.  Both
are newton_number_set, read off the placements that built the polyhedra
(the tiling argument of newton_number._lower_totals), the one volume
path: a defect in the placement moves both numbers.  The test suite
holds them against a fresh triangulation of the compact facets and the
former section scan.

The decision reads axis coverage off the support, the vertex condition
off polyhedra._fractional_axes, and the added vertices and their apices
off the integer points over one denominator; Fraction points are built
only for the certificates.

Axis sets are 1-based in this interface.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import (InternalConsistencyError, Record, _closure, _members,
                       _render_scaled, _scaled, _unscaled, vec)
from .newton_number import newton_number_set
from .polyhedra import (SupportError, _added, _fractional_axes, _over_lcm,
                        newton_polyhedron)


class BoundaryEdge(Record):
    """A compact 1-face of a Newton boundary.

    endpoints are the two polyhedron vertices; points lists every support
    point lying on the closed segment, endpoints included.
    """

    endpoints: tuple
    points: tuple


def _on_edge(v, a, d):
    """|r_k| for r = v - a when r = t d with 0 <= t <= 1, k the first axis
    where d_k != 0, else None; integer vectors.  |r_k| orders the points
    of an edge as t does.  A degenerate edge, d = 0, holds a only (0)."""
    r = tuple(x - y for x, y in zip(v, a))
    k = next((k for k, x in enumerate(d) if x), None)
    if k is None:
        return None if any(r) else 0
    if (0 <= r[k] * d[k] and abs(r[k]) <= abs(d[k])
            and all(x * d[k] == y * r[k] for x, y in zip(r, d))):
        return abs(r[k])
    return None


def _edges_at(np_, k):
    """The compact boundary edges at vertex k, as (j, meet) pairs by
    increasing j: the other vertex and the mask of the points on the edge.

    The least face containing two vertices k and j is their
    geometry._closure on the polyhedron's facet bitmasks, taken over the
    facets through k; it is a compact edge exactly when its vertices are
    k and j and it has no recession axis.  So no face lattice is walked.
    """
    a = 1 << k
    through = [g for _, _, g in np_.ifacets if g & a]
    out = []
    for j in _members(np_.vmask & ~a):
        meet = _closure(a | 1 << j, through)
        if meet & np_.vmask == a | 1 << j and not meet >> len(np_.ipts):
            out.append((j, meet))
    return out


def edges_at_vertex(np_, alpha):
    """Compact boundary edges through a vertex, sorted by endpoints
    (_edges_at)."""
    k, pts = np_._vertex_index(alpha), np_.points
    # pts is sorted, so the lower index is the lower end
    return [BoundaryEdge((pts[min(j, k)], pts[max(j, k)]),
                         tuple(pts[i] for i in _members(meet)))
            for j, meet in _edges_at(np_, k)]


class EdgeConvenience(Record):
    """Classification of an edge against an axis pair I inside J.

    classification is "not", "convenient" or "strict" (strict implies
    convenient); vacuous marks the empty-witness case, classified strict by
    convention; witnesses are the old vertices on the edge that were tested.
    """

    classification: str
    vacuous: bool
    witnesses: tuple


def edge_convenience(edge, s, i_axes, j_axes):
    """Test the vertex pattern of an edge over the old support.

    For every old vertex beta on the edge: beta >= 1 on J minus I and
    beta = 0 outside J; strict additionally needs some coordinate > 1 in
    J minus I for each beta.  1-based axes, I strictly inside J.  The
    vertices on the edge are found by _on_edge, scaled to integers.
    """
    n = s.dim
    i_set = frozenset(a - 1 for a in i_axes)
    j_set = frozenset(a - 1 for a in j_axes)
    if not (i_set < j_set and all(0 <= a < n for a in j_set)):
        raise ValueError("need I strictly inside J inside the axis range")
    vertices = newton_polyhedron(s).vertices
    (a, b, *ivs), _ = _scaled([*edge.endpoints, *vertices])
    d = tuple(x - y for x, y in zip(b, a))
    witnesses = [v for v, iv in zip(vertices, ivs)
                 if _on_edge(iv, a, d) is not None]
    if not witnesses:
        return EdgeConvenience("strict", True, ())
    mid = sorted(j_set - i_set)
    outside = sorted(set(range(n)) - j_set)
    convenient = all(
        all(v[a] >= 1 for a in mid) and all(v[a] == 0 for a in outside)
        for v in witnesses)
    if not convenient:
        return EdgeConvenience("not", False, tuple(witnesses))
    strict = all(any(v[a] > 1 for a in mid) for v in witnesses)
    return EdgeConvenience("strict" if strict else "convenient", False,
                           tuple(witnesses))


class ApexCertificate(Record):
    """Outcome of the apex search at one added vertex.

    alpha      the added vertex
    axes       1-based positive support I of alpha
    i          1-based axis of the reported apex (smallest good one when any
               candidate is good, otherwise the smallest with an apex)
    edge       the unique escaping edge for i
    beta       the old vertex on the edge nearest to alpha
    good       whether beta is the Kronecker pattern of i outside I
    good_pairs all (i, beta) pairs that came out good
    """

    alpha: tuple
    axes: tuple
    i: int
    edge: BoundaryEdge
    beta: tuple
    good: bool
    good_pairs: tuple


def _apex(s, s_prime, a):
    """The apex search of find_apex at the vertex a of hull(s_prime), an
    index into its points.

    The points are compared as integers over one common denominator by
    _on_edge: an old vertex v lies on the edge from alpha to its other
    end o at t in (0, 1] when v - alpha is t (o - alpha), and the least t
    is the least |v_k - alpha_k| on the first axis k where o and alpha
    differ.  Fraction points are built only for the certificate: alpha,
    the edge and the old vertices it names.
    """
    outer, inner = s_prime._newton_polyhedron, s._newton_polyhedron
    if 0 not in outer.ipts[a]:      # full support
        return None
    pts, inner_pts, den = _over_lcm(outer, inner)
    ia, n = pts[a], s.dim
    old = [inner_pts[i] for i in _members(inner.vmask)]
    edges = _edges_at(outer, a)
    candidates = []
    for i0 in range(n):
        escaping = [(j, meet) for j, meet in edges if pts[j][i0]]
        if ia[i0] or len(escaping) != 1:
            continue
        j, meet = escaping[0]
        d = tuple(x - y for x, y in zip(pts[j], ia))
        on_edge = [(t, v) for v in old if (t := _on_edge(v, ia, d))]
        if on_edge:
            beta = min(on_edge)[1]
            candidates.append((i0, j, meet, beta, all(
                beta[q] == (den if q == i0 else 0)
                for q in range(n) if not ia[q])))
    if not candidates:
        return None
    i0, j, meet, beta, good = next((c for c in candidates if c[4]),
                                   candidates[0])
    good_pairs = [(c[0] + 1, c[3]) for c in candidates if c[4]]
    on = [pts[i] for i in _members(meet)]
    keys = on + [beta] + [b for _, b in good_pairs]
    point = dict(zip(keys, _unscaled(keys, den)))
    return ApexCertificate(
        point[ia], tuple(k + 1 for k in range(n) if ia[k]), i0 + 1,
        BoundaryEdge(tuple(point[p] for p in sorted((ia, pts[j]))),
                     tuple(map(point.get, on))),
        point[beta], good, tuple((i, point[b]) for i, b in good_pairs))


def find_apex(s, s_prime, alpha):
    """Search every axis outside the support of alpha for a good apex
    (_apex, at alpha's vertex index).

    Returns None when no axis has both a unique escaping edge and an old
    vertex on it, in particular when alpha has full support, vertex or
    not; any other alpha that is no vertex of hull(s_prime) raises
    SupportError.
    """
    alpha = vec(alpha)
    if sum(x != 0 for x in alpha) == s.dim:
        return None
    return _apex(s, s_prime, newton_polyhedron(s_prime)._vertex_index(alpha))


class MuConstancyResult(Record):
    """verdict: every added vertex has a good apex (equivalently, the Newton
    numbers agree); certificates come in added-vertex order; warnings note
    vertices with no apex at all and any weakened hypotheses.  nu_s and
    nu_s_prime are newton_number_set of the two supports, read off their
    placements (newton_number._lower_totals)."""

    verdict: bool
    certificates: tuple
    nu_s: Fraction
    nu_s_prime: Fraction
    warnings: tuple


def _require_axis_convenient(support, label):
    if support.missing_axes:
        raise SupportError(
            f"{label} support is not convenient: no point on axis "
            f"{support.missing_axes[0]}")


def mu_constant_test(s, s_prime):
    """Decide Newton-number constancy of a nested convenient pair.

    The combinatorial criterion (good apices at every added vertex) is
    always cross-checked against the Newton numbers, which do not read the
    apices.  Both are newton_number_set of their supports, read off the
    placements that built the polyhedra (newton_number._lower_totals).
    Right after the axis checks, _added places hull(S') on hull(S) when S'
    holds the points of S, so nu(S') is nu(S) less the Newton number of
    the difference region that placement cut and the vertex condition
    reads the placed polyhedron; otherwise it checks that the pair is
    nested.
    The added vertices are indices into the points of S', and a warning
    renders the integer point it names (geometry._render_scaled).  On
    convenient data the verdict and the equality of the numbers must
    coincide, so disagreement raises InternalConsistencyError; when a
    support fails the vertex condition the theorem does not cover the
    pair, and disagreement raises SupportError naming the failing axes.
    """
    _require_axis_convenient(s, "first")
    _require_axis_convenient(s_prime, "second")
    added = _added(s, s_prime)
    warnings, outside = [], []
    for support, label in ((s, "first"), (s_prime, "second")):
        bad = _fractional_axes(support)
        if bad:
            outside.append(f"the {label} support on axes {bad}")
            warnings.append(
                f"{label} support has vertex coordinates between 0 and 1 "
                f"on axes {bad}; the criterion is not covered by the "
                "constancy theorem there")
    certificates = [_apex(s, s_prime, a) for a in added]
    verdict = all([c is not None and c.good for c in certificates])
    ipts, den = s_prime._scaled_points
    warnings += [f"added vertex {_render_scaled(ipts[a], den)} admits no apex"
                 for a, c in zip(added, certificates) if not c]
    nu_s, nu_sp = newton_number_set(s), newton_number_set(s_prime)
    if verdict != (nu_s == nu_sp):
        if outside:
            raise SupportError(
                f"apex verdict {verdict} disagrees with Newton numbers "
                f"{nu_s} vs {nu_sp}: the vertex condition fails for "
                f"{' and '.join(outside)}, outside the constancy theorem")
        raise InternalConsistencyError(
            f"apex verdict {verdict} contradicts Newton numbers "
            f"{nu_s} vs {nu_sp}")
    return MuConstancyResult(verdict, tuple([c for c in certificates if c]),
                             nu_s, nu_sp, tuple(warnings))


def vertex_location_check(s, s_prime):
    """No added vertex may sit in the open positive orthant once the
    Newton numbers agree; returns that check.  Raises when the numbers
    differ, since the location statement presupposes equality.  The
    pair is placed and read as in mu_constant_test, so a pair that is
    not nested raises in _added."""
    _require_axis_convenient(s, "first")
    _require_axis_convenient(s_prime, "second")
    added = _added(s, s_prime)
    nu_s, nu_sp = newton_number_set(s), newton_number_set(s_prime)
    if nu_s != nu_sp:
        raise SupportError(
            f"hypothesis violated: Newton numbers differ ({nu_s} vs {nu_sp})")
    return all(0 in s_prime._scaled_points[0][a] for a in added)
