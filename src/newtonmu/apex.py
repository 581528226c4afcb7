"""Good apices and the polyhedral mu-constancy decision.

A vertex alpha added to a Newton boundary, supported on a proper axis set I,
has an apex for the axis i outside I when exactly one compact boundary edge
at alpha leaves the hyperplane {x_i = 0}; the apex is the nearest point of
the old vertex set on that edge.  The apex is good when its coordinates
outside I follow the Kronecker pattern of i.  Newton numbers of nested
convenient supports agree exactly when every added vertex has a good apex,
and mu_constant_test decides this combinatorially while re-deriving both
Newton numbers as a permanent cross-check of the entire stack.

Axis sets are 1-based in this interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import InternalConsistencyError
from .newton_number import newton_number_set
from .polyhedra import (SupportError, added_vertices, convenience_report,
                        newton_polyhedron)


@dataclass(frozen=True)
class BoundaryEdge:
    """A compact 1-face of a Newton boundary.

    endpoints are the two polyhedron vertices; points lists every support
    point lying on the closed segment, endpoints included.
    """

    endpoints: tuple
    points: tuple

    def escapes_hyperplane(self, axis0):
        """True when the edge is not contained in {x_axis = 0} (0-based)."""
        return any(q[axis0] != 0 for q in self.endpoints)


def _on_segment(p, a, b):
    """Parameter t with p = a + t(b - a), 0 <= t <= 1, or None."""
    d = tuple(x - y for x, y in zip(b, a))
    r = tuple(x - y for x, y in zip(p, a))
    t = None
    for di, ri in zip(d, r):
        if di != 0:
            t = Fraction(ri) / di
            break
        if ri != 0:
            return None
    if t is None:
        return Fraction(0) if p == a else None
    if not 0 <= t <= 1:
        return None
    for di, ri in zip(d, r):
        if ri != t * di:
            return None
    return t


def edges_at_vertex(np_, alpha):
    """Compact boundary edges through a vertex, in deterministic order."""
    alpha = tuple(Fraction(x) for x in alpha)
    if alpha not in np_.vertices:
        raise SupportError(f"{alpha} is not a vertex of the Newton boundary")
    out = []
    for face in np_.faces:
        if face.dim != 1 or not face.compact:
            continue
        if alpha not in face.points:
            continue
        ends = tuple(sorted(p for p in face.points if p in np_.vertices))
        out.append(BoundaryEdge(ends, face.points))
    return sorted(out, key=lambda e: e.endpoints)


@dataclass(frozen=True)
class EdgeConvenience:
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
    J minus I for each beta.  1-based axes, I strictly inside J.
    """
    n = s.dim
    i_set = frozenset(a - 1 for a in i_axes)
    j_set = frozenset(a - 1 for a in j_axes)
    if not (i_set < j_set and all(0 <= a < n for a in j_set)):
        raise ValueError("need I strictly inside J inside the axis range")
    witnesses = []
    for v in newton_polyhedron(s).vertices:
        if _on_segment(v, *edge.endpoints) is not None:
            witnesses.append(v)
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


@dataclass(frozen=True)
class ApexCertificate:
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


def find_apex(s, s_prime, alpha):
    """Search every axis outside the support of alpha for a good apex.

    Returns None when no axis has both a unique escaping edge and an old
    vertex on it (in particular when alpha has full support).
    """
    alpha = tuple(Fraction(x) for x in alpha)
    np_prime = newton_polyhedron(s_prime)
    n = s.dim
    support = frozenset(k for k, x in enumerate(alpha) if x != 0)
    if len(support) == n:
        return None
    edges = edges_at_vertex(np_prime, alpha)
    old_vertices = newton_polyhedron(s).vertices
    candidates = []
    for i0 in sorted(set(range(n)) - support):
        escaping = [e for e in edges if e.escapes_hyperplane(i0)]
        if len(escaping) != 1:
            continue
        edge = escaping[0]
        if alpha not in edge.endpoints:
            continue
        other = next(p for p in edge.endpoints if p != alpha)
        best = None
        for v in old_vertices:
            # parametrized from alpha: adjacency means smallest t > 0
            t = _on_segment(v, alpha, other)
            if t is None or t == 0:
                continue
            if best is None or t < best[0]:
                best = (t, v)
        if best is None:
            continue
        beta = best[1]
        good = all(beta[j] == (1 if j == i0 else 0)
                   for j in range(n) if j not in support)
        candidates.append((i0, edge, beta, good))
    if not candidates:
        return None
    good_pairs = tuple((i0 + 1, beta) for i0, _, beta, g in candidates if g)
    pick = next((c for c in candidates if c[3]), candidates[0])
    i0, edge, beta, good = pick
    return ApexCertificate(alpha, tuple(a + 1 for a in sorted(support)),
                           i0 + 1, edge, beta, good, good_pairs)


@dataclass(frozen=True)
class MuConstancyResult:
    """verdict: every added vertex has a good apex (equivalently, the Newton
    numbers agree); certificates come in added-vertex order; warnings note
    vertices with no apex at all and any weakened hypotheses."""

    verdict: bool
    certificates: tuple
    nu_s: Fraction
    nu_s_prime: Fraction
    warnings: tuple


def _require_axis_convenient(support, label):
    report = convenience_report(support)
    if not report.axis_convenient:
        raise SupportError(
            f"{label} support is not convenient: no point on axis "
            f"{report.missing_axes[0]}")
    return report


def mu_constant_test(s, s_prime):
    """Decide Newton-number constancy of a nested convenient pair.

    The combinatorial criterion (good apices at every added vertex) is
    always cross-checked against the directly computed Newton numbers.  On
    convenient data the two must coincide, so disagreement raises
    InternalConsistencyError; when a support fails the vertex condition the
    theorem does not cover the pair, and disagreement raises SupportError
    naming the failing axes.
    """
    rep_s = _require_axis_convenient(s, "first")
    rep_sp = _require_axis_convenient(s_prime, "second")
    warnings, outside = [], []
    for rep, label in ((rep_s, "first"), (rep_sp, "second")):
        if not rep.convenient:
            bad = tuple(sorted(a for a, ok in rep.vertex_condition.items()
                               if not ok))
            outside.append(f"the {label} support on axes {bad}")
            warnings.append(
                f"{label} support has vertex coordinates between 0 and 1 "
                f"on axes {bad}; the criterion is not covered by the "
                "constancy theorem there")
    certificates = []
    verdict = True
    for alpha in added_vertices(s, s_prime):
        cert = find_apex(s, s_prime, alpha)
        if cert is None:
            verdict = False
            warnings.append(f"added vertex {alpha} admits no apex")
            continue
        certificates.append(cert)
        if not cert.good:
            verdict = False
    nu_s = newton_number_set(s)
    nu_sp = newton_number_set(s_prime)
    if verdict != (nu_s == nu_sp) and outside:
        raise SupportError(
            f"apex verdict {verdict} disagrees with Newton numbers {nu_s} "
            f"vs {nu_sp}: the vertex condition fails for "
            f"{' and '.join(outside)}, outside the constancy theorem")
    if verdict != (nu_s == nu_sp):
        raise InternalConsistencyError(
            f"apex verdict {verdict} contradicts Newton numbers "
            f"{nu_s} vs {nu_sp}")
    return MuConstancyResult(verdict, tuple(certificates), nu_s, nu_sp,
                             tuple(warnings))


def vertex_location_check(s, s_prime):
    """No added vertex may sit in the open positive orthant once the
    Newton numbers agree; returns that check.  Raises when the numbers
    differ, since the location statement presupposes equality."""
    _require_axis_convenient(s, "first")
    _require_axis_convenient(s_prime, "second")
    nu_s = newton_number_set(s)
    nu_sp = newton_number_set(s_prime)
    if nu_s != nu_sp:
        raise SupportError(
            f"hypothesis violated: Newton numbers differ ({nu_s} vs {nu_sp})")
    return all(any(x == 0 for x in alpha)
               for alpha in added_vertices(s, s_prime))
