"""Simultaneous resolution: monomial charts over a regular admissible
subdivision of the Newton fan of the generic support, one record per
chart.

The family must pass the mu-test, whose good certificates (one per
added vertex) name the apex rays pulled first when the Newton fan is
simplicialized; the base's nondegeneracy report runs every time.  The
regularized fan is checked admissible, then one pass per maximal cone
checks it regular, pulls the family back through the chart of its rays,
checks the monomial factor against the support function and reads the
dual vertex off the pulled exponents.  Each pass yields one
ChartCertificate: the cone, the monomial factor m, the strict part, the
dual vertex, a status and a witness.  Over an original vertex the chart
carries a unit certificate (a constant term surviving at s = 0); over
an added vertex, the pyramid normal form (no base term there, the good
apex pulling back to the unit vector at the apex position with a term
surviving at s = 0) and a Jacobian smoothness test on the exceptional
hyperplanes, left unchecked beyond SMOOTH_MONOMIAL_CAP terms or
SMOOTH_VARIABLE_CAP variables.  ResolutionResult holds the fan, the
charts in fan order and the report fields."""

from collections import Counter

from .geometry import (GeometryError, InternalConsistencyError, ZERO, _unit,
                       Record, _idot, render_point)
from .polyhedra import SupportError, added_vertices
from .families import DeformationFamily, family, spoly
from .apex import mu_constant_test
from .fans import (LatticeCone, newton_fan, simplicialize, regularize_fan,
                   is_regular_cone, is_admissible_subdivision,
                   support_function)
from .groebner import DEFAULT_BUDGET, BudgetExceeded, ideal_contains_one
from .milnor import nondegeneracy_check, render_face

SMOOTH_MONOMIAL_CAP = 30
SMOOTH_VARIABLE_CAP = 4


class ChartCertificate(Record):
    """The monomial chart of one maximal cone and its certificate: the
    family pulls back to y^m times strict_part, and dual_vertex is the one
    exponent whose term pulls back onto y^m."""

    cone: LatticeCone
    monomial_exponents: tuple
    strict_part: DeformationFamily
    dual_vertex: tuple
    status: str    # unit | smooth-verified | unchecked
    witness: tuple # sorted (key, value) pairs


class ResolutionResult(Record):
    fan: object
    charts: tuple  # one ChartCertificate per maximal cone, in fan order
    nu: object
    added_vertices: tuple
    status_counts: tuple
    nondegeneracy: str
    warnings: tuple


def chart_pullback(fam, cone):
    """Total transform of the family through the monomial chart of a
    full-dimensional regular cone: with rays q_1..q_n in row order,
    x_j = prod_k y_k^(q_k)_j, so every exponent maps to its ray pairing
    vector.  The common monomial factor y^m is divided out, coefficients
    ride along unchanged.  Returns (m, strict part)."""
    if cone.dim != cone.ambient_dim:
        raise GeometryError("chart cone must be full-dimensional")
    if not is_regular_cone(cone):
        raise GeometryError(f"chart cone {cone.rays} is not regular")
    return _pullback(fam, cone)[:2]


def _pullback(fam, cone):
    """chart_pullback without the cone checks, and the exponents whose
    terms pull back onto y^m."""
    n = fam.n_vars
    if cone.ambient_dim != n:
        raise SupportError("chart dimension does not match the family")
    if not fam.terms:
        raise SupportError("cannot pull back the zero family")
    pulled = [tuple(_idot(q, mono) for q in cone.rays)
              for mono, _ in fam.terms]
    m = tuple(map(min, zip(*pulled)))
    strict = family(n, fam.n_params,
                    [(tuple(a - b for a, b in zip(p, m)), coeff)
                     for p, (_, coeff) in zip(pulled, fam.terms)])
    hits = [mono for p, (mono, _) in zip(pulled, fam.terms) if p == m]
    return m, strict, hits


def _decomposable_positions(strict, apex_pos):
    """Chart positions j (1-based, != apex) for which every term free of
    y_j is constant, pure in the apex variable, or free of it."""
    def splits(mono, j):
        return (mono[j] or not mono[apex_pos]
                or not any(e for k, e in enumerate(mono) if k != apex_pos))
    return tuple(j + 1 for j in range(strict.n_vars) if j != apex_pos
                 and all(splits(mono, j) for mono, _ in strict.terms))


def _smoothness_on_hyperplane(strict_base, position, budget):
    """Whether the singular locus of the strict transform at s = 0 misses
    the coordinate hyperplane of the given 0-based position."""
    n = strict_base.n_vars
    gens = [strict_base]
    for i in range(1, n + 1):
        p = strict_base.partial(i)
        if not p.is_zero:
            gens.append(p)
    gens.append(spoly(n, [(_unit(n, position), 1)]))
    return ideal_contains_one(gens, budget)


def _hyperplane_status(strict_base, position, budget):
    try:
        empty = _smoothness_on_hyperplane(strict_base, position, budget)
    except BudgetExceeded:
        return "budget exceeded"
    return "empty" if empty else "nonempty"


# the warning for each hyperplane status that leaves a chart unchecked
_UNCHECKED = {
    "budget exceeded": "smoothness budget exceeded on hyperplane {}",
    "nonempty": "strict transform singular somewhere on hyperplane {}; "
                "not localized, certificate left unchecked",
}


def _certify_added(base, cone, m, strict, alpha, cert, skip_smoothness,
                   budget, warnings):
    """(status, witness) of the chart of the cone over the added vertex
    alpha, whose pulled family is y^m times strict."""
    n = base.n_vars
    apex_ray = _unit(n, cert.i - 1)
    if apex_ray not in cone.rays:
        raise GeometryError(
            f"chart over added vertex {render_point(alpha)} does not contain "
            f"the apex ray e_{cert.i}; conflicting apex axes between added "
            "vertices are not supported")
    apex_pos = cone.rays.index(apex_ray)
    if base.coefficient(alpha) != 0:
        raise InternalConsistencyError(
            f"added vertex {render_point(alpha)} has a coefficient surviving "
            "at s = 0")
    expected = tuple(_idot(q, cert.beta) - e for q, e in zip(cone.rays, m))
    if expected != _unit(n, apex_pos):
        raise InternalConsistencyError(
            f"good apex {render_point(cert.beta)} pulls back to "
            f"{render_point(expected)}, not the unit vector at the apex "
            "position")
    linear = base.coefficient(cert.beta)
    if linear == 0:
        raise InternalConsistencyError(
            f"apex term {render_point(cert.beta)} vanishes at s = 0")
    exceptional = tuple(k + 1 for k, e in enumerate(m) if e > 0)
    strict_base = strict.base()
    if skip_smoothness:
        results = [(k, "skipped") for k in exceptional]
        problems = ["smoothness check skipped"]
    elif (len(strict_base.terms) > SMOOTH_MONOMIAL_CAP
          or n > SMOOTH_VARIABLE_CAP):
        results = [(k, "beyond cap") for k in exceptional]
        problems = ["strict transform beyond the smoothness cap; "
                    "certificate left unchecked"]
    else:
        results = [(k, _hyperplane_status(strict_base, k - 1, budget))
                   for k in exceptional]
        problems = [_UNCHECKED[r].format(k) for k, r in results
                    if r in _UNCHECKED]
    warnings.extend(f"chart {cone.rays}: {p}" for p in problems)
    witness = (    # in key order
        ("apex_axis", cert.i),
        ("apex_position", apex_pos + 1),
        ("beta", cert.beta),
        ("constant_at_zero", ZERO),
        ("decomposable_positions",
         _decomposable_positions(strict, apex_pos)),
        ("exceptional_positions", exceptional),
        ("linear_at_zero", linear),
        ("singular_locus", tuple(results)),
    )
    return "unchecked" if problems else "smooth-verified", witness


def simultaneous_resolution(fam, skip_smoothness=False, budget=DEFAULT_BUDGET):
    """Resolve a deformation family: one certified monomial chart per
    maximal cone of the regularized Newton fan of the generic support.

    A family failing the mu-test is refused, naming the sorted added
    vertices with no good apex, each marked "(no apex)" when no
    certificate names it (the mu-test's warning); so is a degenerate
    base.  The Newton fan is built once and the emitted fan checked
    admissible against it.  The smoothness tests run within budget, or
    not at all under skip_smoothness.
    """
    fam.check_deformation()
    base = fam.base()
    s_base = base.support()
    s_gen = fam.generic_support()
    if s_base.missing_axes:
        raise SupportError(
            f"base polynomial is not convenient; axes {s_base.missing_axes} "
            "carry no support point")

    mu_res = mu_constant_test(s_base, s_gen)
    warnings = list(mu_res.warnings)
    if not mu_res.verdict:
        named = {c.alpha: c.good for c in mu_res.certificates}
        rendered = ", ".join(
            render_point(a) + ("" if a in named else " (no apex)")
            for a in sorted(added_vertices(s_base, s_gen))
            if not named.get(a))
        raise GeometryError(
            f"family is not mu-constant; added vertices without a good "
            f"apex: {rendered}")

    nondegeneracy_report = nondegeneracy_check(base, budget)
    for fv in nondegeneracy_report.faces:
        if fv.status == "degenerate":
            raise GeometryError(
                "base polynomial is degenerate on face "
                f"{render_face(fv.points)}")
        elif fv.status == "unchecked":
            warnings.append(
                "nondegeneracy unchecked on face "
                f"{render_face(fv.points)}")

    # the verdict holds: one good certificate per added vertex, in order
    certs_by_vertex = {c.alpha: c for c in mu_res.certificates}
    apex_rays = dict.fromkeys(_unit(fam.n_vars, c.i - 1)
                              for c in mu_res.certificates)
    nfan = newton_fan(s_gen)
    fan = regularize_fan(simplicialize(nfan, priority=apex_rays))
    if is_admissible_subdivision(fan, nfan, s_gen) is not True:
        raise InternalConsistencyError("emitted fan is not admissible")

    charts = []
    for cone in fan.maximal:
        if not is_regular_cone(cone):
            raise InternalConsistencyError(
                f"regularization left a non-regular cone {cone.rays}")
        m, strict, hits = _pullback(fam, cone)
        for q, e in zip(cone.rays, m):
            if e != support_function(s_gen, q):
                raise InternalConsistencyError(
                    f"monomial exponent at generator {q} disagrees with the "
                    "support function")
        if len(hits) != 1:
            raise InternalConsistencyError(
                f"chart {cone.rays} has {len(hits)} dual vertices; "
                "expected exactly one")
        alpha = hits[0]
        if alpha in certs_by_vertex:
            status, witness = _certify_added(
                base, cone, m, strict, alpha, certs_by_vertex[alpha],
                skip_smoothness, budget, warnings)
        elif (c0 := base.coefficient(alpha)) == 0:
            raise InternalConsistencyError(
                f"unit chart over {render_point(alpha)} has vanishing "
                "constant term at s = 0")
        else:
            status, witness = "unit", (("constant_at_zero", c0),)
        charts.append(
            ChartCertificate(cone, m, strict, alpha, status, witness))

    counts = Counter(c.status for c in charts)
    return ResolutionResult(
        fan, tuple(charts), mu_res.nu_s,
        tuple(c.alpha for c in mu_res.certificates),
        tuple(sorted(counts.items())), nondegeneracy_report.verdict,
        tuple(warnings))
