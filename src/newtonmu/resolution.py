"""Simultaneous resolution pipeline: monomial charts over a regular
admissible subdivision of the Newton fan of the generic support, with a
per-chart certificate.

Charts over original vertices carry a unit certificate (the strict
transform has a constant term that survives at s = 0).  Charts over added
vertices verify the pyramid normal form (constant term vanishing at s = 0,
the good apex pulling back to a linear term with unit coefficient) and a
Jacobian smoothness test of the strict transform on the exceptional
hyperplanes; a strict transform with more than SMOOTH_MONOMIAL_CAP terms
or more than SMOOTH_VARIABLE_CAP variables is left unchecked.  The base
polynomial's nondegeneracy report is computed on every run.
"""


from .geometry import (GeometryError, InternalConsistencyError, ZERO, _unit,
                       Record, dot, render_point)
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


class Chart(Record):
    """Monomial chart of a full-dimensional regular cone: with generators
    q_1..q_n in row order, x_j = prod_k y_k^(q_k)_j."""

    cone: LatticeCone

    @property
    def generators(self):
        return self.cone.rays

    def pullback_exponent(self, alpha):
        return tuple(dot(q, alpha) for q in self.cone.rays)


def make_chart(cone):
    if cone.dim != cone.ambient_dim:
        raise GeometryError("chart cone must be full-dimensional")
    if not is_regular_cone(cone):
        raise GeometryError(f"chart cone {cone.rays} is not regular")
    return Chart(cone)


class TotalTransform(Record):
    chart: Chart
    monomial_exponents: tuple
    strict_part: DeformationFamily


def chart_pullback(fam, chart):
    """Total transform of the family through the chart: every exponent maps
    to its generator pairing vector, the common monomial factor is divided
    out, coefficients ride along unchanged."""
    n = fam.n_vars
    if chart.cone.ambient_dim != n:
        raise SupportError("chart dimension does not match the family")
    pulled = [(chart.pullback_exponent(mono), coeff) for mono, coeff in fam.terms]
    if not pulled:
        raise SupportError("cannot pull back the zero family")
    m = tuple(min(p[k] for p, _ in pulled) for k in range(n))
    strict = family(n, fam.n_params,
                    [(tuple(a - b for a, b in zip(p, m)), coeff)
                     for p, coeff in pulled])
    return TotalTransform(chart, m, strict)


class ChartCertificate(Record):
    chart: Chart
    dual_vertex: tuple
    status: str    # unit | smooth-verified | unchecked
    witness: tuple # sorted (key, value) pairs


class ResolutionReport(Record):
    nu: object
    verd: tuple
    status_counts: tuple
    nondegeneracy: str
    warnings: tuple


class ResolutionResult(Record):
    fan: object
    charts: tuple
    transforms: tuple
    certificates: tuple
    report: ResolutionReport


def _dual_vertex(fam, transform):
    """The unique generic-support point pulling back onto the monomial
    factor exactly."""
    m = transform.monomial_exponents
    hits = [mono for mono, _ in fam.terms
            if transform.chart.pullback_exponent(mono) == m]
    if len(hits) != 1:
        raise InternalConsistencyError(
            f"chart {transform.chart.generators} has {len(hits)} dual "
            "vertices; expected exactly one")
    return hits[0]


def _decomposable_positions(strict, apex_pos):
    """Chart positions j (1-based, != apex) for which every term free of
    y_j is constant, pure in the apex variable, or free of it."""
    n = strict.n_vars
    out = []
    for j in range(n):
        if j == apex_pos:
            continue
        ok = True
        for mono, _ in strict.terms:
            if mono[j] != 0:
                continue
            if all(e == 0 for e in mono):
                continue
            pure_apex = all(e == 0 for k, e in enumerate(mono) if k != apex_pos)
            if not pure_apex and mono[apex_pos] != 0:
                ok = False
                break
        if ok:
            out.append(j + 1)
    return tuple(out)


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


def _certify_unit(base, transform, alpha):
    c0 = base.coefficient(alpha)
    if c0 == 0:
        raise InternalConsistencyError(
            f"unit chart over {render_point(alpha)} has vanishing constant "
            "term at s = 0")
    witness = (("constant_at_zero", c0),)
    return ChartCertificate(transform.chart, alpha, "unit", witness)


def _certify_added(base, transform, alpha, cert, skip_smoothness, budget,
                   warnings):
    chart = transform.chart
    strict = transform.strict_part
    n = base.n_vars
    apex_ray = _unit(n, cert.i - 1)
    if apex_ray not in chart.generators:
        raise GeometryError(
            f"chart over added vertex {render_point(alpha)} does not contain "
            f"the apex ray e_{cert.i}; conflicting apex axes between added "
            "vertices are not supported")
    apex_pos = chart.generators.index(apex_ray)
    if transform.monomial_exponents[apex_pos] != 0:
        raise InternalConsistencyError(
            "apex generator carries a nonzero monomial exponent")
    c0 = base.coefficient(alpha)
    if c0 != 0:
        raise InternalConsistencyError(
            f"added vertex {render_point(alpha)} has a coefficient surviving "
            "at s = 0")
    beta_strict = chart.pullback_exponent(cert.beta)
    unit = _unit(n, apex_pos)
    expected = tuple(b - m for b, m in zip(beta_strict,
                                           transform.monomial_exponents))
    if expected != unit:
        raise InternalConsistencyError(
            f"good apex {render_point(cert.beta)} pulls back to "
            f"{render_point(expected)}, not the unit vector at the apex "
            "position")
    linear = base.coefficient(cert.beta)
    if linear == 0:
        raise InternalConsistencyError(
            f"apex term {render_point(cert.beta)} vanishes at s = 0")
    witness = [
        ("apex_axis", cert.i),
        ("apex_position", apex_pos + 1),
        ("beta", cert.beta),
        ("constant_at_zero", ZERO),
        ("linear_at_zero", linear),
        ("decomposable_positions", _decomposable_positions(strict, apex_pos)),
    ]
    exceptional = [k for k, m in enumerate(transform.monomial_exponents) if m > 0]
    witness.append(("exceptional_positions", tuple(k + 1 for k in exceptional)))
    status = "smooth-verified"
    results = []
    strict_base = strict.base()
    if skip_smoothness:
        status = "unchecked"
        results = [(k + 1, "skipped") for k in exceptional]
        warnings.append(f"chart {chart.generators}: smoothness check skipped")
    elif (len(strict_base.terms) > SMOOTH_MONOMIAL_CAP
          or n > SMOOTH_VARIABLE_CAP):
        status = "unchecked"
        results = [(k + 1, "beyond cap") for k in exceptional]
        warnings.append(
            f"chart {chart.generators}: strict transform beyond the "
            "smoothness cap; certificate left unchecked")
    else:
        for k in exceptional:
            try:
                empty = _smoothness_on_hyperplane(strict_base, k, budget)
            except BudgetExceeded:
                status = "unchecked"
                results.append((k + 1, "budget exceeded"))
                warnings.append(
                    f"chart {chart.generators}: smoothness budget exceeded "
                    f"on hyperplane {k + 1}")
                continue
            if empty:
                results.append((k + 1, "empty"))
            else:
                status = "unchecked"
                results.append((k + 1, "nonempty"))
                warnings.append(
                    f"chart {chart.generators}: strict transform singular "
                    f"somewhere on hyperplane {k + 1}; not localized, "
                    "certificate left unchecked")
    witness.append(("singular_locus", tuple(results)))
    return ChartCertificate(chart, alpha, status, tuple(sorted(witness)))


def simultaneous_resolution(fam, skip_smoothness=False, budget=DEFAULT_BUDGET):
    """Resolve a deformation family: Newton fan of the generic support,
    simplicialized with the apex rays pulled first, regularized, then one
    certified monomial chart per maximal cone.

    The base polynomial must be nondegenerate (nondegeneracy_check).  The
    Newton fan is built once and the emitted fan checked admissible against
    it.  The smoothness tests of
    the charts over added vertices run within budget, or not at all under
    skip_smoothness.
    """
    fam.check_deformation()
    base = fam.base()
    s_base = base.support()
    s_gen = fam.generic_support()
    if s_base.missing_axes:
        raise SupportError(
            f"base polynomial is not convenient; axes {s_base.missing_axes} "
            "carry no support point")
    warnings = []

    mu_res = mu_constant_test(s_base, s_gen)
    warnings.extend(mu_res.warnings)
    verd = added_vertices(s_base, s_gen)
    if not mu_res.verdict:
        offenders = sorted(c.alpha for c in mu_res.certificates if not c.good)
        rendered = ", ".join(map(render_point, offenders or sorted(verd)))
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

    certs_by_vertex = {c.alpha: c for c in mu_res.certificates}
    apex_rays = []
    for alpha in verd:
        cert = certs_by_vertex[alpha]
        ray = _unit(fam.n_vars, cert.i - 1)
        if ray not in apex_rays:
            apex_rays.append(ray)

    nfan = newton_fan(s_gen)
    fan = regularize_fan(simplicialize(nfan, priority=apex_rays))
    for cone in fan.maximal:
        if not is_regular_cone(cone):
            raise InternalConsistencyError(
                f"regularization left a non-regular cone {cone.rays}")
    if is_admissible_subdivision(fan, nfan, s_gen) is not True:
        raise InternalConsistencyError("emitted fan is not admissible")

    charts = []
    transforms = []
    certificates = []
    for cone in fan.maximal:
        chart = make_chart(cone)
        transform = chart_pullback(fam, chart)
        for pos, q in enumerate(chart.generators):
            if transform.monomial_exponents[pos] != support_function(s_gen, q):
                raise InternalConsistencyError(
                    f"monomial exponent at generator {q} disagrees with the "
                    "support function")
        alpha = _dual_vertex(fam, transform)
        if alpha in certs_by_vertex:
            cert = _certify_added(base, transform, alpha,
                                  certs_by_vertex[alpha], skip_smoothness,
                                  budget, warnings)
        else:
            cert = _certify_unit(base, transform, alpha)
        charts.append(chart)
        transforms.append(transform)
        certificates.append(cert)

    counts = {}
    for cert in certificates:
        counts[cert.status] = counts.get(cert.status, 0) + 1
    report = ResolutionReport(mu_res.nu_s, verd, tuple(sorted(counts.items())),
                              nondegeneracy_report.verdict, tuple(warnings))
    return ResolutionResult(fan, tuple(charts), tuple(transforms),
                            tuple(certificates), report)
