"""Tools for deformations that escape the nondegenerate theory: arc-based
order bookkeeping, a valuative falsifier, and the Kronecker-pattern
detector for added vertices on coordinate subspaces.

The falsifier is one-sided.  It evaluates the valuative criterion on
monomial arcs only; a definite violation certifies that the family is not
mu-constant, while absence of violations over any finite arc family proves
nothing.
"""

from itertools import product

from .families import _monomial
from .geometry import Record, frac
from .polyhedra import SupportError

FALSIFIER_DISCLAIMER = (
    "monomial arcs only: a violation disproves mu-constancy, no violation "
    "proves nothing")


class MonomialArc(Record):
    """Leading behavior of an arc through the origin: coordinate j travels
    like coeff * t^order, with every order at least one."""

    x_orders: tuple
    s_orders: tuple
    x_coeffs: tuple
    s_coeffs: tuple


def monomial_arc(x_orders, s_orders, x_coeffs=None, s_coeffs=None):
    xo = tuple(int(r) for r in x_orders)
    so = tuple(int(q) for q in s_orders)
    if any(r < 1 for r in xo) or any(q < 1 for q in so):
        raise SupportError("arc orders must be >= 1; the arc passes through o")
    xc = tuple(frac(c) for c in (x_coeffs or (1,) * len(xo)))
    sc = tuple(frac(c) for c in (s_coeffs or (1,) * len(so)))
    if len(xc) != len(xo) or len(sc) != len(so):
        raise SupportError("coefficient vector lengths do not match orders")
    if any(c == 0 for c in xc + sc):
        raise SupportError("arc leading coefficients must be nonzero")
    return MonomialArc(xo, so, xc, sc)


def arc_grid(n_vars, n_params, orders):
    """All monomial arcs with x-orders in the given range and parameter
    orders 1, unit coefficients."""
    out = []
    for r in product(orders, repeat=n_vars):
        out.append(monomial_arc(r, (1,) * n_params))
    return tuple(out)


def relative_jacobian(fam):
    """The partial derivatives with respect to the ambient variables."""
    return tuple(fam.partial_x(i) for i in range(1, fam.n_vars + 1))


class ArcOrder(Record):
    order: object
    initial_form_vanishes: bool
    initial_value: object


def arc_order(g, arc):
    """Leading t-order of g composed with the arc.

    The candidate order is the minimum of <r, exponent> + <q, s-exponent>
    over all terms; when the leading coefficients cancel the true order is
    strictly larger and the vanishing flag is set.
    """
    if g.is_zero:
        raise SupportError("arc order of the zero polynomial")
    if len(arc.x_orders) != g.n_vars or len(arc.s_orders) != g.n_params:
        raise SupportError("arc shape does not match the family")
    best = None
    value = 0
    orders, coeffs = arc.x_orders + arc.s_orders, arc.x_coeffs + arc.s_coeffs
    for e, c in g._flat():
        order = sum(q * k for q, k in zip(orders, e))
        lead = c * _monomial(coeffs, e)
        if best is None or order < best:
            best = order
            value = lead
        elif order == best:
            value += lead
    return ArcOrder(best, value == 0, value)


class ParameterComparison(Record):
    parameter: int
    lhs_order: object
    lhs_vanishes: object
    rhs_order: object
    rhs_exact: bool
    verdict: str   # violation | consistent | indeterminate


class ArcVerdict(Record):
    arc: MonomialArc
    verdict: str
    rows: tuple


class FalsifierReport(Record):
    falsified: bool
    arcs: tuple
    disclaimer: str


def _min_jacobian_order(jac, arc):
    """(candidate min order, whether it is exact) over the x-partials."""
    best = None
    exact = False
    for g in jac:
        if g.is_zero:
            continue
        res = arc_order(g, arc)
        if best is None or res.order < best:
            best = res.order
            exact = not res.initial_form_vanishes
        elif res.order == best and not res.initial_form_vanishes:
            exact = True
    return best, exact


def valuative_falsifier(fam, arcs):
    """Check the mu-constancy order inequality on each arc: along every arc
    the parameter derivatives must vanish to strictly higher order than the
    best x-derivative.  A definite failure falsifies mu-constancy."""
    jac = relative_jacobian(fam)
    verdicts = []
    for arc in arcs:
        rhs, rhs_exact = _min_jacobian_order(jac, arc)
        if rhs is None:
            raise SupportError("family is constant in x; no Jacobian orders")
        rows = []
        for i in range(1, fam.n_params + 1):
            g = fam.partial_s(i)
            if g.is_zero:
                rows.append(ParameterComparison(i, None, None, rhs, rhs_exact,
                                                "consistent"))
                continue
            lhs = arc_order(g, arc)
            if not lhs.initial_form_vanishes and lhs.order <= rhs:
                verdict = "violation"
            elif lhs.order > rhs and rhs_exact:
                verdict = "consistent"
            else:
                verdict = "indeterminate"
            rows.append(ParameterComparison(i, lhs.order,
                                            lhs.initial_form_vanishes,
                                            rhs, rhs_exact, verdict))
        if any(r.verdict == "violation" for r in rows):
            overall = "violation"
        elif any(r.verdict == "indeterminate" for r in rows):
            overall = "indeterminate"
        else:
            overall = "consistent"
        verdicts.append(ArcVerdict(arc, overall, tuple(rows)))
    falsified = any(v.verdict == "violation" for v in verdicts)
    return FalsifierReport(falsified, tuple(verdicts), FALSIFIER_DISCLAIMER)


class B1DResult(Record):
    found: bool
    i: object          # axis of the Kronecker pattern, when found
    beta: object
    restriction: object # family restricted to the J-subspace, when not found


def b1d_detector(fam, j_axes):
    """Scan the generic support for a point that looks like delta_{ij} on
    the complement of J: beta_i = 1 and beta_j = 0 for the other j outside
    J.  When no such point exists the restriction of the family to the
    J-subspace is handed back for separate analysis."""
    n = fam.n_vars
    j_set = frozenset(int(a) for a in j_axes)
    if not j_set or not all(1 <= a <= n for a in j_set):
        raise SupportError(f"J must be a nonempty subset of 1..{n}")
    if len(j_set) == n:
        raise SupportError("J must be a proper subset; its complement "
                           "carries the pattern")
    points = fam.generic_support().points
    if not any(set(k + 1 for k, e in enumerate(p) if e != 0) < j_set
               for p in points):
        raise SupportError(
            "hypothesis fails: no support point lies in a proper coordinate "
            "subspace of J")
    complement = sorted(set(range(1, n + 1)) - j_set)
    for i in complement:
        for p in points:
            if all(p[j - 1] == (1 if j == i else 0) for j in complement):
                return B1DResult(True, i, p, None)
    return B1DResult(False, None, None, fam.restrict(sorted(j_set)))
