"""Milnor numbers via ideal quotients, and per-face nondegeneracy verdicts.

The Milnor number is computed as the vector space dimension of
Q[x]/(J(f) + (x^N)) for the truncation exponents N = 4, 8, ..., 512; for
an isolated singularity the truncation eventually localizes the quotient at
the origin and the dimension stabilizes at mu.  None of this shares code
with the Newton number path, so agreement between the two is evidence.
Nondegeneracy is decided face by face: vertices pass, edges by a
squarefreeness test, higher faces by a torus emptiness test on the
Groebner engine.
"""


from .geometry import (ZERO, InternalConsistencyError, GeometryError, Record,
                       primitive_vector, render_point)
from .families import spoly
from .polyhedra import SupportError, newton_polyhedron
from .newton_number import newton_number_series
from .groebner import (DEFAULT_BUDGET, BudgetExceeded, groebner_basis,
                       ideal_contains_one, quotient_dimension)

TRUNCATION_START = 4
MAX_TRUNCATION = 512


def _pure_power(n_vars, axis0, n):
    e = [0] * n_vars
    e[axis0] = n
    return spoly(n_vars, [(tuple(e), 1)])


def milnor_number(f, budget=DEFAULT_BUDGET):
    """dim Q[x]/(J(f) + (x_1^N, ..., x_n^N)) for doubling N until two
    consecutive values agree.  Raises BudgetExceeded when no stabilization
    happens in budget; that can mean a non-isolated singularity."""
    if f.is_zero:
        raise SupportError("zero polynomial has no Milnor number")
    n = f.n_vars
    if f.coefficient((0,) * n) != 0:
        raise SupportError("polynomial does not vanish at the origin")
    partials = [f.partial(i) for i in range(1, n + 1)]
    for p in partials:
        if p.coefficient((0,) * n) != 0:
            raise SupportError("origin is not a critical point")
    previous = None
    trunc = TRUNCATION_START
    while trunc <= MAX_TRUNCATION:
        gens = partials + [_pure_power(n, i, trunc) for i in range(n)]
        basis = groebner_basis(gens, budget)
        dim = quotient_dimension(basis, budget)
        if dim is None:
            raise InternalConsistencyError(
                "truncated Jacobian quotient came out infinite-dimensional")
        if dim == previous:
            return dim
        previous = dim
        trunc *= 2
    raise BudgetExceeded(
        f"Milnor number did not stabilize up to truncation {MAX_TRUNCATION}; "
        "the singularity may not be isolated")


class FaceVerdict(Record):
    points: tuple
    dim: int
    status: str   # nondegenerate | degenerate | unchecked
    detail: str


def render_face(points):
    """A face's points as warning text, each rational written as str
    writes it ('15', '3/2'), as the reports write rationals:
    [(0, 0, 15), (0, 7, 1)]."""
    return "[" + ", ".join(map(render_point, points)) + "]"


class NondegeneracyReport(Record):
    verdict: str  # nondegenerate | degenerate | unknown
    faces: tuple


def _poly_deg(coeffs):
    for d in range(len(coeffs) - 1, -1, -1):
        if coeffs[d] != 0:
            return d
    return -1


def _poly_rem(a, b):
    """Remainder of a mod b over Q; b nonzero."""
    a = list(a)
    db = _poly_deg(b)
    lead = b[db]
    while _poly_deg(a) >= db:
        da = _poly_deg(a)
        factor = a[da] / lead
        for i in range(db + 1):
            a[da - db + i] -= factor * b[i]
        a[da] = ZERO  # guard against residue from exact cancellation
    return a


def _poly_gcd_degree(a, b):
    while _poly_deg(b) >= 0:
        a, b = b, _poly_rem(a, b)
    return _poly_deg(a)


def _edge_univariate(points, coeffs):
    """Coefficients of the one-variable polynomial carried by an edge."""
    pts = sorted(points)
    direction = primitive_vector(tuple(b - a for a, b in zip(pts[0], pts[-1])))
    j = next(i for i, d in enumerate(direction) if d != 0)
    by_step = {}
    for p in pts:
        step, extra = divmod(p[j] - pts[0][j], direction[j])
        if extra != 0:
            raise GeometryError("edge point off the lattice direction")
        by_step[step] = coeffs[p]
    top = max(by_step)
    return [by_step.get(k, ZERO) for k in range(top + 1)]


def _torus_ideal(face_poly):
    """Partials of the face polynomial plus the torus saturation relation
    x_1 ... x_n t - 1, in n+1 variables."""
    n = face_poly.n_vars
    gens = []
    for i in range(1, n + 1):
        p = face_poly.partial(i)
        if not p.is_zero:
            gens.append(spoly(n + 1, [(m + (0,), c) for m, c in p.terms]))
    gens.append(spoly(n + 1, [((1,) * (n + 1), 1), ((0,) * (n + 1), -1)]))
    return gens


def nondegeneracy_check(g, budget=DEFAULT_BUDGET):
    """Verdict per compact face of the Newton polyhedron of g.

    Vertices pass automatically; edges reduce to a squarefreeness test of a
    one-variable polynomial; higher faces run a torus emptiness test on the
    Groebner engine, and are reported unchecked when it exceeds budget.
    """
    if g.is_zero:
        raise SupportError("zero polynomial")
    coeffs = g.as_dict()
    np_ = newton_polyhedron(g.support())
    verdicts = []
    for face in sorted(np_.compact_faces(), key=lambda f: (f.dim, f.points)):
        if face.dim == 0:
            verdicts.append(FaceVerdict(face.points, 0, "nondegenerate",
                                        "monomial face"))
        elif face.dim == 1:
            uni = _edge_univariate(face.points, coeffs)
            deriv = [c * k for k, c in enumerate(uni)][1:]
            common = _poly_gcd_degree(uni, deriv)
            if common == 0:
                verdicts.append(FaceVerdict(face.points, 1, "nondegenerate",
                                            "edge polynomial squarefree"))
            else:
                verdicts.append(FaceVerdict(
                    face.points, 1, "degenerate",
                    f"edge polynomial has a repeated factor of degree {common}"))
        else:
            gens = _torus_ideal(g.face_part(face.points))
            try:
                empty = ideal_contains_one(gens, budget)
            except BudgetExceeded:
                verdicts.append(FaceVerdict(face.points, face.dim, "unchecked",
                                            "budget exceeded"))
                continue
            if empty:
                verdicts.append(FaceVerdict(face.points, face.dim, "nondegenerate",
                                            "no critical torus point"))
            else:
                verdicts.append(FaceVerdict(face.points, face.dim, "degenerate",
                                            "face partials share a torus zero"))
    if any(v.status == "degenerate" for v in verdicts):
        overall = "degenerate"
    elif any(v.status == "unchecked" for v in verdicts):
        overall = "unknown"
    else:
        overall = "nondegenerate"
    return NondegeneracyReport(overall, tuple(verdicts))


class CrosscheckReport(Record):
    mu: object            # int, or None when the oracle gave up
    nu: object            # Fraction, or None when the series did not settle
    nu_stabilized: bool
    nondegeneracy: str
    equal: object         # bool, or None when either side is missing
    notes: tuple


def kouchnirenko_crosscheck(f, budget=DEFAULT_BUDGET):
    """Compare the Milnor oracle with the Newton number and enforce the
    inequality mu >= nu, with equality on nondegenerate input."""
    notes = []
    series = newton_number_series(f.support())
    nu = series.value if series.stabilized else None
    if not series.stabilized:
        notes.append("Newton number series did not stabilize; nu may be infinite")
    report = nondegeneracy_check(f, budget=budget)
    if report.verdict == "unknown":
        notes.append("nondegeneracy undecided on some faces")
    try:
        mu = milnor_number(f, budget)
    except BudgetExceeded as exc:
        mu = None
        notes.append(f"Milnor oracle gave up: {exc}")
    equal = None
    if mu is not None and nu is not None:
        if mu < nu:
            raise InternalConsistencyError(
                f"mu = {mu} < nu = {nu} contradicts the Milnor-Newton inequality")
        equal = mu == nu
        if report.verdict == "nondegenerate" and not equal:
            raise InternalConsistencyError(
                f"mu = {mu} != nu = {nu} on a nondegenerate polynomial")
    return CrosscheckReport(mu, nu, series.stabilized, report.verdict,
                            equal, tuple(notes))
