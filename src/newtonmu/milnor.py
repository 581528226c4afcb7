"""Milnor numbers via ideal quotients, and per-face nondegeneracy verdicts.

The Milnor number is computed as the vector space dimension of
Q[x]/(J(f) + (x^N)) for the truncation exponents N = 4, 8, ..., 512; for
an isolated singularity the truncation eventually localizes the quotient at
the origin and the dimension stabilizes at mu.  None of this shares code
with the Newton number path, so agreement between the two is evidence.
Nondegeneracy is decided face by face: vertices pass, edges by
gcd(p, p') on the Groebner engine, under the budget, and higher faces by
a torus emptiness test on the same engine.
"""


from .geometry import (InternalConsistencyError, Record, primitive_vector,
                       render_point)
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


def _edge_univariate(edge_poly):
    """The one-variable polynomial an edge carries: each term at its
    number of lattice steps from the edge's first point.  The lattice
    points of a segment between lattice endpoints are whole multiples of
    its primitive direction, so every step is an integer."""
    (a, _), (b, _) = edge_poly.terms[0], edge_poly.terms[-1]
    direction = primitive_vector(tuple(y - x for x, y in zip(a, b)))
    j = next(i for i, d in enumerate(direction) if d != 0)
    return spoly(1, [(((m[j] - a[j]) // direction[j],), c)
                     for m, c in edge_poly.terms])


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


def _face_verdict(face_poly, dim, budget):
    """(status, detail) of a compact face of dimension at least 1: an
    edge by the degree of gcd(p, p'), the one element of the reduced
    basis of (p, p'), a higher face by the torus emptiness test."""
    if dim == 1:
        uni = _edge_univariate(face_poly)
        (common,) = groebner_basis([uni, uni.partial(1)], budget)
        degree = common.terms[-1][0][0]
        if degree == 0:
            return "nondegenerate", "edge polynomial squarefree"
        return ("degenerate",
                f"edge polynomial has a repeated factor of degree {degree}")
    if ideal_contains_one(_torus_ideal(face_poly), budget):
        return "nondegenerate", "no critical torus point"
    return "degenerate", "face partials share a torus zero"


def nondegeneracy_check(g, budget=DEFAULT_BUDGET):
    """Verdict per compact face of the Newton polyhedron of g.

    Vertices pass automatically.  Every other face is one Groebner call
    under budget: edges by gcd(p, p') on the Groebner engine, higher
    faces by a torus emptiness test.  A face whose call exceeds budget is
    reported unchecked.
    """
    if g.is_zero:
        raise SupportError("zero polynomial")
    np_ = newton_polyhedron(g.support())
    verdicts = []
    for face in sorted(np_.compact_faces(), key=lambda f: (f.dim, f.points)):
        if face.dim == 0:
            status, detail = "nondegenerate", "monomial face"
        else:
            try:
                status, detail = _face_verdict(g.face_part(face.points),
                                               face.dim, budget)
            except BudgetExceeded:
                status, detail = "unchecked", "budget exceeded"
        verdicts.append(FaceVerdict(face.points, face.dim, status, detail))
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
