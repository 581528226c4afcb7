"""Buchberger engine over Q under the graded reverse lexicographic order.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.  Every
run is deterministic: pair selection, reducer choice and output ordering
depend only on the input.  Each public call runs on its own step meter and
raises BudgetExceeded once its budget is spent, never a partial answer.
The charges, which every budget report depends on:

- pairs pop in (sugar, grevlex(lcm), i, j) order, a unique key, and every
  popped pair costs one step, coprime and chain-criterion pairs included;
- every reduction step costs one, in the S-pair loop and in _interreduce;
- every monomial that quotient_dimension counts costs one.
"""

import heapq

from .geometry import ZERO, ONE
from .families import spoly


DEFAULT_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """The computation exceeded its step budget; no result is implied."""


def grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _quot(b, a):
    return tuple(x - y for x, y in zip(b, a))


def _mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


class _Row:
    __slots__ = ("lead", "lead_coeff", "tail", "sugar")

    def __init__(self, lead, lead_coeff, tail, sugar):
        self.lead = lead
        self.lead_coeff = lead_coeff
        self.tail = tail
        self.sugar = sugar


class _Meter:
    def __init__(self, budget):
        self.left = budget
        self.used = 0

    def charge(self, amount=1):
        self.left -= amount
        self.used += amount
        if self.left < 0:
            raise BudgetExceeded(f"step budget exhausted after {self.used} steps")


def _make_row(poly, sugar=None):
    lead = max(poly, key=grevlex_key)
    tail = dict(poly)
    lead_coeff = tail.pop(lead)
    if sugar is None:
        sugar = max(sum(m) for m in poly)
    return _Row(lead, lead_coeff, tail, sugar)


def _subtract(work, factor, q, tail):
    """work -= factor * x^q * tail, in place, dropping zero terms."""
    for m, c in tail.items():
        key = _mul(m, q)
        val = work.get(key, ZERO) - factor * c
        if val:
            work[key] = val
        elif key in work:
            del work[key]


def _reduce_full(poly, rows, meter, sugar):
    """Fully reduce poly against rows.  Returns (remainder, sugar)."""
    work = dict(poly)
    remainder = {}
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        reducer = next((row for row in rows if _divides(row.lead, mono)), None)
        if reducer is None:
            remainder[mono] = coeff
            continue
        meter.charge()
        q = _quot(mono, reducer.lead)
        sugar = max(sugar, reducer.sugar + sum(q))
        _subtract(work, coeff / reducer.lead_coeff, q, reducer.tail)
    return remainder, sugar


def _s_poly(a, b, lcm):
    out = {}
    _subtract(out, -ONE / a.lead_coeff, _quot(lcm, a.lead), a.tail)
    _subtract(out, ONE / b.lead_coeff, _quot(lcm, b.lead), b.tail)
    return out


def _pair(rows, i, j):
    """The heap entry (sugar, grevlex(lcm), i, j, lcm) of rows i < j."""
    lcm = _lcm(rows[i].lead, rows[j].lead)
    deg = sum(lcm)
    sugar = max(rows[i].sugar + deg - sum(rows[i].lead),
                rows[j].sugar + deg - sum(rows[j].lead))
    return sugar, grevlex_key(lcm), i, j, lcm


def _buchberger(polys, meter):
    rows = [_make_row(dict(p)) for p in polys if p]
    pairs = [_pair(rows, i, j) for j in range(len(rows)) for i in range(j)]
    heapq.heapify(pairs)
    treated = set()
    while pairs:
        sugar, _, i, j, lcm = heapq.heappop(pairs)
        treated.add((i, j))
        meter.charge()
        if _mul(rows[i].lead, rows[j].lead) == lcm:
            continue  # coprime leading monomials
        if any(k not in (i, j) and _divides(rows[k].lead, lcm)
               and (min(i, k), max(i, k)) in treated
               and (min(j, k), max(j, k)) in treated
               for k in range(len(rows))):
            continue  # chain criterion
        remainder, sugar = _reduce_full(_s_poly(rows[i], rows[j], lcm), rows,
                                        meter, sugar)
        if remainder:
            rows.append(_make_row(remainder, sugar))
            new = len(rows) - 1
            for k in range(new):
                heapq.heappush(pairs, _pair(rows, k, new))
    return rows


def _interreduce(rows, meter):
    keep = []
    for row in sorted(rows, key=lambda r: grevlex_key(r.lead)):
        if not any(_divides(k.lead, row.lead) for k in keep):
            keep.append(row)
    reduced = []
    for idx, row in enumerate(keep):
        others = keep[:idx] + keep[idx + 1:]
        poly = dict(row.tail)
        poly[row.lead] = row.lead_coeff
        remainder, _ = _reduce_full(poly, others, meter, row.sugar)
        if remainder:
            reduced.append(_make_row(remainder, row.sugar))
    out = []
    for row in sorted(reduced, key=lambda r: grevlex_key(r.lead)):
        monic = {m: c / row.lead_coeff for m, c in row.tail.items()}
        monic[row.lead] = ONE
        out.append(monic)
    return out


def _to_dicts(polys):
    dicts = []
    n_vars = None
    for p in polys:
        n_vars = p.n_vars if n_vars is None else n_vars
        if p.n_vars != n_vars:
            raise ValueError("mixed variable counts")
        dicts.append(p.as_dict())
    if n_vars is None:
        raise ValueError("cannot infer variable count from zero generators")
    return dicts, n_vars


def groebner_basis(polys, budget=DEFAULT_BUDGET):
    """Reduced monic basis, sorted by leading monomial.  Raises
    BudgetExceeded when the step cap is hit."""
    dicts, n_vars = _to_dicts(polys)
    if not any(dicts):
        return ()
    meter = _Meter(budget)
    rows = _buchberger(dicts, meter)
    return tuple(spoly_from_engine(n_vars, d) for d in _interreduce(rows, meter))


def spoly_from_engine(n_vars, d):
    return spoly(n_vars, list(d.items()))


def ideal_contains_one(polys, budget=DEFAULT_BUDGET):
    basis = groebner_basis(polys, budget)
    return len(basis) == 1 and basis[0].support_points() == ((0,) * basis[0].n_vars,)


def leading_monomials(basis):
    out = []
    for p in basis:
        out.append(max(p.support_points(), key=grevlex_key))
    return tuple(sorted(out))


def quotient_dimension(basis, budget=DEFAULT_BUDGET):
    """Number of monomials outside the leading-term staircase of a reduced
    basis, or None when that count is infinite.  Raises BudgetExceeded
    when the count passes the budget."""
    if not basis:
        return None
    lts = leading_monomials(basis)
    n = len(lts[0])
    if lts == ((0,) * n,):
        return 0
    bound = []
    for i in range(n):
        pure = [m[i] for m in lts if all(e == 0 for k, e in enumerate(m) if k != i)]
        if not pure:
            return None
        bound.append(min(pure))

    meter = _Meter(budget)  # counts the monomials
    stack = [(0, (0,) * n)]
    while stack:
        i, mono = stack.pop()
        if any(_divides(l, mono) for l in lts):
            continue
        if i == n:
            meter.charge()
            continue
        for e in range(bound[i]):
            stack.append((i + 1, mono[:i] + (e,) + mono[i + 1:]))
    return meter.used
