"""Polynomials over Q and deformation families with polynomial parameter
coefficients.

An SPoly is an exact polynomial in the ambient variables.  A
DeformationFamily is a polynomial in the ambient variables whose
coefficients are themselves polynomials in deformation parameters; setting
the parameters to zero recovers the base polynomial.

Both share one term algebra.  A family's terms read flat are those of a
polynomial in x and s together: (x-exponent + s-exponent, rational).
_collect puts a list of terms in normal form, _lowered differentiates
in one exponent entry, and _monomial evaluates prod x_i^(e_i), so
partial_x and partial_s lower an x or an s entry of the flat terms, and
F(x, 0) is specialize at s = 0.
"""

from fractions import Fraction
from itertools import groupby
from math import prod

from .geometry import ZERO, Record, frac
from .polyhedra import SupportError, support_set


def _exponent(e, length, what):
    t = tuple(int(x) for x in e)
    if len(t) != length:
        raise SupportError(f"{what} {t} does not have length {length}")
    if any(x < 0 for x in t):
        raise SupportError(f"{what} {t} has a negative entry")
    if tuple(e) != t and any(frac(x) != y for x, y in zip(e, t)):
        raise SupportError(f"{what} {tuple(e)} is not integral")
    return t


def _collect(terms):
    """The terms (key, value) in normal form: the values of equal keys
    added, those that cancel dropped, sorted by key."""
    acc = {}
    for key, value in terms:
        acc[key] = acc[key] + value if key in acc else value
    return tuple(sorted(item for item in acc.items() if item[1]))


def _lowered(terms, j):
    """The derivative of the terms (exponent, value) in the j-th exponent
    entry (0-based): a term with e_j > 0 lowers it by one and takes the
    factor e_j, the others go."""
    return [(e[:j] + (e[j] - 1,) + e[j + 1:], v * e[j])
            for e, v in terms if e[j]]


def _monomial(values, exponents):
    """prod x_i^(e_i) at the values x_i."""
    return prod(map(pow, values, exponents))


class SPoly(Record):
    """Polynomial in n_vars variables with rational coefficients.

    terms is sorted by exponent, free of zero coefficients and duplicate
    exponents.  The zero polynomial has no terms.
    """

    n_vars: int
    terms: tuple

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, exponent):
        return self.as_dict().get(tuple(exponent), ZERO)

    def support_points(self):
        return tuple(mono for mono, _ in self.terms)

    def support(self):
        """Support as a SupportSet; fails on the zero polynomial or a
        polynomial with a constant term."""
        return support_set(self.n_vars, self.support_points())

    def partial(self, axis):
        """Derivative with respect to the axis-th variable (1-based)."""
        if not 1 <= axis <= self.n_vars:
            raise SupportError(f"axis {axis} out of range 1..{self.n_vars}")
        return spoly(self.n_vars, _lowered(self.terms, axis - 1))

    def face_part(self, points):
        """Sub-polynomial supported on the given exponents."""
        keep = {tuple(p) for p in points}
        return spoly(self.n_vars, [t for t in self.terms if t[0] in keep])

    def as_dict(self):
        return {mono: c for mono, c in self.terms}

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for mono, c in self.terms:
            vars_ = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                             for i, e in enumerate(mono) if e)
            if not vars_:
                parts.append(str(c))
            elif c == 1:
                parts.append(vars_)
            else:
                parts.append(f"{c}*{vars_}")
        return " + ".join(parts)


def spoly(n_vars, terms):
    return SPoly(n_vars, _collect((_exponent(e, n_vars, "exponent"), frac(c))
                                  for e, c in terms))


def _coefficient_poly(coeff, n_params):
    """The terms (s_exponent, rational) of a coefficient, checked: a bare
    rational means an s-free constant, otherwise an iterable of
    (s_exponent, value)."""
    if isinstance(coeff, (int, Fraction, str)):
        pairs = [((0,) * n_params, frac(coeff))]
    else:
        pairs = [(se, frac(v)) for se, v in coeff]
    return [(_exponent(se, n_params, "parameter exponent"), v)
            for se, v in pairs]


class DeformationFamily(Record):
    """F(x, s): terms are (x-exponent, coefficient) with each coefficient a
    sorted tuple of (s-exponent, rational).  Terms with identically zero
    coefficients are dropped."""

    n_vars: int
    n_params: int
    terms: tuple

    @property
    def is_zero(self):
        return not self.terms

    def _flat(self):
        """The terms (x-exponent + s-exponent, rational): F read as a
        polynomial in x and s together."""
        return [(mono + se, v) for mono, coeff in self.terms for se, v in coeff]

    def base(self):
        """F(x, 0)."""
        return self.specialize((0,) * self.n_params)

    def generic_support(self):
        """Exponents whose coefficient is not the zero polynomial in s."""
        return support_set(self.n_vars, [mono for mono, _ in self.terms])

    def base_support(self):
        return self.base().support()

    def check_deformation(self):
        """Validate the deformation-of-a-singularity shape: the base is a
        nonzero germ vanishing at the origin, and every term vanishes at
        x = o (no constant monomial)."""
        zero_x = (0,) * self.n_vars
        for mono, _ in self.terms:
            if mono == zero_x:
                raise SupportError("family has a term constant in x")
        if self.base().is_zero:
            raise SupportError("family vanishes identically at s = 0")
        return self

    def partial_x(self, axis):
        if not 1 <= axis <= self.n_vars:
            raise SupportError(f"axis {axis} out of range 1..{self.n_vars}")
        return _grouped(self.n_vars, self.n_params,
                        _lowered(self._flat(), axis - 1))

    def partial_s(self, index):
        if not 1 <= index <= self.n_params:
            raise SupportError(f"parameter {index} out of range 1..{self.n_params}")
        return _grouped(self.n_vars, self.n_params,
                        _lowered(self._flat(), self.n_vars + index - 1))

    def specialize(self, s_values):
        vals = [frac(v) for v in s_values]
        if len(vals) != self.n_params:
            raise SupportError("parameter vector has the wrong length")
        n = self.n_vars
        return spoly(n, [(e[:n], v * _monomial(vals, e[n:]))
                         for e, v in self._flat()])

    def restrict(self, axes):
        """Terms whose x-exponent is supported inside the given 1-based
        axis set."""
        keep = {a - 1 for a in axes}
        if not all(0 <= a < self.n_vars for a in keep):
            raise SupportError(f"axes {tuple(axes)} out of range 1..{self.n_vars}")
        out = [(mono, coeff) for mono, coeff in self.terms
               if all(e == 0 or i in keep for i, e in enumerate(mono))]
        return family(self.n_vars, self.n_params, out)


def _grouped(n_vars, n_params, flat):
    """The family of the flat terms (x-exponent + s-exponent, rational),
    collected: each x-exponent's coefficient is its run of the sorted
    terms."""
    return DeformationFamily(n_vars, n_params, tuple(
        (mono, tuple((e[n_vars:], v) for e, v in run))
        for mono, run in groupby(_collect(flat), lambda t: t[0][:n_vars])))


def family(n_vars, n_params, terms):
    flat = []
    for e, coeff in terms:
        mono = _exponent(e, n_vars, "exponent")
        flat += [(mono + se, v) for se, v in _coefficient_poly(coeff, n_params)]
    return _grouped(n_vars, n_params, flat)
