"""Polynomials over Q and deformation families with polynomial parameter
coefficients.

An SPoly is an exact polynomial in the ambient variables.  A
DeformationFamily is a polynomial in the ambient variables whose
coefficients are themselves polynomials in deformation parameters; setting
the parameters to zero recovers the base polynomial.
"""

from fractions import Fraction

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
        e = tuple(exponent)
        for mono, c in self.terms:
            if mono == e:
                return c
        return ZERO

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
        j = axis - 1
        out = []
        for mono, c in self.terms:
            if mono[j] == 0:
                continue
            dropped = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
            out.append((dropped, c * mono[j]))
        return spoly(self.n_vars, out)

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
    acc = {}
    for e, c in terms:
        mono = _exponent(e, n_vars, "exponent")
        acc[mono] = acc.get(mono, ZERO) + frac(c)
    cleaned = tuple(sorted((m, c) for m, c in acc.items() if c != 0))
    return SPoly(n_vars, cleaned)


def _coefficient_poly(coeff, n_params):
    """Normalize a coefficient: a bare rational means an s-free constant,
    otherwise an iterable of (s_exponent, value)."""
    if isinstance(coeff, (int, Fraction)) or isinstance(coeff, str):
        pairs = [((0,) * n_params, frac(coeff))]
    else:
        pairs = [(se, frac(v)) for se, v in coeff]
    acc = {}
    for se, v in pairs:
        key = _exponent(se, n_params, "parameter exponent")
        acc[key] = acc.get(key, ZERO) + v
    return tuple(sorted((se, v) for se, v in acc.items() if v != 0))


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

    def base(self):
        """F(x, 0)."""
        zero_s = (0,) * self.n_params
        out = []
        for mono, coeff in self.terms:
            for se, v in coeff:
                if se == zero_s:
                    out.append((mono, v))
        return spoly(self.n_vars, out)

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
        j = axis - 1
        out = []
        for mono, coeff in self.terms:
            if mono[j] == 0:
                continue
            dropped = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
            out.append((dropped, [(se, v * mono[j]) for se, v in coeff]))
        return family(self.n_vars, self.n_params, out)

    def partial_s(self, index):
        if not 1 <= index <= self.n_params:
            raise SupportError(f"parameter {index} out of range 1..{self.n_params}")
        k = index - 1
        out = []
        for mono, coeff in self.terms:
            shifted = []
            for se, v in coeff:
                if se[k] == 0:
                    continue
                shifted.append((se[:k] + (se[k] - 1,) + se[k + 1:], v * se[k]))
            if shifted:
                out.append((mono, shifted))
        return family(self.n_vars, self.n_params, out)

    def specialize(self, s_values):
        vals = [frac(v) for v in s_values]
        if len(vals) != self.n_params:
            raise SupportError("parameter vector has the wrong length")
        out = []
        for mono, coeff in self.terms:
            total = ZERO
            for se, v in coeff:
                term = v
                for x, e in zip(vals, se):
                    term *= x ** e
                total += term
            out.append((mono, total))
        return spoly(self.n_vars, out)

    def restrict(self, axes):
        """Terms whose x-exponent is supported inside the given 1-based
        axis set."""
        keep = {a - 1 for a in axes}
        if not all(0 <= a < self.n_vars for a in keep):
            raise SupportError(f"axes {tuple(axes)} out of range 1..{self.n_vars}")
        out = [(mono, coeff) for mono, coeff in self.terms
               if all(e == 0 or i in keep for i, e in enumerate(mono))]
        return family(self.n_vars, self.n_params, out)


def family(n_vars, n_params, terms):
    acc = {}
    for e, coeff in terms:
        mono = _exponent(e, n_vars, "exponent")
        pairs = _coefficient_poly(coeff, n_params)
        if mono in acc:
            merged = dict(acc[mono])
            for se, v in pairs:
                merged[se] = merged.get(se, ZERO) + v
            acc[mono] = tuple(sorted((se, v) for se, v in merged.items() if v != 0))
        else:
            acc[mono] = pairs
    cleaned = tuple(sorted((m, c) for m, c in acc.items() if c))
    return DeformationFamily(n_vars, n_params, cleaned)
