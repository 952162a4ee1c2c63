"""Sparse polynomials in the base coordinates q^1..q^dim, stored over Fraction
with GaussianRational only where a coefficient has an imaginary part."""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussianRational, _accumulate, _coeff, format_scalar


class BasePolynomial:
    """Polynomial keyed by exponent tuples of length dim.

    Zero coefficients are never stored; the zero polynomial has an empty
    term map.  Instances are treated as immutable.  items(), coefficient()
    and constant_value() return every coefficient as GaussianRational.
    """

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim: int, coeffs=None):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        self.dim = dim
        terms: dict[tuple[int, ...], Fraction | GaussianRational] = {}
        if coeffs:
            for exps, c in (coeffs.items() if hasattr(coeffs, "items") else coeffs):
                exps = tuple(exps)
                if len(exps) != dim or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for dim {dim}")
                if exps in terms:  # a sum of imaginary values may be real: coerce it
                    c = terms.pop(exps) + c
                c = _coeff(c)
                if c:
                    terms[exps] = c
        self._coeffs = terms

    @classmethod
    def zero(cls, dim: int) -> "BasePolynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> "BasePolynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, k: int) -> "BasePolynomial":
        """The coordinate q^k, 1-based."""
        if not 1 <= k <= dim:
            raise ValueError(f"coordinate index {k} out of range 1..{dim}")
        exps = tuple(1 if j == k - 1 else 0 for j in range(dim))
        return cls(dim, {exps: 1})

    def items(self):
        """Terms in canonical order (exponent tuples sorted lexicographically)."""
        return [(e, GaussianRational.of(c)) for e, c in sorted(self._coeffs.items())]

    def coefficient(self, exps) -> GaussianRational:
        return GaussianRational.of(self._coeffs.get(tuple(exps), 0))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._coeffs)

    def constant_value(self) -> GaussianRational:
        return self.coefficient((0,) * self.dim)

    def _check(self, other: "BasePolynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} != {other.dim}")

    def __add__(self, other):
        if not isinstance(other, BasePolynomial):
            return NotImplemented
        self._check(other)
        out = dict(self._coeffs)
        for exps, c in other._coeffs.items():
            _accumulate(out, exps, c)
        return BasePolynomial(self.dim, out)

    def __sub__(self, other):
        if not isinstance(other, BasePolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BasePolynomial(self.dim, {e: -c for e, c in self._coeffs.items()})

    def scale(self, s) -> "BasePolynomial":
        s = _coeff(s)
        if not s:
            return BasePolynomial(self.dim)
        return BasePolynomial(self.dim, {e: c * s for e, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, BasePolynomial):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], Fraction | GaussianRational] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                _accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return BasePolynomial(self.dim, out)

    __rmul__ = __mul__

    def diff(self, k: int) -> "BasePolynomial":
        """Partial derivative with respect to q^k, 1-based."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"coordinate index {k} out of range 1..{self.dim}")
        out = {}
        for exps, c in self._coeffs.items():
            e = exps[k - 1]
            if e == 0:
                continue
            new = list(exps)
            new[k - 1] = e - 1
            out[tuple(new)] = c * e
        return BasePolynomial(self.dim, out)

    def __eq__(self, other):
        if not isinstance(other, BasePolynomial):
            return NotImplemented
        return self.dim == other.dim and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self._coeffs.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"BasePolynomial({self.dim}, {dict(self.items())!r})"


def format_poly(p: BasePolynomial) -> str:
    """Canonical human-readable form, e.g. '1/2*q1^2*q2 + q3'."""
    if p.is_zero():
        return "0"
    parts = []
    for exps, c in p.items():
        factors = []
        for k, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"q{k}")
            elif e > 1:
                factors.append(f"q{k}^{e}")
        cs = format_scalar(c)
        wrapped = f"({cs})" if (c.re and c.im) else cs
        if not factors:
            parts.append(wrapped)
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append("*".join([wrapped] + factors))
    out = " + ".join(parts)
    return out.replace(" + -", " - ")
