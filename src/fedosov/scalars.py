"""Exact scalars of base polynomials and of the public boundary: Fraction for
real values, GaussianRational a + b*i for values with i.  Weyl series keep int
numerators over one denominator instead."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Both parts are stored as Fraction, i.e. in lowest terms with positive
    denominator.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value) -> "GaussianRational":
        """Coerce int, Fraction or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(Fraction(other))
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))
_I_POWERS = (Fraction(1), I, Fraction(-1), -I)


def i_power(t: int):
    """i**t without repeated multiplication: a Fraction for even t."""
    return _I_POWERS[t % 4]


def _coeff(value):
    """Stored form of a scalar: Fraction unless its imaginary part is nonzero."""
    if isinstance(value, GaussianRational):
        return value if value.im else value.re
    if isinstance(value, (int, Fraction)):
        return value if type(value) is Fraction else Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a coefficient")


def _accumulate(data: dict, key, value) -> None:
    """data[key] += value, with a zero sum removed rather than stored and a
    real GaussianRational stored as its Fraction."""
    acc = data.get(key)
    value = value if acc is None else acc + value
    if type(value) is GaussianRational and not value.im:
        value = value.re
    if value:
        data[key] = value
    else:
        data.pop(key, None)


def format_scalar(v: GaussianRational) -> str:
    """Canonical literal: '0', '3/4', 'i', '-1/2*i', '1+1/2*i', '2-i'."""

    def imag(f: Fraction, lead: bool) -> str:
        sign = "-" if f < 0 else ("" if lead else "+")
        mag = -f if f < 0 else f
        return sign + ("i" if mag == 1 else f"{mag}*i")

    if not v:
        return "0"
    if not v.im:
        return str(v.re)
    if not v.re:
        return imag(v.im, lead=True)
    return str(v.re) + imag(v.im, lead=False)

