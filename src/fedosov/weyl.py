"""Formal Weyl-bundle series and the fiberwise Moyal-type product.

An element is a finite sum of terms

    hbar^k * c * q^e * X^{a_1}..X^{a_l} * dq^{j_1} ^ .. ^ dq^{j_m}

with c an exact scalar, q^e a monomial in the base coordinates, the fiber
part a commuting monomial in X^1..X^dim and the form part a wedge word of
strictly increasing 1-based indices.  The grading degree of a term is
2k + l (twice the hbar power plus the fiber length); it is additive under
the circle product.

A series is one positive int denominator and one flat map (u, nu power,
fiber, word, q-exponents) -> int numerator, where u = 1 marks an imaginary
part and nu = i*hbar, so contraction scalars are rational and 1/(i hbar) is
a shift.  _set keeps the map in lowest terms, so equal series store equal
maps.  Fraction, GaussianRational and BasePolynomial appear only at the
boundary: _load validates input and splits each polynomial into flat terms,
and terms() and sigma group them back, with hbar^k c = nu^k (i^-k c).

A series carries ``known_through``: the degree bound through which its
graded components are asserted exact.  ``None`` means the stored terms are
the whole series.  Operations propagate this bound and refuse requests
that would read past it, so truncation can never silently corrupt a grade.
Only the public constructors validate terms; the operators here store
terms they built themselves unchecked, keeping the known_through cut.

Every product reads one contraction kernel per omega: for a pair of fiber
exponents, the Moyal exponential exp((nu/2) P) of X^alpha o X^beta as one
(nu shift t, output fiber, int numerator over (2 D)^t, D the lcm of omega's
denominators) entry per nonzero output term, built once per process and
shared by all algebras with the same omega.  Products sum int numerators over
one denominator per call; two imaginary parts make a real term, negated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm
from operator import add

from .poly import BasePolynomial
from .scalars import GaussianRational, i_power


class TruncationError(ValueError):
    """A requested grade lies beyond what the operands determine."""


class DivisibilityError(ValueError):
    """Division by i*hbar applied to a series with an hbar^0 term."""


def wedge_normalize(indices, dim: int):
    """Sort a wedge word into increasing order.

    Returns (word, sign) with sign in {+1, -1}, or ((), 0) when an index
    repeats.  Indices are 1-based and must lie in 1..dim.
    """
    word = tuple(indices)
    for j in word:
        if not 1 <= j <= dim:
            raise ValueError(f"wedge index {j} out of range 1..{dim}")
    if len(set(word)) != len(word):
        return (), 0
    # the sign is the parity of the inversions, the transpositions a sort makes
    inversions = sum(x > y for a, x in enumerate(word) for y in word[a + 1:])
    return tuple(sorted(word)), -1 if inversions % 2 else 1


@cache
def _merge(w1, w2):
    """wedge_normalize(w1 + w2) for two increasing words, unchecked; memoized."""
    if not set(w1).isdisjoint(w2):
        return (), 0
    return tuple(sorted(w1 + w2)), -1 if sum(x > y for x in w1 for y in w2) % 2 else 1


def _numerators(scalars: dict):
    """(D, terms): a flat map of scalars as int numerators over D, the lcm of
    their denominators, each key prefixed by u = 0 (real) or 1 (imaginary)."""
    parts = {}
    for key, c in scalars.items():
        if type(c) is GaussianRational:
            parts[(1, *key)] = c.im
            c = c.re
        parts[(0, *key)] = c
    den = lcm(*{c.denominator for c in parts.values()})
    return den, {key: c.numerator * (den // c.denominator) for key, c in parts.items()}


def _rationals(den: int, terms: dict) -> dict:
    """The flat map of scalars of terms over den: a Fraction per key, or a
    GaussianRational where the imaginary part is nonzero."""
    out = {key[1:]: Fraction(n, den) for key, n in terms.items() if not key[0]}
    out.update((key[1:], GaussianRational(out.get(key[1:], 0), Fraction(n, den)))
               for key, n in terms.items() if key[0])
    return out


@dataclass(frozen=True, slots=True)
class WeylTerm:
    hbar: int
    fiber: tuple[int, ...]
    word: tuple[int, ...]
    coeff: BasePolynomial

    @property
    def degree(self) -> int:
        return 2 * self.hbar + sum(self.fiber)


def _min_known(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _groups(terms: dict) -> dict:
    """Flat terms grouped by all but their q-exponents: key[:-1] -> {q-exponents: value}."""
    out: dict = {}
    for key, c in terms.items():
        out.setdefault(key[:-1], {})[key[-1]] = c
    return out


class WeylSeries:
    """Sparse sum of terms with a truncation bound; see the module docstring."""

    __slots__ = ("dim", "known_through", "_den", "_terms")

    def __init__(self, dim: int, terms=None, known_through=None):
        self.dim = dim
        self.known_through = known_through
        self._den, self._terms = 1, {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            self._load((coeff, hbar, fiber, word) for (hbar, fiber, word), coeff in items)

    def _load(self, entries) -> "WeylSeries":
        """Store the sum of validated (coeff, hbar, fiber, word) entries,
        dropping terms past known_through; returns self."""
        scalars: dict = {}
        for coeff, hbar, fiber, word in entries:
            fiber, word = tuple(fiber), tuple(word)
            if hbar < 0:
                raise ValueError("negative hbar power")
            if len(fiber) != self.dim or any(e < 0 for e in fiber):
                raise ValueError(f"bad fiber exponents {fiber} for dim {self.dim}")
            if list(word) != sorted(set(word)):
                raise ValueError(f"wedge word {word} not strictly increasing")
            for j in word:
                if not 1 <= j <= self.dim:
                    raise ValueError(f"wedge index {j} out of range 1..{self.dim}")
            if coeff.dim != self.dim:
                raise ValueError("coefficient dimension mismatch")
            if self.known_through is not None and 2 * hbar + sum(fiber) > self.known_through:
                continue
            to_nu = i_power(-hbar)
            for e, c in coeff._coeffs.items():
                key = (hbar, fiber, word, e)
                scalars[key] = scalars.get(key, 0) + c * to_nu
        return self._set(*_numerators(scalars))

    def _set(self, den: int, terms: dict) -> "WeylSeries":
        """Store terms, int numerators over den > 0, in lowest terms and
        without zeros; returns self."""
        terms = {key: n for key, n in terms.items() if n}
        g = gcd(den, *terms.values())
        if g > 1:
            den, terms = den // g, {key: n // g for key, n in terms.items()}
        self._den, self._terms = den, terms
        return self

    @classmethod
    def zero(cls, dim: int, known_through=None) -> "WeylSeries":
        return cls(dim, known_through=known_through)

    @classmethod
    def build(cls, dim: int, entries, known_through=None) -> "WeylSeries":
        """entries: iterable of (coeff, hbar, fiber, word); coeff may be scalar."""
        return cls(dim, known_through=known_through)._load(
            (c if isinstance(c, BasePolynomial) else BasePolynomial.constant(dim, c), hbar, fiber, word)
            for c, hbar, fiber, word in entries)

    @classmethod
    def from_poly(cls, p: BasePolynomial) -> "WeylSeries":
        z = (0,) * p.dim
        return cls(p.dim, {(0, z, ()): p})

    def _filtered(self, keep, known_through) -> "WeylSeries":
        """The terms whose key satisfies keep, under a new bound."""
        return WeylSeries(self.dim, known_through=known_through)._set(
            self._den, {key: n for key, n in self._terms.items() if keep(*key)})

    def terms(self) -> list[WeylTerm]:
        """Canonical order: hbar power, fiber exponents, wedge word."""
        return [
            WeylTerm(k, f, w, BasePolynomial(self.dim, {e: c * i_power(k) for e, c in q.items()}))
            for (k, f, w), q in sorted(_groups(_rationals(self._den, self._terms)).items())
        ]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def degree(self):
        """Max degree among stored terms; None if no terms are stored.

        When ``known_through`` is finite the answer is only a lower bound:
        grades past the cut may hold more.
        """
        if not self._terms:
            return None
        return max(2 * k + sum(f) for _, k, f, _, _ in self._terms)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} != {other.dim}")

    def __add__(self, other):
        if isinstance(other, BasePolynomial):
            other = WeylSeries.from_poly(other)
        if not isinstance(other, WeylSeries):
            return NotImplemented
        self._check(other)
        known = _min_known(self.known_through, other.known_through)
        den = lcm(self._den, other._den)
        terms: dict = {}
        for src in (self, other):
            m = den // src._den
            for key, n in src._terms.items():
                if known is None or 2 * key[1] + sum(key[2]) <= known:
                    terms[key] = terms.get(key, 0) + n * m
        return WeylSeries(self.dim, known_through=known)._set(den, terms)

    def __sub__(self, other):
        if isinstance(other, (WeylSeries, BasePolynomial)):
            return self + (-other if isinstance(other, WeylSeries) else WeylSeries.from_poly(-other))
        return NotImplemented

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s) -> "WeylSeries":
        """The series times s, an int or a Fraction."""
        if not isinstance(s, (int, Fraction)):
            raise TypeError(f"cannot scale a series by {type(s).__name__}")
        return WeylSeries(self.dim, known_through=self.known_through)._set(
            self._den * s.denominator, {key: n * s.numerator for key, n in self._terms.items()})

    def truncate(self, cap: int) -> "WeylSeries":
        known = cap if self.known_through is None else min(self.known_through, cap)
        return self._filtered(lambda u, k, f, w, e: 2 * k + sum(f) <= known, known)

    def form_degrees(self) -> set[int]:
        return {len(key[3]) for key in self._terms}

    def __eq__(self, other):
        if not isinstance(other, WeylSeries):
            return NotImplemented
        return (self.dim, self._den, self._terms) == (other.dim, other._den, other._terms)

    __hash__ = None

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        n = len({key[1:4] for key in self._terms})
        return f"<WeylSeries dim={self.dim} terms={n} known_through={self.known_through}>"


def format_series(a: WeylSeries) -> str:
    if a.is_zero():
        return "0"
    from .poly import format_poly
    from .scalars import format_scalar

    parts = []
    for t in a.terms():
        factors = []
        if t.hbar == 1:
            factors.append("h")
        elif t.hbar > 1:
            factors.append(f"h^{t.hbar}")
        for idx, e in enumerate(t.fiber, start=1):
            if e == 1:
                factors.append(f"X{idx}")
            elif e > 1:
                factors.append(f"X{idx}^{e}")
        if t.word:
            factors.append("^".join(f"dq{j}" for j in t.word))
        c = t.coeff
        if c.is_constant():
            v = c.constant_value()
            if not factors:
                parts.append(format_scalar(v))
            elif v == 1:
                parts.append("*".join(factors))
            elif v == -1:
                parts.append("-" + "*".join(factors))
            else:
                cs = format_scalar(v)
                cs = f"({cs})" if (v.re and v.im) else cs
                parts.append("*".join([cs] + factors))
        else:
            cs = format_poly(c)
            if " " in cs and factors:
                cs = f"({cs})"
            parts.append("*".join([cs] + factors) if factors else cs)
    return " + ".join(parts).replace(" + -", " - ")


# --- potential minimal degrees, used for truncation bookkeeping ----------

def _potential_min_degree(a: WeylSeries, fiber_only: bool = False):
    """Smallest degree at which `a` can be nonzero, None if it cannot.

    With fiber_only=True, X-free terms are ignored: they are central, so
    they cannot contaminate a commutator with unknown grades.
    """
    cands = [2 * k + sum(f) for _, k, f, _, _ in a._terms if any(f) or not fiber_only]
    if a.known_through is not None:
        cands.append(a.known_through + 1)
    return min(cands) if cands else None


def _product_valid_through(a: WeylSeries, b: WeylSeries, fiber_only: bool = False):
    """Degree through which a term-pair product of a and b is fully determined."""
    bounds = []
    for x, y in ((a, b), (b, a)):
        if x.known_through is None:
            continue
        dmin = _potential_min_degree(y, fiber_only=fiber_only)
        if dmin is None:
            continue  # y is exactly zero: nothing to contaminate
        bounds.append(x.known_through + dmin)
    return min(bounds) if bounds else None


# --- the contraction kernel ---------------------------------------------

_CIRC, _COMMUTATOR, _XFREE = range(3)

# omega's nonzero pairs -> {(alpha, beta, mode): kernel}, shared by every
# algebra with the same omega; each kernel is built once per process
_KERNELS: dict = {}


def _kernel(pairs, alpha, beta, mode) -> tuple:
    """X^alpha o X^beta = exp((nu/2) P)(X^alpha, X^beta) as (t, output fiber,
    n), one entry per nonzero term, of scalar n / (2 D)^t.

    P sums w d/dX^i (left) d/dX^j (right) over omega's pairs (i, j, w).
    Level t applies the integer D P to the (left, right) exponent pairs of
    level t - 1; merged per output fiber it divides exactly by t!, as
    P^t / t! maps monomials to integer combinations.  Mode _CIRC keeps
    every t, _COMMUTATOR the odd t doubled, _XFREE the zero output fiber.
    """
    den = lcm(*{w.denominator for _, _, w in pairs})
    pairs = [(i, j, int(w * den)) for i, j, w in pairs]
    out = []
    level = {(alpha, beta): 1}
    t = 0
    while level:
        if mode != _COMMUTATOR or t % 2:
            merged: dict = {}
            for (la, lb), c in level.items():
                fiber = tuple(map(add, la, lb))
                if mode != _XFREE or not any(fiber):
                    merged[fiber] = merged.get(fiber, 0) + c
            fact = factorial(t)
            if t > 1 and any(c % fact for c in merged.values()):
                raise ArithmeticError(f"kernel level {t} not divisible by {t}!")
            double = 2 if mode == _COMMUTATOR else 1
            out.extend((t, fiber, double * c // fact) for fiber, c in merged.items() if c)
        applied: dict = {}
        for (la, lb), c in level.items():
            for i, j, w in pairs:
                if la[i] and lb[j]:
                    key = (la[:i] + (la[i] - 1,) + la[i + 1:], lb[:j] + (lb[j] - 1,) + lb[j + 1:])
                    applied[key] = applied.get(key, 0) + c * w * la[i] * lb[j]
        level = {key: c for key, c in applied.items() if c}
        t += 1
    return tuple(out)


class WeylAlgebra:
    """The circle product on Weyl series for a fixed constant omega^{ij}.

    The default in dimension 2n pairs (X^{2a-1}, X^{2a}) with
    omega^{2a-1,2a} = +1, so that X^1 o X^2 - X^2 o X^1 = i*hbar.
    """

    __slots__ = ("dim", "omega_upper", "_pairs", "_kernels", "_scale")

    def __init__(self, dim: int, omega_upper=None):
        if dim < 2 or dim % 2:
            raise ValueError("dim must be even and >= 2")
        self.dim = dim
        if omega_upper is None:
            rows = [[Fraction(0)] * dim for _ in range(dim)]
            for a in range(0, dim, 2):
                rows[a][a + 1] = Fraction(1)
                rows[a + 1][a] = Fraction(-1)
            omega_upper = rows
        self.omega_upper = tuple(tuple(Fraction(v) for v in row) for row in omega_upper)
        if len(self.omega_upper) != dim or any(len(r) != dim for r in self.omega_upper):
            raise ValueError("omega_upper must be dim x dim")
        if any(w != -self.omega_upper[j][i] for i, row in enumerate(self.omega_upper)
               for j, w in enumerate(row)):
            raise ValueError("omega_upper must be antisymmetric")
        # nonzero entries as (left fiber index, right fiber index, weight),
        # whole weights as int so that kernel levels accumulate in integers
        self._pairs = tuple((i, j, int(w) if w.denominator == 1 else w)
                            for i, row in enumerate(self.omega_upper)
                            for j, w in enumerate(row) if w)
        self._kernels = _KERNELS.setdefault(self._pairs, {})
        self._scale = 2 * lcm(*{w.denominator for _, _, w in self._pairs})  # scalar n / _scale^t

    # -- product --------------------------------------------------------

    def circ(self, a: WeylSeries, b: WeylSeries, cap=None) -> WeylSeries:
        """a o b, the term-wise contraction product.

        For monomial fibers it is the Moyal exponential, a finite sum

            X^alpha o X^beta = sum_t (i*hbar/2)^t / t! * P^t(X^alpha, X^beta),
            P = sum_ij omega^{ij} d/dX^i (left) d/dX^j (right).

        Degrees add: every product term has degree deg(a_term) + deg(b_term).
        The terms for a pair of fibers are read from the algebra's memoized
        kernel: per power nu^t, nu = i*hbar, and output fiber one integer
        numerator over (2 D)^t, D the lcm of omega's denominators, computed
        once per omega and fiber pair.
        Raises TruncationError when `cap` exceeds what the operands' own
        truncation bounds can determine.
        """
        eff = self._effective_cap(a, b, cap, fiber_only=False)
        return self._product(a, b, eff)

    def _effective_cap(self, a, b, cap, fiber_only):
        if a.dim != self.dim or b.dim != self.dim:
            raise ValueError("series dimension does not match algebra")
        bound = _product_valid_through(a, b, fiber_only=fiber_only)
        if cap is None:
            return bound
        if bound is not None and cap > bound:
            raise TruncationError(
                f"product requested through degree {cap} but operands only "
                f"determine it through {bound}"
            )
        return cap

    def _product(self, a: WeylSeries, b: WeylSeries, eff, mode=_CIRC, diagonal=False) -> WeylSeries:
        """Sum of the kernel terms of every pair of (u, nu, fiber, word) groups
        through degree eff, in ints over den_a den_b (2 D)^T, T the top kernel
        order reached (kernels list t in rising order), b's groups bucketed by
        word.  With diagonal, b is a one-form a whose unordered group pairs are
        met once: in mode _COMMUTATOR that is a o a = 1/2 [a, a], as a group
        paired with itself repeats its word and (g, h), (h, g) contribute equally."""
        right: dict = {}  # word -> b's groups with it; filled as a's are met if diagonal
        for (u2, k2, f2, w2), q2 in () if diagonal else _groups(b._terms).items():
            right.setdefault(w2, []).append((u2, k2, f2, q2, 2 * k2 + sum(f2)))
        kernels, jobs, top = self._kernels, [], 0
        for (u1, k1, f1, w1), q1 in _groups(a._terms).items():
            d1 = 2 * k1 + sum(f1)
            for w2, bucket in right.items():
                word, sign = _merge(w1, w2)
                if sign == 0:
                    continue
                for u2, k2, f2, q2, d2 in bucket:
                    if eff is not None and d1 + d2 > eff:
                        continue
                    kernel = kernels.get((f1, f2, mode))
                    if kernel is None:
                        kernel = kernels[(f1, f2, mode)] = _kernel(self._pairs, f1, f2, mode)
                    if not kernel:
                        continue
                    # the q-parts multiply once, so like q-terms merge before the kernel
                    base: dict = {}
                    for e1, c1 in q1.items():
                        for e2, c2 in q2.items():
                            e = tuple(map(add, e1, e2))
                            base[e] = base.get(e, 0) + c1 * c2
                    jobs.append((u1 ^ u2, k1 + k2, word, -sign if u1 & u2 else sign, kernel, base))
                    top = max(top, kernel[-1][0])
            if diagonal:
                right.setdefault(w1, []).append((u1, k1, f1, q1, d1))
        powers = [self._scale ** (top - t) for t in range(top + 1)]
        terms: dict = {}
        for u, k, word, sign, kernel, base in jobs:
            for t, fiber, n in kernel:
                n *= sign * powers[t]
                for e, c in base.items():
                    key = (u, k + t, fiber, word, e)
                    terms[key] = terms.get(key, 0) + c * n
        return WeylSeries(self.dim, known_through=eff)._set(
            a._den * b._den * self._scale ** top, terms)

    def _xfree(self, a: WeylSeries, b: WeylSeries, cap) -> WeylSeries:
        """The X-free terms of a o b through degree cap: what sigma keeps of it."""
        return self._product(a, b, self._effective_cap(a, b, cap, fiber_only=False), _XFREE)

    # -- graded commutator ---------------------------------------------

    def commutator(self, a: WeylSeries, b: WeylSeries, cap=None) -> WeylSeries:
        """[a, b] = a o b - (-1)^{m1*m2} b o a for terms of form degrees m1, m2.

        Swapping a term pair multiplies its order-t contraction C_t by
        (-1)^t, because omega is antisymmetric, and its wedge word by
        (-1)^{m1*m2}.  So [a, b] = 2 sum_{t odd} C_t(a, b) whatever the form
        degrees, formed in one product pass.  Every term has t >= 1, so the
        result is divisible by i*hbar, and forms free of X are central.
        """
        eff = self._effective_cap(a, b, cap, fiber_only=True)
        return self._product(a, b, eff, _COMMUTATOR)


# --- projection and division by i*hbar ----------------------------------

def sigma(a: WeylSeries) -> dict[int, BasePolynomial]:
    """Projection X -> 0 of a form-degree-0 series, keyed by hbar power."""
    out: dict[int, BasePolynomial] = {}
    for (k, f, w), q in _groups(_rationals(a._den, a._terms)).items():
        if w:
            raise ValueError("sigma applies to form-degree-0 series only")
        if not any(f):
            out[k] = BasePolynomial(a.dim, {e: c * i_power(k) for e, c in q.items()})
    return out


def div_ihbar(a: WeylSeries) -> WeylSeries:
    """Divide by i*hbar, a shift of nu; every term must carry hbar^k, k >= 1."""
    known = a.known_through if a.known_through is None else a.known_through - 2
    for _, k, f, w, _ in a._terms:
        if k == 0:
            raise DivisibilityError(f"term with hbar^0 not divisible: fiber={f} word={w}")
    return WeylSeries(a.dim, known_through=known)._set(
        a._den, {(u, k - 1, f, w, e): n for (u, k, f, w, e), n in a._terms.items()})
