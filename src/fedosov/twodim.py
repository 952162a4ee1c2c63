"""Closed-form 2D machinery: the coefficient extraction for squares of
delta_inv-images, and the elimination cascade showing such squares vanish
only trivially.

Conventions on the 2D phase space: q is the X^1 direction, p is the X^2
direction, omega^{12} = +1 so {q, p} = +1.

A homogeneous two-form of degree z-1 with even hbar powers only,

    F = sum_{k,l} hbar^{2k} a_{2k,l}(q,p) (X^1)^l (X^2)^{z-1-4k-l} dq^dp,

is encoded by the rescaled table b_{2k,l} = a_{2k,l} / (z-4k+1); the
rescaling absorbs the 1/(fiber+form) weight of delta_inv, so

    delta_inv F = sum hbar^{2k} b_{2k,l} [ (X^1)^{l+1} (X^2)^{z-1-4k-l} dp
                                         - (X^1)^l (X^2)^{z-4k-l} dq ].

The square (delta_inv F) o (delta_inv F) collects into odd hbar powers,

    sum_{A,B} g_{2A+1,B} hbar^{2A+1} (X^1)^B (X^2)^{2z-2-4A-B} dq^dp,

each g_{2A+1,B} a quadratic form in the b's.  Its factor on b_{2k,l} b_{2w,m}
is one contraction coefficient of X^(l+1, z-1-4k-l) o X^(m, z-4w-m), read
from the engine's memoized 2D kernel.  g_coeff evaluates g_{2A+1,B} on a
table.  cascade_solve treats the b's as indeterminates and eliminates them
one square pivot at a time, certifying that the square vanishes only when
F does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import weyl
from .calculus import delta_inv
from .poly import BasePolynomial
from .scalars import GaussianRational, I, ZERO
from .weyl import _CIRC, WeylAlgebra, WeylSeries, WeylTerm, _kernel


class CascadeError(RuntimeError):
    """The elimination cascade could not complete."""


class CoefficientTable:
    """Rescaled coefficients b_{2k,l} of a homogeneous even-hbar two-form.

    Keys are (2k, l) with 0 <= k <= (z-1)//4 and 0 <= l <= z-1-4k.  Values
    are GaussianRational constants or dim-2 BasePolynomials; the cascade
    also feeds tables whose values are indeterminate polynomial variables.
    """

    __slots__ = ("z", "_entries")

    def __init__(self, z: int, entries=None):
        if z < 1:
            raise ValueError("homogeneity parameter z must be >= 1")
        self.z = z
        data = {}
        valid = set(self.indices(z))
        for key, value in dict(entries or {}).items():
            key = tuple(key)
            if key not in valid:
                raise ValueError(f"table index {key} out of range for z={z}")
            if not isinstance(value, BasePolynomial):
                value = GaussianRational.of(value)
            if value:
                data[key] = value
        self._entries = data

    @staticmethod
    def indices(z: int) -> list[tuple[int, int]]:
        return [
            (2 * k, l)
            for k in range((z - 1) // 4 + 1)
            for l in range(z - 4 * k)
        ]

    def get(self, two_k: int, l: int):
        """Stored value, or None when the slot is absent or zero."""
        return self._entries.get((two_k, l))

    def items(self):
        return sorted(self._entries.items())

    def is_zero(self) -> bool:
        return not self._entries

    def to_form(self) -> WeylSeries:
        """The two-form this table encodes (constant or dim-2 values only)."""
        entries = []
        for (two_k, l), b in self.items():
            w = Fraction(self.z - 2 * two_k + 1)
            if isinstance(b, BasePolynomial):
                if b.dim != 2:
                    raise ValueError("table values are not base polynomials on 2D")
                coeff = b.scale(w)
            else:
                coeff = b * w
            entries.append((coeff, two_k, (l, self.z - 1 - 2 * two_k - l), (1, 2)))
        return WeylSeries.build(2, entries)

    def __repr__(self):
        return f"<CoefficientTable z={self.z} entries={len(self._entries)}>"


def _require_square_input(F: WeylSeries):
    if F.dim != 2:
        raise ValueError("square input must live on the 2D phase space")
    if F.is_zero():
        return
    degs = set()
    for t in F.terms():
        if t.word != (1, 2):
            raise ValueError("square input must be a pure dq1^dq2 two-form")
        if t.hbar % 2:
            raise ValueError(f"square input carries odd hbar power {t.hbar}")
        degs.add(t.degree)
    if len(degs) > 1:
        raise ValueError(f"square input mixes degrees {sorted(degs)}")


# omega pairs and scalar scale of the 2D algebra; its kernel table is looked
# up in weyl._KERNELS on each call, so that g_coeff reads the table in use
_ALG = WeylAlgebra(2)


def g_coeff(z: int, b: CoefficientTable, A: int, B: int):
    """Coefficient of hbar^{2A+1} (X^1)^B (X^2)^{2z-2-4A-B} dq^dp in the square.

    GaussianRational for constant tables; a polynomial when the table
    holds polynomial values.  The factor on b_{2k,l} b_{2w,m} is 2 i
    (-1)^(A-k-w) times the coefficient of (i hbar)^u, u = 2A+1-2k-2w, in
    X^(l+1, z-1-4k-l) o X^(m, z-4w-m): the 2D kernel's numerator at t = u
    over scale^u, as in 2D each t has at most one output fiber.
    """
    if b.z != z:
        raise ValueError(f"table built for z={b.z}, not z={z}")
    if A < 0 or B < 0:
        raise ValueError("A and B must be >= 0")
    if 4 * A + B + 2 > 2 * z:
        raise ValueError(f"(A,B)=({A},{B}) outside the admissible region for z={z}")
    kernels = weyl._KERNELS.setdefault(_ALG._pairs, {})
    kmax = (z - 1) // 4
    acc = None
    for k in range(min(A, kmax) + 1):
        for w in range(min(A - k, kmax) + 1):
            u = 2 * A + 1 - 2 * k - 2 * w
            for l in range(z - 4 * k):
                m = 2 * A + B - 2 * k - 2 * w - l
                if m < 0 or m > z - 1 - 4 * w:
                    continue
                b1 = b.get(2 * k, l)
                b2 = b.get(2 * w, m)
                if b1 is None or b2 is None:
                    continue
                pair = ((l + 1, z - 1 - 4 * k - l), (m, z - 4 * w - m), _CIRC)
                kernel = kernels.get(pair)
                if kernel is None:
                    kernel = kernels[pair] = _kernel(_ALG._pairs, *pair)
                n = next((n for t, _, n in kernel if t == u), 0)
                if not n:
                    continue
                sgn = -2 if (A - k - w) % 2 else 2
                contrib = (b1 * b2) * (I * Fraction(sgn * n, _ALG._scale ** u))
                acc = contrib if acc is None else acc + contrib
    return ZERO if acc is None else acc


@dataclass(frozen=True)
class SquareCheckResult:
    is_zero: bool
    witness: WeylTerm | None
    square: WeylSeries


def square_check(F: WeylSeries) -> SquareCheckResult:
    """Square delta_inv(F) under o and report the first surviving term.

    F must be a homogeneous 2D two-form with even hbar powers only; for
    such F the square vanishes exactly when F itself does, and the
    witness term certifies the nonvanishing direction.
    """
    _require_square_input(F)
    d = delta_inv(F)
    square = WeylAlgebra(2).circ(d, d)
    if square.is_zero():
        return SquareCheckResult(True, None, square)
    return SquareCheckResult(False, square.terms()[0], square)


@dataclass(frozen=True)
class PivotStep:
    A: int
    B: int
    variable: tuple[int, int]
    factor: GaussianRational


@dataclass(frozen=True)
class CascadeResult:
    z: int
    steps: tuple[PivotStep, ...]
    sweeps: int

    def describe(self) -> str:
        lines = [f"cascade z={self.z}: {len(self.steps)} pivots"]
        for s in self.steps:
            two_k, l = s.variable
            lines.append(
                f"  (A={s.A}, B={s.B}): ({s.factor}) * b[{two_k},{l}]^2 = 0"
                f"  =>  b[{two_k},{l}] = 0"
            )
        lines.append("all b = 0")
        return "\n".join(lines)


def cascade_solve(z: int) -> CascadeResult:
    """Eliminate every b_{2k,l} through single-square pivot equations.

    The b's are treated as indeterminates.  Sweeping (A, B) in ascending
    order, an equation that reduces (after earlier eliminations) to
    factor * b^2 = 0 with a nonzero factor pins that b to zero; sweeps
    repeat until the table empties.  A sweep with no progress means some
    variable is not pinned by any square equation, which would break the
    nonvanishing argument, so it raises instead of passing silently.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    keys = CoefficientTable.indices(z)
    pos = {key: n + 1 for n, key in enumerate(keys)}
    entries = {key: BasePolynomial.variable(len(keys), pos[key]) for key in keys}
    steps = []
    sweeps = 0
    while any(not v.is_zero() for v in entries.values()):
        sweeps += 1
        progress = False
        for A in range((2 * z - 2) // 4 + 1):
            for B in range(2 * z - 2 - 4 * A + 1):
                g = g_coeff(z, CoefficientTable(z, entries), A, B)
                if not g:
                    continue
                items = g.items()
                if len(items) != 1:
                    continue  # not yet a single-square pivot; revisit next sweep
                exps, c = items[0]
                if sorted(exps)[-1] != 2 or sum(exps) != 2:
                    continue
                key = keys[exps.index(2)]
                steps.append(PivotStep(A, B, key, c))
                entries[key] = BasePolynomial.zero(len(keys))
                progress = True
        if not progress:
            left = sorted(k for k, v in entries.items() if not v.is_zero())
            raise CascadeError(
                f"cascade stalled at z={z}; no square pivot pins {left}"
            )
    return CascadeResult(z, tuple(steps), sweeps)


def random_table(z: int, rng) -> CoefficientTable:
    """Random nonzero constant table, deterministic under the given rng."""
    while True:
        entries = {}
        for key in CoefficientTable.indices(z):
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            im = Fraction(rng.randint(-2, 2), 2) if rng.random() < 0.3 else Fraction(0)
            entries[key] = GaussianRational(re, im)
        table = CoefficientTable(z, entries)
        if not table.is_zero():
            return table
