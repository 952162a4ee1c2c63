"""Abelian connections on the Weyl bundle and the induced star product.

The correction one-form r solves

    delta r = R + covariant_d r + (1/i hbar) r o r,      delta_inv r = 0,

with R the curvature two-form of the symmetric connection.  Solving grade
by grade gives the unique normalized solution r[z] = delta_inv source(z),
with source(3) = R and, for z >= 4,

    source(z) = covariant_d r[z-1] + (1/i hbar) sum_{j+k=z+1} r[j] o r[k]

(j, k >= 3), whose components are one-forms of degree z with fiber length
>= 1 and even hbar powers only.  For one-forms r[j] o r[k] + r[k] o r[j]
is the graded commutator [r[j], r[k]], so the sum pairs into one bracket
per unordered pair j <= k, halved when j = k.  Each correction keeps a
table of these brackets and of the sources, each formed at most once: the
solver, check_abelian and the closure system of finiteness_test all read
it.  Flat sections are lifted from their X-free parts by the same graded
step, with commutators [r[j], a[w]] in place of the products, and the star
product of two observables is the projection of the circle product of
their lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .calculus import covariant_d, delta, delta_inv
from .geometry import ConnectionSpec, ManifoldSpec, curvature_form, gamma_form
from .poly import BasePolynomial
from .weyl import TruncationError, WeylSeries, div_ihbar

_HALF = Fraction(1, 2)


@dataclass
class AbelianCorrection:
    """Graded components of r, each an exact homogeneous one-form."""

    manifold: ManifoldSpec
    connection: ConnectionSpec
    parts: dict[int, WeylSeries]
    known_through: int
    # filled on demand from `parts`, which must not change once read:
    # (j, k) with j <= k -> [r[j], r[k]], halved when j == k; z -> source(z), R at 3
    _table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def part(self, z: int) -> WeylSeries:
        if z < 3:
            raise ValueError("components start at degree 3")
        if z > self.known_through:
            raise TruncationError(f"r[{z}] not computed (known through {self.known_through})")
        return self.parts.get(z, WeylSeries.zero(self.manifold.dim))

    def nonzero_grades(self) -> list[int]:
        return sorted(z for z, p in self.parts.items() if not p.is_zero())

    def degree(self):
        grades = self.nonzero_grades()
        return grades[-1] if grades else None

    @cached_property
    def _gamma(self) -> WeylSeries:
        return gamma_form(self.manifold, self.connection)

    def _pair(self, j: int, k: int) -> WeylSeries:
        """r[j] o r[k] + r[k] o r[j] for j < k, and r[j] o r[j] for j == k."""
        p = self._table.get((j, k))
        if p is None:
            p = self.manifold.algebra.commutator(self.part(j), self.part(k))
            if j == k:
                p = p.scale(_HALF)
            self._table[(j, k)] = p
        return p

    def _source(self, z: int) -> WeylSeries:
        """R at z = 3, else covariant_d r[z-1] + (1/i hbar) sum_{j+k=z+1} r[j] o r[k]."""
        s = self._table.get(z)
        if s is None and z == 3:
            s = self._table[z] = curvature_form(self.manifold, self.connection)
        elif s is None:
            pairs = [self._pair(j, z + 1 - j) for j in range(3, (z + 1) // 2 + 1)]
            s = self._table[z] = _step(self, self.part(z - 1), pairs)
        return s


def _step(r: AbelianCorrection, prev: WeylSeries, prods) -> WeylSeries:
    """covariant_d prev + (1/i hbar) sum(prods): one grade's source."""
    out = covariant_d(r.manifold.algebra, r._gamma, prev)
    total = sum(prods, WeylSeries.zero(r.manifold.dim))
    return out if total.is_zero() else out + div_ihbar(total)


def abelian_r(m: ManifoldSpec, c: ConnectionSpec, N: int) -> AbelianCorrection:
    """Solve the normalized correction grade by grade through degree N."""
    if N < 3:
        raise ValueError("need N >= 3: the correction starts at degree 3")
    r = AbelianCorrection(m, c, {}, known_through=2)
    for z in range(3, N + 1):
        r.parts[z] = delta_inv(r._source(z))
        r.known_through = z
    return r


@dataclass
class CheckReport:
    ok: bool
    checked_through: int
    first_bad_grade: int | None = None
    residual: WeylSeries | None = None
    normalization_ok: bool = True
    even_hbar_ok: bool = True
    fiber_ok: bool = True
    base_ok: bool = True
    messages: list[str] = field(default_factory=list)


def check_abelian(r: AbelianCorrection, N: int | None = None) -> CheckReport:
    """Verify the defining equation residual vanishes through grade N-1,
    plus the normalization delta_inv r = 0, even hbar powers, fiber
    length >= 1, each term's degree matching its grade, and the base
    component r[3] = delta_inv R.

    The residual at grade g is delta r[g+1] - source(g+1), read from the
    correction's table; it reads only products r[j] o r[k] with j + k <= N + 1.
    """
    if N is None:
        N = r.known_through
    if N < 3:
        raise ValueError("need N >= 3: the check starts at grade 2")
    if N > r.known_through:
        raise TruncationError(f"cannot check through {N}: r known through {r.known_through}")

    report = CheckReport(ok=True, checked_through=N - 1)
    for g in range(2, N):
        residual = delta(r.part(g + 1)) - r._source(g + 1)
        if not residual.is_zero():
            report.ok = False
            report.first_bad_grade = g
            report.residual = residual
            report.messages.append(f"equation residual nonzero at grade {g}")
            break

    graded = True
    for z in range(3, N + 1):
        pz = r.part(z)
        if not delta_inv(pz).is_zero():
            report.normalization_ok = False
            report.messages.append(f"delta_inv r[{z}] != 0")
        for k, fiber, _ in sorted({key[1:4] for key in pz._terms}):
            degree = 2 * k + sum(fiber)
            if k % 2:
                report.even_hbar_ok = False
                report.messages.append(f"odd hbar power {k} in r[{z}]")
            if not any(fiber):
                report.fiber_ok = False
                report.messages.append(f"X-free term in r[{z}]")
            if degree != z:
                graded = False
                report.messages.append(f"degree-{degree} term in r[{z}]")
    if r.part(3) != delta_inv(r._source(3)):
        report.base_ok = False
        report.messages.append("r[3] != delta_inv R")
    report.ok = report.ok and report.normalization_ok and report.even_hbar_ok \
        and report.fiber_ok and report.base_ok and graded
    return report


@dataclass
class FinitenessResult:
    """Outcome of the closure system for 'r stops below degree m'."""

    m: int
    violations: tuple[int, ...]  # would-be source grades z with nonzero residual
    first_residual: WeylSeries | None = None

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def first_violated(self):
        return self.violations[0] if self.violations else None

    @property
    def square_violated(self) -> bool:
        return (2 * self.m - 3) in self.violations


def finiteness_test(r: AbelianCorrection, m_param: int) -> FinitenessResult:
    """Evaluate the closure system equivalent to r[z] = 0 for all z >= m_param.

    Equation at z = m:      source(m) = 0, the solver's own source
    and for m < z <= 2m-3:  sum_j r[j] o r[z+1-j] = 0 over the j with both
    factors below degree m; the last is r[m-1] o r[m-1] = 0.  The range of j
    is symmetric under j -> z+1-j, so each sum is read from its lower half.
    """
    if m_param < 4:
        raise ValueError("need m >= 4")
    if r.known_through < m_param - 1:
        raise TruncationError(
            f"need r through degree {m_param - 1}, known through {r.known_through}"
        )
    mm = m_param
    equations = [(mm, r._source(mm))]
    for z in range(mm + 1, 2 * mm - 2):
        js = range(max(3, z + 2 - mm), (z + 1) // 2 + 1)
        equations.append((z, sum((r._pair(j, z + 1 - j) for j in js),
                                 WeylSeries.zero(r.manifold.dim))))
    bad = [(z, eq) for z, eq in equations if not eq.is_zero()]
    return FinitenessResult(mm, tuple(z for z, _ in bad), bad[0][1] if bad else None)


@dataclass
class FlatSection:
    a0: BasePolynomial
    series: WeylSeries
    known_through: int


def flat_section(r: AbelianCorrection, a0: BasePolynomial, N: int | None = None) -> FlatSection:
    """Lift a0(q) to the section flat for the Abelian connection:

        a = a0 + delta_inv( covariant_d a + (1/i hbar)[r, a] )

    solved through grade N by the solver's graded step: a[0] = a0 and

        a[z] = delta_inv( covariant_d a[z-1]
                          + (1/i hbar) sum_{j>=3} [r[j], a[z+1-j]] ).

    a0 is X-free, hence central, so the sum stops at j = z.
    """
    m = r.manifold
    if N is None:
        N = r.known_through
    if N < 0:
        raise ValueError("need N >= 0")
    if N > r.known_through:
        raise TruncationError(f"need r through {N}, known through {r.known_through}")
    if a0.dim != m.dim:
        raise ValueError("observable dimension mismatch")
    grades = [WeylSeries.from_poly(a0)]
    for z in range(1, N + 1):
        comms = [m.algebra.commutator(r.part(j), grades[z + 1 - j]) for j in range(3, z + 1)]
        grades.append(delta_inv(_step(r, grades[z - 1], comms)))
    series = sum(grades, WeylSeries.zero(m.dim, known_through=N))
    return FlatSection(a0=a0, series=series, known_through=N)


def star(m: ManifoldSpec, c: ConnectionSpec, a0: BasePolynomial, b0: BasePolynomial,
         K: int, r: AbelianCorrection | None = None) -> dict[int, BasePolynomial]:
    """Star product through hbar^K: lift both observables to flat sections
    through grade 2K, multiply, project with sigma.  Only the X-free terms
    of the product are formed, since sigma drops every other one."""
    from .weyl import sigma

    if K < 0:
        raise ValueError("need K >= 0")
    if r is None:
        r = abelian_r(m, c, max(3, 2 * K))
    elif r.known_through < 2 * K:
        raise TruncationError(f"need r through {2 * K}, known through {r.known_through}")
    sa = flat_section(r, a0, 2 * K)
    sb = flat_section(r, b0, 2 * K)
    prod = m.algebra._xfree(sa.series, sb.series, cap=2 * K)
    return {k: p for k, p in sigma(prod).items() if k <= K}
