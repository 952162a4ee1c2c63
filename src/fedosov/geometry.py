"""Symplectic phase space data: constant omega, symmetric connections,
and their curvature.

Coordinates are q^1..q^{2n}.  The connection is encoded by coefficients
Gamma_{ijk}(q), totally symmetric in all three indices, entering the
Weyl-valued one-form  gamma = 1/2 Gamma_{ijk} X^i X^j dq^k.  Curvature is
available both as the coefficient tensor

    R_{ijkl} = d_k Gamma_{ilj} - d_l Gamma_{ijk}
               + omega^{mp} (Gamma_{plj} Gamma_{ikm} - Gamma_{pjk} Gamma_{ilm})

(symmetric in i,j; antisymmetric in k,l) and as the Weyl-algebra two-form
d gamma + (1/i hbar) gamma o gamma = 1/4 R_{ijkl} X^i X^j dq^k ^ dq^l.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import ext_d
from .poly import BasePolynomial
from .weyl import WeylAlgebra, WeylSeries, div_ihbar


class ValidationError(ValueError):
    """Structurally invalid phase-space or connection data."""


def _invert(mat):
    """Exact inverse of a square Fraction matrix (Gauss-Jordan)."""
    n = len(mat)
    a = [list(row) for row in mat]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValidationError("omega matrix is degenerate")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        inv[col] = [v / p for v in inv[col]]
        for r in range(n):
            if r == col or not a[r][col]:
                continue
            f = a[r][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
            inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def standard_omega_lower(dim: int):
    """Pairwise blocks on (q^{2a-1}, q^{2a}) chosen so omega^{12} = +1."""
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(0, dim, 2):
        rows[a][a + 1] = Fraction(-1)
        rows[a + 1][a] = Fraction(1)
    return tuple(tuple(r) for r in rows)


class ManifoldSpec:
    """Flat 2n-dimensional phase space with a constant symplectic form.

    ``omega_lower`` holds omega_{ij}; omega^{ij} is derived through
    omega^{ij} omega_{jk} = delta^i_k.
    """

    __slots__ = ("dim", "omega_lower", "omega_upper", "_algebra")

    def __init__(self, dim: int, omega_lower=None):
        if dim < 2 or dim % 2:
            raise ValidationError(f"dimension must be even and >= 2, got {dim}")
        self.dim = dim
        if omega_lower is None:
            omega_lower = standard_omega_lower(dim)
        omega_lower = tuple(tuple(Fraction(v) for v in row) for row in omega_lower)
        if len(omega_lower) != dim or any(len(r) != dim for r in omega_lower):
            raise ValidationError("omega must be a dim x dim matrix")
        for i in range(dim):
            for j in range(dim):
                if omega_lower[i][j] != -omega_lower[j][i]:
                    raise ValidationError(f"omega not antisymmetric at ({i+1},{j+1})")
        self.omega_lower = omega_lower
        self.omega_upper = _invert(omega_lower)
        self._algebra = None

    @classmethod
    def standard(cls, dim: int) -> "ManifoldSpec":
        return cls(dim)

    @property
    def algebra(self) -> WeylAlgebra:
        if self._algebra is None:
            self._algebra = WeylAlgebra(self.dim, self.omega_upper)
        return self._algebra

    def poisson(self, a: BasePolynomial, b: BasePolynomial) -> BasePolynomial:
        """{a, b} = omega^{ij} d_i a d_j b."""
        out = BasePolynomial.zero(self.dim)
        for i in range(self.dim):
            da = a.diff(i + 1)
            if da.is_zero():
                continue
            for j in range(self.dim):
                w = self.omega_upper[i][j]
                if not w:
                    continue
                out = out + (da * b.diff(j + 1)).scale(w)
        return out

    def __repr__(self):
        return f"<ManifoldSpec dim={self.dim}>"


class ConnectionSpec:
    """Totally symmetric connection coefficients Gamma_{ijk}(q).

    Entries are stored under sorted index triples; lookups symmetrize.
    Conflicting values for the same unordered triple are rejected.
    """

    __slots__ = ("dim", "_entries")

    def __init__(self, dim: int, entries=None):
        if dim < 2 or dim % 2:
            raise ValidationError(f"dimension must be even and >= 2, got {dim}")
        self.dim = dim
        data: dict[tuple[int, int, int], BasePolynomial] = {}
        for triple, poly in entries or ():
            triple = tuple(triple)
            if len(triple) != 3 or any(not 1 <= t <= dim for t in triple):
                raise ValidationError(f"index triple {triple} out of range 1..{dim}")
            if not isinstance(poly, BasePolynomial):
                poly = BasePolynomial.constant(dim, poly)
            if poly.dim != dim:
                raise ValidationError("connection coefficient dimension mismatch")
            key = tuple(sorted(triple))
            if key in data:
                if data[key] != poly:
                    raise ValidationError(
                        f"conflicting values for symmetric triple {key}: "
                        f"Gamma{triple} disagrees with an earlier entry"
                    )
                continue
            if not poly.is_zero():
                data[key] = poly
        self._entries = data

    @classmethod
    def zero(cls, dim: int) -> "ConnectionSpec":
        return cls(dim)

    def coeff(self, i: int, j: int, k: int) -> BasePolynomial:
        p = self._entries.get(tuple(sorted((i, j, k))))
        return p if p is not None else BasePolynomial.zero(self.dim)

    def triples(self):
        return sorted(self._entries.items())

    def is_zero(self) -> bool:
        return not self._entries

    def __repr__(self):
        return f"<ConnectionSpec dim={self.dim} entries={len(self._entries)}>"


@dataclass
class ValidationReport:
    ok: bool
    messages: list[str]


def validate(m: ManifoldSpec, c: ConnectionSpec) -> ValidationReport:
    """Cross-check a manifold/connection pair.  The constructors already
    enforce each object's own invariants (antisymmetric invertible omega,
    index ranges and coefficient dimension), so only the pairing is left."""
    msgs = []
    if m.dim != c.dim:
        msgs.append(f"dimension mismatch: manifold {m.dim}, connection {c.dim}")
    return ValidationReport(ok=not msgs, messages=msgs)


def gamma_form(m: ManifoldSpec, c: ConnectionSpec) -> WeylSeries:
    """gamma = 1/2 Gamma_{ijk} X^i X^j dq^k, a degree-2 one-form."""
    n = m.dim
    entries = []
    half = Fraction(1, 2)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                g = c.coeff(i, j, k)
                if g.is_zero():
                    continue
                fiber = [0] * n
                fiber[i - 1] += 1
                fiber[j - 1] += 1
                entries.append((g if i != j else g.scale(half), 0, fiber, (k,)))
    return WeylSeries.build(n, entries)


def curvature_tensor(m: ManifoldSpec, c: ConnectionSpec) -> dict:
    """The nonzero R_{ijkl} as {(i, j, k, l): BasePolynomial}."""
    n = m.dim
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    r = c.coeff(i, l, j).diff(k) - c.coeff(i, j, k).diff(l)
                    for mm in range(1, n + 1):
                        for p in range(1, n + 1):
                            w = m.omega_upper[mm - 1][p - 1]
                            if not w:
                                continue
                            quad = c.coeff(p, l, j) * c.coeff(i, k, mm) - c.coeff(p, j, k) * c.coeff(i, l, mm)
                            if not quad.is_zero():
                                r = r + quad.scale(w)
                    if not r.is_zero():
                        entries[(i, j, k, l)] = r
    return entries


def curvature_form(m: ManifoldSpec, c: ConnectionSpec, via: str = "form-equation") -> WeylSeries:
    """The curvature two-form, by either construction route.

    via="form-equation": d gamma + (1/i hbar) gamma o gamma.
    via="tensor":        1/4 R_{ijkl} X^i X^j dq^k ^ dq^l.
    The two agree; tests hold them together.
    """
    if via == "form-equation":
        g = gamma_form(m, c)
        sq = m.algebra.circ(g, g)
        if sq.is_zero():
            return ext_d(g)
        return ext_d(g) + div_ihbar(sq)
    if via == "tensor":
        from .weyl import wedge_normalize

        n = m.dim
        quarter = Fraction(1, 4)
        entries = []
        for (i, j, k, l), poly in sorted(curvature_tensor(m, c).items()):
            word, sign = wedge_normalize((k, l), n)
            if sign == 0:
                continue
            fiber = [0] * n
            fiber[i - 1] += 1
            fiber[j - 1] += 1
            entries.append((poly.scale(sign * quarter), 0, fiber, word))
        return WeylSeries.build(n, entries)
    raise ValueError(f"unknown curvature route {via!r}")
