"""Graded operators on Weyl series: delta, its right inverse, d, and
connection covariant derivatives.

delta     a = dq^k ^ d a / d X^k          (degree -1, form degree +1)
delta_inv a = 1/(l+m) X^k (d/dq^k _| a)   (degree +1, form degree -1)
ext_d     a = dq^k ^ d a / d q^k          (degree 0, form degree +1)

on a term with fiber length l and form degree m; delta_inv annihilates
the l = m = 0 part.  delta^2 = delta_inv^2 = 0 and on each term with
l + m > 0 the two compose to the identity:

    a = delta delta_inv a + delta_inv delta a + a_00.
"""

from __future__ import annotations

from fractions import Fraction

from .weyl import TruncationError, WeylAlgebra, WeylSeries, div_ihbar, wedge_normalize


def delta(a: WeylSeries) -> WeylSeries:
    known = a.known_through if a.known_through is None else a.known_through - 1
    out = WeylSeries(a.dim, known_through=known)
    for (k, f, w), c in a._terms.items():
        for i in range(a.dim):
            e = f[i]
            if e == 0:
                continue
            word, sign = wedge_normalize((i + 1,) + w, a.dim)
            if sign == 0:
                continue
            fiber = f[:i] + (e - 1,) + f[i + 1 :]
            out._add_term(out._terms, k, fiber, word, c * (sign * e))
    return out


def delta_inv(a: WeylSeries) -> WeylSeries:
    known = a.known_through if a.known_through is None else a.known_through + 1
    out = WeylSeries(a.dim, known_through=known)
    for (k, f, w), c in a._terms.items():
        l, m = sum(f), len(w)
        if l + m == 0:
            continue
        scale = Fraction(1, l + m)
        for pos, j in enumerate(w):
            sign = -1 if pos % 2 else 1
            fiber = f[: j - 1] + (f[j - 1] + 1,) + f[j:]
            word = w[:pos] + w[pos + 1 :]
            out._add_term(out._terms, k, fiber, word, c * (sign * scale))
    return out


def ext_d(a: WeylSeries) -> WeylSeries:
    out = WeylSeries(a.dim, known_through=a.known_through)
    for (k, f, w), c in a._terms.items():
        for i in range(1, a.dim + 1):
            dc = c.diff(i)
            if dc.is_zero():
                continue
            word, sign = wedge_normalize((i,) + w, a.dim)
            if sign == 0:
                continue
            if sign < 0:
                dc = -dc
            out._add_term(out._terms, k, f, word, dc)
    return out


def hodge_split(a: WeylSeries):
    """(delta delta_inv a, delta_inv delta a, X-free form-free part)."""
    dd = delta(delta_inv(a))
    di = delta_inv(delta(a))
    rest = WeylSeries(a.dim, known_through=a.known_through)
    for (k, f, w), c in a._terms.items():
        if not any(f) and not w:
            rest._terms[(k, f, w)] = c
    return dd, di, rest


def covariant_d(alg: WeylAlgebra, gamma: WeylSeries, a: WeylSeries, cap=None) -> WeylSeries:
    """d a + (1/i hbar)[gamma, a] for a connection one-form gamma.

    For the symmetric quadratic gamma this preserves the grading degree.
    """
    if gamma.form_degrees() - {1}:
        raise ValueError("connection form must be homogeneous of form degree 1")
    out = ext_d(a) + div_ihbar(alg.commutator(gamma, a))
    if cap is not None:
        if out.known_through is not None and out.known_through < cap:
            raise TruncationError(
                f"covariant derivative valid through {out.known_through}, need {cap}"
            )
        out = out.truncate(cap)
    return out
