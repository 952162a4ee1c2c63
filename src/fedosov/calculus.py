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

from .weyl import WeylAlgebra, WeylSeries, div_ihbar, wedge_normalize


def delta(a: WeylSeries) -> WeylSeries:
    known = a.known_through if a.known_through is None else a.known_through - 1
    out = WeylSeries(a.dim, known_through=known)
    for (k, f, w, e), c in a._terms.items():
        for i, fi in enumerate(f):
            if fi == 0:
                continue
            word, sign = wedge_normalize((i + 1,) + w, a.dim)
            if sign == 0:
                continue
            out._add_term(k, f[:i] + (fi - 1,) + f[i + 1 :], word, e, c * (sign * fi))
    return out


def delta_inv(a: WeylSeries) -> WeylSeries:
    known = a.known_through if a.known_through is None else a.known_through + 1
    out = WeylSeries(a.dim, known_through=known)
    for (k, f, w, e), c in a._terms.items():
        l, m = sum(f), len(w)
        if l + m == 0:
            continue
        scale = Fraction(1, l + m)
        for pos, j in enumerate(w):
            sign = -1 if pos % 2 else 1
            fiber = f[: j - 1] + (f[j - 1] + 1,) + f[j:]
            word = w[:pos] + w[pos + 1 :]
            out._add_term(k, fiber, word, e, c * (sign * scale))
    return out


def ext_d(a: WeylSeries) -> WeylSeries:
    out = WeylSeries(a.dim, known_through=a.known_through)
    for (k, f, w, e), c in a._terms.items():
        for i, ei in enumerate(e):
            if ei == 0:
                continue
            word, sign = wedge_normalize((i + 1,) + w, a.dim)
            if sign == 0:
                continue
            out._add_term(k, f, word, e[:i] + (ei - 1,) + e[i + 1 :], c * (sign * ei))
    return out


def hodge_split(a: WeylSeries):
    """(delta delta_inv a, delta_inv delta a, X-free form-free part)."""
    dd = delta(delta_inv(a))
    di = delta_inv(delta(a))
    rest = a._filtered(lambda k, f, w, e: not any(f) and not w, a.known_through)
    return dd, di, rest


def covariant_d(alg: WeylAlgebra, gamma: WeylSeries, a: WeylSeries) -> WeylSeries:
    """d a + (1/i hbar)[gamma, a] for a connection one-form gamma.

    For the symmetric quadratic gamma this preserves the grading degree.
    """
    if gamma.form_degrees() - {1}:
        raise ValueError("connection form must be homogeneous of form degree 1")
    return ext_d(a) + div_ihbar(alg.commutator(gamma, a))
