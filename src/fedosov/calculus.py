"""Graded operators on Weyl series: delta, its right inverse, d, and
connection covariant derivatives.

delta     a = dq^k ^ d a / d X^k          (degree -1, form degree +1)
delta_inv a = 1/(l+m) X^k (d/dq^k _| a)   (degree +1, form degree -1)
ext_d     a = dq^k ^ d a / d q^k          (degree 0, form degree +1)

on a term with fiber length l and form degree m; delta_inv annihilates
the l = m = 0 part.  delta^2 = delta_inv^2 = 0 and on each term with
l + m > 0 the two compose to the identity:

    a = delta delta_inv a + delta_inv delta a + a_00.

The three operators map int numerators to int numerators over the
operand's denominator, times the lcm of delta_inv's weights 1/(l+m).
"""

from __future__ import annotations

from math import lcm

from .weyl import WeylAlgebra, WeylSeries, _merge, div_ihbar


def _linear(a: WeylSeries, shift: int, each, scale: int = 1) -> WeylSeries:
    """Sum over a's terms n * key of m * n at every (image, m) of each(*key),
    over a's denominator * scale, known through a's bound + shift."""
    out: dict = {}
    for key, n in a._terms.items():
        for image, m in each(*key):
            out[image] = out.get(image, 0) + m * n
    known = a.known_through if a.known_through is None else a.known_through + shift
    return WeylSeries(a.dim, known_through=known)._set(a._den * scale, out)


def delta(a: WeylSeries) -> WeylSeries:
    def each(u, k, f, w, e):
        for i, fi in enumerate(f):
            word, sign = _merge((i + 1,), w) if fi else ((), 0)
            if sign:
                yield (u, k, f[:i] + (fi - 1,) + f[i + 1 :], word, e), sign * fi

    return _linear(a, -1, each)


def delta_inv(a: WeylSeries) -> WeylSeries:
    weight = lcm(*{sum(f) + len(w) for _, _, f, w, _ in a._terms if w})

    def each(u, k, f, w, e):
        m = weight // (sum(f) + len(w)) if w else 0
        for pos, j in enumerate(w):
            fiber = f[: j - 1] + (f[j - 1] + 1,) + f[j:]
            yield (u, k, fiber, w[:pos] + w[pos + 1 :], e), -m if pos % 2 else m

    return _linear(a, 1, each, weight)


def ext_d(a: WeylSeries) -> WeylSeries:
    if not any(any(key[4]) for key in a._terms):  # constant in q, as for constant Gamma
        return WeylSeries(a.dim, known_through=a.known_through)

    def each(u, k, f, w, e):
        for i, ei in enumerate(e):
            word, sign = _merge((i + 1,), w) if ei else ((), 0)
            if sign:
                yield (u, k, f, word, e[:i] + (ei - 1,) + e[i + 1 :]), sign * ei

    return _linear(a, 0, each)


def covariant_d(alg: WeylAlgebra, gamma: WeylSeries, a: WeylSeries) -> WeylSeries:
    """d a + (1/i hbar)[gamma, a] for a connection one-form gamma.

    For the symmetric quadratic gamma this preserves the grading degree.
    """
    if gamma.form_degrees() - {1}:
        raise ValueError("connection form must be homogeneous of form degree 1")
    return ext_d(a) + div_ihbar(alg.commutator(gamma, a))
