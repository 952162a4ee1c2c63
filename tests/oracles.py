"""Reference routes the tests compare the library against.

Each computes a result the library also computes, by a slower and more
direct route, or reads back what the library writes:

- the whole-series fixed point for the graded solver;
- the covariant_d-shaped source and lift, with gamma apart from r and one
  circ per ordered pair, for the graded recursion with r[2] = gamma;
- a bracket-free recursion, checked pair by pair afterwards, for the
  verdict of `fedosov finite` on connections whose components all commute;
- two full products per pair of form degrees for the one-pass commutator;
- the per-call contraction recursion for the memoized product kernel;
- term-by-term scalar loops for the integer product and graded operators;
- the Hodge split a = delta delta_inv a + delta_inv delta a + a_00;
- the flatness residual of a flat section against the whole series of r;
- the star product of hbar-expanded observables, bilinear over hbar powers;
- the star product as sigma of the whole circle product of lifts through
  grade 2K, for `star`'s X-free product of lifts through 2K - 1;
- closed-form 2D monomial products for the general circle product, from
  the factorial form of the 2D contraction coefficient;
- a coefficient table read off a real two-form, for `g_coeff` against the
  brute-force square;
- the reader of `series_to_records`, which shows `abelian --out json` is
  lossless.

The scalar loops read and write series only as flat maps of scalars,
through `scalars` and `from_scalars`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from fedosov import weyl
from fedosov.abelian import AbelianCorrection, FlatSection, abelian_r, flat_section, star
from fedosov.calculus import covariant_d, delta, delta_inv
from fedosov.geometry import ConnectionSpec, ManifoldSpec, curvature_form, gamma_form
from fedosov.manifest import parse_scalar
from fedosov.poly import BasePolynomial
from fedosov.scalars import _accumulate, _coeff, i_power
from fedosov.twodim import CoefficientTable, _require_square_input
from fedosov.weyl import WeylAlgebra, WeylSeries, div_ihbar, wedge_normalize


def scalars(s: WeylSeries) -> dict:
    """s as a flat map (nu power, fiber, word, q-exponents) -> Fraction or
    GaussianRational."""
    return weyl._rationals(s._den, s._terms)


def from_scalars(dim: int, known_through, terms: dict) -> WeylSeries:
    """The series of a flat map of scalars, as `scalars` returns one."""
    return WeylSeries(dim, known_through=known_through)._set(*weyl._numerators(terms))


def _grade(s: WeylSeries, z: int) -> WeylSeries:
    """The terms of s of degree z, as a standalone series."""
    return s._filtered(lambda u, k, f, w, e: 2 * k + sum(f) == z, None)


def abelian_r_iterative(m: ManifoldSpec, c: ConnectionSpec, steps: int, N: int) -> AbelianCorrection:
    """Whole-series fixed point r <- delta_inv(R + covariant_d r + (1/i hbar) r o r).

    After `steps` >= N sweeps the grades through N have stabilized and
    agree with the graded solver.
    """
    if N < 3:
        raise ValueError("need N >= 3")
    if steps < N:
        raise ValueError(f"need steps >= N for grades through {N} to settle")
    alg = m.algebra
    gamma = gamma_form(m, c)
    R = curvature_form(m, c)
    r = WeylSeries.zero(m.dim, known_through=N)
    for _ in range(steps):
        source = R + covariant_d(alg, gamma, r)
        sq = alg.circ(r, r)
        if not sq.is_zero():
            source = source + div_ihbar(sq)
        r = delta_inv(source).truncate(N)
    parts = {z: _grade(r, z) for z in range(3, N + 1)}
    return AbelianCorrection(m, c, parts, known_through=N)


def source_reference(r: AbelianCorrection, z: int) -> WeylSeries:
    """source(z) with gamma apart from r: curvature_form's R at z = 3, else

        covariant_d r[z-1] + (1/i hbar) sum_{j+k=z+1; j, k >= 3} r[j] o r[k],

    one circ per ordered pair."""
    m, c = r.manifold, r.connection
    if z == 3:
        return curvature_form(m, c)
    alg = m.algebra
    out = covariant_d(alg, gamma_form(m, c), r.part(z - 1))
    prods = sum((alg.circ(r.part(j), r.part(z + 1 - j)) for j in range(3, z - 1)),
                WeylSeries.zero(m.dim))
    return out if prods.is_zero() else out + div_ihbar(prods)


def flat_section_reference(r: AbelianCorrection, a0: BasePolynomial, N: int) -> WeylSeries:
    """flat_section's series with gamma apart from r: a[0] = a0 and

        a[z] = delta_inv( covariant_d a[z-1] + (1/i hbar) sum_{j=3..z} [r[j], a[z+1-j]] )."""
    m = r.manifold
    alg, gamma = m.algebra, gamma_form(m, r.connection)
    grades = [WeylSeries.from_poly(a0)]
    for z in range(1, N + 1):
        comms = sum((alg.commutator(r.part(j), grades[z + 1 - j]) for j in range(3, z + 1)),
                    WeylSeries.zero(m.dim))
        step = covariant_d(alg, gamma, grades[z - 1])
        grades.append(delta_inv(step if comms.is_zero() else step + div_ihbar(comms)))
    return sum(grades, WeylSeries.zero(m.dim, known_through=N))


class CommutingHypothesisError(ValueError):
    """A product r[j] o r[k] failed to vanish where the shortcut needs it."""


@dataclass
class CommutingCaseResult:
    kind: str  # "zero-curvature" | "finite" | "not-finite-within"
    z: int | None = None
    r_degree: int | None = None


def commuting_case_shortcut(m: ManifoldSpec, c: ConnectionSpec, z_max: int) -> CommutingCaseResult:
    """Degree of r under the hypothesis that every r[j] o r[k] vanishes.

    Then source(z) = covariant_d r[z-1] for z >= 4, so r[3] = delta_inv R
    and r[z] = delta_inv covariant_d r[z-1] until the source vanishes at
    some z (deg r = z - 1) or z_max is passed; afterwards r[j] o r[k] = 0
    is checked on every pair j <= k of the components formed, smallest j
    first.  A reference for `fedosov finite` wherever it does not raise."""
    if z_max < 4:
        raise ValueError("need z_max >= 4")
    R = curvature_form(m, c)
    if R.is_zero():
        return CommutingCaseResult(kind="zero-curvature")
    alg = m.algebra
    gamma = gamma_form(m, c)
    parts = {3: delta_inv(R)}
    found = None
    for z in range(4, z_max + 1):
        source = covariant_d(alg, gamma, parts[z - 1])
        if source.is_zero():
            found = z
            break
        parts[z] = delta_inv(source)
    for j in sorted(parts):
        for k in sorted(parts):
            if k >= j and not alg.circ(parts[j], parts[k]).is_zero():
                raise CommutingHypothesisError(
                    f"r[{j}] o r[{k}] != 0: commuting shortcut does not apply"
                )
    if found is None:
        return CommutingCaseResult(kind="not-finite-within")
    return CommutingCaseResult(kind="finite", z=found, r_degree=found - 1)


def commutator_two_products(alg: WeylAlgebra, a: WeylSeries, b: WeylSeries, cap=None) -> WeylSeries:
    """[a, b] = a o b - (-1)^{m1*m2} b o a, split over form degrees, with
    both full products formed through the commutator's own degree bound."""
    eff = alg._effective_cap(a, b, cap, fiber_only=True)

    def form_part(s, m):
        return from_scalars(s.dim, s.known_through,
                            {key: c for key, c in scalars(s).items() if len(key[2]) == m})

    out: dict = {}
    for m1 in a.form_degrees():
        for m2 in b.form_degrees():
            ap, bp = form_part(a, m1), form_part(b, m2)
            left = alg._product(ap, bp, eff)
            right = alg._product(bp, ap, eff)
            piece = left + right if (m1 * m2) % 2 else left - right
            for key, c in scalars(piece).items():
                _accumulate(out, key, c)
    return from_scalars(a.dim, eff, out)


def contractions_uncached(alg: WeylAlgebra, alpha, beta):
    """The contractions of X^alpha o X^beta, recomputed on every call, as
    (t, scalar, left_derivative_counts, right_derivative_counts)."""
    pairs = alg._pairs
    n = len(pairs)
    results = []

    def rec(idx, la, lb, mu):
        if idx == n:
            t = sum(mu)
            # (i/2)^t / prod(mu!)  *  prod weight^mu  *  falling factorials
            scalar = i_power(t) * Fraction(1, 2**t)
            for p, m in enumerate(mu):
                if m:
                    w = pairs[p][2] ** m
                    fact = 1
                    for x in range(2, m + 1):
                        fact *= x
                    scalar = scalar * Fraction(w, fact)
            left = [0] * alg.dim
            right = [0] * alg.dim
            for p, m in enumerate(mu):
                if m:
                    left[pairs[p][0]] += m
                    right[pairs[p][1]] += m
            ff = 1
            for i in range(alg.dim):
                for x in range(alpha[i] - left[i] + 1, alpha[i] + 1):
                    ff *= x
                for x in range(beta[i] - right[i] + 1, beta[i] + 1):
                    ff *= x
            results.append((t, scalar * ff, tuple(left), tuple(right)))
            return
        i, j, _w = pairs[idx]
        mmax = min(la[i], lb[j])
        for m in range(mmax + 1):
            la[i] -= m
            lb[j] -= m
            mu.append(m)
            rec(idx + 1, la, lb, mu)
            mu.pop()
            la[i] += m
            lb[j] += m

    rec(0, list(alpha), list(beta), [])
    return results


def kernel_uncached(alg: WeylAlgebra, alpha, beta, mode):
    """contractions_uncached summed per (t, output fiber) as {(t, fiber):
    scalar of nu^t}, zero sums dropped, filtered and doubled as `mode` asks."""
    sums: dict = {}
    for t, s, left, right in contractions_uncached(alg, alpha, beta):
        fiber = tuple(a + b - x - y for a, b, x, y in zip(alpha, beta, left, right))
        sums[(t, fiber)] = sums.get((t, fiber), 0) + s
    out = {}
    for (t, fiber), s in sums.items():
        s = _coeff(i_power(-t) * s)
        if not s or (mode == weyl._COMMUTATOR and not t % 2) or (mode == weyl._XFREE and any(fiber)):
            continue
        out[(t, fiber)] = 2 * s if mode == weyl._COMMUTATOR else s
    return out


def product_reference(alg: WeylAlgebra, a: WeylSeries, b: WeylSeries, eff, mode=weyl._CIRC) -> WeylSeries:
    """WeylAlgebra._product by one scalar multiplication per base term and
    kernel entry, with every kernel summed from contractions_uncached."""
    terms: dict = {}
    right = [(k2, f2, w2, q2, 2 * k2 + sum(f2))
             for (k2, f2, w2), q2 in weyl._groups(scalars(b)).items()]
    for (k1, f1, w1), q1 in weyl._groups(scalars(a)).items():
        d1 = 2 * k1 + sum(f1)
        for k2, f2, w2, q2, d2 in right:
            if eff is not None and d1 + d2 > eff:
                continue
            kernel = kernel_uncached(alg, f1, f2, mode)
            if not kernel:
                continue
            word, sign = wedge_normalize(w1 + w2, alg.dim)
            if sign == 0:
                continue
            base: dict = {}
            for e1, c1 in q1.items():
                for e2, c2 in q2.items():
                    c = c1 * c2
                    _accumulate(base, tuple(map(add, e1, e2)), c if sign > 0 else -c)
            for (t, fiber), scalar in kernel.items():
                for e, c in base.items():
                    _accumulate(terms, (k1 + k2 + t, fiber, word, e), c * scalar)
    return from_scalars(alg.dim, eff, terms)


def delta_reference(a: WeylSeries) -> WeylSeries:
    """calculus.delta term by term in scalar arithmetic."""
    known = a.known_through if a.known_through is None else a.known_through - 1
    out: dict = {}
    for (k, f, w, e), c in scalars(a).items():
        for i, fi in enumerate(f):
            if fi == 0:
                continue
            word, sign = wedge_normalize((i + 1,) + w, a.dim)
            if sign == 0:
                continue
            _accumulate(out, (k, f[:i] + (fi - 1,) + f[i + 1 :], word, e), c * (sign * fi))
    return from_scalars(a.dim, known, out)


def delta_inv_reference(a: WeylSeries) -> WeylSeries:
    """calculus.delta_inv term by term in scalar arithmetic."""
    known = a.known_through if a.known_through is None else a.known_through + 1
    out: dict = {}
    for (k, f, w, e), c in scalars(a).items():
        l, m = sum(f), len(w)
        if l + m == 0:
            continue
        scale = Fraction(1, l + m)
        for pos, j in enumerate(w):
            sign = -1 if pos % 2 else 1
            fiber = f[: j - 1] + (f[j - 1] + 1,) + f[j:]
            word = w[:pos] + w[pos + 1 :]
            _accumulate(out, (k, fiber, word, e), c * (sign * scale))
    return from_scalars(a.dim, known, out)


def ext_d_reference(a: WeylSeries) -> WeylSeries:
    """calculus.ext_d term by term in scalar arithmetic."""
    out: dict = {}
    for (k, f, w, e), c in scalars(a).items():
        for i, ei in enumerate(e):
            if ei == 0:
                continue
            word, sign = wedge_normalize((i + 1,) + w, a.dim)
            if sign == 0:
                continue
            _accumulate(out, (k, f, word, e[:i] + (ei - 1,) + e[i + 1 :]), c * (sign * ei))
    return from_scalars(a.dim, a.known_through, out)


def hodge_split(a: WeylSeries):
    """(delta delta_inv a, delta_inv delta a, X-free form-free part)."""
    dd = delta(delta_inv(a))
    di = delta_inv(delta(a))
    rest = a._filtered(lambda u, k, f, w, e: not any(f) and not w, a.known_through)
    return dd, di, rest


def correction_series(r: AbelianCorrection) -> WeylSeries:
    """The sum of r's graded parts, as one series known through r's bound."""
    out = WeylSeries.zero(r.manifold.dim, known_through=r.known_through)
    for p in r.parts.values():
        out = out + p.truncate(r.known_through)
    return out


def flatness_residual(r: AbelianCorrection, section: FlatSection) -> WeylSeries:
    """-delta a + covariant_d a + (1/i hbar)[r, a]; zero through grade N-1."""
    alg = r.manifold.algebra
    a = section.series
    return -delta(a) + covariant_d(alg, r._gamma, a) + div_ihbar(alg.commutator(correction_series(r), a))


def star_hbar(m: ManifoldSpec, c: ConnectionSpec, a: dict[int, BasePolynomial],
              b: dict[int, BasePolynomial], K: int,
              r: AbelianCorrection | None = None) -> dict[int, BasePolynomial]:
    """Star product of hbar-expanded observables, bilinear over hbar powers."""
    if K < 0:
        raise ValueError("need K >= 0")
    if r is None:
        r = abelian_r(m, c, max(3, 2 * K))
    out: dict[int, BasePolynomial] = {}
    for ja, pa in a.items():
        for jb, pb in b.items():
            if ja + jb > K:
                continue
            piece = star(m, c, pa, pb, K - ja - jb, r=r)
            for k, p in piece.items():
                j = ja + jb + k
                out[j] = out[j] + p if j in out else p
    return {k: p for k, p in out.items() if p}


def star_full_lift(m: ManifoldSpec, c: ConnectionSpec, a0: BasePolynomial, b0: BasePolynomial,
                   K: int, r: AbelianCorrection | None = None) -> dict[int, BasePolynomial]:
    """sigma(a o b) through hbar^K, with a and b the flat lifts through 2K."""
    if r is None:
        r = abelian_r(m, c, max(3, 2 * K))
    a, b = flat_section(r, a0, 2 * K), flat_section(r, b0, 2 * K)
    full = weyl.sigma(m.algebra.circ(a.series, b.series, cap=2 * K))
    return {k: p for k, p in full.items() if k <= K}


def _f_raw(r: int, j: int, s: int, k: int, t: int) -> Fraction:
    """Contraction coefficient of (i*hbar)^t in (X^1)^r(X^2)^j o (X^1)^s(X^2)^k,
    for exponents >= 0; zero when t is out of support.

    Satisfies f(r,j,s,k,0) = 1 and the swap rule
    f(s,k,r,j,t) = (-1)^t f(r,j,s,k,t).
    """
    lo = max(t - r, t - k, 0)
    hi = min(j, s, t)
    if lo > hi:
        return Fraction(0)
    total = Fraction(0)
    for a in range(lo, hi + 1):
        d = (
            math.factorial(a)
            * math.factorial(t - a)
            * math.factorial(r - t + a)
            * math.factorial(j - a)
            * math.factorial(s - a)
            * math.factorial(k - t + a)
        )
        total += Fraction(-1 if a % 2 else 1, d)
    pre = Fraction(
        math.factorial(r) * math.factorial(j) * math.factorial(s) * math.factorial(k),
        2**t,
    )
    return pre * total


def monomial_circ(r: int, j: int, s: int, k: int) -> WeylSeries:
    """(X^1)^r (X^2)^j o (X^1)^s (X^2)^k in closed form, as a 2D series."""
    if min(r, j, s, k) < 0:
        raise ValueError("exponents must be >= 0")
    entries = []
    for t in range(min(r, k) + min(j, s) + 1):
        c = i_power(t) * _f_raw(r, j, s, k, t)
        entries.append((c, t, (r + s - t, j + k - t), ()))
    return WeylSeries.build(2, entries)


def table_from_form(F: WeylSeries) -> CoefficientTable:
    """The rescaled table b_{2k,l} of a homogeneous even-hbar 2D two-form."""
    _require_square_input(F)
    z = F.degree() + 1
    entries = {}
    for t in F.terms():
        b = t.coeff.scale(Fraction(1, z - 2 * t.hbar + 1))
        # constant coefficients come back out as plain scalars
        entries[(t.hbar, t.fiber[0])] = b.constant_value() if b.is_constant() else b
    return CoefficientTable(z, entries)


def poly_from_records(dim: int, records) -> BasePolynomial:
    return BasePolynomial(dim, [(rec["exps"], parse_scalar(rec["c"])) for rec in records])


def series_from_records(dim: int, records, known_through=None) -> WeylSeries:
    return WeylSeries(dim, [((rec["hbar"], rec["fiber"], rec["wedge"]),
                             poly_from_records(dim, rec["coeff"])) for rec in records],
                      known_through)
