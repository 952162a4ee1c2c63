import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import weyl
from fedosov.calculus import delta, delta_inv, ext_d
from fedosov.poly import BasePolynomial
from fedosov.scalars import GaussianRational, I, _accumulate
from fedosov.twodim import CoefficientTable
from fedosov.weyl import (
    DivisibilityError,
    TruncationError,
    WeylAlgebra,
    WeylSeries,
    div_ihbar,
    format_series,
    sigma,
)

from conftest import rand_homogeneous, rand_poly, rand_series
from oracles import (
    _f_raw,
    commutator_two_products,
    delta_inv_reference,
    delta_reference,
    ext_d_reference,
    from_scalars,
    kernel_uncached,
    product_reference,
)

ALG2 = WeylAlgebra(2)
ALG4 = WeylAlgebra(4)
# non-unit rational weights on every pair, Pfaffian 2*3 + 1/3
CUSTOM4_OMEGA = [[0, 2, 1, 0], [-2, 0, 0, Fraction(-1, 3)],
                 [-1, 0, 0, 3], [0, Fraction(1, 3), -3, 0]]
CUSTOM4 = WeylAlgebra(4, CUSTOM4_OMEGA)


def fib(dim, **powers):
    exps = [0] * dim
    for name, e in powers.items():
        exps[int(name[1:]) - 1] = e
    return tuple(exps)


def xmono(dim, coeff=1, hbar=0, word=(), **powers):
    return WeylSeries.build(dim, [(coeff, hbar, fib(dim, **powers), word)])


class TestSeriesBasics:
    def test_canonical_order_and_merging(self):
        s = WeylSeries.build(2, [(1, 0, (1, 0), ()), (2, 0, (0, 1), ()), (3, 0, (1, 0), ())])
        terms = s.terms()
        assert [(t.hbar, t.fiber) for t in terms] == [(0, (0, 1)), (0, (1, 0))]
        assert terms[1].coeff.constant_value() == 4

    def test_zero_terms_dropped(self):
        s = xmono(2, coeff=1, X1=1) - xmono(2, coeff=1, X1=1)
        assert s.is_zero() and s.terms() == []

    def test_degree_accounting(self):
        s = WeylSeries.build(2, [(1, 2, (1, 0), ()), (1, 0, (0, 1), ())])
        assert s.degree() == 5
        assert [t.hbar for t in s.terms() if t.degree == 5] == [2]

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError):
            WeylSeries.build(2, [(1, -1, (0, 0), ())])
        with pytest.raises(ValueError):
            WeylSeries.build(2, [(1, 0, (0, -1), ())])
        with pytest.raises(ValueError):
            WeylSeries.build(2, [(1, 0, (0, 0), (2, 1))])

    def test_truncation_read_guard(self):
        s = xmono(2, X1=3).truncate(2)
        x1 = xmono(2, X1=1)
        with pytest.raises(TruncationError):
            ALG2.circ(s, x1, cap=4)
        assert ALG2.circ(s, x1, cap=3).is_zero()
        assert s.is_zero()  # the degree-3 term fell outside the bound


class TestCirc:
    def test_x_free_is_pointwise(self):
        rng = random.Random(1)
        for dim, alg in ((2, ALG2), (4, ALG4)):
            p = rand_poly(rng, dim)
            q = rand_poly(rng, dim)
            prod = alg.circ(WeylSeries.from_poly(p), WeylSeries.from_poly(q))
            assert sigma(prod) == ({0: p * q} if p * q else {})

    def test_canonical_commutator_value(self):
        x1 = xmono(2, X1=1)
        x2 = xmono(2, X2=1)
        c = ALG2.commutator(x1, x2)
        assert c == WeylSeries.build(2, [(I, 1, (0, 0), ())])

    def test_monomial_square_product(self):
        # (X1)^2 o (X2)^2 = X1^2 X2^2 + 2 i h X1 X2 - h^2 / 2
        a = xmono(2, X1=2)
        b = xmono(2, X2=2)
        want = WeylSeries.build(2, [
            (1, 0, (2, 2), ()),
            (2 * I, 1, (1, 1), ()),
            (Fraction(-1, 2), 2, (0, 0), ()),
        ])
        assert ALG2.circ(a, b) == want

    def test_degree_additivity(self):
        rng = random.Random(2)
        for _ in range(40):
            dim, alg = rng.choice(((2, ALG2), (4, ALG4)))
            d1, d2 = rng.randint(0, 4), rng.randint(0, 4)
            a = rand_homogeneous(rng, dim, d1)
            b = rand_homogeneous(rng, dim, d2)
            prod = alg.circ(a, b)
            for t in prod.terms():
                assert t.degree == d1 + d2

    def test_associativity_samples(self):
        rng = random.Random(3)
        for _ in range(15):
            dim, alg = rng.choice(((2, ALG2), (4, ALG4)))
            a = rand_series(rng, dim, terms=2)
            b = rand_series(rng, dim, terms=2)
            c = rand_series(rng, dim, terms=2)
            assert alg.circ(alg.circ(a, b), c) == alg.circ(a, alg.circ(b, c))

    def test_central_elements(self):
        rng = random.Random(4)
        center = WeylSeries.build(2, [(rand_poly(rng, 2), 3, (0, 0), ())])
        a = rand_series(rng, 2, terms=3)
        assert ALG2.commutator(center, a).is_zero()

    def test_commutator_sign_on_odd_forms(self):
        # odd form degree: [a, a] = a o a + a o a
        a = xmono(2, X1=1, word=(1,))
        assert ALG2.commutator(a, a) == ALG2.circ(a, a) + ALG2.circ(a, a)

    def test_commutator_divisible_by_ihbar(self):
        rng = random.Random(5)
        for _ in range(20):
            dim, alg = rng.choice(((2, ALG2), (4, ALG4)))
            a = rand_series(rng, dim, terms=2)
            b = rand_series(rng, dim, terms=2)
            c = alg.commutator(a, b)
            assert all(t.hbar >= 1 for t in c.terms())
            # and dividing out i*hbar then multiplying back is the identity
            d = div_ihbar(c)
            assert WeylSeries.build(dim, [(I, 1, (0,) * dim, ())]) is not None
            back = WeylSeries(dim, {
                (t.hbar + 1, t.fiber, t.word): t.coeff * I for t in d.terms()
            })
            assert back == c

    def test_truncated_product_bounds(self):
        a = xmono(2, X1=1).truncate(2)
        b = xmono(2, X2=1)
        with pytest.raises(TruncationError):
            ALG2.circ(a, b, cap=5)
        prod = ALG2.circ(a, b, cap=3)
        assert prod.known_through == 3

    def test_commutator_matches_two_products(self):
        # the one-pass odd-order bracket against a o b -+ b o a formed per
        # pair of form degrees, on mixed form degrees 0..2 and truncated operands
        custom = WeylAlgebra(4, [[0, 2, 1, 0], [-2, 0, 0, Fraction(-1, 2)],
                                 [-1, 0, 0, 3], [0, Fraction(1, 2), -3, 0]])
        rng = random.Random(27)
        nonzero = 0
        for alg in (ALG2, ALG4, custom):
            for cut_a, cut_b, cap in ((None, None, None), (None, None, 5), (5, None, None),
                                      (None, 6, None), (6, 4, None)):
                for _ in range(3):
                    a = rand_series(rng, alg.dim, terms=4, max_fiber=1)
                    b = rand_series(rng, alg.dim, terms=4, max_fiber=1)
                    a = a if cut_a is None else a.truncate(cut_a)
                    b = b if cut_b is None else b.truncate(cut_b)
                    got = alg.commutator(a, b, cap)
                    want = commutator_two_products(alg, a, b, cap)
                    assert got == want
                    assert got.known_through == want.known_through
                    nonzero += not got.is_zero()
        assert nonzero > 35

    def test_kernel_matches_uncached_contractions(self):
        # every memoized kernel, mode by mode, against the per-call recursion
        # summed per (t, output fiber): all fiber pairs through length 4 in
        # 2D, 3 in 4D; one entry per output term, each a nonzero int
        # numerator of its nu^t scalar over scale^t = (2 D)^t, D the lcm of
        # omega's denominators
        nonzero = 0
        for alg, length, scale in ((ALG2, 4, 2), (ALG4, 3, 2), (CUSTOM4, 3, 6)):
            fibers = [f for f in itertools.product(range(length + 1), repeat=alg.dim)
                      if sum(f) <= length]
            for alpha, beta in itertools.product(fibers, repeat=2):
                for mode in (weyl._CIRC, weyl._COMMUTATOR, weyl._XFREE):
                    want = kernel_uncached(alg, alpha, beta, mode)
                    got = weyl._kernel(alg._pairs, alpha, beta, mode)
                    assert all(type(n) is int and n for _, _, n in got)
                    as_map = {(t, f): Fraction(n, scale**t) for t, f, n in got}
                    assert len(as_map) == len(got)
                    assert as_map == want
                nonzero += bool(want)  # the _XFREE kernel, the last mode
        assert nonzero > 50

    def test_kernel_matches_closed_form_2d(self):
        # the 2D kernel is the closed form f(r, j, s, k, t) of
        # (X1^r X2^j) o (X1^s X2^k) at fiber (r+s-t, j+k-t), as a nonzero
        # int numerator over 2^t, nothing missing and nothing extra: all
        # fiber pairs through length 6, and every pair g_coeff reads for
        # z <= 16, X^(l+1, z-1-2k'-l) o X^(m, z-2w'-m) for table keys (k', l)
        # and (w', m)
        fibers = [f for f in itertools.product(range(7), repeat=2) if sum(f) <= 6]
        pairs = set(itertools.product(fibers, repeat=2))
        for z in range(1, 17):
            keys = CoefficientTable.indices(z)
            pairs.update(((l + 1, z - 1 - 2 * k - l), (m, z - 2 * w - m))
                         for (k, l), (w, m) in itertools.product(keys, repeat=2))
        for (r, j), (s, k) in sorted(pairs):
            want = {(t, (r + s - t, j + k - t)): _f_raw(r, j, s, k, t)
                    for t in range(min(r, k) + min(j, s) + 1)}
            got = weyl._kernel(ALG2._pairs, (r, j), (s, k), weyl._CIRC)
            assert all(type(n) is int and n for _, _, n in got)
            assert len(got) == len({(t, f) for t, f, _ in got})
            assert {(t, f): Fraction(n, 2**t) for t, f, n in got} == {key: c for key, c in want.items() if c}

    def test_kernel_built_once_per_key(self, monkeypatch):
        # a fresh table, shared across algebras of equal omega: every key
        # is built once however many products and algebras read it
        built = []
        kernel = weyl._kernel

        def counting_kernel(pairs, alpha, beta, mode):
            built.append((pairs, alpha, beta, mode))
            return kernel(pairs, alpha, beta, mode)

        monkeypatch.setattr(weyl, "_KERNELS", {})
        monkeypatch.setattr(weyl, "_kernel", counting_kernel)
        rng = random.Random(28)
        for _ in range(3):
            for alg in (WeylAlgebra(2), WeylAlgebra(4), WeylAlgebra(4, CUSTOM4_OMEGA)):
                a = rand_series(rng, alg.dim, terms=4, max_fiber=2)
                b = rand_series(rng, alg.dim, terms=4, max_fiber=2)
                alg.circ(a, b)
                alg.commutator(a, b)
                alg._xfree(a, b, None)
        assert built and len(built) == len(set(built))
        assert len(weyl._KERNELS) == 3

    def test_custom_omega(self):
        # doubled symplectic pairing doubles the commutator
        alg = WeylAlgebra(2, [[Fraction(0), Fraction(2)], [Fraction(-2), Fraction(0)]])
        c = alg.commutator(xmono(2, X1=1), xmono(2, X2=1))
        assert c == WeylSeries.build(2, [(2 * I, 1, (0, 0), ())])

    def test_non_antisymmetric_omega_rejected(self):
        # the one-pass commutator keeps the odd orders, which is a o b -+ b o a
        # only for an antisymmetric omega
        for omega in ([[0, 1], [1, 0]], [[1, 1], [-1, 0]],
                      [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -1, 0]]):
            with pytest.raises(ValueError, match="antisymmetric"):
                WeylAlgebra(len(omega), omega)


@st.composite
def flat_series(draw, dim, complex_values, one_form=False):
    """A series drawn as its flat map: nu power, fiber, word and q-exponents
    with rational real parts over mixed denominators and, when asked,
    imaginary parts; possibly truncated.  With one_form every word is one dq."""
    fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    terms: dict = {}
    for _ in range(draw(st.integers(1, 5))):
        key = (draw(st.integers(0, 1)),
               draw(st.tuples(*[st.integers(0, 2)] * dim)),
               (draw(st.integers(1, dim)),) if one_form
               else tuple(sorted(draw(st.sets(st.integers(1, dim), max_size=2)))),
               draw(st.tuples(*[st.integers(0, 1)] * dim)))
        im = draw(fraction) if complex_values else 0
        _accumulate(terms, key, GaussianRational(draw(fraction), im))
    cut = draw(st.none() | st.integers(2, 8))
    out = from_scalars(dim, None, terms)
    return out if cut is None else out.truncate(cut)


def stored(s: WeylSeries):
    """What a series stores: its bound, denominator and numerator map."""
    return s.known_through, s._den, s._terms


class TestIntegerPaths:
    @settings(derandomize=True, max_examples=80)
    @given(st.data())
    def test_matches_scalar_references(self, data):
        # the integer product and operators against the term-by-term scalar
        # loops, on real, complex and mixed operands, with and without cap;
        # storage is canonical: lowest terms, so sums of scalings come back equal
        alg = data.draw(st.sampled_from((ALG2, ALG4, CUSTOM4)))
        a = data.draw(flat_series(alg.dim, data.draw(st.booleans())))
        b = data.draw(flat_series(alg.dim, data.draw(st.booleans())))
        cap = data.draw(st.none() | st.integers(2, 9))
        for s in (a, b):
            assert s._den > 0 and math.gcd(s._den, *s._terms.values()) == 1
            assert (s + s).scale(Fraction(1, 2)) == s
            assert s.scale(Fraction(1, 3)) + s.scale(Fraction(2, 3)) == s
        for op, mode, fiber_only in ((alg.circ, weyl._CIRC, False),
                                     (alg.commutator, weyl._COMMUTATOR, True),
                                     (alg._xfree, weyl._XFREE, False)):
            try:
                eff = alg._effective_cap(a, b, cap, fiber_only)
            except TruncationError:
                with pytest.raises(TruncationError):
                    op(a, b, cap)
                continue
            assert stored(op(a, b, cap)) == stored(product_reference(alg, a, b, eff, mode))
        for op, reference in ((delta, delta_reference), (delta_inv, delta_inv_reference),
                              (ext_d, ext_d_reference)):
            assert stored(op(a)) == stored(reference(a))


    @settings(derandomize=True, max_examples=80)
    @given(st.data())
    def test_diagonal_bracket_is_half_commutator(self, data):
        # one pass over unordered group pairs gives a o a = 1/2 [a, a] for a
        # one-form a: real, complex and mixed operands, possibly truncated
        alg = data.draw(st.sampled_from((ALG2, ALG4, CUSTOM4)))
        a = data.draw(flat_series(alg.dim, data.draw(st.booleans()), one_form=True))
        eff = alg._effective_cap(a, a, None, True)
        got = alg._product(a, a, eff, weyl._COMMUTATOR, True)
        assert stored(got) == stored(alg.commutator(a, a).scale(Fraction(1, 2)))
        if a.known_through is None:
            assert got == alg.circ(a, a)


class TestGradingHelpers:
    def test_sigma_projects_x_free(self):
        s = WeylSeries.build(2, [(5, 1, (0, 0), ()), (7, 0, (1, 0), ())])
        assert sigma(s) == {1: BasePolynomial.constant(2, 5)}
        with pytest.raises(ValueError):
            sigma(xmono(2, word=(1,)))

    def test_div_ihbar(self):
        s = WeylSeries.build(2, [(I, 1, (0, 0), ())])
        assert div_ihbar(s) == WeylSeries.build(2, [(1, 0, (0, 0), ())])
        with pytest.raises(DivisibilityError):
            div_ihbar(xmono(2, X1=1))

    def test_div_ihbar_known_shift(self):
        s = WeylSeries.build(2, [(I, 1, (0, 0), ())], known_through=4)
        assert div_ihbar(s).known_through == 2


class TestFormatting:
    def test_format_examples(self):
        s = WeylSeries.build(2, [(2 * I, 1, (1, 1), ())])
        assert format_series(s) == "2*i*h*X1*X2"
        t = WeylSeries.build(2, [(1, 0, (0, 0), (1, 2))])
        assert format_series(t) == "dq1^dq2"
        assert format_series(WeylSeries.zero(2)) == "0"

    def test_format_negative_folding(self):
        s = xmono(2, X1=1) - xmono(2, X2=1)
        assert format_series(s) == "-X2 + X1"
