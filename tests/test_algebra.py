import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fedosov.poly import BasePolynomial, format_poly
from fedosov.scalars import GaussianRational, ONE, ZERO, format_scalar, i_power
from fedosov.weyl import wedge_normalize

from conftest import rand_poly, rand_scalar


def degree(p: BasePolynomial) -> int:
    """Max total q-degree of a nonzero polynomial."""
    return max(sum(exps) for exps, _ in p.items())


fractions = st.fractions(min_value=-60, max_value=60, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)


class TestGaussianRational:
    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(gaussians, gaussians)
    def test_sub_div_consistency(self, a, b):
        assert (a - b) + b == a

    def test_mixed_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        assert a + 1 == GaussianRational(Fraction(3, 2), Fraction(3))
        assert a * Fraction(2) == GaussianRational(Fraction(1), Fraction(6))
        assert 2 - a == GaussianRational(Fraction(3, 2), Fraction(-3))
        assert a == a and a != ZERO

    def test_i_powers_cycle(self):
        i = i_power(1)
        assert i * i == -ONE
        assert [i_power(t) for t in range(4)] == [ONE, i, -ONE, -i]
        assert i_power(7) == i_power(3)

    @given(gaussians)
    def test_format_is_canonical(self, a):
        s = format_scalar(a)
        assert s == format_scalar(GaussianRational(a.re, a.im))
        if not a:
            assert s == "0"

    def test_format_examples(self):
        assert format_scalar(ZERO) == "0"
        assert format_scalar(GaussianRational.of(Fraction(3, 4))) == "3/4"
        assert format_scalar(i_power(1)) == "i"
        assert format_scalar(GaussianRational(Fraction(0), Fraction(-1, 2))) == "-1/2*i"
        assert format_scalar(GaussianRational(Fraction(1), Fraction(1, 2))) == "1+1/2*i"
        assert format_scalar(GaussianRational(Fraction(2), Fraction(-1))) == "2-i"


class TestBasePolynomial:
    def test_zero_coefficients_never_stored(self):
        p = BasePolynomial(2, {(1, 0): ZERO, (0, 1): ONE})
        assert p.items() == [((0, 1), ONE)]
        q = p - p
        assert q.is_zero() and q.items() == []

    def test_construction_and_lookup(self):
        q1 = BasePolynomial.variable(3, 1)
        assert q1.coefficient((1, 0, 0)) == ONE
        assert q1.coefficient((0, 1, 0)) == ZERO
        with pytest.raises(ValueError):
            BasePolynomial.variable(3, 4)

    def test_diff_examples(self):
        q1 = BasePolynomial.variable(2, 1)
        q2 = BasePolynomial.variable(2, 2)
        assert (q1 * q2).diff(1) == q2
        assert BasePolynomial.constant(2, 5).diff(1).is_zero()
        assert (q1 * q1 * q1).diff(1) == (q1 * q1).scale(3)
        with pytest.raises(ValueError):
            q1.diff(3)

    def test_product_degree(self):
        rng = random.Random(5)
        for _ in range(30):
            p = rand_poly(rng, 3, deg=3)
            q = rand_poly(rng, 3, deg=3)
            if p.is_zero() or q.is_zero():
                assert (p * q).is_zero()
            else:
                assert degree(p * q) <= degree(p) + degree(q)

    @given(st.integers(0, 3), st.data())
    def test_leibniz_rule(self, seed, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        dim = 2 + 2 * (seed % 2)
        p = rand_poly(rng, dim, deg=2)
        q = rand_poly(rng, dim, deg=2)
        for k in range(1, dim + 1):
            assert (p * q).diff(k) == p.diff(k) * q + p * q.diff(k)

    def test_scalar_multiplication(self):
        p = BasePolynomial.variable(2, 1)
        assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p
        assert (p * GaussianRational(Fraction(0), Fraction(1))).coefficient((1, 0)) \
            == GaussianRational(Fraction(0), Fraction(1))

    def test_format_examples(self):
        q1 = BasePolynomial.variable(3, 1)
        q2 = BasePolynomial.variable(3, 2)
        q3 = BasePolynomial.variable(3, 3)
        p = (q1 * q1 * q2).scale(Fraction(1, 2)) + q3
        # canonical order sorts exponent tuples lexicographically
        assert format_poly(p) == "q3 + 1/2*q1^2*q2"
        assert format_poly(-q1) == "-q1"
        assert format_poly(BasePolynomial.zero(3)) == "0"


class TestWedgeNormalize:
    def test_examples(self):
        assert wedge_normalize((1, 2), 4) == ((1, 2), 1)
        assert wedge_normalize((2, 1), 4) == ((1, 2), -1)
        assert wedge_normalize((1, 1), 4) == ((), 0)
        assert wedge_normalize((), 4) == ((), 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            wedge_normalize((0, 1), 4)
        with pytest.raises(ValueError):
            wedge_normalize((5,), 4)

    def test_sign_matches_inversion_count(self):
        # independent parity oracle: count inversions directly
        rng = random.Random(17)
        for _ in range(200):
            dim = rng.choice([2, 4, 6])
            k = rng.randint(0, dim)
            word = rng.sample(range(1, dim + 1), k)
            inv = sum(
                1
                for a in range(len(word))
                for b in range(a + 1, len(word))
                if word[a] > word[b]
            )
            expect = -1 if inv % 2 else 1
            got_word, got_sign = wedge_normalize(tuple(word), dim)
            assert got_word == tuple(sorted(word))
            assert got_sign == expect

    def test_idempotent_on_sorted(self):
        word, sign = wedge_normalize((1, 3, 4), 4)
        assert (word, sign) == ((1, 3, 4), 1)
