import random
from fractions import Fraction

import pytest

from fedosov.calculus import covariant_d, delta, delta_inv, ext_d
from fedosov.geometry import curvature_form, gamma_form
from fedosov.poly import BasePolynomial
from fedosov.weyl import WeylAlgebra, WeylSeries, div_ihbar

from conftest import rand_form_homogeneous, rand_poly, rand_series
from oracles import hodge_split


def test_delta_examples():
    x1 = WeylSeries.build(2, [(1, 0, (1, 0), ())])
    assert delta(x1) == WeylSeries.build(2, [(1, 0, (0, 0), (1,))])
    f = WeylSeries.from_poly(rand_poly(random.Random(0), 2))
    assert delta(f).is_zero()


def test_delta_inv_examples():
    dq1 = WeylSeries.build(2, [(1, 0, (0, 0), (1,))])
    assert delta_inv(dq1) == WeylSeries.build(2, [(1, 0, (1, 0), ())])
    const = WeylSeries.from_poly(BasePolynomial.constant(2, 3))
    assert delta_inv(const).is_zero()
    # X1 dq2 has fiber length 1, form degree 1: weight 1/2
    s = WeylSeries.build(2, [(1, 0, (1, 0), (2,))])
    assert delta_inv(s) == WeylSeries.build(2, [(Fraction(1, 2), 0, (1, 1), ())])


def test_ext_d_examples():
    q1 = WeylSeries.from_poly(BasePolynomial.variable(2, 1))
    assert ext_d(q1) == WeylSeries.build(2, [(1, 0, (0, 0), (1,))])
    # d(q2 dq1) = dq2 ^ dq1 = -dq1 ^ dq2
    s = WeylSeries.build(2, [(BasePolynomial.variable(2, 2), 0, (0, 0), (1,))])
    assert ext_d(s) == WeylSeries.build(2, [(-1, 0, (0, 0), (1, 2))])
    assert ext_d(WeylSeries.from_poly(BasePolynomial.constant(2, 7))).is_zero()


def test_nilpotency_and_anticommutation():
    rng = random.Random(1)
    for _ in range(40):
        dim = rng.choice((2, 4))
        a = rand_series(rng, dim, terms=3, max_hbar=1)
        assert delta(delta(a)).is_zero()
        assert delta_inv(delta_inv(a)).is_zero()
        assert ext_d(ext_d(a)).is_zero()
        assert (ext_d(delta(a)) + delta(ext_d(a))).is_zero()


def test_hodge_identity():
    rng = random.Random(2)
    for _ in range(40):
        dim = rng.choice((2, 4))
        a = rand_series(rng, dim, terms=3, max_hbar=1)
        dd, di, rest = hodge_split(a)
        assert dd + di + rest == a
        for t in rest.terms():
            assert not any(t.fiber) and not t.word


def test_degree_shifts():
    rng = random.Random(3)
    a = rand_series(rng, 2, terms=4)
    for op, shift in ((delta, -1), (delta_inv, +1)):
        out = op(a)
        if not a.is_zero() and not out.is_zero():
            degrees_in = {t.degree for t in a.terms()}
            degrees_out = {t.degree for t in out.terms()}
            assert degrees_out <= {d + shift for d in degrees_in}


def test_delta_leibniz_over_circ():
    # delta(a o b) = delta(a) o b + (-1)^{form degree a} a o delta(b)
    rng = random.Random(4)
    for _ in range(30):
        dim = rng.choice((2, 4))
        alg = WeylAlgebra(dim)
        m1 = rng.randint(0, 2)
        a = rand_form_homogeneous(rng, dim, m1, terms=2)
        b = rand_form_homogeneous(rng, dim, rng.randint(0, 2), terms=2)
        lhs = delta(alg.circ(a, b))
        sign = -1 if m1 % 2 else 1
        rhs = alg.circ(delta(a), b) + alg.circ(a, delta(b)).scale(sign)
        assert lhs == rhs


def test_ext_d_leibniz_over_circ():
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.choice((2, 4))
        alg = WeylAlgebra(dim)
        m1 = rng.randint(0, 2)
        a = rand_form_homogeneous(rng, dim, m1, terms=2, qdeg=2)
        b = rand_form_homogeneous(rng, dim, rng.randint(0, 2), terms=2, qdeg=2)
        sign = -1 if m1 % 2 else 1
        assert ext_d(alg.circ(a, b)) == alg.circ(ext_d(a), b) + alg.circ(a, ext_d(b)).scale(sign)


def test_covariant_d_reduces_to_d_for_zero_gamma(flat2):
    m, c = flat2
    rng = random.Random(6)
    a = rand_series(rng, 2, terms=3, qdeg=2)
    gamma = gamma_form(m, c)
    assert covariant_d(m.algebra, gamma, a) == ext_d(a)


def test_covariant_d_squares_to_curvature_bracket(curved2):
    # applying the connection derivative twice equals (1/i hbar)[R, .]
    m, c = curved2
    alg = m.algebra
    gamma = gamma_form(m, c)
    R = curvature_form(m, c)
    rng = random.Random(7)
    for _ in range(10):
        a = rand_series(rng, 2, terms=2, forms=False, qdeg=1)
        twice = covariant_d(alg, gamma, covariant_d(alg, gamma, a))
        assert twice == div_ihbar(alg.commutator(R, a))


def test_covariant_d_on_commuting_fixture_is_plain_d(comm4):
    # gamma built from Gamma_111 = q3 commutes with series in X1, X3 only
    m, c = comm4
    gamma = gamma_form(m, c)
    a = WeylSeries.build(4, [(1, 0, (2, 0, 1, 0), ())])
    assert covariant_d(m.algebra, gamma, a) == ext_d(a)


def test_covariant_d_rejects_bad_gamma():
    alg = WeylAlgebra(2)
    not_one_form = WeylSeries.build(2, [(1, 0, (1, 0), (1, 2))])
    with pytest.raises(ValueError):
        covariant_d(alg, not_one_form, WeylSeries.zero(2))


def test_connection_form_is_delta_closed(curved2):
    # total symmetry of the coefficients makes the one-form delta-closed
    m, c = curved2
    assert delta(gamma_form(m, c)).is_zero()


def test_curvature_is_delta_closed_and_recovered(curved2, comm4):
    for m, c in (curved2, comm4):
        R = curvature_form(m, c)
        assert delta(R).is_zero()
        assert delta(delta_inv(R)) == R
