import random
from fractions import Fraction

import pytest

from fedosov.abelian import abelian_r
from fedosov.calculus import delta, delta_inv
from fedosov.geometry import ConnectionSpec, ManifoldSpec
from fedosov.poly import BasePolynomial
from fedosov.scalars import GaussianRational, I, ZERO
from fedosov.twodim import (
    CascadeError,
    CoefficientTable,
    SquareCheckResult,
    cascade_solve,
    g_coeff,
    random_table,
    square_check,
)
from fedosov.weyl import WeylAlgebra, WeylSeries

from oracles import _f_raw, monomial_circ, table_from_form


def xmono(r, j):
    return WeylSeries.build(2, [(1, 0, (r, j), ())])


class TestContractionCoefficient:
    def test_no_contraction_is_one(self):
        rng = random.Random(31)
        for _ in range(20):
            args = [rng.randint(0, 5) for _ in range(4)]
            assert _f_raw(*args, 0) == 1

    def test_single_contraction_families(self):
        for z in range(2, 9):
            assert _f_raw(1, z - 1, 0, z, 1) == Fraction(z, 2)
            assert _f_raw(2, z - 2, 1, z - 1, 1) == Fraction(z, 2)
        for z in range(5, 11):
            assert _f_raw(2, z - 5, 0, z - 4, 1) == z - 4
            assert _f_raw(1, z - 5, 0, z - 4, 1) == Fraction(z - 4, 2)

    def test_full_contraction(self):
        assert _f_raw(2, 0, 0, 2, 2) == Fraction(1, 2)

    def test_swap_rule(self):
        rng = random.Random(32)
        for _ in range(60):
            r, j, s, k = (rng.randint(0, 4) for _ in range(4))
            for t in range(min(r, k) + min(j, s) + 1):
                assert _f_raw(s, k, r, j, t) == (-1) ** t * _f_raw(r, j, s, k, t)


class TestMonomialCirc:
    def test_matches_general_product_on_grid(self):
        alg = WeylAlgebra(2)
        for r in range(4):
            for j in range(4):
                for s in range(4):
                    for k in range(4):
                        got = monomial_circ(r, j, s, k)
                        want = alg.circ(xmono(r, j), xmono(s, k))
                        assert got == want, (r, j, s, k)

    def test_order_one_cases(self):
        assert monomial_circ(1, 0, 0, 1) == WeylSeries.build(2, [
            (1, 0, (1, 1), ()),
            (GaussianRational(0, Fraction(1, 2)), 1, (0, 0), ()),
        ])
        assert monomial_circ(0, 1, 1, 0) == WeylSeries.build(2, [
            (1, 0, (1, 1), ()),
            (GaussianRational(0, Fraction(-1, 2)), 1, (0, 0), ()),
        ])

    def test_pointwise_when_nothing_pairs(self):
        assert monomial_circ(2, 0, 3, 0) == xmono(5, 0)


class TestCoefficientTable:
    def test_index_layout(self):
        assert CoefficientTable.indices(3) == [(0, 0), (0, 1), (0, 2)]
        assert CoefficientTable.indices(5) == [
            (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (2, 0),
        ]

    def test_round_trip_constant(self):
        rng = random.Random(33)
        for z in (3, 5, 6):
            table = random_table(z, rng)
            back = table_from_form(table.to_form())
            assert back.z == z and back.items() == table.items()

    def test_round_trip_polynomial_values(self):
        q1 = BasePolynomial.variable(2, 1)
        table = CoefficientTable(3, {(0, 0): q1, (0, 2): q1 * q1})
        back = table_from_form(table.to_form())
        assert back.items() == table.items()

    def test_form_shape(self):
        rng = random.Random(34)
        F = random_table(5, rng).to_form()
        for t in F.terms():
            assert t.degree == 4
            assert t.word == (1, 2)
            assert t.hbar % 2 == 0

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            CoefficientTable(3, {(1, 0): 1})
        with pytest.raises(ValueError):
            CoefficientTable(3, {(0, 3): 1})
        with pytest.raises(ValueError):
            CoefficientTable(0)

    def test_random_table_deterministic(self):
        a = random_table(4, random.Random(7))
        b = random_table(4, random.Random(7))
        assert a.items() == b.items()


class TestSquareCheck:
    def test_zero_input(self):
        res = square_check(WeylSeries.zero(2))
        assert isinstance(res, SquareCheckResult)
        assert res.is_zero and res.witness is None and res.square.is_zero()

    def test_nonzero_tables_have_nonzero_squares(self):
        rng = random.Random(35)
        for z in (2, 3, 4, 5):
            res = square_check(random_table(z, rng).to_form())
            assert not res.is_zero
            assert res.witness == res.square.terms()[0]

    def test_square_shape(self):
        rng = random.Random(36)
        z = 4
        res = square_check(random_table(z, rng).to_form())
        for t in res.square.terms():
            assert t.hbar % 2 == 1
            assert t.degree == 2 * z
            assert t.word == (1, 2)

    def test_input_guards(self):
        mixed = WeylSeries.build(2, [
            (1, 0, (1, 1), (1, 2)),
            (1, 0, (2, 1), (1, 2)),
        ])
        with pytest.raises(ValueError):
            square_check(mixed)
        odd = WeylSeries.build(2, [(1, 1, (1, 1), (1, 2))])
        with pytest.raises(ValueError):
            square_check(odd)
        not_top = WeylSeries.build(2, [(1, 0, (1, 1), (1,))])
        with pytest.raises(ValueError):
            square_check(not_top)
        wrong_dim = WeylSeries.build(4, [(1, 0, (1, 1, 0, 0), (1, 2))])
        with pytest.raises(ValueError):
            square_check(wrong_dim)


class TestSquareCoefficients:
    def test_leading_entry(self):
        for z in (3, 5, 7):
            c = GaussianRational(Fraction(2, 3))
            table = CoefficientTable(z, {(0, 0): c})
            assert g_coeff(z, table, 0, 0) == c * c * (I * z)

    def test_diagonal_entry_without_lower_neighbors(self):
        z = 5
        c = GaussianRational(Fraction(3), Fraction(1, 2))
        table = CoefficientTable(z, {(0, 1): c})
        assert g_coeff(z, table, 0, 0) == ZERO
        assert g_coeff(z, table, 0, 2) == c * c * (I * z)

    def test_region_guard(self):
        table = CoefficientTable(3, {(0, 0): 1})
        with pytest.raises(ValueError):
            g_coeff(3, table, 2, 0)
        with pytest.raises(ValueError):
            g_coeff(3, table, 0, -1)
        # a table read at another z than its own
        with pytest.raises(ValueError):
            g_coeff(5, table, 0, 0)
        with pytest.raises(ValueError):
            g_coeff(2, CoefficientTable(3, {(0, 2): 1}), 0, 0)

    def test_matches_brute_force_square(self):
        rng = random.Random(37)
        for z in range(2, 7):
            table = random_table(z, rng)
            square = square_check(table.to_form()).square
            actual = {
                (t.hbar, t.fiber): t.coeff.constant_value() for t in square.terms()
            }
            predicted = {}
            for A in range((2 * z - 2) // 4 + 1):
                for B in range(2 * z - 2 - 4 * A + 1):
                    g = g_coeff(z, table, A, B)
                    if g:
                        predicted[(2 * A + 1, (B, 2 * z - 2 - 4 * A - B))] = g
            assert actual == predicted, z


    def test_solver_square_matches_formula(self):
        # the square formula on the solver's own components: with F = delta r[z],
        # r[z] = delta_inv F and every term of r[z] o r[z] is g(A, B) at
        # h^(2A+1) X1^B X2^(2z-2-4A-B) dq1^dq2
        q1, q2 = BasePolynomial.variable(2, 1), BasePolynomial.variable(2, 2)
        m = ManifoldSpec.standard(2)
        for c in (ConnectionSpec(2, [((1, 1, 1), 1), ((2, 2, 2), 1)]),
                  ConnectionSpec(2, [((1, 1, 1), q2), ((1, 2, 2), q1)])):
            r = abelian_r(m, c, 12)
            for z in range(4, 13):
                rz = r.part(z)
                F = delta(rz)
                assert delta_inv(F) == rz
                table = table_from_form(F)
                square = {(t.hbar, t.fiber, t.word): t.coeff
                          for t in m.algebra.circ(rz, rz).terms()}
                for A in range((2 * z - 2) // 4 + 1):
                    for B in range(2 * z - 2 - 4 * A + 1):
                        g = g_coeff(z, table, A, B)
                        if not isinstance(g, BasePolynomial):
                            g = BasePolynomial.constant(2, g)
                        key = (2 * A + 1, (B, 2 * z - 2 - 4 * A - B), (1, 2))
                        assert square.pop(key, BasePolynomial.zero(2)) == g, (z, A, B)
                assert square == {}, z


class TestCascade:
    def test_minimal_case(self):
        res = cascade_solve(1)
        assert res.sweeps == 1
        assert [s.variable for s in res.steps] == [(0, 0)]
        assert res.steps[0].factor == I
        assert res.steps[0].A == 0 and res.steps[0].B == 0

    def test_completes_through_eight(self):
        for z in range(1, 9):
            res = cascade_solve(z)
            assert res.sweeps == 1
            assert sorted([s.variable for s in res.steps]) == CoefficientTable.indices(z)
            assert res.steps[0].variable == (0, 0)
            assert res.steps[0].factor == I * z

    def test_order_at_five(self):
        # the hbar^2 slot is pinned last, by its own square equation
        res = cascade_solve(5)
        assert [s.variable for s in res.steps] == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (2, 0)]
        assert res.steps[-1].factor == I

    def test_describe_transcript(self):
        text = cascade_solve(2).describe()
        lines = text.splitlines()
        assert lines[0] == "cascade z=2: 2 pivots"
        assert lines[1] == "  (A=0, B=0): (2*i) * b[0,0]^2 = 0  =>  b[0,0] = 0"
        assert lines[-1] == "all b = 0"

    def test_bad_z(self):
        with pytest.raises(ValueError):
            cascade_solve(0)

    def test_pivot_factors_through_sixteen(self):
        # through the top of the CLI's --z range every b is pinned once, by
        # its own square b[2k,l]^2 in g_{2A+1,B}, B = 2l + 4k - 2A, whose
        # factor is 2 i (-1)^A f(l+1, z-1-4k-l, l, z-4k-l, 2A+1-4k) in the
        # factorial form
        for z in range(1, 17):
            res = cascade_solve(z)
            assert sorted(s.variable for s in res.steps) == CoefficientTable.indices(z), z
            for s in res.steps:
                two_k, l = s.variable
                assert s.B == 2 * l + 2 * two_k - 2 * s.A, (z, s)
                f = _f_raw(l + 1, z - 1 - 2 * two_k - l, l, z - 2 * two_k - l,
                           2 * s.A + 1 - 2 * two_k)
                assert s.factor == I * ((-2 if s.A % 2 else 2) * f), (z, s)
