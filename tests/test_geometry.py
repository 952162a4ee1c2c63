import random
from fractions import Fraction

import pytest

from fedosov.geometry import (
    ConnectionSpec,
    ManifoldSpec,
    ValidationError,
    curvature_form,
    curvature_tensor,
    gamma_form,
    standard_omega_lower,
    validate,
)
from fedosov.poly import BasePolynomial
from fedosov.weyl import WeylSeries

from conftest import rand_connection


class TestManifoldSpec:
    def test_standard_omega_inverse_pair(self):
        m = ManifoldSpec.standard(4)
        dim = 4
        for i in range(dim):
            for k in range(dim):
                s = sum(m.omega_upper[i][j] * m.omega_lower[j][k] for j in range(dim))
                assert s == (1 if i == k else 0)

    def test_standard_orientation(self):
        # upper omega^{12} = +1 drives [X1, X2] = i hbar and {q, p} = +1
        m = ManifoldSpec.standard(2)
        assert m.omega_upper[0][1] == 1
        assert m.omega_lower[0][1] == -1
        q = BasePolynomial.variable(2, 1)
        p = BasePolynomial.variable(2, 2)
        assert m.poisson(q, p) == BasePolynomial.constant(2, 1)

    def test_rejections(self):
        with pytest.raises(ValidationError):
            ManifoldSpec(3)
        with pytest.raises(ValidationError):
            ManifoldSpec(2, [[0, 1], [1, 0]])  # not antisymmetric
        with pytest.raises(ValidationError):
            ManifoldSpec(2, [[0, 0], [0, 0]])  # degenerate

    def test_custom_omega_scales_poisson(self):
        m = ManifoldSpec(2, [[Fraction(0), Fraction(-2)], [Fraction(2), Fraction(0)]])
        q = BasePolynomial.variable(2, 1)
        p = BasePolynomial.variable(2, 2)
        assert m.poisson(q, p) == BasePolynomial.constant(2, Fraction(1, 2))


class TestConnectionSpec:
    def test_symmetric_storage_and_lookup(self):
        c = ConnectionSpec(2, [((2, 1, 1), 5)])
        assert c.coeff(1, 1, 2) == BasePolynomial.constant(2, 5)
        assert c.coeff(1, 2, 1) == c.coeff(2, 1, 1)
        assert c.triples() == [((1, 1, 2), BasePolynomial.constant(2, 5))]

    def test_conflict_rejected(self):
        with pytest.raises(ValidationError):
            ConnectionSpec(2, [((1, 1, 2), 1), ((2, 1, 1), 2)])

    def test_duplicate_consistent_allowed(self):
        c = ConnectionSpec(2, [((1, 1, 2), 1), ((2, 1, 1), 1)])
        assert len(c.triples()) == 1

    def test_range_rejected(self):
        with pytest.raises(ValidationError):
            ConnectionSpec(2, [((1, 1, 3), 1)])

    def test_validate_report(self, curved2):
        m, c = curved2
        rep = validate(m, c)
        assert rep.ok and not rep.messages
        rep2 = validate(ManifoldSpec.standard(4), ConnectionSpec.zero(2))
        assert not rep2.ok and any("mismatch" in s for s in rep2.messages)


class TestGammaForm:
    def test_zero_connection(self, flat2):
        m, c = flat2
        assert gamma_form(m, c).is_zero()

    def test_single_entry_weights(self):
        # Gamma_222 = 1 contributes (1/2) X2 X2 dq2 only
        m = ManifoldSpec.standard(2)
        c = ConnectionSpec(2, [((2, 2, 2), 1)])
        assert gamma_form(m, c) == WeylSeries.build(
            2, [(Fraction(1, 2), 0, (0, 2), (2,))]
        )

    def test_mixed_entry_weights(self):
        # Gamma_112 = 1: the (i,j) = (1,1) slot carries 1/2, dq index 2;
        # the (1,2) and (2,1) slots together carry weight 1 on X1 X2 dq1
        m = ManifoldSpec.standard(2)
        c = ConnectionSpec(2, [((1, 1, 2), 1)])
        want = WeylSeries.build(2, [
            (Fraction(1, 2), 0, (2, 0), (2,)),
            (1, 0, (1, 1), (1,)),
        ])
        assert gamma_form(m, c) == want

    def test_degree_two_one_form(self, curved2):
        m, c = curved2
        g = gamma_form(m, c)
        assert {t.degree for t in g.terms()} == {2}
        assert g.form_degrees() == {1}


class TestCurvature:
    def test_flat_zero(self, flat2):
        m, c = flat2
        assert curvature_tensor(m, c) == {}
        assert curvature_form(m, c).is_zero()
        assert curvature_form(m, c, via="tensor").is_zero()

    def test_fixture_value(self, curved2):
        m, c = curved2
        R = curvature_tensor(m, c)
        assert R.get((2, 1, 2, 1)) == BasePolynomial.constant(2, -1)

    def test_constant_pair_generalization(self):
        # Gamma_111 = a, Gamma_222 = b gives R_2121 = -a b
        m = ManifoldSpec.standard(2)
        c = ConnectionSpec(2, [((1, 1, 1), 2), ((2, 2, 2), 3)])
        assert curvature_tensor(m, c).get((2, 1, 2, 1)) == BasePolynomial.constant(2, -6)

    def test_commuting_fixture_entries(self, comm4):
        m, c = comm4
        R = curvature_tensor(m, c)
        assert R.get((1, 1, 3, 1)) == BasePolynomial.constant(4, 1)
        assert R.get((1, 1, 1, 3)) == BasePolynomial.constant(4, -1)
        # the quadratic terms cancel: only the derivative of q3 survives
        assert len(R) == 2

    def test_symmetries_random(self):
        rng = random.Random(8)
        for dim in (2, 4):
            m = ManifoldSpec.standard(dim)
            for _ in range(4):
                c = rand_connection(rng, dim)
                R = curvature_tensor(m, c)
                zero = BasePolynomial.zero(dim)
                for i in range(1, dim + 1):
                    for j in range(1, dim + 1):
                        for k in range(1, dim + 1):
                            for l in range(1, dim + 1):
                                assert R.get((i, j, k, l), zero) == R.get((j, i, k, l), zero)
                                assert R.get((i, j, k, l), zero) == -R.get((i, j, l, k), zero)

    def test_cyclic_identity_random(self):
        rng = random.Random(9)
        for dim in (2, 4):
            m = ManifoldSpec.standard(dim)
            c = rand_connection(rng, dim)
            R = curvature_tensor(m, c)
            zero = BasePolynomial.zero(dim)
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    for k in range(1, dim + 1):
                        for l in range(1, dim + 1):
                            s = R.get((i, j, k, l), zero) + R.get((i, k, l, j), zero) + R.get((i, l, j, k), zero)
                            assert s.is_zero()

    def test_independent_components_in_2d(self):
        # with the symmetries above, 2D leaves exactly 3 free entries;
        # rank oracle: evaluate random curvature tensors at a base point
        # and row reduce the resulting 16-vectors over the rationals
        rng = random.Random(10)
        rows = []
        for _ in range(12):
            c = rand_connection(rng, 2, entries=4, qdeg=2)
            R = curvature_tensor(ManifoldSpec.standard(2), c)
            zero = BasePolynomial.zero(2)
            point = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            row = []
            for i in (1, 2):
                for j in (1, 2):
                    for k in (1, 2):
                        for l in (1, 2):
                            v = Fraction(0)
                            for exps, coeff in R.get((i, j, k, l), zero).items():
                                assert not coeff.im
                                v += coeff.re * point[0] ** exps[0] * point[1] ** exps[1]
                            row.append(v)
            rows.append(row)
        rank = 0
        for col in range(16):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            lead = rows[rank][col]
            rows[rank] = [v / lead for v in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
            rank += 1
        assert rank == 3

    def test_routes_agree(self, curved2, comm4):
        for m, c in (curved2, comm4):
            assert curvature_form(m, c, via="form-equation") == curvature_form(m, c, via="tensor")

    def test_routes_agree_random(self):
        rng = random.Random(11)
        for dim in (2, 4):
            m = ManifoldSpec.standard(dim)
            for _ in range(3):
                c = rand_connection(rng, dim)
                assert curvature_form(m, c, via="form-equation") == curvature_form(m, c, via="tensor")

    def test_curved2_frozen_form(self, curved2):
        m, c = curved2
        assert curvature_form(m, c) == WeylSeries.build(2, [(1, 0, (1, 1), (1, 2))])

    def test_comm4_frozen_form(self, comm4):
        m, c = comm4
        want = WeylSeries.build(4, [(Fraction(-1, 2), 0, (2, 0, 0, 0), (1, 3))])
        assert curvature_form(m, c) == want

    def test_bad_via(self, flat2):
        m, c = flat2
        with pytest.raises(ValueError):
            curvature_form(m, c, via="nope")
