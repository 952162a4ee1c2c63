import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from fedosov import abelian, cli
from fedosov.abelian import (
    AbelianCorrection,
    abelian_r,
    check_abelian,
    finiteness_test,
    flat_section,
    star,
)
from fedosov.calculus import covariant_d, delta_inv
from fedosov.geometry import ConnectionSpec, ManifoldSpec, curvature_form, gamma_form
from fedosov.manifest import parse_poly
from fedosov.poly import BasePolynomial, format_poly
from fedosov.scalars import GaussianRational, I, ONE
from fedosov.weyl import TruncationError, WeylAlgebra, WeylSeries, div_ihbar, sigma

from conftest import rand_poly
from oracles import (
    CommutingHypothesisError,
    abelian_r_iterative,
    commuting_case_shortcut,
    correction_series,
    flatness_residual,
    star_hbar,
)
from test_golden import COMMUTING_ZMAX, commuting_connections

HALF_I = GaussianRational(0, Fraction(1, 2))


def flat_section_sweeps(r, a0, N):
    """Oracle for flat_section: N sweeps of the whole-series fixed point

        a <- a0 + delta_inv( covariant_d a + (1/i hbar)[r, a] )

    truncated to grade N; sweep s settles grade s.
    """
    m = r.manifold
    alg = m.algebra
    gamma = gamma_form(m, r.connection)
    rs = correction_series(r)
    base = WeylSeries.from_poly(a0)
    a = base
    for _ in range(N):
        rhs = covariant_d(alg, gamma, a) + div_ihbar(alg.commutator(rs, a))
        a = (base + delta_inv(rhs)).truncate(N)
    return a


@pytest.fixture(scope="module")
def poly2():
    q1, q2 = BasePolynomial.variable(2, 1), BasePolynomial.variable(2, 2)
    return ManifoldSpec.standard(2), ConnectionSpec(2, [((1, 1, 1), q2), ((1, 2, 2), q1)])


@pytest.fixture(scope="module")
def const4():
    return ManifoldSpec.standard(4), ConnectionSpec(4, [((1, 1, 1), 1), ((1, 2, 3), 1),
                                                        ((2, 4, 4), Fraction(1, 2))])


@pytest.fixture(scope="module")
def r_flat(flat2):
    m, c = flat2
    return abelian_r(m, c, 10)


@pytest.fixture(scope="module")
def r_curved(curved2):
    m, c = curved2
    return abelian_r(m, c, 9)


@pytest.fixture(scope="module")
def r_comm(comm4):
    m, c = comm4
    return abelian_r(m, c, 8)


class TestSolver:
    def test_flat_all_zero(self, r_flat):
        assert all(r_flat.part(z).is_zero() for z in range(3, 11))
        assert r_flat.degree() is None
        assert correction_series(r_flat).is_zero()

    def test_curved_first_grade(self, r_curved):
        want = WeylSeries.build(2, [
            (Fraction(-1, 4), 0, (1, 2), (1,)),
            (Fraction(1, 4), 0, (2, 1), (2,)),
        ])
        assert r_curved.part(3) == want

    def test_curved_fourth_grade(self, r_curved):
        want = WeylSeries.build(2, [
            (Fraction(1, 20), 0, (0, 4), (1,)),
            (Fraction(-1, 20), 0, (3, 1), (1,)),
            (Fraction(-1, 20), 0, (1, 3), (2,)),
            (Fraction(1, 20), 0, (4, 0), (2,)),
        ])
        assert r_curved.part(4) == want

    def test_curved_hbar_enters_at_five(self, r_curved):
        assert {t.hbar for t in r_curved.part(4).terms()} == {0}
        assert {t.hbar for t in r_curved.part(5).terms()} == {0, 2}

    def test_curved_nonzero_through_nine(self, r_curved):
        assert r_curved.nonzero_grades() == list(range(3, 10))

    def test_grading_invariants(self, r_curved, r_comm):
        for r in (r_curved, r_comm):
            for z in range(3, r.known_through + 1):
                for t in r.part(z).terms():
                    assert t.degree == z
                    assert len(t.word) == 1
                    assert t.hbar % 2 == 0
                    assert sum(t.fiber) >= 1
                assert delta_inv(r.part(z)).is_zero()

    def test_part_guards(self, r_curved):
        with pytest.raises(ValueError):
            r_curved.part(2)
        with pytest.raises(TruncationError):
            r_curved.part(10)
        with pytest.raises(ValueError):
            abelian_r(r_curved.manifold, r_curved.connection, 2)

    def test_iterative_route_agrees(self, curved2, r_curved):
        m, c = curved2
        it = abelian_r_iterative(m, c, steps=8, N=8)
        for z in range(3, 9):
            assert it.part(z) == r_curved.part(z)

    def test_iterative_needs_enough_sweeps(self, curved2):
        m, c = curved2
        with pytest.raises(ValueError):
            abelian_r_iterative(m, c, steps=4, N=6)


class TestCheck:
    def test_curved_report(self, r_curved):
        rep = check_abelian(r_curved)
        assert rep.ok
        assert rep.checked_through == 8
        assert rep.first_bad_grade is None
        assert not rep.messages

    def test_comm_report(self, r_comm):
        assert check_abelian(r_comm).ok

    def test_corrupted_base_grade(self, r_curved):
        m, c = r_curved.manifold, r_curved.connection
        parts = dict(r_curved.parts)
        parts[3] = WeylSeries.zero(2)
        bad = AbelianCorrection(m, c, parts, known_through=r_curved.known_through)
        rep = check_abelian(bad)
        assert not rep.ok
        # without the first component nothing cancels the curvature source
        assert rep.first_bad_grade == 2
        assert not rep.base_ok

    def test_odd_hbar_flagged(self, r_curved):
        m, c = r_curved.manifold, r_curved.connection
        parts = dict(r_curved.parts)
        parts[3] = parts[3] + WeylSeries.build(2, [(1, 1, (1, 0), (1,))])
        bad = AbelianCorrection(m, c, parts, known_through=4)
        rep = check_abelian(bad)
        assert not rep.even_hbar_ok and not rep.ok

    def test_corrupted_top_grade(self, r_curved):
        m, c = r_curved.manifold, r_curved.connection
        parts = dict(r_curved.parts)
        parts[9] = parts[9].scale(2)
        rep = check_abelian(AbelianCorrection(m, c, parts, known_through=9))
        assert not rep.ok
        assert rep.first_bad_grade == 8
        assert rep.messages == ["equation residual nonzero at grade 8"]

    def test_misplaced_term_flagged(self, r_curved):
        # r[5] folded into r[4]: the whole series, the normalization and the
        # parity are unchanged, but every r[5] term sits in the wrong grade
        m, c = r_curved.manifold, r_curved.connection
        parts = dict(r_curved.parts)
        parts[4] = parts[4] + parts[5]
        parts[5] = WeylSeries.zero(2)
        bad = AbelianCorrection(m, c, parts, known_through=r_curved.known_through)
        rep = check_abelian(bad)
        assert not rep.ok
        assert "degree-5 term in r[4]" in rep.messages
        assert rep.normalization_ok and rep.even_hbar_ok and rep.fiber_ok and rep.base_ok

    def test_check_beyond_known_raises(self, r_curved):
        with pytest.raises(TruncationError):
            check_abelian(r_curved, N=12)
        with pytest.raises(ValueError):
            check_abelian(r_curved, N=2)


class TestFiniteness:
    def test_comm_consistent_at_four(self, r_comm):
        res = finiteness_test(r_comm, 4)
        assert res.consistent
        assert res.violations == ()
        assert res.first_violated is None
        assert not res.square_violated

    def test_comm_degree_three(self, r_comm):
        want = WeylSeries.build(4, [
            (Fraction(1, 8), 0, (2, 0, 1, 0), (1,)),
            (Fraction(-1, 8), 0, (3, 0, 0, 0), (3,)),
        ])
        assert r_comm.part(3) == want
        assert all(r_comm.part(z).is_zero() for z in range(4, 9))
        assert r_comm.degree() == 3

    def test_curved_violated_all_m(self, r_curved):
        for mp in range(4, 10):
            res = finiteness_test(r_curved, mp)
            assert not res.consistent
            assert res.first_violated == mp
            assert res.square_violated  # r[m-1] o r[m-1] != 0 shows up at z = 2m-3
            assert res.first_residual is not None

    def test_m_guards(self, r_curved):
        with pytest.raises(ValueError):
            finiteness_test(r_curved, 3)
        with pytest.raises(TruncationError):
            finiteness_test(r_curved, 11)


class TestProductSharing:
    def test_each_pair_formed_once(self, curved2, monkeypatch):
        formed, bracketed, derivatives = [], [], []
        circ, commutator, cov_d = WeylAlgebra.circ, WeylAlgebra.commutator, abelian.covariant_d

        def counting_circ(alg, a, b, cap=None):
            formed.append((a, b))
            return circ(alg, a, b, cap)

        def counting_commutator(alg, a, b, cap=None):
            bracketed.append((a, b))
            return commutator(alg, a, b, cap)

        def counting_cov_d(*args, **kwargs):
            derivatives.append(args)
            return cov_d(*args, **kwargs)

        monkeypatch.setattr(WeylAlgebra, "circ", counting_circ)
        monkeypatch.setattr(WeylAlgebra, "commutator", counting_commutator)
        monkeypatch.setattr(abelian, "covariant_d", counting_cov_d)
        m, c = curved2
        N = 9
        r = abelian_r(m, c, N)
        grade = {id(p): z for z, p in r.parts.items()}

        def pairs(calls):
            # r[j] with r[k] only; covariant_d's [gamma, a] is not a pair
            return [(grade[id(a)], grade[id(b)]) for a, b in calls
                    if id(a) in grade and id(b) in grade]

        solved = pairs(bracketed)
        assert solved and max(j + k for j, k in solved) == N + 1
        assert all(j <= k for j, k in solved)
        assert len(derivatives) == N - 3  # one per solved grade
        derivatives.clear()
        check_abelian(r)
        assert pairs(bracketed) == solved
        for mm in range(4, N + 1):
            finiteness_test(r, mm)
        swept = pairs(bracketed)
        assert len(swept) > len(solved)
        assert len(swept) == len(set(swept))
        assert all(j <= k for j, k in swept)
        assert pairs(formed) == []
        assert derivatives == []


class TestRationalEngine:
    def test_real_connections_build_no_gaussian_rational(self, curved2, poly2, monkeypatch):
        # series store powers of nu = i hbar, so on a real connection every
        # scalar of the solve, the check, the closure sweep and a lift is rational
        built = []
        post_init = GaussianRational.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        q1, q2 = BasePolynomial.variable(2, 1), BasePolynomial.variable(2, 2)
        a0 = q1 * q2 + (q1 * q1).scale(Fraction(1, 2))
        N = 9
        for m, c in (curved2, poly2):
            monkeypatch.setattr(GaussianRational, "__post_init__", counting_post_init)
            r = abelian_r(m, c, N)
            report = check_abelian(r)
            sweep = [finiteness_test(r, mm) for mm in range(4, N + 1)]
            lift = flat_section(r, a0, 6)
            monkeypatch.setattr(GaussianRational, "__post_init__", post_init)
            assert built == []
            assert report.ok and sweep and not lift.series.is_zero()

    def test_polynomials_built_only_at_the_boundary(self, curved2, poly2, monkeypatch):
        # a series stores flat scalar terms, so the solve and a lift build
        # BasePolynomials only for their inputs, however many grades they run
        built = [0]
        init = BasePolynomial.__init__

        def counting_init(self, *args):
            built[0] += 1
            init(self, *args)

        q1, q2 = BasePolynomial.variable(2, 1), BasePolynomial.variable(2, 2)
        a0 = q1 * q1 * q2
        monkeypatch.setattr(BasePolynomial, "__init__", counting_init)
        for m, c in (curved2, poly2):
            counts = []
            for N in (6, 12):
                built[0] = 0
                r = abelian_r(m, c, N)
                solve = built[0]
                built[0] = 0
                lift = flat_section(r, a0, N)
                counts.append((solve, built[0]))
                assert not lift.series.is_zero()
            assert counts[1] == counts[0], counts
        # the check and the closure sweep read R and flat keys from the
        # correction, so they build none and form no second curvature
        curvatures = []
        curvature = abelian.curvature_form

        def counting_curvature(*args):
            curvatures.append(args)
            return curvature(*args)

        monkeypatch.setattr(abelian, "curvature_form", counting_curvature)
        m, c = curved2
        for N in (6, 12):
            r = abelian_r(m, c, N)
            built[0] = 0
            curvatures.clear()
            report = check_abelian(r)
            sweep = [finiteness_test(r, mm) for mm in range(4, N + 1)]
            assert (built[0], len(curvatures)) == (0, 0)
            assert report.ok and sweep

    def test_fractions_built_only_at_the_boundary(self, curved2, poly2, monkeypatch):
        # a series stores int numerators over one denominator, so the solve,
        # a lift, and the check with the closure sweep build Fractions only
        # at the boundary, however many grades they run
        built = [0]
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        def phase(run):
            built[0] = 0
            result = run()
            return built[0], result

        q1, q2 = BasePolynomial.variable(2, 1), BasePolynomial.variable(2, 2)
        a0 = q1 * q1 * q2
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        for m, c in (curved2, poly2):
            m.algebra  # built once per manifold, before any phase
            counts = []
            for N in (6, 12):
                solve, r = phase(lambda: abelian_r(m, c, N))
                lift, section = phase(lambda: flat_section(r, a0, N))
                check, (report, sweep) = phase(lambda: (
                    check_abelian(r), [finiteness_test(r, mm) for mm in range(4, N + 1)]))
                counts.append((solve, lift, check))
                assert report.ok and sweep and not section.series.is_zero()
            assert counts[1] == counts[0], counts


class TestCommutingShortcut:
    """`fedosov finite`'s verdict, its first line of output, against the
    commuting-case reference route wherever that route applies, and against
    the first m of a full closure sweep m = 4..Z on every connection."""

    @staticmethod
    def verdict(tmp_path, capsys, m, c):
        path = tmp_path / "connection.json"
        path.write_text(json.dumps({
            "dim": m.dim,
            "omega": [[str(v) for v in row] for row in m.omega_lower],
            "gamma": [{"indices": list(t), "poly": format_poly(p)}
                      for t, p in sorted(c._entries.items())],
        }))
        assert cli.main(["finite", str(path), "--zmax", str(COMMUTING_ZMAX)]) == 0
        return capsys.readouterr().out.splitlines()[0]

    @staticmethod
    def shortcut_verdict(m, c):
        try:
            res = commuting_case_shortcut(m, c, COMMUTING_ZMAX)
        except CommutingHypothesisError:
            return None
        return {
            "zero-curvature": "curvature is zero: r = 0, trivially finite",
            "finite": f"finite, deg(r)={res.r_degree}",
            "not-finite-within": f"not finite within z <= {COMMUTING_ZMAX}",
        }[res.kind]

    @staticmethod
    def sweep_verdict(m, c):
        r = abelian_r(m, c, COMMUTING_ZMAX - 1)
        for mm in range(4, COMMUTING_ZMAX + 1):
            if finiteness_test(r, mm).consistent:
                if mm == 4 and curvature_form(m, c).is_zero():
                    return "curvature is zero: r = 0, trivially finite"
                return f"finite, deg(r)={mm - 1}"
        return f"not finite within z <= {COMMUTING_ZMAX}"

    def agree(self, tmp_path, capsys, m, c, where):
        got = self.verdict(tmp_path, capsys, m, c)
        assert got == self.sweep_verdict(m, c), where
        shortcut = self.shortcut_verdict(m, c)
        assert shortcut in (None, got), where
        return got, shortcut is not None

    def test_reference_route_agrees(self, tmp_path, capsys):
        # zero curvature, finite at deg 3..8, and not finite within z_max;
        # the shortcut does not apply to curved2d or G111=q4,G133=1
        outcomes = {name: self.agree(tmp_path, capsys, m, c, name)
                    for name, (m, c) in commuting_connections().items()}
        assert len({got for got, _ in outcomes.values()}) == 8
        assert sorted(name for name, (_, applies) in outcomes.items()
                      if not applies) == ["G111=q4,G133=1", "curved2d"]

    def test_reference_route_agrees_on_sample(self, tmp_path, capsys):
        triples = list(combinations_with_replacement((1, 3, 4), 3))
        coeffs = ["1", "q3", "q4", "q3^2", "q3^3"]
        rng = random.Random(8)
        m = ManifoldSpec.standard(4)
        outcomes = set()
        for _ in range(100):
            entries = [(t, parse_poly(rng.choice(coeffs), 4))
                       for t in rng.sample(triples, rng.randint(1, 2))]
            outcomes.add(self.agree(tmp_path, capsys, m, ConnectionSpec(4, entries), entries))
        assert len({got for got, _ in outcomes}) > 2
        assert {applies for _, applies in outcomes} == {True, False}


class TestFlatSections:
    def test_constant_lifts_to_itself(self, r_curved):
        a0 = BasePolynomial.constant(2, 5)
        s = flat_section(r_curved, a0, 6)
        assert s.series == WeylSeries.from_poly(a0)

    def test_linear_flat_lift(self, r_flat):
        # q1 lifts to q1 + X1 and then stabilizes
        a0 = BasePolynomial.variable(2, 1)
        s = flat_section(r_flat, a0, 6)
        terms = s.series.terms()
        assert len(terms) == 2
        assert terms[0].fiber == (0, 0) and terms[0].coeff == BasePolynomial.variable(2, 1)
        assert terms[1].fiber == (1, 0) and terms[1].coeff == BasePolynomial.constant(2, 1)

    def test_curved_residual_vanishes(self, r_curved):
        rng = random.Random(21)
        for _ in range(3):
            a0 = rand_poly(rng, 2, deg=2, terms=2)
            s = flat_section(r_curved, a0, 7)
            assert flatness_residual(r_curved, s).truncate(6).is_zero()

    def test_projection_returns_input(self, r_curved):
        from fedosov.weyl import sigma

        rng = random.Random(22)
        a0 = rand_poly(rng, 2, deg=3, terms=3)
        s = flat_section(r_curved, a0, 7)
        assert sigma(s.series) == {0: a0}

    def test_lift_stabilizes(self, r_curved):
        a0 = BasePolynomial.variable(2, 1) * BasePolynomial.variable(2, 2)
        s5 = flat_section(r_curved, a0, 5)
        s7 = flat_section(r_curved, a0, 7)
        assert s7.series.truncate(5) == s5.series.truncate(5)

    def test_sweep_oracle_agrees(self, r_curved, poly2, const4):
        rng = random.Random(26)
        cases = [(r_curved, 6), (abelian_r(*poly2, 5), 5), (abelian_r(*const4, 4), 4)]
        for r, N in cases:
            dim = r.manifold.dim
            for _ in range(2):
                a0 = rand_poly(rng, dim, deg=2, terms=3)
                s = flat_section(r, a0, N)
                want = flat_section_sweeps(r, a0, N)
                assert s.series == want
                assert s.series.known_through == want.known_through == N

    def test_guards(self, r_curved):
        with pytest.raises(TruncationError):
            flat_section(r_curved, BasePolynomial.variable(2, 1), 12)
        with pytest.raises(ValueError):
            flat_section(r_curved, BasePolynomial.variable(2, 1), -1)
        with pytest.raises(ValueError):
            flat_section(r_curved, BasePolynomial.variable(4, 1), 4)


class TestStar:
    def test_flat_position_momentum(self, flat2):
        m, c = flat2
        q = BasePolynomial.variable(2, 1)
        p = BasePolynomial.variable(2, 2)
        assert star(m, c, q, p, 1) == {
            0: q * p,
            1: BasePolynomial.constant(2, HALF_I),
        }
        assert star(m, c, p, q, 1) == {
            0: q * p,
            1: BasePolynomial.constant(2, -HALF_I),
        }

    def test_canonical_commutator(self, flat2, curved2):
        q = BasePolynomial.variable(2, 1)
        p = BasePolynomial.variable(2, 2)
        for m, c in (flat2, curved2):
            qp = star(m, c, q, p, 2)
            pq = star(m, c, p, q, 2)
            diff = {k: qp.get(k, BasePolynomial.zero(2)) - pq.get(k, BasePolynomial.zero(2))
                    for k in set(qp) | set(pq)}
            diff = {k: v for k, v in diff.items() if not v.is_zero()}
            assert diff == {1: BasePolynomial.constant(2, I)}

    def test_unit_law(self, curved2):
        m, c = curved2
        one = BasePolynomial.constant(2, 1)
        rng = random.Random(23)
        f = rand_poly(rng, 2, deg=3, terms=3)
        assert star(m, c, one, f, 2) == {0: f}
        assert star(m, c, f, one, 2) == {0: f}

    def test_first_order_antisymmetric_part(self, flat2, curved2):
        rng = random.Random(24)
        for m, c in (flat2, curved2):
            r = abelian_r(m, c, 3)
            for _ in range(4):
                a0 = rand_poly(rng, 2, deg=2, terms=2)
                b0 = rand_poly(rng, 2, deg=2, terms=2)
                ab = star(m, c, a0, b0, 1, r=r)
                ba = star(m, c, b0, a0, 1, r=r)
                anti = ab.get(1, BasePolynomial.zero(2)) - ba.get(1, BasePolynomial.zero(2))
                assert anti == m.poisson(a0, b0).scale(I)

    def test_zeroth_order_is_pointwise(self, curved2):
        m, c = curved2
        rng = random.Random(25)
        a0 = rand_poly(rng, 2, deg=2, terms=2)
        b0 = rand_poly(rng, 2, deg=2, terms=2)
        assert star(m, c, a0, b0, 0) == ({0: a0 * b0} if not (a0 * b0).is_zero() else {})

    def test_negative_order_rejected(self, curved2, r_curved):
        m, c = curved2
        q = BasePolynomial.variable(2, 1)
        with pytest.raises(ValueError):
            star(m, c, q, q, -1, r=r_curved)

    def test_short_r_rejected(self, curved2, r_curved):
        m, c = curved2
        q = BasePolynomial.variable(2, 1)
        with pytest.raises(TruncationError):
            star(m, c, q, q, 6, r=r_curved)

    def test_projection_matches_full_product(self, curved2, poly2, comm4, monkeypatch):
        # star forms only the X-free terms of the product of the two lifts;
        # the old route formed the whole product and projected it
        custom = ManifoldSpec(4, [[0, 2, 1, 0], [-2, 0, 0, Fraction(-1, 3)],
                                  [-1, 0, 0, 3], [0, Fraction(1, 3), -3, 0]])
        cases = [(curved2, 3), (poly2, 2), (comm4, 2),
                 ((custom, ConnectionSpec(4, [((1, 1, 2), 1), ((2, 3, 4), Fraction(1, 2))])), 2)]
        formed = []
        circ = WeylAlgebra.circ

        def counting_circ(alg, a, b, cap=None):
            formed.append((a, b))
            return circ(alg, a, b, cap)

        rng = random.Random(29)
        for (m, c), K in cases:
            r = abelian_r(m, c, max(3, 2 * K))
            for _ in range(2):
                a0 = rand_poly(rng, m.dim, deg=2, terms=3)
                b0 = rand_poly(rng, m.dim, deg=2, terms=3)
                monkeypatch.setattr(WeylAlgebra, "circ", counting_circ)
                got = star(m, c, a0, b0, K, r=r)
                monkeypatch.setattr(WeylAlgebra, "circ", circ)
                assert formed == []
                sa, sb = flat_section(r, a0, 2 * K), flat_section(r, b0, 2 * K)
                full = sigma(m.algebra.circ(sa.series, sb.series, cap=2 * K))
                assert got == {k: p for k, p in full.items() if k <= K}
                assert got
                with pytest.raises(TruncationError):
                    m.algebra._xfree(sa.series, sb.series, cap=2 * K + 1)

    def test_flat_matches_moyal_formula(self, flat2):
        # on flat 2D the star product is the Moyal product, through h^4:
        # sum_k (i h/2)^k / k! sum_j C(k,j) (-1)^j d1^(k-j) d2^j a * d2^(k-j) d1^j b
        sympy = pytest.importorskip("sympy")
        x1, x2 = sympy.symbols("q1 q2")

        def to_sympy(p):
            return sum(((sympy.Rational(c.re.numerator, c.re.denominator)
                         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
                        * x1**e1 * x2**e2 for (e1, e2), c in p.items()), sympy.Integer(0))

        m, c = flat2
        K = 4
        rng = random.Random(41)
        for _ in range(10):
            a0 = rand_poly(rng, 2, deg=4, terms=3)
            b0 = rand_poly(rng, 2, deg=4, terms=3)
            got = star(m, c, a0, b0, K)
            a, b = to_sympy(a0), to_sympy(b0)
            for k in range(K + 1):
                want = sympy.I**k / (2**k * sympy.factorial(k)) * sum(
                    sympy.binomial(k, j) * (-1)**j
                    * sympy.diff(a, x1, k - j, x2, j) * sympy.diff(b, x2, k - j, x1, j)
                    for j in range(k + 1))
                assert sympy.expand(to_sympy(got.get(k, BasePolynomial.zero(2))) - want) == 0

    def test_hbar_expanded_bilinearity(self, curved2, r_curved):
        m, c = curved2
        q = BasePolynomial.variable(2, 1)
        p = BasePolynomial.variable(2, 2)
        plain = star(m, c, q, p, 2, r=r_curved)
        shifted = star_hbar(m, c, {1: q}, {0: p}, 3, r=r_curved)
        assert shifted == {k + 1: v for k, v in plain.items()}
