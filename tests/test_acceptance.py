"""End-to-end acceptance gate.

Each test covers one contract item, prints a single visible verdict line,
and enforces the stated wall-clock budget where one applies.  Everything
is exact: every comparison is == on rational or Gaussian-rational data.
"""

import contextlib
import random
import time
from fractions import Fraction

import pytest

from fedosov.abelian import (
    abelian_r,
    check_abelian,
    finiteness_test,
    star,
)
from fedosov.calculus import delta, delta_inv, ext_d
from fedosov.geometry import (
    ConnectionSpec,
    ManifoldSpec,
    curvature_form,
    curvature_tensor,
)
from fedosov.poly import BasePolynomial
from fedosov.scalars import GaussianRational, I
from fedosov.twodim import (
    CoefficientTable,
    cascade_solve,
    g_coeff,
    random_table,
    square_check,
)
from fedosov.weyl import WeylAlgebra, WeylSeries

from conftest import (
    rand_connection,
    rand_form_homogeneous,
    rand_homogeneous,
    rand_poly,
    rand_series,
)
from oracles import _f_raw, abelian_r_iterative, hodge_split, monomial_circ, star_hbar


@contextlib.contextmanager
def criterion(capsys, name, budget=None):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        dt = time.perf_counter() - t0
        over = budget is not None and dt > budget
        verdict = "FAIL" if failed or over else "PASS"
        with capsys.disabled():
            limit = f" / budget {budget:.0f}s" if budget is not None else ""
            print(f"\n[acceptance] {name}: {verdict} ({dt:.1f}s{limit})")
        if over and not failed:
            raise AssertionError(f"{name}: exceeded {budget}s budget ({dt:.1f}s)")


def xmono(r, j):
    return WeylSeries.build(2, [(1, 0, (r, j), ())])


def test_operator_identities(capsys):
    rng = random.Random(101)
    with criterion(capsys, "fiber operator identities", budget=30.0):
        for dim in (2, 4):
            alg = WeylAlgebra(dim)
            for _ in range(50):
                a = rand_series(rng, dim, terms=3, max_hbar=1, max_fiber=2)
                assert delta(delta(a)).is_zero()
                assert delta_inv(delta_inv(a)).is_zero()
                assert (ext_d(delta(a)) + delta(ext_d(a))).is_zero()
                dd, di, rest = hodge_split(a)
                assert dd + di + rest == a
            for _ in range(50):
                deg = rng.randint(0, 2)
                a = rand_form_homogeneous(rng, dim, deg, terms=2, max_hbar=1)
                b = rand_series(rng, dim, terms=2, max_hbar=1)
                sign = -1 if deg % 2 else 1
                prod = alg.circ(a, b)
                assert delta(prod) == alg.circ(delta(a), b) + alg.circ(a, delta(b)).scale(sign)
                assert ext_d(prod) == alg.circ(ext_d(a), b) + alg.circ(a, ext_d(b)).scale(sign)


def test_degree_additivity_and_associativity(capsys):
    rng = random.Random(102)
    with criterion(capsys, "product grading and associativity", budget=60.0):
        checked = 0
        while checked < 100:
            dim = rng.choice((2, 4))
            da, db = rng.randint(0, 5), rng.randint(0, 5)
            a = rand_homogeneous(rng, dim, da, terms=2)
            b = rand_homogeneous(rng, dim, db, terms=2)
            p = WeylAlgebra(dim).circ(a, b)
            if p.is_zero():
                continue
            assert {t.degree for t in p.terms()} == {da + db}
            checked += 1
        for n in range(100):
            dim = 2 if n % 2 else 4
            alg = WeylAlgebra(dim)
            a = rand_homogeneous(rng, dim, rng.randint(0, 3), terms=2, forms=True)
            b = rand_homogeneous(rng, dim, rng.randint(0, 3), terms=2)
            c = rand_homogeneous(rng, dim, rng.randint(0, 4), terms=2, forms=True)
            assert alg.circ(alg.circ(a, b), c) == alg.circ(a, alg.circ(b, c))


def test_closed_form_monomial_products(capsys):
    with criterion(capsys, "closed-form 2D products", budget=30.0):
        alg = WeylAlgebra(2)
        for r in range(6):
            for j in range(6):
                for s in range(6):
                    for k in range(6):
                        assert monomial_circ(r, j, s, k) == alg.circ(xmono(r, j), xmono(s, k))
                        assert _f_raw(r, j, s, k, 0) == 1
                        for t in range(min(r, k) + min(j, s) + 1):
                            assert _f_raw(s, k, r, j, t) == (-1) ** t * _f_raw(r, j, s, k, t)
        for z in range(2, 11):
            assert _f_raw(1, z - 1, 0, z, 1) == Fraction(z, 2)
            assert _f_raw(2, z - 2, 1, z - 1, 1) == Fraction(z, 2)
        for z in range(5, 11):
            assert _f_raw(2, z - 5, 0, z - 4, 1) == z - 4


def test_curvature_structure(capsys, curved2):
    rng = random.Random(104)
    with criterion(capsys, "curvature symmetries and routes"):
        m, c = curved2
        assert curvature_tensor(m, c)[(2, 1, 2, 1)] == BasePolynomial.constant(2, -1)
        for dim in (2, 4):
            mspec = ManifoldSpec.standard(dim)
            for _ in range(3):
                conn = rand_connection(rng, dim)
                R = curvature_tensor(mspec, conn)
                zero = BasePolynomial.zero(dim)
                idx = range(1, dim + 1)
                for i in idx:
                    for j in idx:
                        for k in idx:
                            for l in idx:
                                assert R.get((i, j, k, l), zero) == R.get((j, i, k, l), zero)
                                assert R.get((i, j, k, l), zero) == -R.get((i, j, l, k), zero)
                                cyc = R.get((i, j, k, l), zero) + R.get((i, k, l, j), zero) + R.get((i, l, j, k), zero)
                                assert cyc.is_zero()
                assert curvature_form(mspec, conn, via="form-equation") == \
                    curvature_form(mspec, conn, via="tensor")


def test_flat_space_reduces_to_moyal_data(capsys, flat2):
    with criterion(capsys, "flat case", budget=10.0):
        m, c = flat2
        r = abelian_r(m, c, 10)
        assert all(r.part(z).is_zero() for z in range(3, 11))
        q = BasePolynomial.variable(2, 1)
        p = BasePolynomial.variable(2, 2)
        half_i = GaussianRational(0, Fraction(1, 2))
        assert star(m, c, q, p, 1, r=r) == {0: q * p, 1: BasePolynomial.constant(2, half_i)}
        qp = star(m, c, q, p, 2, r=r)
        pq = star(m, c, p, q, 2, r=r)
        assert set(qp) == {0, 1} and set(pq) == {0, 1}
        assert qp[0] == pq[0]
        assert qp[1] - pq[1] == BasePolynomial.constant(2, I)


def test_curved_correction_series(capsys, curved2):
    with criterion(capsys, "curved 2D correction", budget=120.0):
        m, c = curved2
        r = abelian_r(m, c, 9)
        assert r.nonzero_grades() == list(range(3, 10))
        rep = check_abelian(r)
        assert rep.ok and rep.checked_through == 8 and not rep.messages
        for z in range(3, 10):
            assert delta_inv(r.part(z)).is_zero()
            assert all(t.hbar % 2 == 0 for t in r.part(z).terms())
            assert all(sum(t.fiber) >= 1 for t in r.part(z).terms())
        it = abelian_r_iterative(m, c, steps=9, N=9)
        for z in range(3, 10):
            assert it.part(z) == r.part(z)


def test_curved_correction_never_terminates(capsys, curved2):
    # the paper's square argument on the solver's own output: for every
    # candidate stop m the closure system fails at z = 2m-3, where
    # r[m-1] o r[m-1] would have to vanish
    q1, q2 = BasePolynomial.variable(2, 1), BasePolynomial.variable(2, 2)
    poly2 = (curved2[0], ConnectionSpec(2, [((1, 1, 1), q2), ((1, 2, 2), q1)]))
    with criterion(capsys, "curved 2D closure system fails at every m", budget=30.0):
        for (m, c), N in ((curved2, 18), (poly2, 10)):
            r = abelian_r(m, c, N)
            for mm in range(4, N + 1):
                assert finiteness_test(r, mm).square_violated, (N, mm)


def test_four_dim_terminating_case(capsys, comm4):
    with criterion(capsys, "4D terminating correction"):
        m, c = comm4
        r = abelian_r(m, c, 8)
        assert r.part(3) == delta_inv(curvature_form(m, c))
        assert all(r.part(z).is_zero() for z in range(4, 9))
        assert r.degree() == 3
        assert finiteness_test(r, 4).consistent


def test_square_nonvanishing_and_cascades(capsys):
    rng = random.Random(108)
    with criterion(capsys, "square nonvanishing", budget=120.0):
        for _ in range(50):
            z = rng.randint(1, 8)
            res = square_check(random_table(z, rng).to_form())
            assert not res.is_zero
            assert res.witness is not None
        for z in range(1, 9):
            table = random_table(z, rng)
            square = square_check(table.to_form()).square
            actual = {(t.hbar, t.fiber): t.coeff.constant_value() for t in square.terms()}
            predicted = {}
            for A in range((2 * z - 2) // 4 + 1):
                for B in range(2 * z - 2 - 4 * A + 1):
                    g = g_coeff(z, table, A, B)
                    if g:
                        predicted[(2 * A + 1, (B, 2 * z - 2 - 4 * A - B))] = g
            assert actual == predicted
            cas = cascade_solve(z)
            assert sorted(s.variable for s in cas.steps) == CoefficientTable.indices(z)
            assert all(s.factor for s in cas.steps)
            assert cas.steps[0].variable == (0, 0)
            assert cas.steps[0].factor == I * z


def test_star_product_axioms(capsys, flat2, curved2):
    rng = random.Random(109)
    with criterion(capsys, "star product axioms", budget=120.0):
        m, c = curved2
        r6 = abelian_r(m, c, 6)
        one = BasePolynomial.constant(2, 1)
        for _ in range(5):
            f = rand_poly(rng, 2, deg=2, terms=2)
            if f.is_zero():
                continue
            assert star(m, c, one, f, 2, r=r6) == {0: f}
            assert star(m, c, f, one, 2, r=r6) == {0: f}
        for mspec, cspec in (flat2, curved2):
            rr = abelian_r(mspec, cspec, 3)
            for _ in range(5):
                a0 = rand_poly(rng, 2, deg=2, terms=2)
                b0 = rand_poly(rng, 2, deg=2, terms=2)
                ab = star(mspec, cspec, a0, b0, 1, r=rr)
                ba = star(mspec, cspec, b0, a0, 1, r=rr)
                anti = ab.get(1, BasePolynomial.zero(2)) - ba.get(1, BasePolynomial.zero(2))
                assert anti == mspec.poisson(a0, b0).scale(I)
        for _ in range(3):
            a0 = rand_poly(rng, 2, deg=2, terms=2)
            b0 = rand_poly(rng, 2, deg=1, terms=2)
            c0 = rand_poly(rng, 2, deg=2, terms=2)
            ab = star(m, c, a0, b0, 3, r=r6)
            bc = star(m, c, b0, c0, 3, r=r6)
            left = star_hbar(m, c, ab, {0: c0}, 3, r=r6)
            right = star_hbar(m, c, {0: a0}, bc, 3, r=r6)
            assert left == right
