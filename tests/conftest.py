import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from fedosov.geometry import ConnectionSpec, ManifoldSpec
from fedosov.poly import BasePolynomial
from fedosov.scalars import GaussianRational
from fedosov.weyl import WeylSeries

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def flat2():
    return ManifoldSpec.standard(2), ConnectionSpec.zero(2)


@pytest.fixture(scope="session")
def curved2():
    # constant symmetric coefficients with nonzero curvature
    return ManifoldSpec.standard(2), ConnectionSpec(2, [((1, 1, 1), 1), ((2, 2, 2), 1)])


@pytest.fixture(scope="session")
def comm4():
    c = ConnectionSpec(4, [((1, 1, 1), BasePolynomial.variable(4, 3))])
    return ManifoldSpec.standard(4), c


def rand_scalar(rng: random.Random) -> GaussianRational:
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.4 else Fraction(0)
    return GaussianRational(re, im)


def rand_poly(rng: random.Random, dim: int, deg: int = 2, terms: int = 2) -> BasePolynomial:
    coeffs = {}
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(dim)] += 1
        coeffs[tuple(exps)] = rand_scalar(rng)
    return BasePolynomial(dim, coeffs)


def rand_word(rng: random.Random, dim: int, m: int | None = None) -> tuple[int, ...]:
    if m is None:
        m = rng.randint(0, min(2, dim))
    return tuple(sorted(rng.sample(range(1, dim + 1), m)))


def rand_series(rng: random.Random, dim: int, terms: int = 3, max_hbar: int = 1,
                max_fiber: int = 2, forms: bool = True, qdeg: int = 1) -> WeylSeries:
    entries = []
    for _ in range(terms):
        hbar = rng.randint(0, max_hbar)
        fiber = tuple(rng.randint(0, max_fiber) for _ in range(dim))
        word = rand_word(rng, dim) if forms else ()
        entries.append((rand_poly(rng, dim, deg=qdeg), hbar, fiber, word))
    return WeylSeries.build(dim, entries)


def rand_form_homogeneous(rng: random.Random, dim: int, form_degree: int,
                          terms: int = 3, max_hbar: int = 1, qdeg: int = 1) -> WeylSeries:
    """Random series whose every term has the given form degree."""
    entries = []
    for _ in range(terms):
        hbar = rng.randint(0, max_hbar)
        fiber = tuple(rng.randint(0, 2) for _ in range(dim))
        word = rand_word(rng, dim, form_degree)
        entries.append((rand_poly(rng, dim, deg=qdeg), hbar, fiber, word))
    return WeylSeries.build(dim, entries)


def rand_homogeneous(rng: random.Random, dim: int, degree: int,
                     terms: int = 3, forms: bool = False, qdeg: int = 0) -> WeylSeries:
    """Random series with every term of the given grading degree."""
    entries = []
    for _ in range(terms):
        hbar = rng.randint(0, degree // 2)
        left = degree - 2 * hbar
        fiber = [0] * dim
        for _ in range(left):
            fiber[rng.randrange(dim)] += 1
        word = rand_word(rng, dim) if forms else ()
        entries.append((rand_poly(rng, dim, deg=qdeg), hbar, tuple(fiber), word))
    return WeylSeries.build(dim, entries)


def rand_connection(rng: random.Random, dim: int, entries: int = 3,
                    qdeg: int = 1) -> ConnectionSpec:
    data = {}
    for _ in range(entries):
        triple = tuple(sorted(rng.randint(1, dim) for _ in range(3)))
        data[triple] = rand_poly(rng, dim, deg=qdeg)
    # curvature needs real coefficients to stay meaningful, but the algebra
    # does not care; keep them rational to mirror the geometric setting
    cleaned = {
        t: BasePolynomial(dim, {e: GaussianRational(v.re, Fraction(0)) for e, v in p.items()})
        for t, p in data.items()
    }
    return ConnectionSpec(dim, cleaned.items())
