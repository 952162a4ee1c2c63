"""Seeded inputs for the four benchmark workloads.

Standard library only: the program under test receives nothing but the
plain data made here.  The same seed always gives the same job list.

A job is a dict with an "id" and the data its workload needs.  A
polynomial is a list of [exponents, "rational"] pairs; an expression
string is used only where the command line takes text.

Cost spread between seeds is kept small on purpose: each job slot has a
fixed shape (which Gamma entries are nonzero, which monomial degrees an
observable has), every seed uses the same multiset of value magnitudes,
and the seed chooses their arrangement and signs.  Rejection sampling
keeps only curved connections, so no job fails and every certify2d job
exercises the non-terminating case.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

WORKLOADS = ("certify2d", "solve", "star", "cli")

# magnitudes n/d with n, d in 1..3; every seed draws the same multiset of
# them, so seeds differ in arrangement and signs but not in size
MAGNITUDES = sorted({Fraction(n, d) for n in (1, 2, 3) for d in (1, 2, 3)})

TRIPLES_2D = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))

CERTIFY_JOBS = 28  # 7 per choice of the zero Gamma entry
CERTIFY_N = 5

SOLVE_2D_N = 7
SOLVE_4D_N = 5
# (dim, N, {triple: variable index, or None for a constant}); each SOLVE_REPEATS
# times, so that the median job is taken from a dense spread of costs
SOLVE_SHAPES = (
    (2, SOLVE_2D_N, {(1, 1, 1): 2, (1, 2, 2): 1}),
    (2, SOLVE_2D_N, {(1, 1, 2): 1, (2, 2, 2): 1}),
    (2, SOLVE_2D_N, {(1, 1, 1): 2, (2, 2, 2): 1}),
    (4, SOLVE_4D_N, {(1, 1, 1): None, (1, 2, 3): None, (2, 4, 4): None}),
    (4, SOLVE_4D_N, {(1, 1, 3): None, (2, 2, 4): None, (1, 3, 3): None}),
    (4, SOLVE_4D_N, {(1, 1, 1): None, (2, 3, 4): None, (3, 3, 3): None}),
)
SOLVE_REPEATS = 6

STAR_K = 2
STAR_CONNECTIONS = 4
STAR_PAIRS = 32
# total degrees of the monomials in each observable
STAR_SHAPE = (2, 0)

CLI_DEGREE = 5
CLI_ORDER = 1
CLI_PROP41 = ("--z", "4", "--trials", "2")


def balanced(rng: random.Random, items, count: int) -> list:
    """count items cycling through `items`, in a seeded order."""
    out = [items[k % len(items)] for k in range(count)]
    rng.shuffle(out)
    return out


def signed_values(rng: random.Random, count: int) -> list:
    return [m * rng.choice((1, -1)) for m in balanced(rng, MAGNITUDES, count)]


def _omega_upper(dim: int):
    """omega^{ij} of the standard form: +1 at (2a-1, 2a), -1 at (2a, 2a-1)."""
    w = {}
    for a in range(1, dim, 2):
        w[(a, a + 1)] = 1
        w[(a + 1, a)] = -1
    return w


def constant_curvature_is_zero(dim: int, gamma: dict) -> bool:
    """Whether R_ijkl vanishes for constant Gamma (only the quadratic part).

    R_ijkl = sum_{m,p} omega^{mp} (G_plj G_ikm - G_pjk G_ilm), the same
    formula as the library's curvature tensor with the derivative terms
    dropped, since constant coefficients have none.
    """
    def g(i, j, k):
        return gamma.get(tuple(sorted((i, j, k))), 0)

    w = _omega_upper(dim)
    rng = range(1, dim + 1)
    for i, j, k, l in itertools.product(rng, repeat=4):
        total = sum(
            wmp * (g(p, l, j) * g(i, k, mm) - g(p, j, k) * g(i, l, mm))
            for (mm, p), wmp in w.items()
        )
        if total:
            return False
    return True


def linear_curvature_is_zero(dim: int, gamma: dict) -> bool:
    """For Gamma homogeneous linear in q, R vanishes only if its constant
    part d_k G_ilj - d_l G_ijk does (the quadratic part has no constant
    term).  gamma maps a sorted triple to {variable index: coefficient}.
    """
    def dg(i, j, k, var):
        return gamma.get(tuple(sorted((i, j, k))), {}).get(var, 0)

    rng = range(1, dim + 1)
    for i, j, k, l in itertools.product(rng, repeat=4):
        if dg(i, l, j, k) - dg(i, j, k, l):
            return False
    return True


def _constant_poly(dim: int, v: Fraction):
    return [[[0] * dim, str(v)]]


def _curved_2d(rng: random.Random, zero_triples) -> list[dict]:
    """Constant 2D connections, one per zero triple, all curved."""
    while True:
        values = iter(signed_values(rng, 3 * len(zero_triples)))
        out = [{t: next(values) for t in TRIPLES_2D if t != zero} for zero in zero_triples]
        if not any(constant_curvature_is_zero(2, g) for g in out):
            return out


def _gamma_records(dim: int, gamma: dict):
    return [[list(t), _constant_poly(dim, v)] for t, v in sorted(gamma.items())]


def certify2d_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"certify2d/{seed}")
    zeros = [TRIPLES_2D[n % len(TRIPLES_2D)] for n in range(CERTIFY_JOBS)]
    return [
        {"id": f"c{n}", "dim": 2, "N": CERTIFY_N, "gamma": _gamma_records(2, gamma)}
        for n, gamma in enumerate(_curved_2d(rng, zeros))
    ]


def _is_flat(dim: int, shape: dict, values: dict) -> bool:
    if any(var is not None for var in shape.values()):
        return linear_curvature_is_zero(dim, {t: {shape[t]: v} for t, v in values.items()})
    return constant_curvature_is_zero(dim, values)


def solve_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"solve/{seed}")
    shapes = list(SOLVE_SHAPES) * SOLVE_REPEATS
    while True:
        values = iter(signed_values(rng, sum(len(shape) for _d, _n, shape in shapes)))
        drawn = [{t: next(values) for t in shape} for _d, _n, shape in shapes]
        if not any(_is_flat(d, shape, v) for (d, _n, shape), v in zip(shapes, drawn)):
            break
    jobs = []
    for n, ((dim, N, shape), vals) in enumerate(zip(shapes, drawn)):
        records = []
        for t, v in sorted(vals.items()):
            exps = [0] * dim
            if shape[t] is not None:
                exps[shape[t] - 1] = 1
            records.append([list(t), [[exps, str(v)]]])
        jobs.append({"id": f"s{n}", "dim": dim, "N": N, "gamma": records})
    return jobs


def _observables(rng: random.Random, count: int) -> list:
    """count polynomials in q1, q2, each a sum of monomials of the
    STAR_SHAPE total degrees; exponents and values drawn evenly."""
    coeffs = iter(signed_values(rng, count * len(STAR_SHAPE)))
    columns = [iter(balanced(rng, [(e, deg - e) for e in range(deg + 1)], count))
               for deg in STAR_SHAPE]
    return [[[list(next(col)), str(next(coeffs))] for col in columns] for _ in range(count)]


def star_jobs(seed: int) -> dict:
    """A few connections, each solved once in set-up, and the observable
    pairs, which take the connections in turn."""
    rng = random.Random(f"star/{seed}")
    gammas = _curved_2d(rng, [(1, 1, 2)] * STAR_CONNECTIONS)
    obs = _observables(rng, 2 * STAR_PAIRS)
    pairs = [
        {"id": f"p{n}", "conn": n % STAR_CONNECTIONS, "a": obs[2 * n], "b": obs[2 * n + 1]}
        for n in range(STAR_PAIRS)
    ]
    return {"dim": 2, "K": STAR_K, "gammas": [_gamma_records(2, g) for g in gammas],
            "jobs": pairs}


def poly_expr(records) -> str:
    """Expression text for the manifest grammar, e.g. '-2/3*q1^2*q2'."""
    parts = []
    for exps, c in records:
        factors = [str(c)]
        for k, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"q{k}")
            elif e > 1:
                factors.append(f"q{k}^{e}")
        parts.append("*".join(factors))
    return " + ".join(f"({p})" if p.startswith("-") else p for p in parts)


def cli_jobs(seed: int) -> dict:
    """Manifests to write (name -> JSON object) and the commands to run.

    Command arguments that name a manifest are given as "@<name>" and
    resolved to a path by the caller.  The twenty jobs form three classes
    by cost: five fast ones (validate, finite), seven mid ones (star,
    prop41) and eight slow ones (abelian --check), so that the median
    falls inside the mid class and the p75 inside the slow one rather
    than on the edge between two.
    """
    rng = random.Random(f"cli/{seed}")
    curved = _curved_2d(rng, [TRIPLES_2D[n % len(TRIPLES_2D)] for n in range(4)])
    manifests = {
        f"curved2d-{n}.json": {
            "dim": 2,
            "gamma": [{"indices": list(t), "poly": str(v)} for t, v in sorted(g.items())],
            "defaults": {"max_degree": CLI_DEGREE, "hbar_order": CLI_ORDER},
        }
        for n, g in enumerate(curved)
    }
    # Gamma_111 linear in q3, q4 only: the commuting shortcut applies and
    # the correction stops at degree 3
    coeffs = signed_values(rng, 4)
    for n in range(2):
        a, b = coeffs[2 * n: 2 * n + 2]
        manifests[f"terminating4d-{n}.json"] = {
            "dim": 4,
            "gamma": [{"indices": [1, 1, 1],
                       "poly": poly_expr([[[0, 0, 1, 0], str(a)], [[0, 0, 0, 1], str(b)]])}],
            "defaults": {"max_degree": CLI_DEGREE, "hbar_order": CLI_ORDER},
        }
    obs = [poly_expr(p) for p in _observables(rng, 10)]
    abelian = ["--degree", str(CLI_DEGREE), "--check", "--out", "json"]
    commands = [
        ["validate", "@curved2d-0.json"],
        ["validate", "@curved2d-1.json"],
        ["validate", "@terminating4d-0.json"],
        ["finite", "@terminating4d-0.json"],
        ["finite", "@terminating4d-1.json"],
        *(["star", f"@curved2d-{n % 4}.json", obs[2 * n], obs[2 * n + 1], "--order", str(CLI_ORDER)]
          for n in range(5)),
        *(["prop41", *CLI_PROP41, "--seed", str(rng.randrange(10**6))] for _ in range(2)),
        *(["abelian", f"@curved2d-{n % 4}.json", *abelian] for n in range(8)),
    ]
    jobs = [{"id": f"k{n}", "argv": argv} for n, argv in enumerate(commands)]
    return {"manifests": manifests, "jobs": jobs}


def make(workload: str, seed: int):
    """The workload's inputs for this seed (a job list or a dict holding one)."""
    return {
        "certify2d": certify2d_jobs,
        "solve": solve_jobs,
        "star": star_jobs,
        "cli": cli_jobs,
    }[workload](seed)
