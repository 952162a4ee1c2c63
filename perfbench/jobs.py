"""The four workloads as the library sees them: set-up, one job, and the
checks on a job's output.

Library functions are looked up on their modules at call time
(``abelian.abelian_r(...)``), so that the tracer's wrappers are used when
it is installed.  Each workload has:

* ``__init__(inputs, workdir)``: the set-up that setup_s measures;
* ``cases``: the fixed job list;
* ``run(case)``: one timed job;
* ``canonical(case, out)``: the text whose digest identifies the output;
* ``check(case, out)``: independent checks, a list of problems.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

from fedosov import abelian, calculus, cli, geometry, manifest, poly, scalars, weyl

BasePolynomial = poly.BasePolynomial


def make_poly(dim: int, records) -> BasePolynomial:
    return BasePolynomial(dim, {tuple(exps): Fraction(c) for exps, c in records})


def make_specs(dim: int, gamma):
    m = geometry.ManifoldSpec.standard(dim)
    c = geometry.ConnectionSpec(dim, [(tuple(t), make_poly(dim, p)) for t, p in gamma])
    return m, c


def grades_text(r) -> str:
    return json.dumps(
        {str(z): manifest.series_to_records(r.part(z)) for z in range(3, r.known_through + 1)},
        sort_keys=True,
    )


def series_problems(r) -> list[str]:
    """Normalization, parity and fiber conditions every component obeys."""
    out = []
    for z in range(3, r.known_through + 1):
        pz = r.part(z)
        if not calculus.delta_inv(pz).is_zero():
            out.append(f"delta_inv r[{z}] != 0")
        for t in pz.terms():
            if t.hbar % 2 or not any(t.fiber) or t.degree != z or len(t.word) != 1:
                out.append(f"r[{z}] has a term outside its grade, parity or form degree")
                break
    return out


def equation_problems(m, c, r) -> list[str]:
    """The defining equation, grade by grade through N-1:

        delta r[g+1] = R_g + covariant_d r[g] + (1/i hbar) sum_{j+k=g+2} r[j] o r[k]

    Only the products that reach those grades are formed, so this costs
    about as much as the solve rather than as much as check_abelian.
    """
    alg = m.algebra
    gamma = geometry.gamma_form(m, c)
    N = r.known_through
    out = []
    for g in range(2, N):
        if g == 2:
            rhs = geometry.curvature_form(m, c)
        else:
            rhs = calculus.covariant_d(alg, gamma, r.part(g))
        prods = weyl.WeylSeries.zero(m.dim)
        for j in range(3, g):
            if 3 <= g + 2 - j <= N:
                prods = prods + alg.circ(r.part(j), r.part(g + 2 - j))
        if not prods.is_zero():
            rhs = rhs + weyl.div_ihbar(prods)
        if not (calculus.delta(r.part(g + 1)) - rhs).is_zero():
            out.append(f"equation residual nonzero at grade {g}")
    return out


class Certify2d:
    """abelian_r through N, check_abelian, finiteness_test for m = 4..N."""

    def __init__(self, inputs, workdir=None):
        self.cases = [(job, *make_specs(job["dim"], job["gamma"])) for job in inputs]

    def run(self, case):
        job, m, c = case
        N = job["N"]
        r = abelian.abelian_r(m, c, N)
        report = abelian.check_abelian(r)
        sweep = [abelian.finiteness_test(r, mm) for mm in range(4, N + 1)]
        return r, report, sweep

    def canonical(self, case, out):
        r, report, sweep = out
        verdicts = {str(f.m): list(f.violations) for f in sweep}
        return json.dumps({"r": json.loads(grades_text(r)), "ok": report.ok,
                           "through": report.checked_through, "violations": verdicts},
                          sort_keys=True)

    def check(self, case, out):
        job, m, c = case
        r, report, sweep = out
        problems = [] if report.ok else ["check_abelian reports failure"]
        if r.part(3) != calculus.delta_inv(geometry.curvature_form(m, c, via="tensor")):
            problems.append("r[3] differs from delta_inv of the tensor-route curvature")
        # curved 2D: the correction never stops, so every closure system fails
        problems += [f"closure system consistent at m={f.m}" for f in sweep if f.consistent]
        return problems + series_problems(r)


class Solve:
    """abelian_r only."""

    def __init__(self, inputs, workdir=None):
        self.cases = [(job, *make_specs(job["dim"], job["gamma"])) for job in inputs]

    def run(self, case):
        job, m, c = case
        return abelian.abelian_r(m, c, job["N"])

    def canonical(self, case, out):
        return grades_text(out)

    def check(self, case, out):
        _job, m, c = case
        return series_problems(out) + equation_problems(m, c, out)


def star_text(result, K) -> str:
    return "\n".join(
        f"h^{k}: {poly.format_poly(result[k]) if k in result else '0'}" for k in range(K + 1)
    )


class Star:
    """star(a, b, K, r=r) with each connection's r solved once in set-up."""

    def __init__(self, inputs, workdir=None):
        dim, self.K = inputs["dim"], inputs["K"]
        self.conns = []
        for gamma in inputs["gammas"]:
            m, c = make_specs(dim, gamma)
            self.conns.append((m, c, abelian.abelian_r(m, c, max(3, 2 * self.K))))
        self.cases = [
            (job, make_poly(dim, job["a"]), make_poly(dim, job["b"])) for job in inputs["jobs"]
        ]

    def run(self, case):
        job, a, b = case
        m, c, r = self.conns[job["conn"]]
        return abelian.star(m, c, a, b, self.K, r=r)

    def canonical(self, case, out):
        return star_text(out, self.K)

    def check(self, case, out):
        job, a, b = case
        m = self.conns[job["conn"]][0]
        zero = BasePolynomial.zero(m.dim)
        half_i = scalars.GaussianRational(Fraction(0), Fraction(1, 2))
        problems = []
        if out.get(0, zero) != a * b:
            problems.append("h^0 differs from a*b")
        if self.K >= 1 and out.get(1, zero) != m.poisson(a, b).scale(half_i):
            problems.append("h^1 differs from (i/2){a, b}")
        return problems


# verdict lines each command prints on success
_VERDICTS = {
    "validate": (r"^OK: dim=\d+",),
    "abelian": (r"^check passed: residual zero through grade \d+",),
    "star": (r"^h\^0: ", r"^h\^1: "),
    "finite": (r"^finite, deg\(r\)=\d+$",),
    "prop41": (r"^trials: (\d+)/\1 nonzero squares", r"^all b = 0$"),
}


class Cli:
    """One `python -m fedosov` process per job; manifests are in workdir."""

    def __init__(self, inputs, workdir):
        self.cases = [
            (job, [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in job["argv"]])
            for job in inputs["jobs"]
        ]

    def run(self, case):
        _job, argv = case
        proc = subprocess.run([sys.executable, "-m", "fedosov", *argv],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def run_in_process(self, case):
        """The same command through cli.main, as the traced run calls it."""
        _job, argv = case
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def canonical(self, case, out):
        code, stdout = out
        return f"exit {code}\n{stdout}"

    def check(self, case, out):
        job, _argv = case
        code, stdout = out
        problems = [] if code == 0 else [f"exit code {code}"]
        for pattern in _VERDICTS[job["argv"][0]]:
            if not re.search(pattern, stdout, re.MULTILINE):
                problems.append(f"no line matching {pattern!r}")
        return problems


WORKLOADS = {"certify2d": Certify2d, "solve": Solve, "star": Star, "cli": Cli}
