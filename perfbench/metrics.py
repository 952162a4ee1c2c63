"""Names, units and meaning of every metric the benchmark reports.

END_TO_END is what a researcher waiting on each computation sees; the
untraced run reports it.  PER_LAYER comes from the traced run.  Each
per-layer entry names the end-to-end metric it is expected to move and
the workloads where it should move it, written down before any
optimisation so that a later change can be checked against it.

Per-layer values cover one traced pass: the workload's set-up plus its
job list run once.  Counts are exact and repeat across runs of a seed;
times are the median over the traced passes of a run.
"""

from __future__ import annotations

import statistics

# name: (unit, better)
END_TO_END = {
    "jobs_per_s": ("1/s", "higher"),
    "job_s.p50": ("s", "lower"),
    "job_s.tail": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

# Reported beside the end-to-end metrics but not listed in BENCHMARK.json:
# it is 0 whenever the program is correct, and BENCHMARK.json carries the
# same information as "attempted" and "failed".
FAILED_FRAC = "failed_frac"

LAYERS = ("scalars", "poly", "weyl", "calculus", "geometry", "abelian", "twodim", "manifest", "cli")

_SOLVE_CERT = "jobs_per_s on certify2d and solve; little effect on cli"
_POLY = "job_s.p50 on solve; little effect on certify2d (constant coefficients)"
_WEYL = "jobs_per_s on certify2d; job_s.p50 on cli (prop41)"
_CALC = "job_s.p50 on solve and star"
_GEOM = "setup_s on all; job_s.p50 on certify2d and star"
_CERT = "jobs_per_s on certify2d only"
_STAR = "job_s.p50 on star only"
_CLI = "job_s.p50 and setup_s on cli"

# name: (unit, better, what it should move)
PER_LAYER = {
    "scalars.mul.calls": ("count", "lower", _SOLVE_CERT),
    "scalars.add.calls": ("count", "lower", _SOLVE_CERT),
    "scalars.self_s": ("s", "lower", _SOLVE_CERT),
    "scalars.coeff_bits.max": ("bits", "lower", _SOLVE_CERT),
    "poly.mul.calls": ("count", "lower", _POLY),
    "poly.scale.calls": ("count", "lower", _POLY),
    "poly.add.calls": ("count", "lower", _POLY),
    "poly.self_s": ("s", "lower", _POLY),
    "poly.terms.max": ("count", "lower", _POLY),
    "weyl.circ.calls": ("count", "lower", _WEYL),
    "weyl.circ.self_s": ("s", "lower", _WEYL),
    "weyl.term_pairs": ("count", "lower", _WEYL),
    "weyl.terms_out": ("count", "lower", _WEYL),
    "weyl.commutator.calls": ("count", "lower", _CALC),
    "weyl.commutator.self_s": ("s", "lower", _CALC),
    "weyl.div_ihbar.self_s": ("s", "lower", _CALC),
    "calculus.covariant_d.calls": ("count", "lower", _CALC),
    "calculus.covariant_d.self_s": ("s", "lower", _CALC),
    "calculus.delta_inv.self_s": ("s", "lower", _CALC),
    "calculus.delta.self_s": ("s", "lower", _CALC),
    "calculus.ext_d.self_s": ("s", "lower", _CALC),
    "geometry.gamma_form.calls": ("count", "lower", _GEOM),
    "geometry.curvature_form.calls": ("count", "lower", _GEOM),
    "geometry.self_s": ("s", "lower", _GEOM),
    "abelian.abelian_r.self_s": ("s", "lower", "job_s.p50 on solve; setup_s on star"),
    "abelian.terms.top_grade": ("count", "lower", "job_s.p50 on solve; setup_s on star"),
    "abelian.check_abelian.self_s": ("s", "lower", _CERT),
    "abelian.check_abelian.useful_product_ratio": ("ratio", "higher", _CERT),
    "abelian.finiteness_test.self_s": ("s", "lower", _CERT),
    "abelian.finiteness_test.products": ("count", "lower", _CERT),
    "abelian.flat_section.self_s": ("s", "lower", _STAR),
    "abelian.star.self_s": ("s", "lower", _STAR),
    "abelian.star.sigma_yield": ("ratio", "higher", _STAR),
    "twodim.square_check.self_s": ("s", "lower", _CLI),
    "twodim.cascade_solve.self_s": ("s", "lower", _CLI),
    "twodim.g_coeff.calls": ("count", "lower", _CLI),
    "manifest.parse_manifest.self_s": ("s", "lower", _CLI),
    "manifest.parse_poly.self_s": ("s", "lower", _CLI),
    "manifest.series_to_records.self_s": ("s", "lower", _CLI),
    "cli.main.self_s": ("s", "lower", _CLI),
    "cli.startup_s": ("s", "lower", _CLI),
    **{f"{layer}.errors": ("count", "lower", "failed_frac on every workload") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time of one pass"),
}

# The tail percentile of each workload: the highest of 50, 75, 90, 95, 99
# that leaves at least ten samples beyond it in every run of the first
# baseline.  It is fixed, whatever a run's sample count, so that the
# metric means the same thing on every commit; run.py prints how many
# samples lie beyond it.
TAIL = {"certify2d": 75, "solve": 90, "star": 75, "cli": 75}


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile of a non-empty list."""
    xs = sorted(values)
    return xs[max(1, -(-len(xs) * p // 100)) - 1]


def beyond(n: int, p: float) -> int:
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - max(1, -(-n * p // 100))


def job_metrics(times: list[float], workload: str) -> dict:
    """jobs_per_s, p50 and tail from per-job wall times (at least one)."""
    p = TAIL[workload]
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": percentile(times, p),
        "tail_percentile": p,
        "tail_beyond": beyond(len(times), p),
    }
