"""Frozen golden corpus: solver, checks, closure verdicts, flat sections,
star products, the commuting-case reference route, the prop41 and finite
transcripts and the demo scripts' output on fixed inputs, compared byte
for byte with tests/golden/corpus.json.

Regenerate the file only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import pathlib
import random
import subprocess
import sys

from fedosov import cli, weyl
from fedosov.abelian import (
    AbelianCorrection,
    abelian_r,
    check_abelian,
    finiteness_test,
    flat_section,
    star,
)
from fedosov.geometry import ConnectionSpec, ManifoldSpec
from fedosov.manifest import load_manifest, parse_poly, series_to_records
from fedosov.poly import BasePolynomial, format_poly
from fedosov.twodim import random_table, square_check
from fedosov.weyl import WeylSeries

from oracles import CommutingHypothesisError, commuting_case_shortcut

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "corpus.json"
N = 10
LIFT_GRADE = 6
STAR_ORDER = 3
PROP41_Z = range(1, 7)
PROP41_TRIALS = 3

OBSERVABLES = {
    2: ["q1", "q1*q2", "q1^2 - 1/2*q2 + 3"],
    4: ["q1", "q1*q3 + q4", "q2^2 - q4"],
}
STAR_PAIRS = {
    2: [("q1", "q2"), ("q2", "q1"), ("q1^2", "q2^2"), ("q1*q2", "q1 + q2^2")],
    4: [("q1", "q2"), ("q1*q3", "q2*q4"), ("q3^2", "q1 + q4")],
}
# complex connection coefficients, a non-standard omega and complex
# observables, solved to a lower degree to keep the corpus small
COMPLEX_N = 6
COMPLEX_OBSERVABLES = {
    2: ["q1 + i*q2", "i*q1*q2 - 1/2"],
    4: ["q1 + i*q3", "i*q2*q4"],
}
COMPLEX_STAR_PAIRS = {
    2: [("q1", "i*q2^2"), ("q1 + i*q2", "q1*q2")],
    4: [("q1", "i*q2^2"), ("q1 + i*q3", "q2 + q4")],
}
# the commuting-case reference route at COMMUTING_ZMAX, one connection per
# outcome: zero curvature, finite at z = 4..9, not finite within z_max, and
# the hypothesis failing at r[3] o r[3] and at r[3] o r[4]; `fedosov finite`
# is compared with it, and with the closure sweep, on these connections
COMMUTING_ZMAX = 9
COMMUTING_4D = {
    "G111=q3^2": [((1, 1, 1), "q3^2")],
    "G111=q3^3": [((1, 1, 1), "q3^3")],
    "G113=q3^2,G114=1": [((1, 1, 3), "q3^2"), ((1, 1, 4), "1")],
    "G111=q3^3,G114=1": [((1, 1, 1), "q3^3"), ((1, 1, 4), "1")],
    "G113=q3^3,G114=1": [((1, 1, 3), "q3^3"), ((1, 1, 4), "1")],
    "G114=1,G133=q3^3": [((1, 1, 4), "1"), ((1, 3, 3), "q3^3")],
    "G111=q4,G133=1": [((1, 1, 1), "q4"), ((1, 3, 3), "1")],
}
FINITE_ZMAX = 8


def connections():
    out = {}
    for name in ("flat2d", "curved2d", "commuting4d"):
        man = load_manifest(str(ROOT / "manifests" / f"{name}.json"))
        out[name] = (man.manifold(), man.connection())
    q1, q2 = BasePolynomial.variable(2, 1), BasePolynomial.variable(2, 2)
    out["poly2d"] = (ManifoldSpec.standard(2),
                     ConnectionSpec(2, [((1, 1, 1), q2), ((1, 2, 2), q1)]))
    return out


def complex_connections():
    return {
        "complex2d": (ManifoldSpec.standard(2), ConnectionSpec(2, [
            ((1, 1, 1), parse_poly("i", 2)),
            ((1, 2, 2), parse_poly("1/2*q1 + i*q2", 2)),
            ((2, 2, 2), 1),
        ])),
        "custom4d": (ManifoldSpec(4, [[0, 2, 1, 0], [-2, 0, 0, -3], [-1, 0, 0, 3], [0, 3, -3, 0]]),
                     ConnectionSpec(4, [((1, 1, 2), 1), ((3, 4, 4), parse_poly("-1/3 + i", 4))])),
    }


def commuting_connections():
    specs = connections()
    out = {name: specs[name] for name in ("flat2d", "commuting4d", "curved2d")}
    for name, gamma in COMMUTING_4D.items():
        out[name] = (ManifoldSpec.standard(4),
                     ConnectionSpec(4, [(idx, parse_poly(text, 4)) for idx, text in gamma]))
    return out


def records(s: WeylSeries | None):
    return None if s is None else series_to_records(s)


def report_fields(rep):
    return {
        "ok": rep.ok,
        "checked_through": rep.checked_through,
        "first_bad_grade": rep.first_bad_grade,
        "residual": records(rep.residual),
        "normalization_ok": rep.normalization_ok,
        "even_hbar_ok": rep.even_hbar_ok,
        "fiber_ok": rep.fiber_ok,
        "base_ok": rep.base_ok,
        "messages": rep.messages,
    }


def star_text(result):
    return {str(k): format_poly(p) for k, p in sorted(result.items())}


def connection_entry(m, c, n=N, observables=OBSERVABLES, star_pairs=STAR_PAIRS):
    r = abelian_r(m, c, n)
    dim = m.dim
    entry = {
        "r": {str(z): series_to_records(r.part(z)) for z in range(3, n + 1)},
        "check": report_fields(check_abelian(r)),
        "check_partial": report_fields(check_abelian(r, n - 3)),
        "closure": {},
        "lifts": {},
        "star": {},
    }
    for mm in range(4, n + 1):
        fr = finiteness_test(r, mm)
        entry["closure"][str(mm)] = {
            "violations": list(fr.violations),
            "first_residual": records(fr.first_residual),
        }
    for text in observables[dim]:
        s = flat_section(r, parse_poly(text, dim), LIFT_GRADE)
        entry["lifts"][text] = {"known_through": s.known_through,
                                "series": series_to_records(s.series)}
    for a, b in star_pairs[dim]:
        result = star(m, c, parse_poly(a, dim), parse_poly(b, dim), STAR_ORDER, r=r)
        entry["star"][f"{a} | {b}"] = star_text(result)
    # a correction whose first component is wrong: the check must say where
    parts = dict(r.parts)
    parts[3] = WeylSeries.zero(dim)
    bad = AbelianCorrection(m, c, parts, known_through=n)
    entry["check_corrupted"] = report_fields(check_abelian(bad))
    return entry


def prop41_entry():
    """`fedosov prop41 --z z --trials T --seed z` output, with the squares
    its trials form, for each z."""
    entry = {}
    for z in PROP41_Z:
        argv = ["prop41", "--z", str(z), "--trials", str(PROP41_TRIALS), "--seed", str(z)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        rng = random.Random(z)
        squares = [series_to_records(square_check(random_table(z, rng).to_form()).square)
                   for _ in range(PROP41_TRIALS)]
        entry[str(z)] = {"exit": code, "stdout": out.getvalue(), "squares": squares}
    return entry


def commuting_entry():
    """commuting_case_shortcut's result or error on each commuting connection."""
    entry = {}
    for name, (m, c) in commuting_connections().items():
        try:
            res = commuting_case_shortcut(m, c, COMMUTING_ZMAX)
        except CommutingHypothesisError as exc:
            entry[name] = {"error": type(exc).__name__, "message": str(exc)}
        else:
            entry[name] = {"kind": res.kind, "z": res.z, "r_degree": res.r_degree}
    return entry


def finite_entry():
    """`fedosov finite <manifest> --zmax FINITE_ZMAX` exit code and output."""
    entry = {}
    for name in ("flat2d", "curved2d", "commuting4d"):
        argv = ["finite", str(ROOT / "manifests" / f"{name}.json"), "--zmax", str(FINITE_ZMAX)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        entry[name] = {"exit": code, "stdout": out.getvalue()}
    return entry


def demos_entry():
    """Output of each script under scripts/ run with its default arguments."""
    entry = {}
    for script in sorted((ROOT / "scripts").glob("*.py")):
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              check=True, timeout=120)
        entry[script.name] = done.stdout
    return entry


def corpus() -> dict:
    data = {name: connection_entry(m, c) for name, (m, c) in connections().items()}
    for name, (m, c) in complex_connections().items():
        data[name] = connection_entry(m, c, COMPLEX_N, COMPLEX_OBSERVABLES, COMPLEX_STAR_PAIRS)
    data["prop41"] = prop41_entry()
    data["commuting"] = commuting_entry()
    data["finite_cli"] = finite_entry()
    data["demos"] = demos_entry()
    return data


def dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_golden_corpus_byte_identical():
    want = CORPUS.read_text(encoding="utf-8")
    got = corpus()
    # compare structures first so that a failure names the differing entry
    assert got == json.loads(want)
    assert dump(got) == want


def test_results_independent_of_kernel_table(monkeypatch):
    # one golden entry, from an empty contraction-kernel table and from one
    # first filled by work on other connections, dimensions and omegas
    want = json.loads(CORPUS.read_text(encoding="utf-8"))["curved2d"]
    monkeypatch.setattr(weyl, "_KERNELS", {})
    assert connection_entry(*connections()["curved2d"]) == want
    monkeypatch.setattr(weyl, "_KERNELS", {})
    specs = connections()
    for name in ("poly2d", "commuting4d"):
        r = abelian_r(*specs[name], 6)
        flat_section(r, parse_poly("q1*q2", r.manifold.dim), 4)
    custom = ManifoldSpec(4, [[0, 2, 1, 0], [-2, 0, 0, -3], [-1, 0, 0, 3], [0, 3, -3, 0]])
    star(custom, ConnectionSpec(4, [((1, 1, 2), 1)]), parse_poly("q1", 4), parse_poly("q2", 4), 2)
    prop41_entry()
    assert len(weyl._KERNELS) == 3
    # fresh specs, so that their algebra reads the filled table
    assert connection_entry(*connections()["curved2d"]) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(dump(corpus()), encoding="utf-8")
