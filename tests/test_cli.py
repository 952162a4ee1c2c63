import json
import os
import pathlib
import subprocess
import sys

import pytest

from fedosov.abelian import abelian_r
from fedosov.cli import main

from oracles import series_from_records

MANIFESTS = pathlib.Path(__file__).resolve().parents[1] / "manifests"
FLAT = str(MANIFESTS / "flat2d.json")
CURVED = str(MANIFESTS / "curved2d.json")
COMM = str(MANIFESTS / "commuting4d.json")

CURVED_R_LINES = [
    "r[3] = -1/4*X1*X2^2*dq1 + 1/4*X1^2*X2*dq2",
    "r[4] = 1/20*X2^4*dq1 - 1/20*X1*X2^3*dq2 - 1/20*X1^3*X2*dq1 + 1/20*X1^4*dq2",
    "r[5] = 3/160*X1^2*X2^3*dq1 - 3/160*X1^3*X2^2*dq2"
    " - 1/64*h^2*X2*dq1 + 1/64*h^2*X1*dq2",
]


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestValidate:
    def test_flat(self, capsys):
        code, out, err = run(capsys, "validate", FLAT)
        assert code == 0 and err == ""
        assert out == (
            "OK: dim=2, omega standard, 0 connection entries\n"
            "defaults: max_degree=6, hbar_order=2\n"
        )

    def test_curved(self, capsys):
        code, out, _ = run(capsys, "validate", CURVED)
        assert code == 0
        assert out.splitlines()[0] == "OK: dim=2, omega custom, 2 connection entries"

    def test_asymmetric_omega(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 2, "omega": [[0, 1], [1, 0]]}')
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2
        assert err.startswith("invalid spec:") and "antisymmetric" in err

    def test_conflicting_connection(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "dim": 2,
            "gamma": [
                {"indices": [1, 1, 2], "poly": "1"},
                {"indices": [2, 1, 1], "poly": "2"},
            ],
        }))
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2 and "triple" in err

    def test_broken_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 2,')
        code, _, err = run(capsys, "validate", str(p))
        assert code == 3 and err.startswith("parse error:")

    def test_bad_poly(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 2, "gamma": [{"indices": [1, 1, 1], "poly": "q1/2"}]}')
        code, _, err = run(capsys, "validate", str(p))
        assert code == 3 and err.startswith("parse error:")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", str(tmp_path / "none.json"))
        assert code == 2 and err.startswith("error:")


class TestAbelian:
    def test_curved_golden(self, capsys):
        code, out, _ = run(capsys, "abelian", CURVED, "--degree", "5", "--check")
        assert code == 0
        assert out.splitlines() == CURVED_R_LINES + [
            "check passed: residual zero through grade 4, "
            "normalization, parity and fiber conditions hold",
        ]

    def test_flat_all_zero(self, capsys):
        code, out, _ = run(capsys, "abelian", FLAT)
        assert code == 0
        assert out.splitlines() == [f"r[{z}] = 0" for z in range(3, 7)]

    def test_degree_floor(self, capsys):
        code, _, err = run(capsys, "abelian", CURVED, "--degree", "2")
        assert code == 2
        assert err == "error: --degree must be >= 3 (the correction starts at grade 3), got 2\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "abelian", CURVED, "--degree", "4", "--out", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 2 and payload["degree"] == 4
        assert sorted(payload["grades"]) == ["3", "4"]
        r = abelian_r(*_curved_specs(), 4)
        for z in (3, 4):
            assert series_from_records(2, payload["grades"][str(z)]) == r.part(z)

    def test_byte_identical_reruns(self, capsys):
        a = run(capsys, "abelian", CURVED, "--degree", "5", "--check")
        b = run(capsys, "abelian", CURVED, "--degree", "5", "--check")
        assert a == b

    def test_bytes_independent_of_hash_seed(self):
        # set and dict order must not reach the output: one process per seed
        src = str(MANIFESTS.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for argv in (["abelian", CURVED, "--check", "--out", "json"],
                     ["star", CURVED, "q1^2 + q2", "q1*q2"]):
            outs = set()
            for seed in ("0", "1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
                proc = subprocess.run([sys.executable, "-m", "fedosov", *argv], env=env,
                                      capture_output=True, timeout=120, check=True)
                outs.add(proc.stdout)
            assert len(outs) == 1 and outs.pop()


def _curved_specs():
    from fedosov.manifest import load_manifest

    man = load_manifest(CURVED)
    return man.manifold(), man.connection()


class TestStar:
    def test_flat_canonical_pair(self, capsys):
        code, out, _ = run(capsys, "star", FLAT, "q1", "q2", "--order", "1")
        assert code == 0
        assert out == "h^0: q1*q2\nh^1: 1/2*i\n"

    def test_unit_on_curved(self, capsys):
        code, out, _ = run(capsys, "star", CURVED, "1", "q1 + q2")
        assert code == 0
        assert out == "h^0: q2 + q1\nh^1: 0\nh^2: 0\n"

    def test_curved_agrees_with_flat_to_first_order(self, capsys):
        _, flat_out, _ = run(capsys, "star", FLAT, "q1", "q2", "--order", "2")
        code, curved_out, _ = run(capsys, "star", CURVED, "q1", "q2", "--order", "2")
        assert code == 0
        # any deviation from the flat product starts at h^2
        assert curved_out.splitlines()[:2] == flat_out.splitlines()[:2]

    def test_bad_expression(self, capsys):
        code, _, err = run(capsys, "star", FLAT, "q1", "q9")
        assert code == 3 and err.startswith("parse error:")

    def test_negative_order(self, capsys):
        code, _, err = run(capsys, "star", FLAT, "q1", "q2", "--order", "-1")
        assert code == 2 and err == "error: --order must be >= 0, got -1\n"


class TestFinite:
    def test_commuting_is_finite(self, capsys):
        code, out, _ = run(capsys, "finite", COMM)
        assert code == 0 and out == "finite, deg(r)=3\n"

    def test_flat_is_trivially_finite(self, capsys):
        code, out, _ = run(capsys, "finite", FLAT)
        assert code == 0 and out == "curvature is zero: r = 0, trivially finite\n"

    def test_curved_closure_report(self, capsys):
        code, out, _ = run(capsys, "finite", CURVED, "--zmax", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "not finite within z <= 6"
        assert len(lines) == 4
        for n, mp in enumerate(range(4, 7), start=1):
            assert lines[n] == (
                f"m={mp}: violated at z={mp}; "
                f"square equation r[{mp - 1}] o r[{mp - 1}] violated: yes"
            )

    def test_finite_where_components_do_not_commute(self, capsys, tmp_path):
        # r[3] o r[4] != 0 although [r[3], r[4]] = 0: r stops at degree 4
        path = tmp_path / "g111_q4_g133_1.json"
        path.write_text(json.dumps({"dim": 4, "gamma": [
            {"indices": [1, 1, 1], "poly": "q4"}, {"indices": [1, 3, 3], "poly": "1"}]}))
        code, out, _ = run(capsys, "finite", str(path))
        assert code == 0 and out == "finite, deg(r)=4\n"

    def test_zmax_floor(self, capsys):
        code, _, err = run(capsys, "finite", CURVED, "--zmax", "3")
        assert code == 2 and err == "error: --zmax must be >= 4, got 3\n"


class TestProp41:
    def test_transcript(self, capsys):
        code, out, _ = run(capsys, "prop41", "--z", "3", "--trials", "5", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trials: 5/5 nonzero squares (z=3, seed=1)"
        assert lines[1] == "cascade z=3: 3 pivots"
        assert lines[-1] == "all b = 0"
        assert "VANISHED" not in out

    def test_deterministic(self, capsys):
        a = run(capsys, "prop41", "--z", "4", "--trials", "3", "--seed", "9")
        b = run(capsys, "prop41", "--z", "4", "--trials", "3", "--seed", "9")
        assert a == b

    def test_z_floor(self, capsys):
        code, _, err = run(capsys, "prop41", "--z", "0")
        assert code == 2 and err == "error: --z must be >= 1, got 0\n"


class TestLimits:
    """Each numeric option and the exponent grammar have an upper limit:
    one past it exits at once, in a process of its own with a timeout."""

    @pytest.mark.parametrize("argv, code, err", [
        (["abelian", CURVED, "--degree", "25"], 2, "error: --degree must be <= 24, got 25\n"),
        (["abelian", CURVED, "--degree", "100000"], 2,
         "error: --degree must be <= 24, got 100000\n"),
        (["star", FLAT, "q1", "q2", "--order", "13"], 2, "error: --order must be <= 12, got 13\n"),
        (["finite", CURVED, "--zmax", "25"], 2, "error: --zmax must be <= 24, got 25\n"),
        (["prop41", "--z", "17"], 2, "error: --z must be <= 16, got 17\n"),
        (["prop41", "--trials", "1001"], 2, "error: --trials must be <= 1000, got 1001\n"),
        (["prop41", "--trials", "-1"], 2, "error: --trials must be >= 1, got -1\n"),
        (["star", FLAT, "q1^33", "q2"], 3,
         "parse error: exponent 33 above 32 in 'q1^33'\n"),
        (["star", FLAT, "q1^99999999999999", "q2"], 3,
         "parse error: exponent 99999999999999 above 32 in 'q1^99999999999999'\n"),
    ])
    def test_one_past_the_limit(self, argv, code, err):
        proc = run_process(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


def run_process(argv, timeout=30):
    src = str(MANIFESTS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fedosov", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)


class TestStartup:
    def test_cli_import_leaves_out_the_2d_toolkit(self):
        # only prop41 uses fedosov.twodim, so it alone imports it
        src = str(MANIFESTS.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import fedosov.cli, sys; print(*sorted(m for m in sys.modules if m.startswith('fedosov')))"
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=30, check=True)
        loaded = proc.stdout.split()
        assert "fedosov.cli" in loaded and "fedosov.abelian" in loaded
        assert "fedosov.twodim" not in loaded


def gamma_manifest(dim, poly):
    return json.dumps({"dim": dim, "gamma": [{"indices": [1, 1, 1], "poly": poly}]})


class TestHostileInput:
    """Input built to exhaust the stack, the memory or the clock ends at once
    with exit 2 (invalid spec) or 3 (parse error), never with a traceback."""

    @pytest.mark.parametrize("text, code", [
        (gamma_manifest(2, "(" * 3000 + "1" + ")" * 3000), 3),
        (gamma_manifest(2, "-" * 5000 + "1"), 3),
        ("[" * 100000 + "]" * 100000, 3),
        ('{"dim": ' + "2" * 5000 + "}", 3),
        ('{"dim": 100000}', 2),
        ('{"dim": 1200}', 2),
        (gamma_manifest(4, "(q1+q2+q3+q4)^32*(q1+q2+q3+q4)^32"), 3),
        (gamma_manifest(4, "(q1+q2+q3+q4)^16*(q1+q2+q3+q4)^16"), 3),
    ], ids=["parentheses", "signs", "json-depth", "long-int", "dim-100000", "dim-1200",
            "product-32", "product-16"])
    def test_validate(self, tmp_path, text, code):
        p = tmp_path / "hostile.json"
        p.write_text(text)
        proc = run_process(["validate", str(p)])
        assert proc.returncode == code and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("parse error:" if code == 3 else "invalid spec:")

    def test_star_operand(self):
        proc = run_process(["star", FLAT, "(1+q1+q2)^32*(1+q1+q2)^32", "q1"])
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("parse error:") and "Traceback" not in proc.stderr
