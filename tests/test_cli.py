"""End-to-end CLI tests driven through main() plus a few real subprocesses."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from otrisk import NonFiniteValue
from otrisk.cli import emit_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def quartet_csv(tmp_path):
    return write_csv(tmp_path, "x.csv", "1\n2\n3\n4\n")


# --------------------------------------------------------------------- eval


def test_eval_cvar(capsys, quartet_csv):
    code, rep = run_cli(
        capsys, "eval", "--input", quartet_csv, "--spec-json", '{"type":"cvar","beta":0.5}'
    )
    assert code == 0
    assert rep["schema_version"] == 1
    assert rep["value"] == 3.5
    assert rep["coupling"]["objective"] == 3.5
    assert rep["coupling"]["target_positions"] == [0, 2]
    assert rep["measure"]["mean"] == 2.5


def test_eval_single_sample(capsys, tmp_path):
    path = write_csv(tmp_path, "one.csv", "-7.25\n")
    code, rep = run_cli(
        capsys, "eval", "--input", path, "--spec-json", '{"type":"cvar","beta":0.9}'
    )
    assert code == 0
    assert rep["value"] == -7.25


def test_eval_higher_moment_golden(capsys, tmp_path):
    path = write_csv(tmp_path, "coin.csv", "0\n1\n")
    code, rep = run_cli(
        capsys,
        "eval",
        "--input",
        path,
        "--spec-json",
        '{"type":"higher_moment","p":2,"c":1.2}',
    )
    assert code == 0
    assert rep["value"] == pytest.approx(0.83166, abs=1e-4)
    assert rep["certificate"]["dual_value"] == pytest.approx(rep["value"], abs=1e-9)


def test_eval_weight_column_and_header(capsys, tmp_path):
    path = write_csv(tmp_path, "w.csv", "value,weight\n1,3\n3,1\n")
    code, rep = run_cli(
        capsys, "eval", "--input", path, "--spec-json", '{"type":"cvar","beta":0.0}'
    )
    assert code == 0
    assert rep["value"] == pytest.approx(1.5)  # weighted mean with weights 3:1
    assert rep["measure"]["n_atoms"] == 2


def test_eval_explicit_hull(capsys, tmp_path):
    path = write_csv(tmp_path, "m.csv", "-2\n0\n2\n3\n")
    spec = json.dumps(
        {
            "type": "explicit",
            "support": [0.0, 0.5, 1.5, 4.0],
            "vertices": [
                [1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0],
                [0.0, 6.0 / 7.0, 0.0, 1.0 / 7.0],
            ],
            "hull": True,
        }
    )
    code, rep = run_cli(capsys, "eval", "--input", path, "--spec-json", spec)
    assert code == 0
    assert rep["value"] == pytest.approx(193.0 / 88.0, abs=1e-3)
    code, rep = run_cli(
        capsys, "eval", "--input", path, "--spec-json", spec.replace("true", "false")
    )
    assert code == 0
    assert rep["value"] == pytest.approx(15.0 / 8.0, abs=1e-9)
    assert rep["vertex_index"] in (0, 1)


def test_eval_hull_reports_status_and_gap(capsys, tmp_path):
    path = write_csv(tmp_path, "m.csv", "-2\n0\n2\n3\n")
    spec = {
        "type": "explicit",
        "support": [0.0, 0.5, 1.5, 4.0],
        "vertices": [[1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0], [0.0, 6.0 / 7.0, 0.0, 1.0 / 7.0]],
        "hull": True,
    }
    code, rep = run_cli(capsys, "eval", "--input", path, "--spec-json", json.dumps(spec))
    assert code == 0
    assert rep["status"] == "converged"
    assert abs(rep["gap"]) <= 1e-12
    assert rep["value"] == pytest.approx(193.0 / 88.0, abs=1e-12)
    # the reported target is the optimal mixture, 15/22 and 7/22 of the rows
    lam = np.array([15.0, 7.0]) / 22.0
    np.testing.assert_allclose(
        rep["coupling"]["target_weights"], lam @ np.array(spec["vertices"]), atol=1e-12
    )
    assert rep["coupling"]["target_positions"] == spec["support"]
    code, rep = run_cli(
        capsys, "eval", "--input", path, "--spec-json", json.dumps(dict(spec, hull=False))
    )
    assert "status" not in rep and "gap" not in rep


def test_eval_snap_atoms(capsys, tmp_path):
    path = write_csv(tmp_path, "dup.csv", "1.0\n1.0000000000005\n2.0\n")
    code, rep = run_cli(
        capsys, "eval", "--input", path, "--spec-json", '{"type":"cvar","beta":0.0}'
    )
    assert rep["measure"]["n_atoms"] == 3
    code, rep = run_cli(
        capsys,
        "eval",
        "--input",
        path,
        "--snap-atoms",
        "--spec-json",
        '{"type":"cvar","beta":0.0}',
    )
    assert code == 0
    assert rep["measure"]["n_atoms"] == 2


# ------------------------------------------------------------------- errors


def test_beta_out_of_range_is_exit_2(capsys, quartet_csv):
    code, rep = run_cli(
        capsys, "eval", "--input", quartet_csv, "--spec-json", '{"type":"cvar","beta":1.2}'
    )
    assert code == 2
    assert "beta out of range" in rep["error"]["message"]


def test_parse_errors(capsys, tmp_path, quartet_csv):
    bad_rows = write_csv(tmp_path, "bad.csv", "1\ntwo\n")
    for argv in (
        ["eval", "--input", str(tmp_path / "missing.csv"), "--spec-json", '{"type":"cvar","beta":0.5}'],
        ["eval", "--input", bad_rows, "--spec-json", '{"type":"cvar","beta":0.5}'],
        ["eval", "--input", quartet_csv, "--spec-json", "{not json"],
        ["eval", "--input", quartet_csv, "--spec-json", '{"type":"nope"}'],
        ["eval", "--input", quartet_csv, "--spec-json", '{"type":"cvar"}'],
        ["eval", "--input", quartet_csv, "--spec-json", '{"type":"higher_moment","p":0.5,"c":2}'],
        ["eval", "--input", quartet_csv],
    ):
        code, rep = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error" in rep


def test_csv_edge_cases(capsys, tmp_path):
    spec = '{"type":"cvar","beta":0.5}'
    empty = write_csv(tmp_path, "empty.csv", "\n\n")
    code, rep = run_cli(capsys, "eval", "--input", empty, "--spec-json", spec)
    assert code == 2
    mixed = write_csv(tmp_path, "mixed.csv", "1,2\n3\n")
    code, rep = run_cli(capsys, "eval", "--input", mixed, "--spec-json", spec)
    assert code == 2
    not_finite = write_csv(tmp_path, "naninf.csv", "1\nnan\n")
    code, rep = run_cli(capsys, "eval", "--input", not_finite, "--spec-json", spec)
    assert code == 2
    zero_weights = write_csv(tmp_path, "zw.csv", "1,0\n2,0\n")
    code, rep = run_cli(capsys, "eval", "--input", zero_weights, "--spec-json", spec)
    assert code == 2


# --------------------------------------------------------------------- dual


def test_dual_cvar(capsys, quartet_csv):
    code, rep = run_cli(
        capsys, "dual", "--input", quartet_csv, "--spec-json", '{"type":"cvar","beta":0.5}'
    )
    assert code == 0
    assert rep["status"] == "converged"
    assert rep["gap"] <= 1e-4
    assert rep["primal_lower"] == pytest.approx(3.5, abs=1e-6)
    assert rep["dual_upper"] == pytest.approx(3.5, abs=1e-4)
    w = rep["witnesses"]
    assert w["mixture_weights"] == [1.0]
    assert len(w["dual_potential"]) == 2 and w["dual_potential"][0] == 0.0
    assert len(w["coupling"]["x"]) == len(w["coupling"]["mass"])
    assert "warning" not in rep


def test_dual_point_mass(capsys, tmp_path):
    path = write_csv(tmp_path, "pm.csv", "2.125\n")
    code, rep = run_cli(
        capsys, "dual", "--input", path, "--spec-json", '{"type":"cvar","beta":0.25}'
    )
    assert code == 0
    assert rep["gap"] <= 1e-8
    assert rep["primal_lower"] == pytest.approx(2.125, abs=1e-9)


def test_dual_honest_warning_on_finite_set_gap(capsys, tmp_path):
    path = write_csv(tmp_path, "m.csv", "-2\n0\n2\n3\n")
    spec = json.dumps(
        {
            "type": "explicit",
            "support": [0.0, 0.5, 1.5, 4.0],
            "vertices": [
                [1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0],
                [0.0, 6.0 / 7.0, 0.0, 1.0 / 7.0],
            ],
            "hull": False,
        }
    )
    code, rep = run_cli(capsys, "dual", "--input", path, "--spec-json", spec)
    assert code == 0  # an honest iteration-limited report is not a failure
    assert rep["status"] == "iter_limit"
    assert "warning" in rep
    assert rep["gap"] > 0.3


def test_dual_converges_on_hull_family(capsys, tmp_path):
    rng = np.random.default_rng(42)
    path = write_csv(tmp_path, "r.csv", "".join(f"{x}\n" for x in rng.normal(0, 3, 50)))
    support = [0.2, 0.8, 1.6, 3.0]
    bricks = []
    for lo in support[:2]:
        for hi in support[2:]:
            lam = (hi - 1.0) / (hi - lo)
            row = [0.0] * 4
            row[support.index(lo)], row[support.index(hi)] = lam, 1.0 - lam
            bricks.append(row)
    mixes = [[0.4, 0.3, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]]
    vertices = (np.asarray(mixes) @ np.asarray(bricks)).tolist()
    spec = json.dumps(
        {"type": "explicit", "support": support, "vertices": vertices, "hull": True}
    )
    code, rep = run_cli(
        capsys,
        "dual", "--input", path, "--spec-json", spec,
        "--seed", "3", "--target-gap", "1e-4",
    )
    assert code == 0
    assert rep["status"] == "converged"
    assert rep["gap"] <= 1e-4 * (1.0 + abs(rep["primal_lower"]))


def test_dual_rejects_higher_moment(capsys, quartet_csv):
    code, rep = run_cli(
        capsys,
        "dual",
        "--input",
        quartet_csv,
        "--spec-json",
        '{"type":"higher_moment","p":2,"c":1.2}',
    )
    assert code == 2


# -------------------------------------------------------------------- check


def test_check_passes_for_cvar(capsys):
    code, rep = run_cli(
        capsys, "check", "--spec-json", '{"type":"cvar","beta":0.5}', "--instances", "300"
    )
    assert code == 0
    assert rep["passed"] is True
    assert rep["tol"] == 1e-9
    assert {row["name"] for row in rep["axioms"]} >= {"translation", "convexity"}
    assert {row["name"] for row in rep["bounds"]} == {"aversity", "lipschitz", "elementary"}


def test_check_passes_for_higher_moment(capsys):
    code, rep = run_cli(
        capsys,
        "check",
        "--spec-json",
        '{"type":"higher_moment","p":2,"c":1.2}',
        "--instances",
        "200",
    )
    assert code == 0
    assert rep["passed"] is True
    assert rep["tol"] == 1e-6


def test_check_violations_exit_1(capsys):
    # round-off is above an absurdly tight tolerance, so the report fails
    code, rep = run_cli(
        capsys,
        "check",
        "--spec-json",
        '{"type":"cvar","beta":0.5}',
        "--instances",
        "100",
        "--tol",
        "1e-30",
    )
    assert code == 1
    assert rep["passed"] is False
    worst = max(row["max_violation"] for row in rep["axioms"])
    assert worst > 1e-30
    assert any(row["witness"] for row in rep["axioms"] if row["max_violation"] > 0)


def test_check_spec_parse_failure(capsys):
    code, rep = run_cli(capsys, "check", "--spec-json", '{"type":"cvar","beta":1.2}')
    assert code == 2
    assert "beta out of range" in rep["error"]["message"]


# ------------------------------------------------------------------ kusuoka


def test_kusuoka_mixture(capsys):
    code, rep = run_cli(
        capsys, "kusuoka", "--spec-json", '{"type":"kusuoka","atoms":[[0.0,0.5],[0.5,0.5]]}'
    )
    assert code == 0
    assert rep["image_measure"]["positions"] == [0.5, 1.5]
    assert rep["image_measure"]["weights"] == [0.5, 0.5]
    assert rep["psi_breakpoints"] == [[0.0, 0.5], [0.5, 1.5]]


def test_kusuoka_single_level_and_expectation(capsys):
    code, rep = run_cli(
        capsys, "kusuoka", "--spec-json", '{"type":"kusuoka","atoms":[[0.3,1.0]]}'
    )
    assert code == 0
    assert rep["image_measure"]["positions"] == pytest.approx([0.0, 1.0 / 0.7])
    assert rep["image_measure"]["weights"] == pytest.approx([0.3, 0.7])
    code, rep = run_cli(
        capsys, "kusuoka", "--spec-json", '{"type":"kusuoka","atoms":[[0.0,1.0]]}'
    )
    assert rep["image_measure"]["positions"] == [1.0]
    assert rep["image_measure"]["weights"] == [1.0]


def test_kusuoka_requires_mixture_spec(capsys):
    code, rep = run_cli(capsys, "kusuoka", "--spec-json", '{"type":"cvar","beta":0.5}')
    assert code == 2


# ---------------------------------------------------------- report mechanics


def test_reports_are_bit_for_bit_reproducible(tmp_path, quartet_csv):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["dual", "--input", quartet_csv, "--spec-json", '{"type":"cvar","beta":0.8}']
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    # no temp files left behind by the atomic write
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".report-")]


def test_report_floats_round_trip_exactly(tmp_path, capsys):
    path = write_csv(tmp_path, "r.csv", "0.1\n0.30000000000000004\n-7.5\n")
    code, rep = run_cli(
        capsys, "eval", "--input", path, "--spec-json", '{"type":"cvar","beta":0.55}'
    )
    assert code == 0
    from otrisk import cvar, cvar_target_set, finite_set_value, from_samples

    m = from_samples([0.1, 0.30000000000000004, -7.5])
    exact = finite_set_value(m, cvar_target_set(0.55))[0]
    assert rep["value"] == exact  # bit-for-bit through the 17-digit emitter
    assert rep["value"] == pytest.approx(cvar(m, 0.55), abs=1e-12)


def test_emit_json_exact_floats():
    values = [0.1, 1.0 / 3.0, 1e-300, 2.0, -0.0, 0.30000000000000004, 1e17]
    for x in values:
        assert float(json.loads(emit_json(x))) == x
    doc = {"a": [1, 2.5, "x\"y\n"], "b": {"c": None, "d": True}}
    assert json.loads(emit_json(doc)) == doc


def test_emit_json_flat_float_lists():
    # the one-pass path for float lists writes what a call per float writes
    values = [0.1, 1.0 / 3.0, 1e-300, 2.0, -0.0, 0.30000000000000004, 1e17, -5e-324]
    expected = "[%s]" % ", ".join(emit_json(v) for v in values)
    assert emit_json(values) == expected
    assert emit_json(np.array(values)) == expected
    assert emit_json(tuple(values)) == expected
    for bad in ([1.0, math.inf], [math.nan, 2.0], np.array([0.5, -math.inf]), math.nan):
        with pytest.raises(NonFiniteValue):
            emit_json(bad)


def test_non_finite_report_is_exit_3(capsys, tmp_path):
    # tail**p overflows for this input; the report must fail, not hold inf
    path = write_csv(tmp_path, "big.csv", "0\n1e200\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(
            ["eval", "--input", path, "--spec-json", '{"type":"higher_moment","p":2,"c":1.2}']
        )
    out = capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    rep = json.loads(out, parse_constant=reject)
    assert code == 3
    assert rep["error"]["kind"] == "NonFiniteValue"
    assert "value" not in rep


def test_console_module_subprocess(tmp_path):
    csv = tmp_path / "s.csv"
    csv.write_text("1\n2\n3\n4\n")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "otrisk.cli",
            "eval",
            "--input",
            str(csv),
            "--spec-json",
            '{"type":"cvar","beta":0.5}',
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 3.5
    assert proc.stderr == ""
    proc = subprocess.run(
        [sys.executable, "-m", "otrisk.cli", "eval", "--input", str(csv), "--spec-json", "{"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
