"""End-to-end CLI tests driven through main() plus a few real subprocesses."""

import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import otrisk
from otrisk import GeneratorSet, NonFiniteValue, comonotone_coupling, from_samples
from otrisk.cli import emit_json, main, read_samples_csv


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


def test_eval_finite_set_coupling_fields_match_the_coupling(capsys, tmp_path):
    # the report reads the coupling's size and objective without building it
    rng = np.random.default_rng(7)
    rows = zip(np.round(rng.standard_t(4, 5000), 2).tolist(), rng.integers(1, 9, 5000).tolist())
    path = write_csv(tmp_path, "m.csv", "".join(f"{v!r},{k}\n" for v, k in rows))
    support = [0.0, 0.5, 1.5, 4.0]
    vertices = [[1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0], [0.0, 6.0 / 7.0, 0.0, 1.0 / 7.0]]
    spec = json.dumps({"type": "explicit", "support": support, "vertices": vertices})
    code, rep = run_cli(capsys, "eval", "--input", path, "--spec-json", spec)
    assert code == 0
    target = GeneratorSet(support, vertices).vertex_measure(rep["vertex_index"])
    coupling = comonotone_coupling(read_samples_csv(path), target)
    assert rep["coupling"]["n_atoms"] == coupling.n_atoms
    assert rep["coupling"]["objective"] == coupling.objective()


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


# ------------------------------------------------------------------- reader


def assert_same_measure(got, want):
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


@pytest.mark.parametrize(
    "text, values, weights",
    [
        ("# P&L export\nvalue\n\n\n1.5\n-2\n", [1.5, -2.0], None),
        ("\n\n\n3\n4\n", [3.0, 4.0], None),
        ("  1.5 ,  2 \n\t-3\t,1\n 7\f, 1 \n", [1.5, -3.0, 7.0], [2.0, 1.0, 1.0]),
        ("x\r\n1\r\n\r\n2\r\n", [1.0, 2.0], None),
        ("42", [42.0], None),
        ("value,weight\n1,3\n3,1\n\n2,0.5\n", [1.0, 3.0, 2.0], [3.0, 1.0, 0.5]),
    ],
    ids=["headers", "blank-lines", "whitespace", "crlf", "one-row", "weights"],
)
def test_reader_accepts(tmp_path, text, values, weights):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    got = read_samples_csv(str(path))
    assert_same_measure(got, from_samples(values, weights or [1.0] * len(values)))


@pytest.mark.parametrize(
    "text, line, what",
    [
        ("value\n\n1\n\n\n2\n\nabc\n3\n", 8, "abc"),
        ("value,weight\n1,2\n3,abc\n", 3, "abc"),
        ("1\n2\n\n3,1\n", 4, "mixed rows"),
        ("x\n1,2,3\n4,5,6\n", 2, "got 3"),
        ("1,2\n3,4,5\n", 2, "got 3"),
        ("1,\n2,\n", 1, "''"),
        ("1\n2\n   \n3\n", 3, "'   '"),
        ("1\n1_000\n", 2, "1_000"),
        ("1_000\n2\n", 1, "1_000"),
        ("1\n\uff12\n", 2, "'\uff12'"),
    ],
    ids=[
        "bad-token",
        "bad-weight-after-header",
        "mixed-widths",
        "three-columns",
        "three-after-two",
        "trailing-comma",
        "whitespace-only-line",
        "underscore",
        "underscore-first-row",
        "non-ascii-digit",
    ],
)
def test_reader_errors_name_the_line(capsys, tmp_path, text, line, what):
    path = write_csv(tmp_path, "bad.csv", text)
    spec = '{"type":"cvar","beta":0.5}'
    code, rep = run_cli(capsys, "eval", "--input", path, "--spec-json", spec)
    assert code == 2
    message = rep["error"]["message"]
    assert message.startswith(f"line {line}: "), message
    assert what in message


@pytest.mark.parametrize("snap", [[], ["--snap-atoms"]], ids=["plain", "snap"])
@pytest.mark.parametrize("row", ["nan", "inf", "-inf", "1,nan", "1,inf", "inf\n-inf\ninf"])
def test_reader_rejects_non_finite_rows(capsys, tmp_path, row, snap):
    width = row.count(",") + 1
    path = write_csv(tmp_path, "nf.csv", ("2,1\n" if width == 2 else "2\n") + row + "\n")
    spec = '{"type":"cvar","beta":0.5}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing but the report on any channel
        code, rep = run_cli(capsys, "eval", "--input", path, "--spec-json", spec, *snap)
    assert code == 2
    assert rep["error"]["kind"] == "NonFiniteValue"


def test_reader_rounds_like_float(tmp_path):
    rng = np.random.default_rng(20261020)
    values = rng.standard_t(3, 100_000) * 10.0 ** rng.uniform(-300, 300, 100_000)
    tokens = ["%.17g" % v for v in values] + [
        "4.9406564584124654e-324",
        "2.2250738585072011e-308",
        "-0",
        "+1e5",
        "1e308",
        "0.1",
    ]
    path = tmp_path / "r.csv"
    path.write_text("\n".join(tokens) + "\n")
    want = from_samples([float(t) for t in tokens], [1.0] * len(tokens))
    assert_same_measure(read_samples_csv(str(path)), want)
    # the tricky tokens alone, where no neighbour can hide a misread
    path.write_text("\n".join(tokens[-6:]))
    got = read_samples_csv(str(path))
    assert got.positions.tobytes() == np.sort([float(t) for t in tokens[-6:]]).tobytes()


def run_cli_on_pipe(capsys, text, spec):
    """otrisk eval reading its CSV from a pipe, which cannot seek."""
    read_end, write_end = os.pipe()

    def feed():  # from a thread, as a pipe holds less than a large CSV
        with open(write_end, "wb") as fh:
            try:
                fh.write(text.encode())
            except BrokenPipeError:  # the reader stopped at a bad row
                pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return run_cli(capsys, "eval", "--input", f"/dev/fd/{read_end}", "--spec-json", spec)
    finally:
        os.close(read_end)
        writer.join()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_reader_reads_a_pipe(capsys, tmp_path):
    spec = '{"type":"cvar","beta":0.5}'
    text = "value,weight\n\n1,3\n3,1\n2,0.5\n"
    path = write_csv(tmp_path, "s.csv", text)
    code, rep = run_cli_on_pipe(capsys, text, spec)
    want_code, want = run_cli(capsys, "eval", "--input", path, "--spec-json", spec)
    assert code == want_code == 0
    rep["input"].pop("path"), want["input"].pop("path")
    assert rep == want
    # a bad row still exits 2; a pipe cannot be read again to name its line
    code, rep = run_cli_on_pipe(capsys, "value\n1\n\nabc\n", spec)
    assert code == 2
    assert rep["error"]["kind"] == "csv"
    assert "abc" in rep["error"]["message"]


def large_csv(rows):
    """A CSV across many of numpy's read blocks: a header, blank lines, CRLF
    line ends and a weight column."""
    rng = np.random.default_rng(20261022)
    values, weights = rng.standard_t(4, rows).tolist(), rng.integers(1, 9, rows).tolist()
    lines = [f"{v!r},{k}" for v, k in zip(values, weights)]
    for i in range(0, rows, 997):
        lines[i] += "\r\n"  # a blank line after every 997th row
    return "pnl,weight\r\n\r\n" + "\r\n".join(lines) + "\r\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_reader_reads_a_large_file_and_pipe_alike(capsys, tmp_path):
    spec = '{"type":"kusuoka","atoms":[[0.5,0.25],[0.9,0.75]]}'
    text = large_csv(200_000)
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    code, rep = run_cli_on_pipe(capsys, text, spec)
    want_code, want = run_cli(capsys, "eval", "--input", str(path), "--spec-json", spec)
    assert code == want_code == 0
    rep["input"].pop("path"), want["input"].pop("path")
    assert rep == want
    assert want["input"]["n_atoms"] == 200_000


def test_reader_names_a_bad_row_far_into_a_file(capsys, tmp_path):
    lines = large_csv(200_000).split("\r\n")
    bad = 150_300  # 0-based index of the line to break: the 150 148th sample row
    assert lines[bad]
    lines[bad] = lines[bad].replace(",", ",x")
    path = write_csv(tmp_path, "bad.csv", "\n".join(lines))
    spec = '{"type":"cvar","beta":0.5}'
    code, rep = run_cli(capsys, "eval", "--input", path, "--spec-json", spec)
    assert code == 2
    assert rep["error"]["message"].startswith(f"line {bad + 1}: could not read ")


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


def test_unread_solver_flags_are_rejected(capsys):
    # only eval and dual run the solver; check reads --seed alone
    for argv in (
        ["kusuoka", "--spec-json", '{"type":"kusuoka","atoms":[[0.0,1.0]]}', "--max-iters", "3"],
        ["check", "--spec-json", '{"type":"cvar","beta":0.5}', "--target-gap", "1e-3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


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
    with open(out1, "rb") as first, open(out2, "rb") as second:
        assert first.read() == second.read()
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
    # 20 * 1e308 overflows inside the CVaR transport sum; the report must fail, not hold it
    path = write_csv(tmp_path, "big.csv", "0\n1e308\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["eval", "--input", path, "--spec-json", '{"type":"cvar","beta":0.95}'])
    out = capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    rep = json.loads(out, parse_constant=reject)
    assert code == 3
    assert rep["error"]["kind"] == "NonFiniteValue"
    assert "value" not in rep


def test_eval_weights_near_the_largest_double(capsys, tmp_path):
    # the weights sum past the largest double; they still give the measure 1/2, 1/2
    path = write_csv(tmp_path, "heavy.csv", "1,1e308\n2,1e308\n")
    code, rep = run_cli(capsys, "eval", "--input", path, "--spec-json", '{"type":"cvar","beta":0}')
    assert code == 0
    assert rep["value"] == 1.5
    assert rep["measure"]["mean"] == 1.5


def test_console_module_subprocess(tmp_path):
    csv = tmp_path / "s.csv"
    csv.write_text("1\n2\n3\n4\n")
    # the child imports the same otrisk as this process, installed or not
    src = os.path.dirname(os.path.dirname(otrisk.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
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
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 3.5
    assert proc.stderr == ""
    proc = subprocess.run(
        [sys.executable, "-m", "otrisk.cli", "eval", "--input", str(csv), "--spec-json", "{"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
