import json
import os
import subprocess
import sys

import pytest

import ckcoh.cli
import ckcoh.extensions
from ckcoh.algebra import LieAlgebra
from ckcoh.cli import _sweep_workers, main

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_text_round_trip(capsys):
    code, out, _ = run_cli(capsys, "algebra", "su", "2", "+,+")
    assert code == 0
    assert "# jacobi: ok" in out
    g = LieAlgebra.from_text(out)
    assert g.dim == 8 and g.family == "su"


def test_algebra_u_dim16(capsys):
    code, out, _ = run_cli(capsys, "algebra", "u", "3", "0,+,-")
    assert code == 0
    assert LieAlgebra.from_text(out).dim == 16


def test_algebra_length_mismatch_usage_error(capsys):
    code, _, err = run_cli(capsys, "algebra", "su", "2", "+,+,+")
    assert code == 2
    assert "error" in err


def test_bad_family_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "so", "2", "+,+"])
    assert exc.value.code == 2


def test_algebra_json_text_same_content(capsys):
    code, text_out, _ = run_cli(capsys, "algebra", "su", "1", "0")
    code2, json_out, _ = run_cli(capsys, "algebra", "su", "1", "0", "--format", "json")
    assert code == code2 == 0
    obj = json.loads(json_out)
    assert obj["jacobi_ok"] is True
    assert LieAlgebra.from_json_obj(obj["algebra"]) == LieAlgebra.from_text(text_out)


def test_h2_text_and_json_agree(capsys):
    code, out, _ = run_cli(capsys, "h2", "su", "3", "0,0,0")
    assert code == 0
    assert "dim H2 = 6 (formula 6) MATCH" in out
    code, json_out, _ = run_cli(capsys, "h2", "su", "3", "0,0,0", "--format", "json")
    assert code == 0
    obj = json.loads(json_out)
    assert (obj["dim_z2"], obj["dim_b2"], obj["dim_h2"]) == (18, 12, 6)
    assert obj["formula"] == 6 and obj["match"] is True
    assert len(obj["representatives"]) == 6
    # text output carries the same numbers
    assert f"dim Z2 = {obj['dim_z2']}" in out
    assert f"dim B2 = {obj['dim_b2']}" in out


def test_h2_simple_algebra_zero(capsys):
    code, out, _ = run_cli(capsys, "h2", "su", "2", "+,-")
    assert code == 0
    assert "dim H2 = 0 (formula 0) MATCH" in out
    assert "representatives: none" in out


def test_h2_u_n1_contracted(capsys):
    code, out, _ = run_cli(capsys, "h2", "u", "1", "0")
    assert code == 0
    assert "dim H2 = 2 (formula 2) MATCH" in out


def test_h2_accepts_rational_omega(capsys):
    code, out, _ = run_cli(capsys, "h2", "su", "2", "1/2,-3/7")
    assert code == 0
    assert "dim H2 = 0 (formula 0) MATCH" in out


def test_leading_negative_omega_behind_separator(capsys):
    code, out, _ = run_cli(capsys, "h2", "su", "2", "--", "-1,1")
    assert code == 0
    assert "omega (-1,1)" in out and "dim H2 = 0" in out
    code, out, _ = run_cli(capsys, "classify", "su", "2", "--", "-,0")
    assert code == 0
    assert "α_2" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "u", "2", "0,+", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim_h2_formula"] == 2
    assert obj["type2_nontrivial"] == [1]
    assert obj["type3_gamma_allowed"] == [1]
    assert obj["dim_split"] == [1, 1]


def test_rep_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "rep", "su", "1", "0")
    assert code == 0
    assert "representation: ok" in out and "metric condition: ok" in out
    code, out, _ = run_cli(capsys, "rep", "u", "2", "+,-", "--format", "json")
    obj = json.loads(out)
    assert obj["representation_ok"] and obj["metric_condition_ok"]
    assert len(obj["matrices"]) == 9


def test_contract_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "contract", "su", "2", "0,+", "2")
    assert code == 0
    assert "dim H2: 1 -> 3" in out
    code, out, _ = run_cli(capsys, "contract", "su", "2", "0,+", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["dim_before"] == 1 and obj["dim_after"] == 3
    assert obj["new_beta"] == [[1, 2]]
    code, _, err = run_cli(capsys, "contract", "su", "2", "0,+", "9")
    assert code == 2


def test_table_against_golden(capsys, tmp_path):
    golden = os.path.join(os.path.dirname(__file__), "data", "table41_su_N3.golden")
    code, out, err = run_cli(capsys, "table", "su", "3", "--golden", golden)
    assert code == 0
    assert "golden: MATCH" in err
    with open(golden, encoding="utf-8") as fh:
        assert out == fh.read()
    # a corrupted golden file must fail with exit 1
    broken = tmp_path / "broken.golden"
    broken.write_text(out.replace("3+3", "3+2"), encoding="utf-8")
    code, _, err = run_cli(capsys, "table", "su", "3", "--golden", str(broken))
    assert code == 1
    assert "mismatch" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["h2", "su", "2", "+,+", "--out", "{tmp}/missing/dir/x"],
        ["h2", "su", "2", "+,+", "--out", "{tmp}"],
        ["table", "su", "3", "--golden", "{tmp}/missing.golden"],
    ],
    ids=["out-in-missing-dir", "out-is-a-directory", "golden-missing"],
)
def test_unusable_path_is_a_usage_error(tmp_path, argv):
    # a file the command cannot open is a usage error (2), not a mismatch (1)
    argv = [a.format(tmp=tmp_path) for a in argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "ckcoh.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_table_json_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "su", "2", "--format", "json")
    obj = json.loads(out)
    assert len(obj["rows"]) == 9
    dims = sorted(r["dim_h2"] for r in obj["rows"])
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 3]


def test_sweep_small(capsys, monkeypatch):
    monkeypatch.setenv("CKCOH_THREADS", "1")
    code, out, _ = run_cli(capsys, "sweep", "su", "1..2")
    assert code == 0
    assert "sweep: 12/12 PASS" in out
    code, out, _ = run_cli(capsys, "sweep", "u", "1", "--format", "json")
    obj = json.loads(out)
    assert obj["total"] == 3 and obj["passed"] == 3


def test_sweep_refuses_large_n(capsys):
    code, _, err = run_cli(capsys, "sweep", "su", "1..7")
    assert code == 2 and "force" in err


def test_sweep_bad_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "su", "x..y")
    assert code == 2


def test_out_file_matches_stdout(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CKCOH_THREADS", "1")
    path = tmp_path / "table.txt"
    code, out, _ = run_cli(capsys, "table", "su", "3", "--out", str(path))
    assert code == 0 and out == ""
    first = path.read_bytes()
    code, stdout_run, _ = run_cli(capsys, "table", "su", "3")
    assert first == stdout_run.encode("utf-8")
    # byte-identical across runs
    run_cli(capsys, "table", "su", "3", "--out", str(path))
    assert path.read_bytes() == first


def test_negative_n_rejected(capsys):
    code, _, err = run_cli(capsys, "h2", "su", "-2", "+,+")
    assert code == 2


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("h2", "u", "3", "0,0,0", "--format", "json"), "h2_u_3_000.json"),
        (("h2", "su", "3", "0,+,0"), "h2_su_3_0p0.txt"),
    ],
)
def test_h2_small_n_golden_bytes(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    with open(os.path.join(DATA, golden), "rb") as handle:
        assert out.encode("utf-8") == handle.read()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("h2", "su", "6", "0,0,0,0,0,0", "--format", "json"), "h2_su_6_000000.json"),
        (("h2", "u", "6", "0,-1/2,0,0,3,0", "--format", "json"), "h2_u_6_0h003r0.json"),
        (("h2", "u", "6", "--", "-2/3,1,-1,5/2,1,-3"), "h2_u_6_rational.txt"),
    ],
)
def test_h2_n6_golden_bytes(capsys, argv, golden):
    # byte goldens at N = 6, beyond the N = 3 ones: all-zero, mixed and all-nonzero rational omegas
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    with open(os.path.join(DATA, golden), "rb") as handle:
        assert out.encode("utf-8") == handle.read()


def test_empty_omega_entry_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "h2", "su", "3", "0,,+,0")
    assert code == 2 and out == ""
    assert "position 2" in err


@pytest.mark.parametrize("omega", ["1e400", "2E3"])
def test_exponent_omega_is_a_usage_error(capsys, omega):
    # Fraction would expand exponent notation into an unbounded integer
    code, out, err = run_cli(capsys, "h2", "su", "1", omega)
    assert code == 2 and out == ""
    assert repr(omega) in err


def test_table_refuses_large_n_without_building(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("table rows built past the bound")

    monkeypatch.setattr(ckcoh.cli, "table_rows", forbidden)
    code, out, err = run_cli(capsys, "table", "su", "11")
    assert code == 2 and out == ""
    assert "force" in err and "10" in err


def test_table_force_lifts_the_bound(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(ckcoh.cli, "table_rows", lambda family, n: seen.append(n) or [])
    code, _, _ = run_cli(capsys, "table", "u", "11", "--force")
    assert code == 0 and seen == [11]


def test_h2_builds_the_algebra_once(capsys, monkeypatch):
    original = ckcoh.extensions.build_su_omega
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ckcoh.extensions, "build_su_omega", counting)
    monkeypatch.setattr(ckcoh.cli, "build_su_omega", counting)
    code, _, _ = run_cli(capsys, "h2", "su", "3", "0,+,0")
    assert code == 0
    assert len(calls) == 1


def test_sweep_workers_capped_at_core_count(monkeypatch):
    monkeypatch.setenv("CKCOH_THREADS", "10000")
    assert 1 <= _sweep_workers() <= (os.cpu_count() or 1)
