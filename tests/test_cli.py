import argparse
import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

import ckcoh.cli
import ckcoh.extensions
from ckcoh.algebra import build_su_omega, build_u_omega
from ckcoh.cli import COMMANDS, _sweep_workers, build_parser, main

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_text_round_trip(capsys):
    code, out, _ = run_cli(capsys, "algebra", "su", "2", "+,+")
    assert code == 0
    assert out == build_su_omega(2, [1, 1]).to_text() + "# jacobi: ok\n"
    assert out.startswith("8 2 su 1 1\n")


def test_algebra_u_dim16(capsys):
    code, out, _ = run_cli(capsys, "algebra", "u", "3", "0,+,-")
    assert code == 0
    assert out == build_u_omega(3, [0, 1, -1]).to_text() + "# jacobi: ok\n"
    assert out.startswith("16 3 u 0 1 -1\n")


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
    g = build_su_omega(1, [0])
    obj = {"algebra": g.to_json_obj(), "jacobi_ok": True}
    assert json_out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert text_out == g.to_text() + "# jacobi: ok\n"
    # one text line per JSON constant, in the same order
    constants = [" ".join(map(str, entry)) for entry in obj["algebra"]["constants"]]
    assert text_out.splitlines()[1:-1] == constants


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
    # so must a copy with CRLF line ends: the bytes differ, though the text reads the same
    crlf = tmp_path / "crlf.golden"
    with open(golden, "rb") as fh:
        crlf.write_bytes(fh.read().replace(b"\n", b"\r\n"))
    code, _, err = run_cli(capsys, "table", "su", "3", "--golden", str(crlf))
    assert (code, err) == (1, f"golden mismatch against {crlf}\n")


def test_table_json_against_its_own_golden(capsys, tmp_path):
    # under --format json the golden is compared with the JSON payload, as written
    golden = os.path.join(DATA, "table_u_2.json")
    code, out, err = run_cli(capsys, "table", "u", "2", "--format", "json", "--golden", golden)
    assert (code, err) == (0, "golden: MATCH\n")
    with open(golden, encoding="utf-8") as fh:
        assert out == fh.read()
    broken = tmp_path / "broken.json"
    broken.write_text(out.replace('"dim_h2": 5', '"dim_h2": 4'), encoding="utf-8")
    assert broken.read_text(encoding="utf-8") != out
    code, out2, err = run_cli(capsys, "table", "u", "2", "--format", "json", "--golden", str(broken))
    assert (code, out2, err) == (1, out, f"golden mismatch against {broken}\n")
    # the text table is no golden for the JSON payload
    text = tmp_path / "text.golden"
    text.write_text(ckcoh.extensions.format_table(ckcoh.extensions.table_rows("u", 2)), encoding="utf-8")
    code, _, _ = run_cli(capsys, "table", "u", "2", "--format", "json", "--golden", str(text))
    assert code == 1


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
    assert proc.stdout == ""
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


def test_a_usage_error_creates_no_out_file(capsys, tmp_path):
    # the --out file is opened only once the command has returned
    path = tmp_path / "F"
    code, out, err = run_cli(capsys, "h2", "su", "2", "+,+,+", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "error: omega list has 3 entries, expected N=2\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("h2", "u", "6", "0,-1/2,0,0,3,0", "--format", "json"),
        ("rep", "u", "3", "0,1/2,-", "--format", "json"),
    ],
    ids=["h2", "rep"],
)
def test_streamed_out_file_matches_stdout(capsys, tmp_path, argv):
    path = tmp_path / "payload.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (0, "")
    code, stdout_run, _ = run_cli(capsys, *argv)
    assert code == 0
    assert path.read_bytes() == stdout_run.encode("utf-8")


class _CountingWriter:
    """A stand-in for stdout that keeps every piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, piece):
        self.pieces.append(piece)
        return len(piece)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("h2", "su", "6", "0,0,0,0,0,0", "--format", "json"), "h2_su_6_000000.json"),
        (("rep", "u", "3", "0,1/2,-", "--format", "json"), "rep_u_3_0hm.json"),
    ],
    ids=["h2", "rep"],
)
def test_a_payload_written_in_many_pieces_joins_to_its_golden(monkeypatch, argv, golden):
    # as `perfbench/run.py` reads a payload: stdout swapped for another writer
    stdout = _CountingWriter()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    monkeypatch.undo()
    with open(os.path.join(DATA, golden), "rb") as handle:
        want = handle.read()
    assert len(stdout.pieces) > 50
    assert "".join(stdout.pieces).encode("utf-8") == want
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    assert len(buffer.getvalue().encode("utf-8")) == len(want)


# sha256 of `rep su 20 (+,...,+) --format json`, as `json.dumps` rendered it
REP_SU_20_JSON_SHA256 = "a7cf7d24c1c2ff795ea06494c959feb49f8bd8f632451fe3feb5350cb418622d"


# Spawns `python -m ckcoh.cli ARGV...` with stdout in OUT, waits through
# os.wait4 and prints the exit code and the child's ru_maxrss (KB).  A child
# starts out with the peak RSS of the process that spawns it, so this small
# launcher spawns the CLI, never the test process itself.
_LAUNCHER = """
import os, signal, sys, time
out_path, argv = sys.argv[1], sys.argv[2:]
with open(out_path, "wb") as out:
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "ckcoh.cli", *argv], os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
deadline = time.monotonic() + 120
while not (done := os.wait4(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
    time.sleep(0.02)
if not done[0]:
    os.kill(pid, signal.SIGKILL)
    done = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(done[1]), done[2].ru_maxrss)
"""


def _peak_rss_mb(argv, out_path) -> float:
    """Peak resident memory of a fresh `ckcoh` process, its stdout in out_path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(out_path), *argv],
        env=env, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode == 0, run.stderr
    code, maxrss_kb = map(int, run.stdout.split())
    assert code == 0, (argv, code)
    return maxrss_kb / 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for a child's peak RSS")
def test_rep_json_is_streamed_at_the_memory_of_text(tmp_path):
    # both dense grids of every matrix used to be held with the whole payload:
    # 83.8 MB against 26.0 MB as text at su 20
    argv = ["rep", "su", "20", ",".join("+" * 20)]
    text_mb = _peak_rss_mb(argv, tmp_path / "rep.txt")
    json_mb = _peak_rss_mb(argv + ["--format", "json"], tmp_path / "rep.json")
    digest = hashlib.sha256((tmp_path / "rep.json").read_bytes()).hexdigest()
    assert digest == REP_SU_20_JSON_SHA256
    assert json_mb <= 1.5 * text_mb, (json_mb, text_mb)


def test_negative_n_rejected(capsys):
    code, _, err = run_cli(capsys, "h2", "su", "-2", "+,+")
    assert code == 2


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("h2", "u", "3", "0,0,0", "--format", "json"), "h2_u_3_000.json"),
        (("h2", "su", "3", "0,+,0"), "h2_su_3_0p0.txt"),
        (("rep", "su", "2", "+,0"), "rep_su_2_p0.txt"),
        (("rep", "u", "3", "0,1/2,-"), "rep_u_3_0hm.txt"),
        (("rep", "u", "3", "0,1/2,-", "--format", "json"), "rep_u_3_0hm.json"),
        (("algebra", "u", "2", "0,-1/2"), "algebra_u_2_0h.txt"),
        (("algebra", "u", "2", "0,-1/2", "--format", "json"), "algebra_u_2_0h.json"),
        (("classify", "su", "3", "0,+,0"), "classify_su_3_0p0.txt"),
        (("classify", "u", "3", "0,1/2,-", "--format", "json"), "classify_u_3_0hm.json"),
        (("contract", "su", "3", "+,0,-", "1"), "contract_su_3_p0m_1.txt"),
        (("contract", "u", "3", "+,0,-", "3", "--format", "json"), "contract_u_3_p0m_3.json"),
        (("sweep", "su", "1..2"), "sweep_su_1to2.txt"),
        (("sweep", "u", "1..2", "--format", "json"), "sweep_u_1to2.json"),
        (("table", "u", "2", "--format", "json"), "table_u_2.json"),
    ],
)
def test_h2_small_n_golden_bytes(capsys, monkeypatch, argv, golden):
    # byte goldens of every command at small N, in both formats
    monkeypatch.setenv("CKCOH_THREADS", "1")
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


def test_sweep_workers_default_to_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("CKCOH_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _sweep_workers() == 1
    monkeypatch.setenv("CKCOH_THREADS", "4")
    assert _sweep_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _sweep_workers() == 3


def _sweep_processes(monkeypatch, count):
    """Make `run_sweep` use `count` processes, whatever the host's cores."""
    monkeypatch.setenv("CKCOH_THREADS", str(count))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


MIXED_CASES = [
    (family, n, signs)
    for n in (1, 2, 3)
    for signs in itertools.product("+-0", repeat=n)
    for family in ("su", "u")
]


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_run_sweep_gives_the_serial_results_in_case_order(monkeypatch, processes):
    serial = [ckcoh.cli._sweep_case(case) for case in MIXED_CASES]
    _sweep_processes(monkeypatch, processes)
    assert ckcoh.cli.run_sweep(MIXED_CASES) == serial
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="children must see the patch")
def test_run_sweep_takes_every_case_once_with_more_processes_than_cores(monkeypatch, tmp_path):
    log = tmp_path / "taken"

    def logged(case):
        with open(log, "a", encoding="utf-8") as handle:  # one short append per case
            handle.write(f"{case} {os.getpid()}\n")
        return case

    cases = list(range(600))
    _sweep_processes(monkeypatch, min((os.cpu_count() or 1) + 1, 9))  # one more than the cores
    monkeypatch.setattr(ckcoh.cli, "_sweep_case", logged)
    assert ckcoh.cli.run_sweep(cases) == cases
    assert multiprocessing.active_children() == []
    taken = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert sorted(int(index) for index, _ in taken) == cases
    assert len({pid for _, pid in taken}) > 1


def test_run_sweep_raises_when_a_case_raises_and_leaves_no_child(monkeypatch):
    def failing(case):
        raise ZeroDivisionError(f"case {case}")

    _sweep_processes(monkeypatch, 3)
    monkeypatch.setattr(ckcoh.cli, "_sweep_case", failing)
    # each child dies on its first case, so this process takes one and raises
    with pytest.raises(ZeroDivisionError, match="case"):
        ckcoh.cli.run_sweep(MIXED_CASES)
    assert multiprocessing.active_children() == []


DYING_CHILD = """
import multiprocessing, os
from ckcoh import cli

parent, taken, real = os.getpid(), [], cli._sweep_case

def dying(case):
    taken.append(case)
    if os.getpid() != parent and len(taken) == 3:
        os._exit(3)
    return real(case)

os.environ["CKCOH_THREADS"] = "2"
os.sched_getaffinity = lambda pid: {0, 1}
cli._sweep_case = dying
try:
    cli.run_sweep([("su", 2, signs) for signs in ("++", "+-", "+0", "0+", "00", "-0") * 4])
except RuntimeError as exc:
    print(exc)
print(multiprocessing.active_children())
"""


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="children must see the patch")
def test_a_child_that_dies_mid_share_fails_the_sweep_without_a_hang():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", DYING_CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "a sweep process exited with code 3 before sending its results",
        "[]",
    ]


@pytest.mark.parametrize(
    "argv, env, err",
    [
        (["sweep", "su", "x..y"], {}, "bad N range 'x..y', expected e.g. 1..4"),
        (["sweep", "su", "3..1"], {}, "bad N range '3..1'"),
        (["sweep", "su", "1..7"], {}, "N=7 exceeds the default bound 6; pass --force to override"),
        (["h2", "su", "0", "+"], {}, "N must be a positive integer"),
        (["table", "su", "0"], {}, "N must be a positive integer"),
        (
            ["table", "su", "11"],
            {},
            "N=11 exceeds the default bound 10 (3^N rows); pass --force to override",
        ),
        (["h2", "su", "3", "0,,+"], {}, "empty omega entry at position 2 in '0,,+'"),
        (["h2", "su", "1", "1e5"], {}, "bad rational token '1e5': exponent notation is not accepted"),
        (["h2", "su", "2", "+,+,+"], {}, "omega list has 3 entries, expected N=2"),
        (["contract", "su", "2", "0,+", "0"], {}, "contraction index 0 out of range 1..2"),
        (
            ["table", "su", "3", "--golden", "{tmp}/missing.golden"],
            {},
            "[Errno 2] No such file or directory: '{tmp}/missing.golden'",
        ),
        (
            ["h2", "su", "2", "+,+", "--out", "{tmp}/missing/x"],
            {},
            "[Errno 2] No such file or directory: '{tmp}/missing/x'",
        ),
        (["sweep", "su", "1"], {"CKCOH_THREADS": "x"}, "bad CKCOH_THREADS value 'x'"),
    ],
    ids=[
        "bad-range",
        "empty-range",
        "sweep-bound",
        "h2-n-zero",
        "table-n-zero",
        "table-bound",
        "empty-omega-entry",
        "exponent-omega",
        "omega-length",
        "contract-index",
        "golden-missing",
        "out-unwritable",
        "bad-threads",
    ],
)
def test_usage_error_message_and_exit_code(capsys, monkeypatch, tmp_path, argv, env, err):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, stderr = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert stderr == f"error: {err.format(tmp=tmp_path)}\n"


def test_the_command_lists_agree():
    # COMMANDS, the parser, the module docstring's usage block and the README CLI table
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    usage = re.findall(r"^ {4}ckcoh (\w+)", ckcoh.cli.__doc__, re.M)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = re.findall(r"^\| `(\w+)` +\|", handle.read(), re.M)
    assert len(COMMANDS) == 7
    assert list(sub.choices) == usage == readme == list(COMMANDS)
