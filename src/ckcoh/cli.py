"""Command-line front end.

    ckcoh algebra  <family> <N> <omega>        structure-constant file + Jacobi check
    ckcoh h2       <family> <N> <omega>        solver vs formula, representative basis
    ckcoh classify <family> <N> <omega>        formula-level classification (no solver)
    ckcoh rep      <family> <N> <omega>        fundamental matrices + fidelity checks
    ckcoh contract <family> <N> <omega> <k>    contraction transition report
    ckcoh table    <family> <N> [--golden P] [--force]
                                               extension table, one row per sign vector
    ckcoh sweep    <family> <N|A..B> [--force] solver-vs-formula over all sign vectors

`table` refuses N > 10 (3^N rows) and `sweep` refuses N > 6 without --force.

Omega lists are comma separated: signs (+, -, 0) or exact rationals (a/b).
Exit codes: 0 success / match, 1 verification mismatch, 2 usage error
(an unwritable --out or unreadable --golden path among them).
`--format json` emits a machine-readable mirror with identical numeric
content; `--out PATH` writes the payload to a file instead of stdout.
CKCOH_THREADS is the number of processes a sweep uses, this one included
(default and cap: the usable cores).

Each command is `cmd_x(args, omega) -> (payload, ok)`, the payload a JSON
object under `--format json` and text otherwise; `main` parses omega, runs
the command, byte-compares the rendered payload with `--golden`, writes the
payload and maps `ok` to the exit code.  A JSON payload is written piece by
piece (`_write_json`), as the bytes `json.dumps(payload, indent=2,
sort_keys=True)` would give, so no command holds its whole rendering; the
`--out` file is opened only once the command has returned.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from json.encoder import encode_basestring_ascii

from .algebra import build_su_omega, build_u_omega, jacobi_residual
from .extensions import (
    classify,
    contract,
    extract_basic,
    format_table,
    table_rows,
    verify_theorem,
)
from .omega import OmegaVector
from .realization import (
    fundamental_matrices,
    isometry_defect,
    metric_matrix,
    representation_defects,
)
from .rationals import format_rational

USAGE_ERROR = 2
MISMATCH = 1
TABLE_MAX_N = 10  # `table` builds one row per sign vector, 3^N rows
SWEEP_MAX_N = 6


def _parse_omega(n: int, text: str) -> OmegaVector:
    omega = OmegaVector.parse(text)
    if omega.n != n:
        raise ValueError(f"omega list has {omega.n} entries, expected N={n}")
    return omega


def _check_bound(n: int, bound: int, force: bool, why: str = ""):
    if n > bound and not force:
        raise ValueError(f"N={n} exceeds the default bound {bound}{why}; pass --force to override")


def _build(family: str, n: int, omega: OmegaVector):
    return build_su_omega(n, omega) if family == "su" else build_u_omega(n, omega)


def _header(args, omega) -> dict:
    return {"family": args.family, "n": args.N, "omega": [format_rational(v) for v in omega]}


def _title(args, omega) -> str:
    return f"family {args.family} N {args.N} omega ({omega.tokens()})"


def cmd_algebra(args, omega):
    algebra = _build(args.family, args.N, omega)
    ok = jacobi_residual(algebra) == 0
    if args.format == "json":
        return {"algebra": algebra.to_json_obj(), "jacobi_ok": ok}, ok
    return algebra.to_text() + f"# jacobi: {'ok' if ok else 'FAIL'}\n", ok


def cmd_h2(args, omega):
    report = verify_theorem(args.family, args.N, omega, representatives=True)
    result = report.result
    reps = [extract_basic(report.algebra, rep) for rep in result.representatives]
    if args.format == "json":
        return {
            **_header(args, omega),
            "dim_z2": result.dim_Z2,
            "dim_b2": result.dim_B2,
            "dim_h2": result.dim_H2,
            "formula": report.formula,
            "match": report.dims_match,
            "representatives": [r.to_json_obj() for r in reps],
            "cocycle_checks": [
                {
                    "label": c.label,
                    "expect_trivial": c.expect_trivial,
                    "trivial": c.trivial,
                    "ok": c.ok,
                }
                for c in report.cocycle_checks
            ],
        }, report.ok
    verdict = "MATCH" if report.dims_match else "MISMATCH"
    lines = [
        _title(args, omega),
        f"dim Z2 = {result.dim_Z2}",
        f"dim B2 = {result.dim_B2}",
        f"dim H2 = {result.dim_H2} (formula {report.formula}) {verdict}",
    ]
    if reps:
        lines.append("representatives:")
        lines += [f"  {i}: {r.describe()}" for i, r in enumerate(reps, start=1)]
    else:
        lines.append("representatives: none")
    checks = sum(1 for c in report.cocycle_checks if c.ok)
    lines.append(f"cocycle triviality checks: {checks}/{len(report.cocycle_checks)} ok")
    return "\n".join(lines) + "\n", report.ok


def cmd_classify(args, omega):
    cls = classify(args.family, args.N, omega)
    if args.format == "json":
        return {
            **_header(args, omega),
            "n_zero": cls.n_zero,
            "type2_nontrivial": list(cls.type2_nontrivial),
            "type3_beta_allowed": [list(p) for p in cls.type3_beta_allowed],
            "type3_gamma_allowed": list(cls.type3_gamma_allowed),
            "dim_h2_formula": cls.dim_h2_formula,
            "dim_split": [cls.type2_count, cls.type3_count],
        }, True
    labels = ",".join(cls.labels()) or "-"
    return (
        f"{_title(args, omega)}\n"
        f"non-trivial extensions: {labels}\n"
        f"dim H2 = {cls.dim_h2_formula} ({cls.type2_count}+{cls.type3_count})\n"
    ), True


def _matrix_json(mat):
    """The `re` and `im` grids of `mat`, each a generator of its dense rows.

    The rows are made from the entry map one at a time as `_write_json`
    takes them, so no dense grid of the matrix is ever held whole.
    """
    by_row = {}
    for (r, c), value in mat.entries.items():
        by_row.setdefault(r, []).append((c, value))
    return {"re": _grid_rows(mat.size, by_row, 0), "im": _grid_rows(mat.size, by_row, 1)}


def _grid_rows(size, by_row, part):
    """Each dense row of one part (0 re, 1 im) of a matrix, as rational strings."""
    for r in range(size):
        row = ["0"] * size
        for c, value in by_row.get(r, ()):
            row[c] = format_rational(value[part])
        yield row


def cmd_rep(args, omega):
    algebra = _build(args.family, args.N, omega)
    mats = fundamental_matrices(args.N, omega, args.family)
    metric = metric_matrix(args.N, omega)
    rep_ok = not representation_defects(algebra, mats)
    metric_ok = all(isometry_defect(m, metric).is_zero() for m in mats)
    if args.format == "json":
        return {
            **_header(args, omega),
            "metric": _matrix_json(metric),
            "matrices": [{"name": algebra.name(i), **_matrix_json(m)} for i, m in enumerate(mats)],
            "representation_ok": rep_ok,
            "metric_condition_ok": metric_ok,
        }, rep_ok and metric_ok
    lines = [_title(args, omega)]
    for i, mat in enumerate(mats):
        lines.append(f"{algebra.name(i)}:")
        lines += [f"  {row}" for row in mat.format_rows()]
    lines.append(f"representation: {'ok' if rep_ok else 'FAIL'}")
    lines.append(f"metric condition: {'ok' if metric_ok else 'FAIL'}")
    return "\n".join(lines) + "\n", rep_ok and metric_ok


def cmd_contract(args, omega):
    report = contract(args.family, omega, args.k)
    if args.format == "json":
        return {
            "family": args.family,
            "n": args.N,
            "k": args.k,
            "omega_before": [format_rational(v) for v in report.omega_before],
            "omega_after": [format_rational(v) for v in report.omega_after],
            "already_zero": report.already_zero,
            "alpha_now_nontrivial": report.alpha_now_nontrivial,
            "new_beta": [list(p) for p in report.new_beta],
            "new_gamma": report.new_gamma,
            "dim_before": report.dim_before,
            "dim_after": report.dim_after,
        }, True
    return "\n".join(report.lines()) + "\n", True


def cmd_table(args, omega):
    _check_bound(args.N, TABLE_MAX_N, args.force, " (3^N rows)")
    rows = table_rows(args.family, args.N)
    if args.format == "json":
        return {
            "family": args.family,
            "n": args.N,
            "rows": [
                {
                    "signs": list(r.signs),
                    "labels": list(r.labels),
                    "dim_split": [r.type2_count, r.type3_count],
                    "dim_h2": r.type2_count + r.type3_count,
                }
                for r in rows
            ],
        }, True
    return format_table(rows), True


def _sweep_case(case):
    family, n, signs = case
    omega = OmegaVector.parse(",".join(signs))
    report = verify_theorem(family, n, omega)
    return {
        "family": family,
        "n": n,
        "omega": ",".join(signs),
        "dim_h2": report.result.dim_H2,
        "formula": report.formula,
        "ok": report.ok,
    }


def _sweep_workers() -> int:
    """CKCOH_THREADS clamped to 1..cores; the core count when unset.

    The cores are those this process may run on (its affinity mask) where the
    platform reports them, else every core.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    env = os.environ.get("CKCOH_THREADS")
    if env:
        try:
            return min(max(1, int(env)), cores)
        except ValueError as exc:
            raise ValueError(f"bad CKCOH_THREADS value {env!r}") from exc
    return cores


def _take_cases(cases, counter) -> list:
    """`(index, result)` of each case this process takes, one index per take of `counter`."""
    taken = []
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= len(cases):
            return taken
        taken.append((index, _sweep_case(cases[index])))


def _sweep_child(cases, counter, sender):
    """A child's share of a sweep: take cases until none is left, then send all its results."""
    sender.send(_take_cases(cases, counter))
    sender.close()


def run_sweep(cases) -> list[dict]:
    """`_sweep_case` on every (family, n, signs) case, results in case order.

    The sweep runs in k = min(`_sweep_workers()`, len(cases)) processes, this
    one included; with k = 1 it is a plain loop here.  Otherwise k - 1
    children are started, forked where that is the start method (the library
    starts no thread), and every process takes the next case index from one
    shared counter until none is left, so no process idles while cases
    remain.  Each child sends its results once, when it is done.  No child
    outlives the call: the children still alive are terminated, and every
    child is joined, on success and on failure.  A child that exits without
    sending its results raises RuntimeError naming its exit code.
    """
    workers = min(_sweep_workers(), len(cases))
    if workers <= 1:
        return [_sweep_case(case) for case in cases]
    import multiprocessing  # only a parallel sweep pays for the import

    counter = multiprocessing.Value("q", 0)
    receivers, children = [], []
    try:
        for _ in range(workers - 1):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            receivers.append(receiver)
            child = multiprocessing.Process(target=_sweep_child, args=(cases, counter, sender))
            child.start()
            children.append(child)
            sender.close()  # the child holds the only write end: its exit reads as EOF
        taken = _take_cases(cases, counter)
        for receiver, child in zip(receivers, children):
            try:
                taken += receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"a sweep process exited with code {child.exitcode} before sending its results"
                ) from None
    finally:
        for receiver in receivers:
            receiver.close()
        for child in children:
            if child.is_alive():
                child.terminate()
            child.join()
    results = [None] * len(cases)
    for index, result in taken:
        results[index] = result
    return results


def cmd_sweep(args, omega):
    text = args.range
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ValueError(f"bad N range {text!r}, expected e.g. 1..4") from exc
    if not 1 <= lo <= hi:
        raise ValueError(f"bad N range {text!r}")
    _check_bound(hi, SWEEP_MAX_N, args.force)
    cases = [
        (args.family, n, signs)
        for n in range(lo, hi + 1)
        for signs in itertools.product("+-0", repeat=n)
    ]
    results = run_sweep(cases)
    passed = sum(1 for r in results if r["ok"])
    ok = passed == len(results)
    if args.format == "json":
        return {"cases": results, "total": len(results), "passed": passed}, ok
    lines = [
        f"{'PASS' if r['ok'] else 'FAIL'} {r['family']} N={r['n']} "
        f"({r['omega']}) dim H2 = {r['dim_h2']} formula {r['formula']}"
        for r in results
    ]
    lines.append(f"sweep: {passed}/{len(results)} PASS")
    return "\n".join(lines) + "\n", ok


def _add_common(parser, omega=True):
    parser.add_argument("family", choices=("su", "u"))
    if omega:
        parser.add_argument("N", type=int)
        parser.add_argument(
            "omega",
            help="comma-separated signs (+,-,0) or rationals; "
            "prefix the argument list with -- if omega starts with '-'",
        )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the payload to a file")


@functools.cache  # one parser per process: building it costs more than parsing
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckcoh",
        description="Central extensions and H2 of the quasi-unitary Cayley-Klein algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("algebra", help="build and serialize an algebra"))
    _add_common(sub.add_parser("h2", help="solve H2 and compare with the formula"))
    _add_common(sub.add_parser("classify", help="formula-level classification"))
    _add_common(sub.add_parser("rep", help="fundamental matrix realization"))

    p_contract = sub.add_parser("contract", help="set one omega_k to zero")
    _add_common(p_contract)
    p_contract.add_argument("k", type=int)

    table_help = (
        f"extension table over all sign vectors (3^N rows; N <= {TABLE_MAX_N} "
        "without --force)"
    )
    p_table = sub.add_parser("table", help=table_help, description=table_help)
    _add_common(p_table, omega=False)
    p_table.add_argument("N", type=int)
    p_table.add_argument("--golden", default=None, help="byte-compare against a golden file")
    p_table.add_argument("--force", action="store_true", help=f"allow N > {TABLE_MAX_N}")

    sweep_help = f"formula-vs-solver sweep over sign vectors (N <= {SWEEP_MAX_N} without --force)"
    p_sweep = sub.add_parser("sweep", help=sweep_help, description=sweep_help)
    _add_common(p_sweep, omega=False)
    p_sweep.add_argument("range", help="N or A..B")
    p_sweep.add_argument("--force", action="store_true", help=f"allow N > {SWEEP_MAX_N}")
    return parser


_GENERATOR = type(x for x in ())
_CONTAINERS = frozenset((dict, list, _GENERATOR))


def _write_json(obj, write) -> None:
    """Write `obj` as the text `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`.

    The text goes to `write` in pieces as `obj` is walked, strings through
    the C `encode_basestring_ascii`, dict keys sorted.  Only str, int, bool,
    None, list and dict with str keys are written; a generator is written
    as the list of what it yields, so a large array can be made one item at
    a time.  Anything else raises TypeError.
    """
    _write_value(obj, write, "\n")
    write("\n")


def _write_value(obj, write, newline):
    """Write one value; `newline` is a line break plus the indent of the line it starts on.

    A container's opening piece doubles as the separator before its first
    item, so a container whose separator is still that piece was empty.
    """
    kind = type(obj)
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            value = obj[key]
            head = sep + encode_basestring_ascii(key) + ": "
            if type(value) in _CONTAINERS:
                write(head)
                _write_value(value, write, inner)
            else:
                write(head + _scalar(value))
            sep = "," + inner
        write("{}" if sep[0] == "{" else newline + "}")
    elif kind is list and obj and all(type(value) is str for value in obj):
        # one piece for a list of strings, such as a dense row of `rep`
        sep = "," + inner
        write("[" + inner + sep.join(map(encode_basestring_ascii, obj)) + newline + "]")
    elif kind is list or kind is _GENERATOR:
        sep = "[" + inner
        for value in obj:
            if type(value) in _CONTAINERS:
                write(sep)
                _write_value(value, write, inner)
            else:
                write(sep + _scalar(value))
            sep = "," + inner
        write("[]" if sep[0] == "[" else newline + "]")
    else:
        write(_scalar(obj))


def _scalar(value) -> str:
    """The JSON text of a str, int, bool or None; TypeError for anything else."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _write_payload(payload, write) -> None:
    """Write a text payload as it is and a JSON one through `_write_json`."""
    if isinstance(payload, str):
        write(payload)
    else:
        _write_json(payload, write)


COMMANDS = {
    "algebra": cmd_algebra,
    "h2": cmd_h2,
    "classify": cmd_classify,
    "rep": cmd_rep,
    "contract": cmd_contract,
    "table": cmd_table,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    """Parse argv, run one command and write its payload.

    Exit 0 when the command's checks hold, 1 when one fails, 2 on a usage
    error (no payload is written then).
    """
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "N", 1) < 1:
            raise ValueError("N must be a positive integer")
        omega = _parse_omega(args.N, args.omega) if hasattr(args, "omega") else None
        payload, ok = COMMANDS[args.command](args, omega)
        if getattr(args, "golden", None):  # `table`: byte-compare the payload as rendered
            pieces = []
            _write_payload(payload, pieces.append)
            payload = "".join(pieces)
            with open(args.golden, "r", encoding="utf-8", newline="") as handle:
                match = handle.read() == payload
            verdict = "golden: MATCH" if match else f"golden mismatch against {args.golden}"
            sys.stderr.write(verdict + "\n")
            ok = ok and match
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                _write_payload(payload, handle.write)
        else:
            _write_payload(payload, sys.stdout.write)
    except (ValueError, IndexError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    return 0 if ok else MISMATCH


if __name__ == "__main__":
    sys.exit(main())
