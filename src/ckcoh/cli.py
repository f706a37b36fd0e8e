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
CKCOH_THREADS caps the sweep worker pool (default: available cores).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .algebra import build_su_omega, build_u_omega, jacobi_residual
from .extensions import (
    classify,
    contract,
    extract_basic,
    format_table,
    table_rows,
    verify_theorem,
)
from .generators import check_family
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


class UsageError(ValueError):
    pass


def _parse_omega(family: str, n: int, text: str) -> OmegaVector:
    check_family(family)
    omega = OmegaVector.parse(text)
    if omega.n != n:
        raise UsageError(f"omega list has {omega.n} entries, expected N={n}")
    return omega


def _build(family: str, n: int, omega: OmegaVector):
    return build_su_omega(n, omega) if family == "su" else build_u_omega(n, omega)


def _emit(content: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(content)
    else:
        sys.stdout.write(content)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_algebra(args) -> int:
    omega = _parse_omega(args.family, args.N, args.omega)
    algebra = _build(args.family, args.N, omega)
    residual = jacobi_residual(algebra)
    ok = residual == 0
    if args.format == "json":
        content = _json_text({"algebra": algebra.to_json_obj(), "jacobi_ok": ok})
    else:
        content = algebra.to_text() + f"# jacobi: {'ok' if ok else 'FAIL'}\n"
    _emit(content, args.out)
    return 0 if ok else MISMATCH


def cmd_h2(args) -> int:
    omega = _parse_omega(args.family, args.N, args.omega)
    report = verify_theorem(args.family, args.N, omega, representatives=True)
    reps = [extract_basic(report.algebra, rep) for rep in report.result.representatives]
    verdict = "MATCH" if report.dims_match else "MISMATCH"
    if args.format == "json":
        content = _json_text(
            {
                "family": args.family,
                "n": args.N,
                "omega": [format_rational(v) for v in omega],
                "dim_z2": report.result.dim_Z2,
                "dim_b2": report.result.dim_B2,
                "dim_h2": report.result.dim_H2,
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
            }
        )
    else:
        lines = [
            f"family {args.family} N {args.N} omega ({omega.tokens()})",
            f"dim Z2 = {report.result.dim_Z2}",
            f"dim B2 = {report.result.dim_B2}",
            f"dim H2 = {report.result.dim_H2} (formula {report.formula}) {verdict}",
        ]
        if reps:
            lines.append("representatives:")
            lines += [f"  {i}: {r.describe()}" for i, r in enumerate(reps, start=1)]
        else:
            lines.append("representatives: none")
        checks = sum(1 for c in report.cocycle_checks if c.ok)
        lines.append(f"cocycle triviality checks: {checks}/{len(report.cocycle_checks)} ok")
        content = "\n".join(lines) + "\n"
    _emit(content, args.out)
    return 0 if report.ok else MISMATCH


def cmd_classify(args) -> int:
    omega = _parse_omega(args.family, args.N, args.omega)
    cls = classify(args.family, args.N, omega)
    if args.format == "json":
        content = _json_text(
            {
                "family": args.family,
                "n": args.N,
                "omega": [format_rational(v) for v in omega],
                "n_zero": cls.n_zero,
                "type2_nontrivial": list(cls.type2_nontrivial),
                "type3_beta_allowed": [list(p) for p in cls.type3_beta_allowed],
                "type3_gamma_allowed": list(cls.type3_gamma_allowed),
                "dim_h2_formula": cls.dim_h2_formula,
                "dim_split": [cls.type2_count, cls.type3_count],
            }
        )
    else:
        labels = ",".join(cls.labels()) if cls.labels() else "-"
        content = (
            f"family {args.family} N {args.N} omega ({omega.tokens()})\n"
            f"non-trivial extensions: {labels}\n"
            f"dim H2 = {cls.dim_h2_formula} ({cls.type2_count}+{cls.type3_count})\n"
        )
    _emit(content, args.out)
    return 0


def _matrix_json(mat):
    return {
        "re": [[format_rational(v) for v in row] for row in mat.re],
        "im": [[format_rational(v) for v in row] for row in mat.im],
    }


def cmd_rep(args) -> int:
    omega = _parse_omega(args.family, args.N, args.omega)
    algebra = _build(args.family, args.N, omega)
    mats = fundamental_matrices(args.N, omega, args.family)
    metric = metric_matrix(args.N, omega)
    defects = representation_defects(algebra, mats)
    metric_ok = all(isometry_defect(m, metric).is_zero() for m in mats)
    ok = not defects and metric_ok
    if args.format == "json":
        content = _json_text(
            {
                "family": args.family,
                "n": args.N,
                "omega": [format_rational(v) for v in omega],
                "metric": _matrix_json(metric),
                "matrices": [
                    {"name": algebra.name(i), **_matrix_json(m)}
                    for i, m in enumerate(mats)
                ],
                "representation_ok": not defects,
                "metric_condition_ok": metric_ok,
            }
        )
    else:
        lines = [f"family {args.family} N {args.N} omega ({omega.tokens()})"]
        for i, mat in enumerate(mats):
            lines.append(f"{algebra.name(i)}:")
            lines += [f"  {row}" for row in mat.format_rows()]
        lines.append(f"representation: {'ok' if not defects else 'FAIL'}")
        lines.append(f"metric condition: {'ok' if metric_ok else 'FAIL'}")
        content = "\n".join(lines) + "\n"
    _emit(content, args.out)
    return 0 if ok else MISMATCH


def cmd_contract(args) -> int:
    omega = _parse_omega(args.family, args.N, args.omega)
    report = contract(args.family, omega, args.k)
    if args.format == "json":
        content = _json_text(
            {
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
            }
        )
    else:
        content = "\n".join(report.lines()) + "\n"
    _emit(content, args.out)
    return 0


def cmd_table(args) -> int:
    if args.N > TABLE_MAX_N and not args.force:
        raise UsageError(
            f"N={args.N} exceeds the default bound {TABLE_MAX_N} "
            "(3^N rows); pass --force to override"
        )
    rows = table_rows(args.family, args.N)
    if args.format == "json":
        content = _json_text(
            {
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
            }
        )
    else:
        content = format_table(rows)
    _emit(content, args.out)
    if args.golden:
        with open(args.golden, "r", encoding="utf-8") as handle:
            golden = handle.read()
        text = format_table(rows)
        if text != golden:
            sys.stderr.write(f"golden mismatch against {args.golden}\n")
            return MISMATCH
        sys.stderr.write("golden: MATCH\n")
    return 0


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
    """CKCOH_THREADS clamped to 1..cores; the core count when unset."""
    cores = os.cpu_count() or 1
    env = os.environ.get("CKCOH_THREADS")
    if env:
        try:
            return min(max(1, int(env)), cores)
        except ValueError as exc:
            raise UsageError(f"bad CKCOH_THREADS value {env!r}") from exc
    return cores


def run_sweep(cases) -> list[dict]:
    """`_sweep_case` on every (family, n, signs) case, results in case order.

    Uses a process pool of `_sweep_workers()` processes when that and the
    case count both exceed one.
    """
    workers = min(_sweep_workers(), len(cases))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_case, cases, chunksize=8))
    return [_sweep_case(case) for case in cases]


def cmd_sweep(args) -> int:
    text = args.range
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise UsageError(f"bad N range {text!r}, expected e.g. 1..4") from exc
    if not 1 <= lo <= hi:
        raise UsageError(f"bad N range {text!r}")
    if hi > SWEEP_MAX_N and not args.force:
        raise UsageError(
            f"N={hi} exceeds the default bound {SWEEP_MAX_N}; pass --force to override"
        )
    cases = [
        (args.family, n, signs)
        for n in range(lo, hi + 1)
        for signs in itertools.product("+-0", repeat=n)
    ]
    results = run_sweep(cases)
    passed = sum(1 for r in results if r["ok"])
    if args.format == "json":
        content = _json_text(
            {"cases": results, "total": len(results), "passed": passed}
        )
    else:
        lines = [
            f"{'PASS' if r['ok'] else 'FAIL'} {r['family']} N={r['n']} "
            f"({r['omega']}) dim H2 = {r['dim_h2']} formula {r['formula']}"
            for r in results
        ]
        lines.append(f"sweep: {passed}/{len(results)} PASS")
        content = "\n".join(lines) + "\n"
    _emit(content, args.out)
    return 0 if passed == len(results) else MISMATCH


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "N", None) is not None and args.N < 1:
        sys.stderr.write("error: N must be a positive integer\n")
        return USAGE_ERROR
    try:
        return COMMANDS[args.command](args)
    except (ValueError, IndexError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
