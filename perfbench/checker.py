"""Checks of `ckcoh` CLI payloads that use none of the library's code.

The expected dimension comes from the closed formulas of the paper applied to
the benchmark's own omega, and the Type II/III keys of every representative
must lie on the omega's zero set.  Each check returns a list of problems;
an empty list means the payload passed.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations, product

from workloads import Op, fmt


def expected_dim_h2(family: str, omega) -> int:
    n = sum(1 for v in omega if v == 0)
    return n * (n + 1) // 2 if family == "su" else n * (n + 3) // 2


def digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check(op: Op, code: int, payload: str, digests: dict) -> list:
    if code != 0:
        return [f"exit code {code}"]
    want = digests.get(op.key)
    if want is not None and digest(payload) != want:
        return ["payload bytes differ from the stored digest"]
    try:
        obj = json.loads(payload)
    except ValueError as exc:
        return [f"payload is not JSON: {exc}"]
    if op.n_range:
        return check_sweep(op, obj)
    return check_h2(op, obj)


def check_h2(op: Op, obj: dict) -> list:
    family, omega = op.family, op.omega
    zero_set = {k for k, v in enumerate(omega, start=1) if v == 0}
    dim = expected_dim_h2(family, omega)
    bad = []
    try:
        if (obj["family"], obj["n"]) != (family, len(omega)):
            bad.append("family or N differs from the input")
        if obj["omega"] != [fmt(v) for v in omega]:
            bad.append("omega echo differs from the input")
        if obj["dim_h2"] != dim or obj["formula"] != dim or obj["match"] is not True:
            bad.append(f"dim_h2 {obj['dim_h2']} formula {obj['formula']}, expected {dim}")
        if obj["dim_z2"] - obj["dim_b2"] != obj["dim_h2"]:
            bad.append("dim_z2 - dim_b2 != dim_h2")
        reps = obj["representatives"]
        if len(reps) != dim:
            bad.append(f"{len(reps)} representatives, expected {dim}")
        for rep in reps:
            bad += _off_zero_set(family, rep, zero_set)
        checks = obj["cocycle_checks"]
        if [c["label"] for c in checks] != cocycle_check_labels(family, omega):
            bad.append("cocycle checks do not cover every alpha/beta/gamma label")
        if not all(c["ok"] is True for c in checks):
            bad.append("a cocycle triviality check failed")
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"malformed h2 payload: {exc!r}")
    return bad


def cocycle_check_labels(family: str, omega) -> list:
    """Labels the `h2` payload lists, in order, for this omega."""
    zeros = [k for k, v in enumerate(omega, start=1) if v == 0]
    labels = [f"α_{k}" for k in range(1, len(omega) + 1)]
    labels += [f"β_{k}{l}" for k, l in combinations(zeros, 2)]
    labels += [f"γ_{k}" for k in zeros] if family == "u" else []
    return labels


def _off_zero_set(family: str, rep: dict, zero_set: set) -> list:
    bad = []
    for key in rep.get("alpha", {}):
        if int(key) not in zero_set:
            bad.append(f"alpha_{key} off the zero set")
    for key in rep.get("beta", {}):
        k, l = (int(t) for t in key.split(","))
        if k not in zero_set or l not in zero_set:
            bad.append(f"beta_{k}{l} off the zero set")
    if rep.get("gamma") and family != "u":
        bad.append("gamma in an su representative")
    for key in rep.get("gamma", {}):
        if int(key) not in zero_set:
            bad.append(f"gamma_{key} off the zero set")
    return bad


def check_sweep(op: Op, obj: dict) -> list:
    lo, hi = op.n_range
    bad = []
    try:
        total = sum(3**n for n in range(lo, hi + 1))
        if not obj["passed"] == obj["total"] == len(obj["cases"]) == total:
            bad.append(f"passed {obj['passed']} total {obj['total']}, expected {total}")
        for n in range(lo, hi + 1):
            want = [",".join(s) for s in product("+-0", repeat=n)]
            got = [c["omega"] for c in obj["cases"] if c["n"] == n]
            if sorted(got) != sorted(want):
                bad.append(f"N={n}: cases do not cover the 3^{n} sign vectors")
        for case in obj["cases"]:
            omega = [0 if s == "0" else 1 for s in case["omega"].split(",")]
            dim = expected_dim_h2(op.family, omega)
            if case["family"] != op.family or case["ok"] is not True:
                bad.append(f"case {case['omega']} failed")
            elif case["dim_h2"] != dim or case["formula"] != dim:
                bad.append(f"case {case['omega']}: dim_h2 {case['dim_h2']}, expected {dim}")
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"malformed sweep payload: {exc!r}")
    return bad

