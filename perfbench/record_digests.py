"""Write `digests.json`: the sha256 of every default-seed payload, per workload.

    python3 perfbench/record_digests.py

Each payload must pass `checker.py` before its digest is kept.  The digests
pin the CLI's output bytes, so rerun this only for a change that is meant to
alter them.
"""

from __future__ import annotations

import json
import os
import sys

import checker
import run
from workloads import WORKLOADS


def main() -> int:
    cli = run.load_cli()
    out = {}
    for name, workload in sorted(WORKLOADS.items()):
        if workload.sweep:
            os.environ["CKCOH_THREADS"] = str(run.sweep_threads(trace=False))
        table = out.setdefault(name, {})
        for round_ops in workload.rounds(run.DEFAULT_SEED, run.POOL_ROUNDS):
            for op in round_ops:
                if op.key in table:
                    continue
                code, payload = run.call(cli.main, op)
                problems = checker.check(op, code, payload, {})
                if problems:
                    sys.exit(f"error: {op.key}: {problems}")
                table[op.key] = checker.digest(payload)
        print(f"{name}: {len(table)} payloads", file=sys.stderr)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
