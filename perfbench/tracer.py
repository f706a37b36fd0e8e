"""In-memory spans around the public functions of `ckcoh`, installed at runtime.

Each target is a function (or an `Echelon` method) that one layer calls in
another.  `install` replaces the function object in every loaded `ckcoh`
module that binds it, so callers that imported it by name see the wrapper.
Nothing in the library's source changes.  A span is (name, start, end,
parent); all spans stay in memory until `metrics` reads them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("algebra", "cohomology", "sparse", "extensions", "cli")
ROOT = "cli.main"

# (module that binds the target, attribute, span name).  The span name is the
# prefix of its per-layer metrics and names the pipeline stage, which is not
# always the defining module (`cocycle_defect` serves extraction).
TARGETS = (
    ("ckcoh.cli", "verify_theorem", "extensions.verify_theorem"),
    ("ckcoh.cli", "extract_basic", "extensions.extract_basic"),
    ("ckcoh.cli", "build_su_omega", "algebra.build"),
    ("ckcoh.cli", "build_u_omega", "algebra.build"),
    ("ckcoh.extensions", "build_su_omega", "algebra.build"),
    ("ckcoh.extensions", "build_u_omega", "algebra.build"),
    ("ckcoh.extensions", "h2", "cohomology.h2"),
    ("ckcoh.extensions", "are_coboundaries", "cohomology.are_coboundaries"),
    ("ckcoh.extensions", "extension_cocycle", "extensions.extension_cocycle"),
    ("ckcoh.extensions", "cocycle_defect", "extensions.cocycle_defect"),
    ("ckcoh.extensions", "appendix_violations", "extensions.appendix_violations"),
    ("ckcoh.cohomology", "cocycle_system", "cohomology.cocycle_system"),
    ("ckcoh.cohomology", "nullspace", "sparse.nullspace"),
    ("ckcoh.cohomology", "rank", "sparse.rank"),
    ("ckcoh.cohomology", "solve_many", "sparse.solve_many"),
    ("ckcoh.sparse", "Echelon.reduce", "sparse.reduce"),
    ("ckcoh.sparse", "Echelon.insert", "sparse.insert"),
    ("ckcoh.sparse", "Echelon.back_substitute", "sparse.back_substitute"),
)

# Per-layer metrics: (name, unit).  Times and counts are per algebra verified.
PER_LAYER = (
    ("sparse.reduce_s", "s"),
    ("sparse.reduce_calls", "count"),
    ("sparse.pivot_yield", "ratio"),
    ("sparse.max_pivot_bits", "bits"),
    ("sparse.insert_s", "s"),
    ("sparse.rank_s", "s"),
    ("sparse.nullspace_s", "s"),
    ("sparse.back_substitute_s", "s"),
    ("sparse.back_substitute_calls", "count"),
    ("sparse.solve_many_s", "s"),
    ("cohomology.h2_s", "s"),
    ("cohomology.representatives_s", "s"),
    ("cohomology.dim_z2", "count"),
    ("cohomology.reps_kept_ratio", "ratio"),
    ("cohomology.cocycle_system_s", "s"),
    ("cohomology.system_rows", "count"),
    ("cohomology.system_nnz", "count"),
    ("cohomology.are_coboundaries_s", "s"),
    ("extensions.verify_theorem_s", "s"),
    ("extensions.extract_basic_s", "s"),
    ("extensions.cocycle_defect_s", "s"),
    ("extensions.appendix_violations_s", "s"),
    ("extensions.extract_calls", "count"),
    ("extensions.extension_cocycle_s", "s"),
    ("algebra.build_s", "s"),
    ("algebra.builds", "count"),
    ("cli.self_s", "s"),
    ("cli.payload_bytes", "bytes"),
) + tuple((f"{layer}.share", "ratio") for layer in LAYERS) + (
    ("trace.algebras_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self.counters = defaultdict(int)
        self.absent = []
        self._undo = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        """Run fn inside a span; returns its result."""
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def root(self, fn, *args):
        return self.call(self._id(ROOT), fn, args, {})

    def _wrap(self, span: str, fn):
        name_id = self._id(span)
        observe = OBSERVERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name_id, fn, args, kwargs)
            if observe:
                observe(self.counters, args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self):
        """Wrap every target; a target missing from its module is recorded as absent."""
        self.absent = []
        wrapped = {}
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if getattr(original, "__wrapped_by_tracer__", False):
                continue
            if owner_name:
                self._set(owner, method, self._wrap(span, original))
                continue
            wrapper = wrapped.setdefault(id(original), self._wrap(span, original))
            for name, mod in list(sys.modules.items()):
                if name == "ckcoh" or name.startswith("ckcoh."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def metrics(self, algebras: int) -> dict:
        """Per-layer metrics over every span recorded, per algebra verified.

        `cli.payload_bytes` and the `trace.*` metrics come from the caller.
        """
        count = len(self.names)
        total = [0.0] * count
        self_time = [0.0] * count
        calls = [0] * count
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            duration = self.end[i] - self.start[i]
            k = self.name[i]
            total[k] += duration
            self_time[k] += duration - child[i]
            calls[k] += 1
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration

        def get(table, span):
            k = self._ids.get(span)
            return 0 if k is None else table[k]

        per = max(algebras, 1)
        c = self.counters
        out = {
            "sparse.reduce_s": get(total, "sparse.reduce") / per,
            "sparse.reduce_calls": get(calls, "sparse.reduce") / per,
            "sparse.pivot_yield": c["pivots"] / max(get(calls, "sparse.reduce"), 1),
            "sparse.max_pivot_bits": c["max_pivot_bits"],
            "sparse.insert_s": get(total, "sparse.insert") / per,
            "sparse.rank_s": get(total, "sparse.rank") / per,
            "sparse.nullspace_s": get(total, "sparse.nullspace") / per,
            "sparse.back_substitute_s": get(total, "sparse.back_substitute") / per,
            "sparse.back_substitute_calls": get(calls, "sparse.back_substitute") / per,
            "sparse.solve_many_s": get(total, "sparse.solve_many") / per,
            "cohomology.h2_s": get(total, "cohomology.h2") / per,
            "cohomology.representatives_s": get(self_time, "cohomology.h2") / per,
            "cohomology.dim_z2": c["dim_z2"] / max(get(calls, "cohomology.h2"), 1),
            "cohomology.reps_kept_ratio": c["dim_h2"] / max(c["dim_z2"], 1),
            "cohomology.cocycle_system_s": get(total, "cohomology.cocycle_system") / per,
            "cohomology.system_rows": c["system_rows"] / per,
            "cohomology.system_nnz": c["system_nnz"] / per,
            "cohomology.are_coboundaries_s": get(total, "cohomology.are_coboundaries") / per,
            "extensions.verify_theorem_s": get(total, "extensions.verify_theorem") / per,
            "extensions.extract_basic_s": get(total, "extensions.extract_basic") / per,
            "extensions.cocycle_defect_s": get(total, "extensions.cocycle_defect") / per,
            "extensions.appendix_violations_s": get(total, "extensions.appendix_violations")
            / per,
            "extensions.extract_calls": get(calls, "extensions.extract_basic") / per,
            "extensions.extension_cocycle_s": get(total, "extensions.extension_cocycle")
            / per,
            "algebra.build_s": get(total, "algebra.build") / per,
            "algebra.builds": get(calls, "algebra.build") / per,
            "cli.self_s": get(self_time, ROOT) / per,
        }
        root_total = get(total, ROOT) or 1.0
        for layer in LAYERS:
            layer_self = sum(
                self_time[k] for k, name in enumerate(self.names) if name.split(".")[0] == layer
            )
            out[f"{layer}.share"] = layer_self / root_total
        return out


def _observe_insert(counters, args, inserted):
    if inserted:
        counters["pivots"] += 1
        bits = max(abs(v).bit_length() for v in args[1].values())
        if bits > counters["max_pivot_bits"]:
            counters["max_pivot_bits"] = bits


def _observe_system(counters, args, matrix):
    counters["system_rows"] += matrix.rows
    counters["system_nnz"] += matrix.nnz()


def _observe_h2(counters, args, result):
    counters["dim_z2"] += result.dim_Z2
    counters["dim_h2"] += result.dim_H2


OBSERVERS = {
    "sparse.insert": _observe_insert,
    "cohomology.cocycle_system": _observe_system,
    "cohomology.h2": _observe_h2,
}
