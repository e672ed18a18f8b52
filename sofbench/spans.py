"""In-memory spans around sofreg's layer functions, and the per-layer metrics.

Each traced function is replaced, in every sofreg module that holds it, by a
wrapper that records (label, start, end, parent span). The replacement is
made where callers look the name up (for example `estimators.lasso_select`
and `simulation.wild_bootstrap_test`), so the program itself is unchanged.
Spans stay in memory; metrics are computed once the run ends. All traced
work must run in this process (`mc --threads 1`).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

#: (label, defining module, function name). One label may cover several functions.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("simulation.mc_experiment", "simulation", "mc_experiment"),
    ("simulation.generate_dataset", "simulation", "generate_dataset"),
    ("functional.fpc_decompose", "functional", "fpc_decompose"),
    ("estimators.observed_pairs_basis", "estimators", "observed_pairs_basis"),
    ("estimators.fit_observance", "estimators", "fit_observance"),
    ("estimators.fit_slope", "estimators", "fit_slope"),
    ("estimators.joint_loocv_cutoffs", "estimators", "joint_loocv_cutoffs"),
    ("lasso.lasso_select", "lasso", "lasso_select"),
    ("gof.wild_bootstrap_test", "gof", "wild_bootstrap_test"),
    ("gof.build_a_matrix", "gof", "build_a_matrix"),
    ("dataio.read", "dataio", "read_curves_csv"),
    ("dataio.read", "dataio", "read_responses_csv"),
    ("dataio.read", "dataio", "file_digest"),
    ("dataio.write", "dataio", "atomic_write_text"),
    ("dataio.write", "dataio", "write_curves_csv"),
    ("dataio.write", "dataio", "write_responses_csv"),
    ("dataio.write", "dataio", "dump_json"),
    ("svgplot", "svgplot", "curve_plot"),
    ("svgplot", "svgplot", "density_plot"),
    ("svgplot", "svgplot", "grouped_boxplot"),
)

#: Per-layer metrics: (name, unit, better). Values are per unit of work
#: (one MC replicate, or one real-data session).
METRICS = (
    ("lasso.lasso_select.ms", "ms", "lower"),
    ("lasso.lasso_select.calls", "count", "lower"),
    ("lasso.lasso_select.distinct_ratio", "ratio", "higher"),
    ("gof.build_a_matrix.ms", "ms", "lower"),
    ("gof.build_a_matrix.calls", "count", "lower"),
    ("gof.build_a_matrix.angle_evals", "computed_count", "lower"),
    ("gof.wild_bootstrap_test.self_ms", "ms", "lower"),
    ("gof.wild_bootstrap_test.calls", "count", "lower"),
    ("estimators.fit_slope.self_ms", "ms", "lower"),
    ("estimators.fit_slope.calls", "count", "lower"),
    ("estimators.joint_loocv_cutoffs.ms", "ms", "lower"),
    ("estimators.joint_loocv_cutoffs.calls", "count", "lower"),
    ("estimators.fit_observance.ms", "ms", "lower"),
    ("estimators.observed_pairs_basis.ms", "ms", "lower"),
    ("functional.fpc_decompose.ms", "ms", "lower"),
    ("functional.fpc_decompose.calls", "count", "lower"),
    ("simulation.generate_dataset.ms", "ms", "lower"),
    ("simulation.mc_experiment.self_ms", "ms", "lower"),
    ("simulation.mc_experiment.ms_per_replicate", "ms", "lower"),
    ("dataio.read.ms", "ms", "lower"),
    ("dataio.write.ms", "ms", "lower"),
    ("svgplot.ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
)

#: Summed self times must equal the traced wall time within this share.
COVERAGE_MARGIN = 0.01

#: Spans whose self time no layer claims: CLI argument handling and report
#: writing, and the MC harness. A layer function the tracer misses shows up
#: here, so their share of the traced wall time is capped.
UNATTRIBUTED = ("cli.main", "simulation.mc_experiment")
UNATTRIBUTED_MARGIN = 0.10


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """Span recorder installed over the sofreg package of this process."""

    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent index]
        self._stack: list[int] = []
        self.unit = 0
        self.lasso_inputs: list[tuple[int, bytes]] = []
        self.a_sizes: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, label, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [label, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _before_lasso(self, design, y, folds=10, seed=0, n_lambdas=100):
        key = _digest(design, y) + repr((folds, seed, n_lambdas)).encode()
        self.lasso_inputs.append((self.unit, key))

    def _before_a(self, score_block, n_k=None):
        self.a_sizes.append(int(np.shape(score_block)[0]))

    def install(self) -> None:
        hooks = {
            "lasso_select": self._before_lasso,
            "build_a_matrix": self._before_a,
            "generate_dataset": lambda *args, **kwargs: self.next_unit(),
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "sofreg" or name.startswith("sofreg.")]
        for label, module_name, attr in TARGETS:
            original = getattr(importlib.import_module(f"sofreg.{module_name}"), attr)
            wrapper = self._wrap(label, original, hooks.get(attr))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def next_unit(self) -> None:
        """Start the next replicate or session (lasso inputs repeat only within one)."""
        self.unit += 1

    def metrics(self, units: int, wall_s: float) -> dict[str, float]:
        """Per-unit layer metrics; raises if the spans do not account for the wall time."""
        child = defaultdict(float)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)  # outermost spans of each label only
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (label, start, end, parent) in enumerate(self.spans):
            calls[label] += 1
            self_s[label] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != label:
                p = self.spans[p][3]
            if p < 0:
                total[label] += end - start
        covered = sum(self_s.values())
        if abs(covered - wall_s) > COVERAGE_MARGIN * wall_s:
            raise AssertionError(
                f"summed self times {covered:.4f} s miss the traced wall time {wall_s:.4f} s"
            )
        unattributed = sum(self_s[label] for label in UNATTRIBUTED)
        if unattributed > UNATTRIBUTED_MARGIN * wall_s:
            raise AssertionError(
                f"{unattributed:.4f} s of the traced wall time {wall_s:.4f} s is in no layer"
            )
        per_unit = {}
        distinct = len(set(self.lasso_inputs))
        replicates = calls["simulation.generate_dataset"] if calls["simulation.mc_experiment"] else 0
        values = {
            "lasso.lasso_select.ms": total["lasso.lasso_select"],
            "lasso.lasso_select.calls": calls["lasso.lasso_select"],
            "gof.build_a_matrix.ms": total["gof.build_a_matrix"],
            "gof.build_a_matrix.calls": calls["gof.build_a_matrix"],
            "gof.build_a_matrix.angle_evals": sum(n**3 for n in self.a_sizes),
            "gof.wild_bootstrap_test.self_ms": self_s["gof.wild_bootstrap_test"],
            "gof.wild_bootstrap_test.calls": calls["gof.wild_bootstrap_test"],
            "estimators.fit_slope.self_ms": self_s["estimators.fit_slope"],
            "estimators.fit_slope.calls": calls["estimators.fit_slope"],
            "estimators.joint_loocv_cutoffs.ms": total["estimators.joint_loocv_cutoffs"],
            "estimators.joint_loocv_cutoffs.calls": calls["estimators.joint_loocv_cutoffs"],
            "estimators.fit_observance.ms": total["estimators.fit_observance"],
            "estimators.observed_pairs_basis.ms": total["estimators.observed_pairs_basis"],
            "functional.fpc_decompose.ms": total["functional.fpc_decompose"],
            "functional.fpc_decompose.calls": calls["functional.fpc_decompose"],
            "simulation.generate_dataset.ms": total["simulation.generate_dataset"],
            "simulation.mc_experiment.self_ms": self_s["simulation.mc_experiment"],
            "dataio.read.ms": total["dataio.read"],
            "dataio.write.ms": total["dataio.write"],
            "svgplot.ms": total["svgplot"],
            "cli.main.self_ms": self_s["cli.main"],
            "trace.wall_ms": wall_s,
        }
        for name, unit, _ in METRICS:
            if name in values:
                scale = 1e3 if unit == "ms" else 1.0
                per_unit[name] = values[name] * scale / units
        per_unit["lasso.lasso_select.distinct_ratio"] = (
            distinct / calls["lasso.lasso_select"] if calls["lasso.lasso_select"] else 0.0
        )
        per_unit["simulation.mc_experiment.ms_per_replicate"] = (
            total["simulation.mc_experiment"] * 1e3 / replicates if replicates else 0.0
        )
        return per_unit
