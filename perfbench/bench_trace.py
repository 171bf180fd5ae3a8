"""Layer-boundary spans recorded from outside the package.

Each wrapped aeroinv function is replaced at every lookup site: the defining
module and every aeroinv module (or class) that bound the same object under
some name.  Spans stay in memory as (name, start, end, parent, op, info)
rows and are summarized and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

from bench_metrics import UNRELIABLE_STD_ERROR, is_joint, self_time, union_length


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (
        ("ops_per_s", "1/s"), ("_s", "s"), ("_pct", "pp"),
        ("_frac", "1"), ("_mean", "1"), ("_per_search", "1"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def _sites(fn):
    """(owner, attribute) pairs under which an aeroinv module binds ``fn``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "aeroinv":
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                found.append((mod, attr))
    return found


class EvidenceLog:
    """Std errors of joint orthant integrals, captured from return values only."""

    def __init__(self):
        self.op = None
        self.rows = []  # (op, std_error)

    def install(self):
        import aeroinv.model_selection as ms

        inner = ms.orthant_integral

        @functools.wraps(inner)
        def capture(form, *args, **kwargs):
            est = inner(form, *args, **kwargs)
            if is_joint(form):
                self.rows.append((self.op, float(est.std_error)))
            return est

        ms.orthant_integral = capture

    def summary(self, ops):
        errs = [e for op, e in self.rows if op in ops]
        if not errs:
            return None
        return {
            "joint_integrals": len(errs),
            "evidence_relerr_mean": float(np.mean(errs)),
            "evidence_unreliable_frac": float(
                np.mean(np.asarray(errs) > UNRELIABLE_STD_ERROR)
            ),
        }


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.op = None
        self.spans = []  # [name, start, end, parent, op, info]
        self._stack = []

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx, info):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = info
        self._stack.pop()

    def _wrapper(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit(idx, {"error": type(exc).__name__})
                raise
            self._exit(idx, info(args, kwargs, result) if info else None)
            return result

        return wrapper

    def wrap_function(self, name, fn, info=None):
        wrapper = self._wrapper(name, fn, info)
        for owner, attr in _sites(fn):
            setattr(owner, attr, wrapper)

    def wrap_method(self, name, cls, attr, info=None):
        setattr(cls, attr, self._wrapper(name, getattr(cls, attr), info))

    def install(self):
        """Wrap every layer boundary the per-layer metrics read."""
        from aeroinv import (
            discretization,
            model_selection,
            optics,
            orthant_mvn,
            simulation_study,
            tikhonov_qp,
            two_component,
        )

        count = lambda a, k, result: {"candidates": len(result)}
        self.wrap_function(
            "optics.kernel_value", optics.kernel_value,
            lambda a, k, result: {"points": int(np.size(result))},
        )
        self.wrap_function(
            "discretization.assemble", discretization.assemble_kernel_matrix
        )
        self.wrap_method(
            "discretization.level", simulation_study.KernelLevelCache, "__call__"
        )
        self.wrap_function(
            "tikhonov_qp.qp", tikhonov_qp.solve_constrained_tikhonov
        )
        self.wrap_function("tikhonov_qp.nnls", tikhonov_qp.solve_nnls)
        self.wrap_function("tikhonov_qp.search", tikhonov_qp.solve_discrepancy)
        self.wrap_function(
            "orthant_mvn.integral",
            orthant_mvn.orthant_integral,
            lambda a, k, est: {"dim": (a[0] if a else k["form"]).dim,
                               "samples": int(est.samples)},
        )
        self.wrap_function(
            "model_selection.generate", model_selection.generate_models, count
        )
        self.wrap_function("model_selection.rank", model_selection.select_models)
        self.wrap_function(
            "model_selection.unconstrained", model_selection.invert_unconstrained
        )
        self.wrap_function("model_selection.bic", model_selection.bic_select)
        self.wrap_function(
            "two_component.family", two_component.build_kernel_family
        )
        self.wrap_method(
            "two_component.level", two_component.KernelFamily, "level_matrices"
        )
        self.wrap_function("two_component.scan", two_component.scan_fractions)
        self.wrap_function(
            "two_component.generate",
            two_component.generate_models_two_component,
            count,
        )

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"columns": ["name", "start", "end", "parent", "op", "info"],
                 "spans": self.spans},
                fh,
            )

    def layer_metrics(self, ops, first_setup):
        """Per-layer metrics over one set-up and the given op ids.

        ``ops`` maps each op id in the window to its (start, end) interval;
        ``first_setup`` is the op label of the set-up spans to include.
        """
        window = set(ops) | {first_setup}
        by_name = {}
        children = {}
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children.setdefault(s[3], []).append((s[1], s[2]))
            if s[4] in window:
                by_name.setdefault(s[0], []).append(i)

        def spans(name):
            return [self.spans[i] for i in by_name.get(name, [])]

        def n(name):
            return len(by_name.get(name, []))

        def busy(*names):
            return union_length([(s[1], s[2]) for m in names for s in spans(m)])

        def total(name, key):
            return sum(
                s[5][key] for s in spans(name) if s[5] and key in s[5]
            )

        def under(name, ancestor):
            """Spans called ``name`` with an ``ancestor``-named span above."""
            hits = 0
            for s in spans(name):
                p = s[3]
                while p is not None and self.spans[p][0] != ancestor:
                    p = self.spans[p][3]
                hits += p is not None
            return hits

        def self_total(name):
            return sum(
                self_time((self.spans[i][1], self.spans[i][2]), children.get(i, []))
                for i in by_name.get(name, [])
            )

        searches = n("tikhonov_qp.search")
        dims = [s[5]["dim"] for s in spans("orthant_mvn.integral")
                if s[5] and "dim" in s[5]]
        op_children = {}
        for s in self.spans:
            if s[3] is None and s[4] in ops:
                op_children.setdefault(s[4], []).append((s[1], s[2]))
        return {
            "optics.calls": n("optics.kernel_value"),
            "optics.points": total("optics.kernel_value", "points"),
            "optics.busy_s": busy("optics.kernel_value"),
            "discretization.assemble_calls": n("discretization.assemble"),
            "discretization.busy_s": busy(
                "discretization.assemble", "discretization.level"
            ),
            "tikhonov_qp.qp_solves": n("tikhonov_qp.qp"),
            "tikhonov_qp.qp_busy_s": busy("tikhonov_qp.qp", "tikhonov_qp.nnls"),
            "tikhonov_qp.searches": searches,
            "tikhonov_qp.search_busy_s": busy("tikhonov_qp.search"),
            "tikhonov_qp.solves_per_search": (
                under("tikhonov_qp.qp", "tikhonov_qp.search") / searches
                if searches else 0.0
            ),
            "tikhonov_qp.search_failures": sum(
                1 for s in spans("tikhonov_qp.search") if s[5] and "error" in s[5]
            ),
            "orthant_mvn.integrals": n("orthant_mvn.integral"),
            "orthant_mvn.busy_s": busy("orthant_mvn.integral"),
            "orthant_mvn.samples": total("orthant_mvn.integral", "samples"),
            "orthant_mvn.dim_mean": float(np.mean(dims)) if dims else 0.0,
            "model_selection.generate_busy_s": busy("model_selection.generate"),
            "model_selection.rank_busy_s": busy("model_selection.rank"),
            "model_selection.rank_self_s": self_total("model_selection.rank"),
            "model_selection.candidates": total(
                "model_selection.generate", "candidates"
            ),
            "model_selection.levels_visited": n("discretization.level"),
            "model_selection.unconstrained_busy_s": busy(
                "model_selection.unconstrained"
            ),
            "model_selection.bic_busy_s": busy("model_selection.bic"),
            "two_component.family_build_s": busy("two_component.family"),
            "two_component.level_build_s": busy("two_component.level"),
            "two_component.scan_calls": n("two_component.scan"),
            "two_component.scan_solves": under("tikhonov_qp.qp", "two_component.scan"),
            "two_component.scan_busy_s": busy("two_component.scan"),
            "two_component.candidates": total("two_component.generate", "candidates"),
            "op.untraced_s": sum(
                self_time(interval, op_children.get(op, []))
                for op, interval in ops.items()
            ),
        }
