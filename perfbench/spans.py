"""Outside-in span tracing of gbmlab's layers.

The benchmark does not change the program: it replaces module attributes
(functions, and methods on classes) with wrappers that record a span per
call, and restores the originals afterwards.  A function imported by name
into another module (``gbsde.path_normals``) is the same object, so every
module attribute bound to it is replaced.  Spans stay in memory; counts are
computed from each call's arguments and return value.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

MIB = float(2 ** 20)

# metrics computed from call arguments, return values and files, not timed;
# they repeat exactly between runs of the same code
COMPUTED = ("gcore.driver_builds", "pde.sweeps", "pde.node_steps",
            "pde.dense_mb", "pde.dense_mb_max", "pde.interp_calls",
            "pde.export_mb", "gexpect.lattice_node_steps", "scenario.normals",
            "scenario.path_steps", "scenario.controls_tried",
            "scenario.controls_accepted", "gbsde.family_levels",
            "cli.artifact_mb")


class Tracer:
    """Spans ``[name, start, end, parent index]`` plus computed counts."""

    def __init__(self, modules, targets) -> None:
        """``targets``: (owner, attribute, span name, count hook or None).

        A module-level function is replaced wherever a module in
        ``modules`` binds it; a method is replaced on its class.
        """
        self.modules = modules
        self.targets = targets
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, count in self.targets:
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, count)
            for holder in ([owner] if isinstance(owner, type) else self.modules):
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patches.append((holder, key, orig))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches = []

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: sum of durations minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def total_times(self, prefix: str) -> dict[str, float]:
        """Per span name starting with ``prefix``: summed durations."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent in self.spans:
            if name.startswith(prefix):
                out[name] += end - start
        return out


# -- computed counts -----------------------------------------------------------

def _count_calls(key):
    def count(c, args, kwargs, result):
        c[key] += 1
    return count


def _count_sweep(c, args, kwargs, sol):
    c["pde.sweeps"] += 1
    c["pde.node_steps"] += sol.nt * sol.grid.nx
    dense = (sol.u.nbytes + sol.a_field.nbytes) / MIB
    c["pde.dense_mb"] += dense
    c["pde.dense_mb_max"] = max(c["pde.dense_mb_max"], dense)


def _count_export(c, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    c["pde.export_mb"] += os.path.getsize(path) / MIB


def dp_node_steps(rows: int, cols: int, s, depth: int = 1) -> int:
    """Nodes updated by the augmented-lattice DP over stage steps ``s``,
    starting from a (rows, cols[, depth]) value array; follows the stage
    contractions of ``gexpect._sup_dp``."""
    sb = [0] + list(s)
    n = 0
    for i in range(len(s), 0, -1):
        for k in range(sb[i] - 1, sb[i - 1] - 1, -1):
            n += rows * cols * depth
            if k == sb[i - 1] and i > 1:
                r_prev = 2 * sb[i - 1] + 1
                rows, cols = rows // r_prev, r_prev
    return n


def _count_sup_dp(c, args, kwargs, result):
    tab, s = args[0], args[1]
    cols = 2 * s[-1] + 1
    c["gexpect.lattice_node_steps"] += dp_node_steps(tab.size // cols, cols, s)


def _count_running_max(c, args, kwargs, result):
    records, s = args[0], args[1]
    n_m = np.unique(np.concatenate([v.ravel() for v in records.values()])).size + 1
    rows, cols = records[s[-1]].shape
    c["gexpect.lattice_node_steps"] += dp_node_steps(rows, cols, s, n_m)


def _count_normals(c, args, kwargs, result):
    c["scenario.normals"] += result.size


def _count_paths(c, args, kwargs, bundle):
    c["scenario.path_steps"] += bundle.n_paths * bundle.n_steps


def _count_estimate(c, args, kwargs, est):
    c["scenario.controls_tried"] += len(est.controls)
    c["scenario.controls_accepted"] += sum(bool(r["accepted"])
                                           for r in est.controls)


def _count_measure(c, args, kwargs, check):
    c["scenario.controls_tried"] += 1
    c["scenario.controls_accepted"] += bool(check.accepted)


def _count_levels(c, args, kwargs, family):
    c["gbsde.family_levels"] += len(family.eps_schedule)


def targets(gcore, pde, gexpect, scenario, gbsde):
    """(owner, attribute, span name, count hook) for every traced call."""
    return [
        (gcore, "preset_driver", "gcore.driver_build", None),
        (gcore, "payoff_driver", "gcore.driver_build", None),
        (gcore.DriverSpec, "__post_init__", "gcore.driver_build",
         _count_calls("gcore.driver_builds")),
        (pde, "solve_terminal_pde", "pde.sweep", _count_sweep),
        (pde, "cfl_timestep", "pde.cfl", None),
        (pde, "derivatives", "pde.derivatives", None),
        (pde.FieldInterpolator, "u_at", "pde.interp",
         _count_calls("pde.interp_calls")),
        (pde.FieldInterpolator, "z_at", "pde.interp",
         _count_calls("pde.interp_calls")),
        (pde.FieldInterpolator, "a_at", "pde.interp",
         _count_calls("pde.interp_calls")),
        (pde, "export_solution_csv", "pde.export", _count_export),
        (gexpect, "lattice_oracle", "gexpect.lattice", None),
        (gexpect, "_sup_dp", "gexpect.lattice", _count_sup_dp),
        (gexpect, "_running_max_lhs", "gexpect.lattice", _count_running_max),
        (gexpect, "gexpect_cylinder", "gexpect.cylinder", None),
        (gexpect, "doob_check", "gexpect.doob", None),
        (scenario, "path_normals", "scenario.normals", _count_normals),
        (scenario, "simulate_paths", "scenario.simulate", _count_paths),
        (scenario, "forward_sde", "scenario.simulate", None),
        (scenario, "variational_paths", "scenario.variational", None),
        (scenario, "k_increments", "scenario.k_increments", None),
        (scenario, "estimate_dx", "scenario.estimate", _count_estimate),
        (scenario, "estimate_dt", "scenario.estimate", _count_estimate),
        (scenario, "verify_measure_in_Ptx", "scenario.estimate",
         _count_measure),
        (gbsde, "solve_gbsde", "gbsde.family", _count_levels),
        (gbsde, "stability_check", "gbsde.stability", None),
        (gbsde, "counterexample_demo", "gbsde.counterexample", None),
        (gbsde, "convergence_report", "gbsde.reports", None),
        (gbsde, "second_derivative_scan", "gbsde.reports", None),
        (gbsde, "semiconvexity_scan", "gbsde.reports", None),
        (gbsde, "dynamic_programming_check", "gbsde.reports", None),
        (gbsde, "reconstruct_K", "gbsde.reports", None),
        (gbsde, "write_report", "gbsde.write_report", None),
    ]


def _ns_per(seconds: float, work: float) -> float:
    return 1e9 * seconds / work if work else 0.0


def layer_metrics(tracer: Tracer, subcommands) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times are self times)."""
    st = tracer.self_times()
    c = tracer.counts
    runs = tracer.total_times("cli.run_s.")
    path_pass_s = (st["scenario.simulate"] + st["scenario.variational"]
                   + st["scenario.k_increments"] + st["scenario.estimate"])
    m = {
        "gcore.driver_build_s": st["gcore.driver_build"],
        "gcore.driver_builds": c["gcore.driver_builds"],
        "pde.sweep_s": st["pde.sweep"],
        "pde.sweeps": c["pde.sweeps"],
        "pde.node_steps": c["pde.node_steps"],
        "pde.ns_per_node_step": _ns_per(st["pde.sweep"], c["pde.node_steps"]),
        "pde.cfl_s": st["pde.cfl"],
        "pde.dense_mb": c["pde.dense_mb"],
        "pde.dense_mb_max": c["pde.dense_mb_max"],
        "pde.derivatives_s": st["pde.derivatives"],
        "pde.interp_s": st["pde.interp"],
        "pde.interp_calls": c["pde.interp_calls"],
        "pde.export_s": st["pde.export"],
        "pde.export_mb": c["pde.export_mb"],
        "pde.export_mb_per_s": (c["pde.export_mb"] / st["pde.export"]
                                if st["pde.export"] else 0.0),
        "gexpect.lattice_s": st["gexpect.lattice"],
        "gexpect.lattice_node_steps": c["gexpect.lattice_node_steps"],
        "gexpect.ns_per_lattice_node_step": _ns_per(
            st["gexpect.lattice"], c["gexpect.lattice_node_steps"]),
        "gexpect.cylinder_s": st["gexpect.cylinder"],
        "gexpect.doob_s": st["gexpect.doob"],
        "scenario.normals_s": st["scenario.normals"],
        "scenario.normals": c["scenario.normals"],
        "scenario.ns_per_normal": _ns_per(st["scenario.normals"],
                                          c["scenario.normals"]),
        "scenario.simulate_s": st["scenario.simulate"],
        "scenario.variational_s": st["scenario.variational"],
        "scenario.k_increments_s": st["scenario.k_increments"],
        "scenario.estimate_self_s": st["scenario.estimate"],
        "scenario.path_steps": c["scenario.path_steps"],
        "scenario.ns_per_path_step": _ns_per(path_pass_s,
                                             c["scenario.path_steps"]),
        "scenario.controls_tried": c["scenario.controls_tried"],
        "scenario.controls_accepted": c["scenario.controls_accepted"],
        "gbsde.family_self_s": st["gbsde.family"],
        "gbsde.family_levels": c["gbsde.family_levels"],
        "gbsde.stability_self_s": st["gbsde.stability"],
        "gbsde.counterexample_self_s": st["gbsde.counterexample"],
        "gbsde.reports_s": st["gbsde.reports"],
        "gbsde.write_report_s": st["gbsde.write_report"],
        "cli.self_s": sum(v for k, v in st.items()
                          if k.startswith("cli.run_s.")),
    }
    for sub in subcommands:
        m[f"cli.run_s.{sub}"] = runs[f"cli.run_s.{sub}"]
    return m
