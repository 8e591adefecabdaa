"""Command-line entry point: every experiment as a subcommand.

Each setting is declared once, as a ``RunConfig`` field with its type,
default, config-file section, the subcommands that read it and its flag.
A subcommand accepts, as flags and as config keys, exactly the settings
it reads (``gbmlab <subcommand> --help`` lists them); any other setting
exits 1.  Precedence for every setting is defaults < config file <
flags; the effective configuration is echoed into the JSON summary so a
run can be reproduced from its artifacts alone.  Identical argv + config + seed
produce byte-identical artifacts (no timestamps in outputs).  No setting
names the equation form: it is derived from the driver
(``pde.PdeProblem.form``), and ``solve-pde`` reports it.  ``--dry-run``
is the run stopped at its first sweep, lattice step, draw or cylinder
table (``gcore.work``): it refuses what the run refuses before that
point and writes nothing.

Exit codes: 0 success, 1 domain or config error, 2 numerical failure,
3 verdict failure under --assert.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .gcore import (DRY_RUN, ConfigError, CylinderFunctional, DomainError,
                    DriverSpec, DryRunStop, GFunction1D, Grid1D,
                    NumericalError, PRESET_NAMES, _coerce, _count,
                    check_param, make_gfunction, parse_config, preset_driver,
                    preset_keys, regularize)
from . import pde as _pde
from .pde import PdeProblem
from . import gexpect as _gexpect
from .gexpect import LatticeSpec
from . import scenario as _scenario
from . import gbsde as _gbsde
from .gbsde import write_report

_DEFAULT_EPS = (0.2, 0.1, 0.05, 0.025)


class _UsageError(Exception):
    """Raised for bad argv so main can map it to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _csv_floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise _UsageError(f"expected comma-separated floats, got '{text}'") \
            from exc


def _key_value(item: str) -> tuple:
    """(key, value) of one ``--param KEY=VALUE``."""
    if "=" not in item:
        raise ConfigError(f"--param needs KEY=VALUE, got '{item}'")
    k, v = item.split("=", 1)
    return k.strip(), _coerce(v.strip())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _prod(*stages):
    out = np.asarray(stages[0])
    for v in stages[1:]:
        out = out * np.asarray(v)
    return out


_PSI_CATALOG = {
    "sum": lambda *s: sum(s),
    "sum-sq": lambda *s: sum(np.asarray(v) ** 2 for v in s),
    "product": _prod,
    "max": lambda *s: functools.reduce(np.maximum, s),
}

# xi name: (its fixing times as fractions of T, its psi)
_XI_CATALOG = {
    "abs-terminal": ((1.0,), lambda b: np.abs(b)),
    "quadratic-terminal": ((1.0,), lambda b: np.asarray(b) ** 2),
    "two-stage": ((0.5, 1.0), lambda a, b: np.abs(a) + np.abs(b)),
}

# groups of readers: the subcommands that solve on the space grid, those of
# them that also draw Monte Carlo paths, and the G-expectation oracles
_GRID = ("solve-pde", "gbsde", "convergence", "curvature", "sensitivity-x",
         "sensitivity-t", "kink", "semiconvexity", "dp-check", "stability")
_PATHS = ("sensitivity-x", "sensitivity-t", "kink")
_ORACLES = ("gexpect", "cylinder", "doob")


def _setting(default, section: str, readers: tuple, *flags: str,
             choices=(), **flag_options):
    """A RunConfig field with its config ``section``, the subcommands that
    read it, its ``flags`` (by default the name as ``--x-min`` for x_min)
    and, unless ``choices`` is empty, the names it may take."""
    meta = dict(section=section, readers=frozenset(readers), flags=flags,
                choices=tuple(choices), flag_options=flag_options)
    if default is dict:
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Effective settings for one run, merged from defaults, file, flags."""

    sigma_low: float = _setting(0.0, "generator", _GRID + _ORACLES)
    sigma_high: float = _setting(1.0, "generator", _GRID + _ORACLES)
    eps_schedule: tuple = _setting(
        _DEFAULT_EPS, "generator", _GRID + ("counterexample",), "--eps",
        metavar="E1,E2,...", help="eps schedule")
    x_min: float | None = _setting(None, "grid", _GRID)
    x_max: float | None = _setting(None, "grid", _GRID)
    nx: int = _setting(401, "grid", _GRID + ("gexpect", "cylinder"),
                       help="space nodes; the finest level of "
                       "semiconvexity and stability")
    nt: int | None = _setting(None, "grid", _GRID,
                              help="pinned time levels, held on every level")
    T: float = _setting(1.0, "grid",
                        _GRID + ("gexpect", "doob", "counterexample"),
                        help="horizon")
    preset: str = _setting("quadratic", "driver", _GRID + ("gexpect",),
                           "--preset", "--payoff", choices=PRESET_NAMES,
                           help="driver preset")
    params: dict = _setting(dict, "driver",
                            _GRID + ("gexpect", "counterexample"), "--param",
                            action="append", type=_key_value,
                            metavar="KEY=VALUE",
                            help="driver parameter, repeatable")
    p: float = _setting(2.0, "schedule", ("doob", "stability"))
    p_prime: float = _setting(4.0, "schedule", ("doob",))
    steps: int = _setting(8, "schedule", ("doob", "dp-check", "stability"))
    t: float = _setting(0.5, "schedule", _PATHS)
    x: float = _setting(0.0, "schedule", _GRID)
    t1: float = _setting(0.25, "schedule", ("dp-check",))
    t2: float = _setting(0.75, "schedule", ("dp-check",))
    tol: float = _setting(2e-2, "schedule", ("dp-check",))
    times: tuple = _setting((0.5, 1.0), "schedule", ("cylinder",),
                            metavar="T1,T2,...")
    psi: str = _setting("sum", "schedule", ("cylinder",),
                        choices=_PSI_CATALOG)
    xi: str = _setting("abs-terminal", "schedule", ("doob",),
                       choices=_XI_CATALOG)
    preset_b: str | None = _setting(None, "schedule", ("stability",),
                                    choices=PRESET_NAMES)
    shift: float | None = _setting(None, "schedule", ("stability",))
    n_paths: int = _setting(10_000, "mc", _PATHS + ("counterexample",))
    n_steps: int = _setting(256, "mc", _PATHS + ("counterexample",))
    seed: int = _setting(0, "mc", _PATHS + ("counterexample",),
                         help="64-bit unsigned seed")
    output_dir: str | None = _setting(
        None, "output", _GRID + _ORACLES + ("counterexample",),
        help="artifact directory (default runs/<subcommand>)")

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be a 64-bit unsigned value, "
                              f"got {self.seed}")
        if (self.x_min is None) != (self.x_max is None):
            raise ConfigError("--x-min and --x-max (x_min and x_max in "
                              "[grid]) set the domain together; give both "
                              "or neither")
        if not self.eps_schedule:
            raise ConfigError("the eps schedule needs at least one value")
        if not math.isfinite(self.x):
            raise ConfigError(f"x must be finite, got {self.x}")
        if self.shift is not None and not math.isfinite(self.shift):
            raise ConfigError(f"shift must be finite, got {self.shift}")
        if not math.isfinite(self.tol):
            raise ConfigError(f"tol must be finite, got {self.tol}")

    # -- derived objects ----------------------------------------------------

    def gfunction(self) -> GFunction1D:
        return make_gfunction(self.sigma_low, self.sigma_high)

    def driver(self, name: str | None = None) -> DriverSpec:
        return preset_driver(name or self.preset, self.params)

    def grid(self) -> Grid1D:
        if self.x_min is None or self.x_max is None:
            base = Grid1D.default_for(self.x, self.T, self.gfunction(),
                                      nx=self.nx)
            return base if self.nt is None else base.with_nt(self.nt)
        return Grid1D(self.x_min, self.x_max, self.nx, self.T, nt=self.nt)

    def mc(self) -> dict:
        return dict(n_paths=self.n_paths, n_steps=self.n_steps,
                    seed=self.seed)

    def echo(self, subcommand: str) -> dict:
        out = dataclasses.asdict(self)
        out["subcommand"] = subcommand
        return out


def _settings(subcommand: str) -> dict:
    """The RunConfig fields that ``subcommand`` reads, by name."""
    return {f.name: f for f in dataclasses.fields(RunConfig)
            if subcommand in f.metadata["readers"]}


# per RunConfig field type: the values a config file may give it (a bool
# is never a number), how an error names them, and how a flag parses one
_TYPES = {"float": ((int, float), "a number", float),
          "int": (int, "an integer", int),
          "tuple": (tuple, "a comma-separated list of numbers", _csv_floats),
          "str": (str, "a name", str)}


def _typed(section: str, key: str, value):
    """``value`` checked against the type of the RunConfig field ``key``; a
    number becomes a one-element tuple for a tuple field."""
    # the annotation is its source text here, such as "float | None"
    kind = RunConfig.__dataclass_fields__[key].type.split(" |")[0]
    types, name, _ = _TYPES[kind]
    if kind == "tuple" and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        value = (float(value),)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"[{section}] {key} must be {name}, got {value!r}")
    return value


def _merge_config(path: str | None, flags: argparse.Namespace,
                  subcommand: str) -> RunConfig:
    """Defaults < config file < flags for the settings ``subcommand`` reads;
    any other config key, or a name outside the choices, is refused."""
    settings = _settings(subcommand)
    merged: dict = {}
    if path is not None:
        for section, entries in parse_config(path).items():
            for key, value in entries.items():
                # every [driver] key but preset is a driver parameter
                name = "params" if section == "driver" \
                    and key != "preset" else key
                if name not in settings \
                        or settings[name].metadata["section"] != section:
                    raise ConfigError(f"{subcommand} reads no key '{key}' "
                                      f"in section [{section}]")
                if name == "params":
                    merged.setdefault("params", {})[key] = value
                else:
                    merged[name] = _typed(section, key, value)
    for name in settings:
        value = getattr(flags, name)
        if value is not None:
            merged[name] = {**merged.get("params", {}), **dict(value)} \
                if name == "params" else value
    for name, value in merged.items():
        choices = settings[name].metadata["choices"]
        if choices and value not in choices:
            raise ConfigError(f"unknown {name} '{value}'; choices: "
                              f"{', '.join(choices)}")
    return RunConfig(**merged)


def _check_params(cfg: RunConfig, subcommand: str) -> None:
    """Refuse driver parameters that no preset of the run reads, for
    ``stability`` the second preset included (``counterexample`` reads
    only ``exponent``, itself), and values outside a parameter's domain."""
    keys = {"exponent"} if subcommand == "counterexample" \
        else preset_keys(cfg.preset, cfg.params)
    if subcommand == "stability" and cfg.preset_b is not None:
        keys |= preset_keys(cfg.preset_b, cfg.params)
    unread = sorted(set(cfg.params) - keys)
    if unread:
        raise ConfigError(f"no preset of this run reads the parameter(s) "
                          f"{', '.join(unread)}; it reads "
                          f"{', '.join(sorted(keys)) or 'none'}")
    for key, value in cfg.params.items():
        check_param(key, value)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Built:
    """What a run builds from its settings before it computes, each once
    (``_build``); not a setting, so the summary's echo never holds it."""

    driver: DriverSpec | None
    grid: Grid1D | None  # the configured grid of a grid subcommand


def _build(cfg: RunConfig, subcommand: str) -> _Built:
    """Check the run's driver parameters and counts and build its driver
    and configured grid; a runner builds any coarser level itself.  Every
    other setting is refused by the run itself, before its first sweep,
    lattice step, draw or cylinder table, where a dry run stops
    (``gcore.work``).  Checked here are only the rules of a runner's
    second library call, which its first call's sweep precedes: the path
    run of an estimate and the levels of a convergence report; and a probe
    point x outside the domain, which every read would clamp to an end."""
    settings = _settings(subcommand)
    if "params" in settings:
        _check_params(cfg, subcommand)
    driver = cfg.driver() if "preset" in settings else None
    for name in ("steps", "n_paths", "n_steps"):
        if name in settings:
            _count(name, getattr(cfg, name))
    if subcommand not in _GRID:
        return _Built(driver, None)
    grid = cfg.grid()
    if not grid.x_min <= cfg.x <= grid.x_max:
        raise DomainError(f"the probe point x={cfg.x:g} lies outside the "
                          f"domain [{grid.x_min:g}, {grid.x_max:g}]")
    if subcommand == "sensitivity-t":
        _scenario._start_time(cfg.t, grid.T, positive=True)
    if subcommand in _PATHS:
        _scenario._check_run(cfg.n_paths, cfg.n_steps, cfg.seed, cfg.t,
                             grid.T, cfg.x, walk=True)
    elif subcommand == "convergence":
        _gbsde._report_levels(cfg.eps_schedule)
    return _Built(driver, grid)


def _regularized_G(cfg: RunConfig) -> GFunction1D:
    G = cfg.gfunction()
    if G.degenerate:
        return regularize(G, cfg.eps_schedule[0])
    return G


def _problem(built: _Built, G: GFunction1D) -> PdeProblem:
    """The run's driver on its configured grid under ``G``."""
    return PdeProblem(built.grid, built.driver, G)


def _solve(cfg: RunConfig, built: _Built):
    """(problem, solution) of the configured single-level PDE."""
    problem = _problem(built, _regularized_G(cfg))
    return problem, _pde.solve_terminal_pde(problem)


# ---------------------------------------------------------------------------
# experiment implementations: each returns (values, verdicts, tables, line)
# ---------------------------------------------------------------------------

def _run_gexpect(cfg: RunConfig, built: _Built):
    G = cfg.gfunction()
    value = _gexpect.gexpect_terminal(built.driver, cfg.T, G, nx=cfg.nx)
    values = dict(value=value, payoff=cfg.preset)
    table = (("payoff", "sigma_low", "sigma_high", "T", "value"),
             [(cfg.preset, cfg.sigma_low, cfg.sigma_high, cfg.T, value)])
    return values, {}, {"value": table}, f"value={value:.6f}"


def _run_cylinder(cfg: RunConfig, built: _Built):
    functional = CylinderFunctional(cfg.times, _PSI_CATALOG[cfg.psi],
                                    name=cfg.psi)
    value = _gexpect.gexpect_cylinder(functional, cfg.gfunction(), nx=cfg.nx)
    values = dict(value=value, psi=cfg.psi,
                  times=list(float(t) for t in cfg.times))
    table = (("psi", "times", "value"),
             [(cfg.psi, ";".join(f"{t:g}" for t in cfg.times), value)])
    return values, {}, {"value": table}, f"value={value:.6f}"


def _run_doob(cfg: RunConfig, built: _Built):
    G = cfg.gfunction()
    fractions, psi = _XI_CATALOG[cfg.xi]
    functional = CylinderFunctional(tuple(f * cfg.T for f in fractions), psi,
                                    name=cfg.xi)
    report = _gexpect.doob_check(functional, cfg.p, cfg.p_prime, G,
                                 LatticeSpec.for_horizon(cfg.T, cfg.steps, G))
    values = dict(C=report.C, lhs=report.lhs, rhs=report.rhs,
                  margin=report.margin)
    verdicts = dict(margin_nonnegative=bool(report.margin >= 0.0))
    table = (("p", "p_prime", "C", "lhs", "rhs", "margin"),
             [(report.p, report.p_prime, report.C, report.lhs, report.rhs,
               report.margin)])
    line = (f"C={report.C:.6f} lhs={report.lhs:.6f} rhs={report.rhs:.6f} "
            f"margin={report.margin:.6f}")
    return values, verdicts, {"doob": table}, line


def _run_solve_pde(cfg: RunConfig, built: _Built):
    problem = _problem(built, _regularized_G(cfg))
    # the export is refused before the solve, from the solve's nt
    nt = _pde._time_steps(problem.grid, (problem.G,), problem.driver)[0]
    _pde._charge_export(nt + 1, problem.grid.nx)
    sol = _pde.solve_terminal_pde(problem)
    os.makedirs(cfg.output_dir, exist_ok=True)
    _pde.export_solution_csv(sol, os.path.join(cfg.output_dir,
                                               "solution.csv"))
    u00 = sol.value(0.0, cfg.x)
    form = problem.form.name.lower()
    values = dict(u_at_probe=u00, probe_x=cfg.x, dt=sol.dt, nt=sol.nt,
                  form=form)
    line = f"u(0,{cfg.x:g})={u00:.6f} nt={sol.nt} form={form}"
    return values, {}, {}, line


def _family(cfg: RunConfig, built: _Built, *, curvature: bool = False
            ) -> _gbsde.BsdeSolutionFamily:
    """The configured eps family at t = 0 (no dense fields)."""
    return _gbsde.solve_gbsde(_problem(built, cfg.gfunction()),
                              cfg.eps_schedule, curvature=curvature)


def _run_gbsde(cfg: RunConfig, built: _Built):
    fam = _family(cfg, built)
    u0 = fam.u0_at(cfg.x)
    deltas = fam.deltas
    rows = []
    for i, eps in enumerate(fam.eps_schedule):
        rows.append((eps, fam.u_at(i, cfg.x),
                     deltas[i - 1] if i > 0 else float("nan")))
    decreasing = all(b <= a for a, b in zip(deltas, deltas[1:]))
    values = dict(u0_at_probe=u0, probe_x=cfg.x,
                  eps_schedule=list(fam.eps_schedule), deltas=list(deltas))
    verdicts = dict(deltas_decreasing=bool(decreasing))
    table = (("eps", "u_eps_at_probe", "delta_from_previous"), rows)
    return values, verdicts, {"family": table}, \
        f"u0(0,{cfg.x:g})={u0:.6f} levels={len(fam.eps_schedule)}"


def _run_convergence(cfg: RunConfig, built: _Built):
    fam = _family(cfg, built)
    rep = _gbsde.convergence_report(fam)
    values = dict(rate_exponent=rep.rate_exponent, fitted_C=rep.fitted_C)
    verdicts = dict(no_violation=not rep.any_violation)
    table = (("eps_hi", "eps_lo", "delta", "bound", "ratio"),
             [tuple(r) for r in rep.rows])
    line = (f"rate={rep.rate_exponent:.4f} C={rep.fitted_C:.6f} "
            f"violation={rep.any_violation}")
    return values, verdicts, {"pairs": table}, line


def _run_curvature(cfg: RunConfig, built: _Built):
    fam = _family(cfg, built, curvature=True)
    scan = _gbsde.second_derivative_scan(fam)
    values = dict(min_uxx=list(scan.min_uxx))
    verdicts = dict(bounded=bool(scan.bounded))
    table = (("eps", "min_uxx"), list(zip(scan.eps, scan.min_uxx)))
    return values, verdicts, {"scan": table}, \
        f"min_uxx={['%.4f' % m for m in scan.min_uxx]} bounded={scan.bounded}"


def _sensitivity_common(cfg: RunConfig, built: _Built, kind: str):
    problem, sol = _solve(cfg, built)
    j = int(np.argmin(np.abs(sol.xs - cfg.x)))
    estimate = _scenario.estimate_dx if kind == "x" else _scenario.estimate_dt
    est = estimate(problem.driver, cfg.t, float(sol.xs[j]), problem.G, sol,
                   **cfg.mc())
    n = int(round(cfg.t / sol.dt))
    if kind == "x":
        oracle = float(_pde._ux(sol.u[n], sol.dx)[j])
    else:
        # forward difference; a t within half a level of T rounds to nt
        m = min(n, sol.nt - 1)
        oracle = float((sol.u[m + 1][j] - sol.u[m][j]) / sol.dt)
    mid = 0.5 * (est.plus + est.minus)
    se = max(est.se_plus, est.se_minus)
    budget = 3.0 * se + (2e-2 if kind == "x" else 5e-2)
    matches = abs(mid - oracle) <= budget
    values = dict(plus=est.plus, minus=est.minus, se_plus=est.se_plus,
                  se_minus=est.se_minus, pde_oracle=oracle,
                  abs_error=abs(mid - oracle), budget=budget)
    verdicts = dict(control_accepted=bool(est.any_control_accepted),
                    matches_pde=bool(matches))
    residual = min((c["residual"] for c in est.controls), key=abs) \
        if est.controls else float("nan")
    table = (("t", "x", "dx_plus", "dx_minus", "se_plus", "se_minus",
              "residual_of_control", "n_paths", "seed"),
             [(est.t, est.x, est.plus, est.minus, est.se_plus, est.se_minus,
               residual, cfg.n_paths, cfg.seed)])
    line = (f"d{kind}={mid:+.4f}+-{se:.4f} pde={oracle:+.4f} "
            f"matches={matches}")
    return values, verdicts, {"sensitivity": table}, line


def _run_kink(cfg: RunConfig, built: _Built):
    problem, sol = _solve(cfg, built)
    driver, grid = problem.driver, problem.grid
    est = _scenario.estimate_dx(driver, cfg.t, cfg.x, problem.G, sol,
                                **cfg.mc())
    gap = est.plus - est.minus
    se = est.se_plus + est.se_minus
    probe = np.linspace(grid.x_min, grid.x_max, 7)
    frozen = float(np.max(np.abs(np.asarray(
        driver.sigma(cfg.t, probe), dtype=float)))) < 1e-14
    if frozen:
        closed = abs(gap - 2.0) <= 5e-2
        expected = "gap=2 (frozen flow keeps the kink)"
    else:
        closed = abs(gap) <= 3.0 * se + 2e-2
        expected = "gap=0 (diffusion closes the kink)"
    values = dict(dx_plus=est.plus, dx_minus=est.minus, gap=gap,
                  se_plus=est.se_plus, se_minus=est.se_minus,
                  frozen_flow=frozen)
    verdicts = dict(dichotomy=bool(closed))
    table = (("x", "dx_plus", "dx_minus", "gap", "se_plus", "se_minus"),
             [(cfg.x, est.plus, est.minus, gap, est.se_plus, est.se_minus)])
    line = f"dx+={est.plus:+.4f} dx-={est.minus:+.4f} gap={gap:+.4f}; {expected}"
    return values, verdicts, {"kink": table}, line


def _run_semiconvexity(cfg: RunConfig, built: _Built):
    grids = (_gbsde._coarsen(built.grid, 2, "semiconvexity"), built.grid)
    G = _regularized_G(cfg)
    # the user's grid first, so a pin or budget is refused before any work;
    # its coarsening (a larger CFL bound, fewer nodes) passes what it passes
    fine = _gbsde.semiconvexity_scan(PdeProblem(grids[1], built.driver, G))
    reports = [_gbsde.semiconvexity_scan(PdeProblem(grids[0], built.driver, G)),
               fine]
    rows = [(grid.nx, rep.C, rep.min_second_diff, rep.max_second_diff,
             rep.violations) for grid, rep in zip(grids, reports)]
    c1, c2 = reports[0].C, reports[1].C
    floor = 1e-9
    stable = (max(c1, c2) <= floor) or \
        (max(c1, c2) < 2.0 * max(min(c1, c2), floor))
    values = dict(C_coarse=c1, C_fine=c2, m=reports[0].m)
    verdicts = dict(stable_under_refinement=bool(stable),
                    no_violations=all(r.violations == 0 for r in reports))
    table = (("nx", "C", "min_second_diff", "max_second_diff", "violations"),
             rows)
    return values, verdicts, {"semiconvexity": table}, \
        f"C={c1:.6g} -> {c2:.6g} stable={stable}"


def _run_dp_check(cfg: RunConfig, built: _Built):
    problem = _problem(built, _regularized_G(cfg))
    rep = _gbsde.dynamic_programming_check(problem, cfg.t1, cfg.t2,
                                           x0=cfg.x, steps=cfg.steps)
    values = dict(u_t1=rep.u_t1, lattice_value=rep.lattice_value,
                  residual=rep.residual)
    verdicts = dict(residual_within_tol=bool(rep.residual <= cfg.tol))
    table = (("t1", "t2", "x0", "u_t1", "lattice_value", "residual"),
             [(rep.t1, rep.t2, rep.x0, rep.u_t1, rep.lattice_value,
               rep.residual)])
    return values, verdicts, {"dp": table}, \
        f"u(t1)={rep.u_t1:.6f} lattice={rep.lattice_value:.6f} " \
        f"residual={rep.residual:.2e}"


def _run_counterexample(cfg: RunConfig, built: _Built):
    rep = _gbsde.counterexample_demo(cfg.T, cfg.eps_schedule, **cfg.mc(),
                                     **cfg.params)
    values = dict(slope=rep.slope, slope_target=rep.slope_target,
                  exponent=rep.exponent)
    verdicts = dict(slope_ok=bool(rep.slope_ok), mc_ok=bool(rep.mc_ok))
    table = (("eps", "bound", "estimate", "se", "ratio"),
             [tuple(r) for r in rep.rows])
    slope = "none" if rep.slope is None else f"{rep.slope:.4f}"
    line = f"slope={slope} (target {rep.slope_target:+.1f}) mc_ok={rep.mc_ok}"
    return values, verdicts, {"rows": table}, line


def _run_stability(cfg: RunConfig, built: _Built):
    if cfg.preset_b is None and cfg.shift is None:
        raise ConfigError("stability needs --preset-b or --shift")
    G = _regularized_G(cfg)
    d1, grid = built.driver, built.grid
    if cfg.preset_b is not None:
        d2 = cfg.driver(cfg.preset_b)
    else:
        shift = float(cfg.shift)
        phi1 = d1.phi
        d2 = dataclasses.replace(
            d1, name=f"{d1.name}+{shift:g}",
            phi=lambda xv, _p=phi1, _s=shift: np.asarray(_p(xv)) + _s)
    rep = _gbsde.stability_check(PdeProblem(grid, d1, G),
                                 PdeProblem(grid, d2, G), cfg.p,
                                 lattice_steps=cfg.steps * 8)
    values = dict(constants=[r[4] for r in rep.rows],
                  deltas=[r[1] for r in rep.rows])
    verdicts = dict(stable=bool(rep.stable))
    table = (("nx", "delta", "lhs", "rhs", "constant"),
             [tuple(r) for r in rep.rows])
    return values, verdicts, {"rows": table}, \
        f"constants={['%.4g' % r[4] for r in rep.rows]} stable={rep.stable}"


# name: (runner, help); the CLI lists the subcommands in this order
_SUBCOMMANDS = {
    "gexpect": (_run_gexpect, "worst-case expectation of a terminal payoff"),
    "cylinder": (_run_cylinder,
                 "worst-case expectation of a multi-time functional"),
    "doob": (_run_doob, "maximal-inequality check on the lattice"),
    "solve-pde": (_run_solve_pde,
                  "solve one terminal-value PDE and export the fields"),
    "gbsde": (_run_gbsde, "solve the eps family and extrapolate the limit"),
    "convergence": (_run_convergence,
                    "consecutive-level deltas against the eps bound"),
    "curvature": (_run_curvature,
                  "per-eps minimum of the second space derivative"),
    "sensitivity-x": (lambda cfg, built: _sensitivity_common(cfg, built, "x"),
                      "MC one-sided space derivatives at a probe point"),
    "sensitivity-t": (lambda cfg, built: _sensitivity_common(cfg, built, "t"),
                      "MC time derivative at a probe point"),
    "kink": (_run_kink, "one-sided derivative gap at a payoff kink"),
    "semiconvexity": (_run_semiconvexity,
                      "fitted lower second-difference constant"),
    "dp-check": (_run_dp_check,
                 "lattice re-derivation of u(t1, x0) on [t1, t2]"),
    "counterexample": (_run_counterexample,
                       "singular-weight moment bound and MC estimate"),
    "stability": (_run_stability,
                  "continuity of the value in the terminal data"),
}

SUBCOMMANDS = tuple(_SUBCOMMANDS)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser(subcommand: str | None) -> tuple[_Parser, _Parser | None]:
    """The parser, and that of ``subcommand`` with a flag for each setting
    it reads; no other subcommand's flags are built, as none are parsed."""
    parser = _Parser(prog="gbmlab",
                     description="Worst-case expectation experiments under "
                                 "volatility uncertainty.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, (_, helptext) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=helptext, description=helptext,
                       allow_abbrev=False)
    p = sub.choices.get(subcommand)
    if p is None:
        return parser, None
    p.add_argument("--config", help="plain-text key=value config file")
    for f in _settings(subcommand).values():
        meta = f.metadata
        options = dict(meta["flag_options"])
        kind = f.type.split(" |")[0]  # as in _typed
        if kind in _TYPES:
            options["type"] = _TYPES[kind][2]
        if meta["choices"]:
            options["help"] = (f"{options.get('help', f.name)}: "
                               f"{', '.join(meta['choices'])}")
        flags = meta["flags"] or [f"--{f.name.replace('_', '-')}"]
        p.add_argument(*flags, dest=f.name, **options)
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   help="validate configuration, compute nothing")
    p.add_argument("--assert", dest="assert_verdicts", action="store_true",
                   help="exit 3 when any verdict fails")
    return parser, p


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(argv) -> int:
    # the parser has no option of its own, so a subcommand comes first
    parser, own = _build_parser(argv[0] if argv else None)
    ns, unread = parser.parse_known_args(argv)
    if ns.subcommand is None:
        raise _UsageError(parser.format_usage())
    if unread:
        own.error(f"unrecognized arguments: {' '.join(unread)}")
    cfg = _merge_config(ns.config, ns, ns.subcommand)
    if cfg.output_dir is None:
        cfg.output_dir = os.path.join("runs", ns.subcommand)
    built = _build(cfg, ns.subcommand)
    runner = _SUBCOMMANDS[ns.subcommand][0]
    if ns.dry_run:
        # the run up to its first unit of work, writing nothing
        token = DRY_RUN.set(True)
        try:
            runner(cfg, built)
        except DryRunStop:
            pass
        finally:
            DRY_RUN.reset(token)
        print(f"{ns.subcommand}: dry-run ok")
        return 0
    values, verdicts, tables, line = runner(cfg, built)
    write_report(cfg.output_dir, ns.subcommand, cfg.echo(ns.subcommand),
                 values, verdicts, tables)
    print(f"{ns.subcommand}: {line} [artifacts in {cfg.output_dir}]")
    if ns.assert_verdicts and not all(verdicts.values()):
        failed = [k for k, v in verdicts.items() if not v]
        print(f"{ns.subcommand}: verdict failure: {', '.join(failed)}",
              file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(_main(sys.argv[1:]))


def _main(argv) -> int:
    try:
        return run(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)


if __name__ == "__main__":
    main()
