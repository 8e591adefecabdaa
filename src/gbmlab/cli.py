"""Command-line entry point: every experiment as a subcommand.

Precedence for every setting is defaults < config file < flags; the
effective configuration is echoed into the JSON summary so a run can be
reproduced from its artifacts alone.  Identical argv + config + seed
produce byte-identical artifacts (no timestamps in outputs).

Exit codes: 0 success, 1 domain or config error, 2 numerical failure,
3 verdict failure under --assert.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .gcore import (ConfigError, CylinderFunctional, DomainError, DriverSpec,
                    GFunction1D, Grid1D, NumericalError, PRESET_NAMES,
                    _coerce, make_gfunction, parse_config, preset_driver,
                    preset_keys, regularize)
from . import pde as _pde
from .pde import PdeForm, PdeProblem
from . import gexpect as _gexpect
from .gexpect import LatticeSpec
from . import scenario as _scenario
from . import gbsde as _gbsde
from .gbsde import BsdeProblem, write_report

SUBCOMMANDS = ("gexpect", "cylinder", "doob", "solve-pde", "gbsde",
               "convergence", "curvature", "sensitivity-x", "sensitivity-t",
               "kink", "semiconvexity", "dp-check", "counterexample",
               "stability")

_DEFAULT_EPS = (0.2, 0.1, 0.05, 0.025)


class _UsageError(Exception):
    """Raised for bad argv so main can map it to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Effective settings for one run, merged from defaults, file, flags."""

    sigma_low: float = 0.0
    sigma_high: float = 1.0
    eps_schedule: tuple = _DEFAULT_EPS
    x_min: float | None = None
    x_max: float | None = None
    nx: int = 401
    nt: int | None = None
    T: float = 1.0
    cfl_safety: float = 0.9
    preset: str = "quadratic"
    params: dict = field(default_factory=dict)
    p: float = 2.0
    p_prime: float = 4.0
    steps: int = 8
    t: float = 0.5
    x: float = 0.0
    t1: float = 0.25
    t2: float = 0.75
    tol: float = 2e-2
    times: tuple = (0.5, 1.0)
    psi: str = "sum"
    xi: str = "abs-terminal"
    form: str = "auto"
    preset_b: str | None = None
    shift: float | None = None
    n_paths: int = 10_000
    n_steps: int = 256
    seed: int = 0
    output_dir: str | None = None  # None: runs/<subcommand>

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be a 64-bit unsigned value, "
                              f"got {self.seed}")
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset '{self.preset}'; choices: "
                              f"{', '.join(PRESET_NAMES)}")
        if self.preset_b is not None and self.preset_b not in PRESET_NAMES:
            raise ConfigError(f"unknown preset '{self.preset_b}'")
        if (self.x_min is None) != (self.x_max is None):
            raise ConfigError("--x-min and --x-max (x_min and x_max in "
                              "[grid]) set the domain together; give both "
                              "or neither")
        if not self.eps_schedule:
            raise ConfigError("the eps schedule needs at least one value")

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


_SECTION_KEYS = {
    "generator": ("sigma_low", "sigma_high", "eps_schedule"),
    "grid": ("x_min", "x_max", "nx", "nt", "T", "cfl_safety"),
    "schedule": ("p", "p_prime", "steps", "t", "x", "t1", "t2", "tol",
                 "times", "psi", "xi", "form", "preset_b", "shift"),
    "mc": ("n_paths", "n_steps", "seed"),
    "output": ("output_dir",),
}

# the value types a config file may give a RunConfig field of each type
# (a bool is never a number), and how an error names them
_CONFIG_TYPES = {"float": ((int, float), "a number"),
                 "int": (int, "an integer"),
                 "tuple": (tuple, "a comma-separated list of numbers"),
                 "str": (str, "a name")}


def _typed(section: str, key: str, value):
    """``value`` checked against the type of the RunConfig field ``key``; a
    number becomes a one-element tuple for a tuple field."""
    # the annotation is its source text here, such as "float | None"
    kind = RunConfig.__dataclass_fields__[key].type.split(" |")[0]
    types, name = _CONFIG_TYPES[kind]
    if kind == "tuple" and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        value = (float(value),)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"[{section}] {key} must be {name}, got {value!r}")
    return value


def _merge_config(path: str | None, flags: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if path is not None:
        sections = parse_config(path)
        for section, keys in _SECTION_KEYS.items():
            for key, value in sections.get(section, {}).items():
                if key not in keys:
                    raise ConfigError(
                        f"unknown key '{key}' in section [{section}]")
                merged[key] = _typed(section, key, value)
        driver_sec = dict(sections.get("driver", {}))
        if "preset" in driver_sec:
            merged["preset"] = driver_sec.pop("preset")
        merged["params"] = driver_sec
    for key in RunConfig.__dataclass_fields__:
        val = getattr(flags, key, None)
        if val is not None:
            merged[key] = val
    flag_params = getattr(flags, "param", None) or []
    if flag_params:
        params = dict(merged.get("params", {}))
        for item in flag_params:
            if "=" not in item:
                raise ConfigError(f"--param needs KEY=VALUE, got '{item}'")
            k, v = item.split("=", 1)
            params[k.strip()] = _coerce(v.strip())
        merged["params"] = params
    return RunConfig(**merged)


def _check_params(cfg: RunConfig, subcommand: str) -> None:
    """Refuse driver parameters that neither the preset nor, for
    ``stability``, the second preset reads (``counterexample`` reads
    ``exponent`` itself)."""
    keys = preset_keys(cfg.preset, cfg.params)
    if subcommand == "stability" and cfg.preset_b is not None:
        keys |= preset_keys(cfg.preset_b, cfg.params)
    if subcommand == "counterexample":
        keys.add("exponent")
    unread = sorted(set(cfg.params) - keys)
    if unread:
        raise ConfigError(f"no preset of this run reads the parameter(s) "
                          f"{', '.join(unread)}; it reads "
                          f"{', '.join(sorted(keys)) or 'none'}")


def _csv_floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise _UsageError(f"expected comma-separated floats, got '{text}'") \
            from exc


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _pick_form(grid: Grid1D, driver: DriverSpec, G: GFunction1D,
               requested: str) -> PdeProblem:
    """The problem in the requested form, or in the first form the driver
    fits when ``requested`` is "auto"."""
    names = {"gheat": PdeForm.GHEAT,
             "regularized-bsde": PdeForm.REGULARIZED_BSDE,
             "markovian-fbsde": PdeForm.MARKOVIAN_FBSDE}
    if requested != "auto":
        if requested not in names:
            raise ConfigError(f"unknown form '{requested}'; choices: auto, "
                              f"{', '.join(names)}")
        return PdeProblem(grid, driver, G, names[requested])
    for form in names.values():
        try:
            return PdeProblem(grid, driver, G, form)
        except DomainError:
            continue
    raise DomainError("driver fits no PDE form")


def _regularized_G(cfg: RunConfig) -> GFunction1D:
    G = cfg.gfunction()
    if G.degenerate:
        return regularize(G, cfg.eps_schedule[0])
    return G


def _problem(cfg: RunConfig, G: GFunction1D) -> PdeProblem:
    """The configured driver and grid under ``G``, in the requested form."""
    return _pick_form(cfg.grid(), cfg.driver(), G, cfg.form)


def _solve(cfg: RunConfig):
    """(problem, solution) of the configured single-level PDE."""
    problem = _problem(cfg, _regularized_G(cfg))
    return problem, _pde.solve_terminal_pde(problem, safety=cfg.cfl_safety)


def _prod(*stages):
    out = np.asarray(stages[0])
    for v in stages[1:]:
        out = out * np.asarray(v)
    return out


_PSI_CATALOG = {
    "sum": lambda *s: sum(s),
    "sum-sq": lambda *s: sum(np.asarray(v) ** 2 for v in s),
    "product": _prod,
    "max": lambda *s: np.maximum.reduce([np.asarray(v) for v in s]),
}


def _xi_functional(name: str, T: float) -> CylinderFunctional:
    if name == "abs-terminal":
        return CylinderFunctional((T,), lambda b: np.abs(b),
                                  name="abs-terminal")
    if name == "quadratic-terminal":
        return CylinderFunctional((T,), lambda b: np.asarray(b) ** 2,
                                  name="quadratic-terminal")
    if name == "two-stage":
        return CylinderFunctional(
            (0.5 * T, T), lambda a, b: np.abs(a) + np.abs(b),
            name="two-stage")
    raise ConfigError(f"unknown xi '{name}'; choices: abs-terminal, "
                      f"quadratic-terminal, two-stage")


# ---------------------------------------------------------------------------
# experiment implementations: each returns (values, verdicts, tables, line)
# ---------------------------------------------------------------------------

def _run_gexpect(cfg: RunConfig):
    G = cfg.gfunction()
    driver = cfg.driver()
    value = _gexpect.gexpect_terminal(driver, cfg.T, G, nx=cfg.nx,
                                      safety=cfg.cfl_safety)
    values = dict(value=value, payoff=cfg.preset)
    table = (("payoff", "sigma_low", "sigma_high", "T", "value"),
             [(cfg.preset, cfg.sigma_low, cfg.sigma_high, cfg.T, value)])
    return values, {}, {"value": table}, f"value={value:.6f}"


def _run_cylinder(cfg: RunConfig):
    G = cfg.gfunction()
    if cfg.psi not in _PSI_CATALOG:
        raise ConfigError(f"unknown psi '{cfg.psi}'; choices: "
                          f"{', '.join(_PSI_CATALOG)}")
    X = CylinderFunctional(cfg.times, _PSI_CATALOG[cfg.psi], name=cfg.psi)
    value = _gexpect.gexpect_cylinder(X, G, nx=cfg.nx,
                                      safety=cfg.cfl_safety)
    values = dict(value=value, psi=cfg.psi,
                  times=list(float(t) for t in cfg.times))
    table = (("psi", "times", "value"),
             [(cfg.psi, ";".join(f"{t:g}" for t in cfg.times), value)])
    return values, {}, {"value": table}, f"value={value:.6f}"


def _run_doob(cfg: RunConfig):
    G = cfg.gfunction()
    xi = _xi_functional(cfg.xi, cfg.T)
    spec = LatticeSpec.for_horizon(cfg.T, cfg.steps, G)
    report = _gexpect.doob_check(xi, cfg.p, cfg.p_prime, G, spec)
    values = dict(C=report.C, lhs=report.lhs, rhs=report.rhs,
                  margin=report.margin)
    verdicts = dict(margin_nonnegative=bool(report.margin >= 0.0))
    table = (("p", "p_prime", "C", "lhs", "rhs", "margin"),
             [(report.p, report.p_prime, report.C, report.lhs, report.rhs,
               report.margin)])
    line = (f"C={report.C:.6f} lhs={report.lhs:.6f} rhs={report.rhs:.6f} "
            f"margin={report.margin:.6f}")
    return values, verdicts, {"doob": table}, line


def _run_solve_pde(cfg: RunConfig):
    problem, sol = _solve(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    _pde.export_solution_csv(sol, os.path.join(cfg.output_dir,
                                               "solution.csv"))
    u00 = sol.value(0.0, cfg.x)
    form = problem.form.name.lower()
    values = dict(u_at_probe=u00, probe_x=cfg.x, dt=sol.dt, nt=sol.nt,
                  form=form)
    line = f"u(0,{cfg.x:g})={u00:.6f} nt={sol.nt} form={form}"
    return values, {}, {}, line


def _family(cfg: RunConfig, *, curvature: bool = False
            ) -> _gbsde.FamilyAtStart:
    """The configured eps family at t = 0, streamed (no dense fields)."""
    p = _problem(cfg, cfg.gfunction())
    form = PdeForm.REGULARIZED_BSDE if p.form is PdeForm.GHEAT else p.form
    return _gbsde.stream_gbsde(BsdeProblem(p.grid, p.driver, p.G, form),
                               cfg.eps_schedule, safety=cfg.cfl_safety,
                               curvature=curvature)


def _run_gbsde(cfg: RunConfig):
    fam = _family(cfg)
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


def _run_convergence(cfg: RunConfig):
    fam = _family(cfg)
    rep = _gbsde.convergence_report(fam)
    values = dict(rate_exponent=rep.rate_exponent, fitted_C=rep.fitted_C)
    verdicts = dict(no_violation=not rep.any_violation)
    table = (("eps_hi", "eps_lo", "delta", "bound", "ratio"),
             [tuple(r) for r in rep.rows])
    line = (f"rate={rep.rate_exponent:.4f} C={rep.fitted_C:.6f} "
            f"violation={rep.any_violation}")
    return values, verdicts, {"pairs": table}, line


def _run_curvature(cfg: RunConfig):
    fam = _family(cfg, curvature=True)
    scan = _gbsde.second_derivative_scan(fam)
    values = dict(min_uxx=list(scan.min_uxx))
    verdicts = dict(bounded=bool(scan.bounded))
    table = (("eps", "min_uxx"), list(zip(scan.eps, scan.min_uxx)))
    return values, verdicts, {"scan": table}, \
        f"min_uxx={['%.4f' % m for m in scan.min_uxx]} bounded={scan.bounded}"


def _sensitivity_common(cfg: RunConfig, kind: str):
    if not 0.0 <= cfg.t < cfg.T:
        raise DomainError(f"need 0 <= t < T={cfg.T}, got t={cfg.t}")
    problem, sol = _solve(cfg)
    driver, G = problem.driver, problem.G
    n = int(round(cfg.t / sol.dt))
    j = int(np.argmin(np.abs(sol.xs - cfg.x)))
    if kind == "x":
        est = _scenario.estimate_dx(driver, cfg.t, float(sol.xs[j]), G, sol,
                                    mc=cfg.mc())
        oracle = float(_pde._ux(sol.u[n], sol.dx)[j])
    else:
        est = _scenario.estimate_dt(driver, cfg.t, float(sol.xs[j]), G, sol,
                                    mc=cfg.mc())
        oracle = float((sol.u[min(n + 1, sol.nt)][j] - sol.u[n][j]) / sol.dt)
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


def _run_sensitivity_x(cfg: RunConfig):
    return _sensitivity_common(cfg, "x")


def _run_sensitivity_t(cfg: RunConfig):
    return _sensitivity_common(cfg, "t")


def _run_kink(cfg: RunConfig):
    problem, sol = _solve(cfg)
    driver, grid = problem.driver, problem.grid
    est = _scenario.estimate_dx(driver, cfg.t, cfg.x, problem.G, sol,
                                mc=cfg.mc())
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


def _run_semiconvexity(cfg: RunConfig):
    G = _regularized_G(cfg)
    driver = cfg.driver()
    rows = []
    reports = []
    for factor in (1, 2):
        problem = _pick_form(_gbsde._refine(cfg.grid(), factor), driver, G,
                             cfg.form)
        rep = _gbsde.semiconvexity_scan(problem, safety=cfg.cfl_safety)
        reports.append(rep)
        rows.append((problem.grid.nx, rep.C, rep.min_second_diff,
                     rep.max_second_diff, rep.violations))
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


def _run_dp_check(cfg: RunConfig):
    problem = _problem(cfg, _regularized_G(cfg))
    rep = _gbsde.dynamic_programming_check(problem, cfg.t1, cfg.t2,
                                           x0=cfg.x, steps=max(cfg.steps, 8),
                                           safety=cfg.cfl_safety)
    values = dict(u_t1=rep.u_t1, lattice_value=rep.lattice_value,
                  residual=rep.residual)
    verdicts = dict(residual_within_tol=bool(rep.residual <= cfg.tol))
    table = (("t1", "t2", "x0", "u_t1", "lattice_value", "residual"),
             [(rep.t1, rep.t2, rep.x0, rep.u_t1, rep.lattice_value,
               rep.residual)])
    return values, verdicts, {"dp": table}, \
        f"u(t1)={rep.u_t1:.6f} lattice={rep.lattice_value:.6f} " \
        f"residual={rep.residual:.2e}"


def _run_counterexample(cfg: RunConfig):
    exponent = float(cfg.params.get("exponent", -0.2))
    rep = _gbsde.counterexample_demo(cfg.T, cfg.eps_schedule, mc=cfg.mc(),
                                     exponent=exponent)
    values = dict(slope=rep.slope, slope_target=rep.slope_target,
                  exponent=rep.exponent)
    verdicts = dict(slope_ok=bool(rep.slope_ok), mc_ok=bool(rep.mc_ok))
    table = (("eps", "bound", "estimate", "se", "ratio"),
             [tuple(r) for r in rep.rows])
    line = (f"slope={rep.slope:.4f} (target {rep.slope_target:+.1f}) "
            f"mc_ok={rep.mc_ok}")
    return values, verdicts, {"rows": table}, line


def _run_stability(cfg: RunConfig):
    G = _regularized_G(cfg)
    d1 = cfg.driver()
    grid = cfg.grid()
    if cfg.preset_b is not None:
        d2 = cfg.driver(cfg.preset_b)
    elif cfg.shift is not None:
        shift = float(cfg.shift)
        phi1 = d1.phi
        d2 = dataclasses.replace(
            d1, name=f"{d1.name}+{shift:g}",
            phi=lambda xv, _p=phi1, _s=shift: np.asarray(_p(xv)) + _s)
    else:
        raise ConfigError("stability needs --preset-b or --shift")
    p1 = _pick_form(grid, d1, G, cfg.form)
    p2 = _pick_form(grid, d2, G, cfg.form)
    rep = _gbsde.stability_check(p1, p2, cfg.p, lattice_steps=cfg.steps * 8,
                                 safety=cfg.cfl_safety)
    values = dict(constants=[r[4] for r in rep.rows],
                  deltas=[r[1] for r in rep.rows])
    verdicts = dict(stable=bool(rep.stable))
    table = (("nx", "delta", "lhs", "rhs", "constant"),
             [tuple(r) for r in rep.rows])
    return values, verdicts, {"rows": table}, \
        f"constants={['%.4g' % r[4] for r in rep.rows]} stable={rep.stable}"


_RUNNERS = {
    "gexpect": _run_gexpect,
    "cylinder": _run_cylinder,
    "doob": _run_doob,
    "solve-pde": _run_solve_pde,
    "gbsde": _run_gbsde,
    "convergence": _run_convergence,
    "curvature": _run_curvature,
    "sensitivity-x": _run_sensitivity_x,
    "sensitivity-t": _run_sensitivity_t,
    "kink": _run_kink,
    "semiconvexity": _run_semiconvexity,
    "dp-check": _run_dp_check,
    "counterexample": _run_counterexample,
    "stability": _run_stability,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="gbmlab",
                     description="Worst-case expectation experiments under "
                                 "volatility uncertainty.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    common = _Parser(add_help=False)
    common.add_argument("--config", help="plain-text key=value config file")
    common.add_argument("--output-dir", dest="output_dir",
                        help="artifact directory (default runs/<subcommand>)")
    common.add_argument("--seed", type=int, help="64-bit unsigned seed")
    common.add_argument("--sigma-low", dest="sigma_low", type=float)
    common.add_argument("--sigma-high", dest="sigma_high", type=float)
    common.add_argument("--T", dest="T", type=float, help="horizon")
    common.add_argument("--x-min", dest="x_min", type=float)
    common.add_argument("--x-max", dest="x_max", type=float)
    common.add_argument("--nx", type=int, help="space nodes")
    common.add_argument("--nt", type=int, help="pinned time levels")
    common.add_argument("--cfl-safety", dest="cfl_safety", type=float)
    common.add_argument("--preset", "--payoff", dest="preset",
                        help=f"driver preset ({', '.join(PRESET_NAMES)})")
    common.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="driver parameter, repeatable")
    common.add_argument("--eps", dest="eps_schedule", type=_csv_floats,
                        metavar="E1,E2,...", help="eps schedule")
    common.add_argument("--form", choices=("auto", "gheat",
                                           "regularized-bsde",
                                           "markovian-fbsde"))
    common.add_argument("--n-paths", dest="n_paths", type=int)
    common.add_argument("--n-steps", dest="n_steps", type=int)
    common.add_argument("--dry-run", dest="dry_run", action="store_true",
                        help="validate configuration, compute nothing")
    common.add_argument("--assert", dest="assert_verdicts",
                        action="store_true",
                        help="exit 3 when any verdict fails")

    def add(name, helptext, extra=()):
        p = sub.add_parser(name, parents=[common], help=helptext,
                           description=helptext)
        for args, kwargs in extra:
            p.add_argument(*args, **kwargs)
        return p

    add("gexpect", "worst-case expectation of a terminal payoff")
    add("cylinder", "worst-case expectation of a multi-time functional",
        [(("--times",), dict(type=_csv_floats, metavar="T1,T2,...")),
         (("--psi",), dict(choices=tuple(_PSI_CATALOG)))])
    add("doob", "maximal-inequality check on the lattice",
        [(("--p",), dict(type=float)),
         (("--p-prime",), dict(dest="p_prime", type=float)),
         (("--steps",), dict(type=int)),
         (("--xi",), dict(help="abs-terminal, quadratic-terminal, "
                               "two-stage"))])
    add("solve-pde", "solve one terminal-value PDE and export the fields")
    add("gbsde", "solve the eps family and extrapolate the limit")
    add("convergence", "consecutive-level deltas against the eps bound")
    add("curvature", "per-eps minimum of the second space derivative")
    add("sensitivity-x", "MC one-sided space derivatives at a probe point",
        [(("--t",), dict(type=float)), (("--x",), dict(type=float))])
    add("sensitivity-t", "MC time derivative at a probe point",
        [(("--t",), dict(type=float)), (("--x",), dict(type=float))])
    add("kink", "one-sided derivative gap at a payoff kink",
        [(("--t",), dict(type=float)), (("--x",), dict(type=float))])
    add("semiconvexity", "fitted lower second-difference constant",
        [])
    add("dp-check", "lattice re-derivation of u(t1, x0) on [t1, t2]",
        [(("--t1",), dict(type=float)), (("--t2",), dict(type=float)),
         (("--steps",), dict(type=int)), (("--tol",), dict(type=float)),
         (("--x",), dict(type=float))])
    add("counterexample", "singular-weight moment bound and MC estimate")
    add("stability", "continuity of the value in the terminal data",
        [(("--preset-b",), dict(dest="preset_b")),
         (("--shift",), dict(type=float)),
         (("--p",), dict(type=float)),
         (("--steps",), dict(type=int))])
    return parser


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(argv) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        raise _UsageError(parser.format_usage())
    cfg = _merge_config(ns.config, ns)
    if cfg.output_dir is None:
        cfg.output_dir = os.path.join("runs", ns.subcommand)
    # validate the derived objects before any computation
    _check_params(cfg, ns.subcommand)
    cfg.gfunction()
    if ns.subcommand not in ("counterexample",):
        cfg.driver()
    if ns.dry_run:
        print(f"{ns.subcommand}: dry-run ok (preset={cfg.preset}, "
              f"sigma=[{cfg.sigma_low:g},{cfg.sigma_high:g}], T={cfg.T:g})")
        return 0
    values, verdicts, tables, line = _RUNNERS[ns.subcommand](cfg)
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
