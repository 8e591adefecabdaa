"""Backward equations under volatility uncertainty via vanishing viscosity.

A degenerate interval [0, sigma_high] is replaced by the elliptic family
[eps, sqrt(sigma_high^2 + eps^2)] over a decreasing eps schedule; each level
is solved with the monotone PDE scheme and the limit ``u0`` at t = 0 is
the first-order Richardson extrapolation of the two finest levels.  A family
takes a ``pde.PdeProblem`` whatever form its driver fits (the regularized
G-BSDE and the Markovian G-FBSDE are stepped alike); its one precondition is
a degenerate generator.  The module also houses the experiment battery:
K-path reconstruction, convergence and curvature scans, semiconvexity and
stability checks, a dynamic-programming consistency test and the
singular-weight counterexample demo.

``f`` is restricted to f(t, x, y) throughout: a z-dependent f cannot be
absorbed into the quadratic-variation driver g, and ``counterexample_demo``
shows the quantitative obstruction: the natural pairing of a z-integrand
with the terminal density grows like eps^(-2/5) along a coupled family, so
no dominated bound survives the degenerate limit.  DriverSpec enforces the
three-argument signature at construction.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .gcore import (CylinderFunctional, DomainError, DriverSpec, Grid1D,
                    NumericalError, _count, _real, charge, regularize)
from . import pde as _pde
from .pde import PdeProblem, PdeSolution, FieldInterpolator, GridPoints
from . import gexpect as _gexpect
from .gexpect import LatticeSpec
from . import scenario as _scenario
from .scenario import PathBundle, mean_and_se, path_normals


# ---------------------------------------------------------------------------
# solution families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BsdeSolutionFamily:
    """The eps family at t = 0.

    ``u[k]`` is u_eps(0, .) of level k, ``u0`` the extrapolated limit at
    t = 0, ``deltas`` the sup gaps between consecutive rows of ``u`` and
    ``min_uxx`` the per-level minimum of d_xx u over the central third of
    the nodes and all time levels (None without ``curvature``).
    """

    problem: PdeProblem
    eps_schedule: tuple
    nt: int
    u: np.ndarray
    u0: np.ndarray
    deltas: tuple
    min_uxx: tuple | None

    def u_at(self, i: int, x: float) -> float:
        """u of level ``i`` at (0, x), linear in x."""
        return float(np.interp(x, self.problem.grid.xs, self.u[i]))

    def u0_at(self, x: float) -> float:
        """The extrapolated limit at (0, x), linear in x."""
        return float(np.interp(x, self.problem.grid.xs, self.u0))


def _extrapolate(eps: tuple, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """First-order extrapolation to eps = 0 from the two finest levels."""
    e1, e2 = eps[-2], eps[-1]
    return u2 + (u2 - u1) * (e2 / (e1 - e2))


def _central_uxx(u: np.ndarray, dx: float) -> np.ndarray:
    """d_xx of ``u[..., nx]`` over the central third of the nodes, as
    ``pde.derivatives`` computes it (no boundary node lies there once
    nx >= 3)."""
    nx = u.shape[-1]
    lo = nx // 3
    hi = max(lo + 1, nx - nx // 3)
    return _pde._second_diff(u[..., lo - 1:hi + 1], dx)


def solve_gbsde(problem: PdeProblem, eps_schedule, *,
                curvature: bool = False) -> BsdeSolutionFamily:
    """Solve one elliptic level per eps and extrapolate the limit.

    All levels are stepped together on one time grid (the step forced by
    the coarsest, most diffusive level, or the grid's pinned ``nt`` if that
    is stable for every level) so rows can be compared and extrapolated
    node by node.  Requires a degenerate generator and a strictly
    decreasing schedule with at least two levels.

    Only u(0, .) of each level is kept, plus, with ``curvature``, a
    running per-level minimum of the central-third d_xx from phi on:
    memory is O(levels x nx).  A caller that reads the fields along paths
    (``reconstruct_K``, ``FieldInterpolator``) solves the level it needs
    alone: ``solve_terminal_pde`` on ``grid.with_nt(family.nt)`` under
    ``regularize(G, eps)`` gives that level's dense fields, bit for bit.
    """
    eps = tuple(float(e) for e in eps_schedule)
    if len(eps) < 2:
        raise DomainError("need at least two eps levels")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise DomainError(f"eps schedule must be strictly decreasing: {eps}")
    if not problem.G.degenerate:
        raise DomainError("vanishing-viscosity family needs a degenerate "
                          "generator (sigma_low = 0)")
    gs = [regularize(problem.G, e) for e in eps]
    grid, driver = problem.grid, problem.driver
    nt, dt = _pde._time_steps(grid, gs, driver)
    phi = _pde._terminal_data(driver, grid.xs)
    u = np.broadcast_to(phi, (len(gs), grid.nx))
    if curvature:
        mins = np.full(len(gs), _central_uxx(phi, grid.dx).min())
        for _n, _a, u in _pde._backward_steps(driver, grid, gs, nt, dt, u):
            np.minimum(mins, _central_uxx(u, grid.dx).min(axis=-1), out=mins)
        # the step overwrites its level in place, hence the copy
        u, min_uxx = u.copy(), tuple(mins.tolist())
    else:
        u, min_uxx = _pde._last_level(driver, grid, gs, nt, dt, u), None
    return BsdeSolutionFamily(
        problem=problem, eps_schedule=eps, nt=nt, u=u,
        u0=_extrapolate(eps, u[-2], u[-1]),
        deltas=tuple(float(np.max(np.abs(a - b))) for a, b in zip(u, u[1:])),
        min_uxx=min_uxx)


# ---------------------------------------------------------------------------
# K reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KPath:
    """Cumulative defect K along paths: K_0 = 0, non-increasing pathwise."""

    K: np.ndarray

    @property
    def K_T(self) -> np.ndarray:
        return self.K[:, -1]


def reconstruct_K(sol: PdeSolution, bundle: PathBundle,
                  x0: float | None = None) -> KPath:
    """Integrate dK = 0.5 a dQV - G(a) dt along the bundle's paths.

    ``sol`` is the dense solution whose curvature field the increments
    read, under its own driver and generator (``sol.driver``, ``sol.G``);
    for an eps level, solve it as ``solve_gbsde`` describes.  ``x0``
    defaults to the bundle's own start state (FEEDBACK bundles carry it).
    Raises :class:`NumericalError` where K increases by more than its
    rounding tolerance.
    """
    if x0 is None:
        if bundle.x0 is None:
            raise DomainError("bundle carries no start state; pass x0")
        x0 = bundle.x0
    X = _scenario.forward_sde(sol.driver, bundle.t0, x0, bundle)
    fields = FieldInterpolator(sol)
    dk = _scenario.k_increments(fields, sol.G, bundle, X)
    K = np.zeros((bundle.n_paths, bundle.n_steps + 1))
    np.cumsum(dk, axis=1, out=K[:, 1:])
    tol = 1e-10 * (1.0 + float(np.max(np.abs(K))))
    if np.any(np.diff(K, axis=1) > tol):
        i, k = np.unravel_index(int(np.argmax(np.diff(K, axis=1))),
                                dk.shape)
        raise NumericalError(
            f"K increased by {np.diff(K, axis=1).max():.3g} > tol {tol:.3g} "
            f"on path {i}, step {k}")
    return KPath(K=K)


# ---------------------------------------------------------------------------
# convergence and curvature reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple          # (eps_k, eps_{k+1}, delta, bound, ratio)
    rate_exponent: float
    fitted_C: float
    violations: tuple
    any_violation: bool


def _report_levels(eps: tuple) -> None:
    """DomainError unless ``eps`` has the 3 levels a convergence report
    fits; the family's sweep runs before the report checks it."""
    if len(eps) < 3:
        raise DomainError("convergence report needs >= 3 eps levels")


def convergence_report(family: BsdeSolutionFamily) -> ConvergenceReport:
    """Consecutive-level sup deltas at t=0 against |e-e'| + e^2 + e'^2.

    A power law C * bound^r is fitted by log-log least squares; a pair is
    flagged when its delta exceeds the fit by more than 20%.
    """
    eps = family.eps_schedule
    _report_levels(eps)
    rows = []
    for k, delta in enumerate(family.deltas):
        bound = abs(eps[k] - eps[k + 1]) + eps[k] ** 2 + eps[k + 1] ** 2
        rows.append((eps[k], eps[k + 1], delta, bound, delta / bound))
    deltas = np.array([r[2] for r in rows])
    bounds = np.array([r[3] for r in rows])
    if np.any(deltas <= 0.0):
        rate, fitted_c = 0.0, 0.0
        violations = tuple(False for _ in rows)
    else:
        rate, logc = np.polyfit(np.log(bounds), np.log(deltas), 1)
        fitted_c = float(np.exp(logc))
        violations = tuple(bool(d > 1.2 * fitted_c * b ** rate)
                           for d, b in zip(deltas, bounds))
    return ConvergenceReport(rows=tuple(rows), rate_exponent=float(rate),
                             fitted_C=fitted_c, violations=violations,
                             any_violation=any(violations))


@dataclass(frozen=True)
class CurvatureScan:
    eps: tuple
    min_uxx: tuple
    bounded: bool


def second_derivative_scan(family: BsdeSolutionFamily) -> CurvatureScan:
    """Minimum of d_xx u_eps over the interior grid per level.

    Interior means the central third of the space nodes: the
    zero-second-derivative closure distorts curvature in a diffusive layer
    near each edge (depth a few sigma_high sqrt(T)), and the outer thirds
    serve as that buffer on the default domains.  All time levels count.
    The family passes when max |min| stays within a factor 2 of the
    coarsest level.
    """
    mins = family.min_uxx
    if mins is None:
        raise DomainError("family was solved without the curvature minimum")
    ref = abs(mins[0])
    worst = max(abs(v) for v in mins)
    bounded = worst <= 2.0 * ref + 1e-12
    return CurvatureScan(eps=family.eps_schedule, min_uxx=tuple(mins),
                         bounded=bounded)


@dataclass(frozen=True)
class SemiconvexityReport:
    C: float
    min_second_diff: float
    max_second_diff: float
    violations: int
    m: int


# fl(second / w) >= -C at every node proves ``second < -C*w - 1e-9*(1 + C)``
# false there while C * max(w) * _RATIO_SLACK < 1e-9 * (1 + C).  With unit
# roundoff e = 2^-53: r = fl(second / w) = (second / w)(1 + d), |d| <= e, so
# r >= -C gives second >= -C w / (1 - e) (or second >= 0 where r >= 0, and
# the threshold is negative).  The threshold
# fl(fl(-C*w) - fl(1e-9 * fl(1 + C))) is a negative difference of two
# rounded terms, at most -C w (1 - e)^2 - 1e-9 (1 + C)(1 - e)^4 (the
# double 1e-9 is within e of 1e-9).  So no node counts while
# 1e-9 (1 + C)(1 - e)^5 >= C w (1 - (1 - e)^3) / (1 - e), which holds once
# 1e-9 (1 + C) > 8 e C w, that is C w 2^-50 < 1e-9 (1 + C): the factor 8
# covers 3 e, the rounding of the check itself, and the absolute error
# w 2^-1075 of a subnormal ratio (at most 5e-16 against a margin above
# 6e-10).  An overflowing C w, or an infinite weight, makes the check false
# (so does the NaN ratio inf / inf, which needs an infinite weight).
_RATIO_SLACK = 2.0 ** -50


def semiconvexity_scan(problem) -> SemiconvexityReport:
    """Fit the smallest C with second differences >= -C (1 + |x|^{2m}).

    The probe increment is the grid step itself:
    (u(t, x+2dx) - 2u(t, x+dx) + u(t, x)) / dx^2 anchored at x.  It reads
    the solved levels alone, so any driver will do.

    Each level, from phi at t = T down to t = 0, is folded into running
    extremes as the sweep steps it (memory O(nx)); the sweep checks its
    last level once, as ``pde.solve_terminal_pde`` does.  ``violations``
    counts the nodes below -C w - 1e-9 (1 + C) for the final C: zero by
    construction unless the weights are large enough for rounding to
    matter (``_RATIO_SLACK``), when a second sweep counts them.
    """
    driver = problem.driver
    grid, Gs, dx = problem.grid, (problem.G,), problem.grid.dx
    nt, dt = _pde._time_steps(grid, Gs, driver)
    phi = _pde._terminal_data(driver, grid.xs)[None]
    weight = 1.0 + np.abs(grid.xs[:-2]) ** (2 * driver.m)
    second, ratio = np.empty(grid.nx - 2), np.empty(grid.nx - 2)

    def levels():
        # second differences of phi, then of each level of the sweep
        yield _pde._second_diff(phi[0], dx, out=second)
        for _n, _a, u in _pde._backward_steps(driver, grid, Gs, nt, dt, phi,
                                              deferred=True):
            yield _pde._second_diff(u[0], dx, out=second)

    # np.minimum and np.maximum keep a NaN, as .min() and .max() do
    lo, hi, low_ratio = np.inf, -np.inf, np.inf
    for sd in levels():
        lo, hi = np.minimum(lo, sd.min()), np.maximum(hi, sd.max())
        low_ratio = np.minimum(low_ratio,
                               np.divide(sd, weight, out=ratio).min())
    C = max(0.0, -float(low_ratio))
    viol = 0
    if not C * float(weight.max()) * _RATIO_SLACK < 1e-9 * (1.0 + C):
        limit = -C * weight - 1e-9 * (1.0 + C)
        viol = sum(int(np.count_nonzero(sd < limit)) for sd in levels())
    return SemiconvexityReport(C=C, min_second_diff=float(lo),
                               max_second_diff=float(hi),
                               violations=viol, m=driver.m)


# ---------------------------------------------------------------------------
# stability in the data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    rows: tuple          # (nx, delta, lhs, rhs, constant)
    stable: bool


def _coarsen(grid: Grid1D, factor: int, what: str) -> Grid1D:
    """``factor`` times coarser in x on the same [x_min, x_max] and T, with
    (nx - 1) / factor + 1 nodes.  A pinned ``nt`` is kept: the explicit
    step's CFL bound grows with dx^2, so a pin stable on ``grid`` is stable
    on every coarser grid.  :class:`DomainError` unless ``factor`` divides
    nx - 1 and leaves at least 3 nodes."""
    nx = grid.nx
    if (nx - 1) % factor or nx < 2 * factor + 1:
        lo = max(nx - 1 - (nx - 1) % factor, 2 * factor) + 1
        raise DomainError(f"{what} coarsens nx by {factor}, so nx - 1 must "
                          f"be a multiple of {factor} and nx >= "
                          f"{2 * factor + 1}, got nx={nx} (try nx={lo} or "
                          f"{lo + factor})")
    return Grid1D(grid.x_min, grid.x_max, (nx - 1) // factor + 1, grid.T,
                  grid.nt)


def _power(what: str, base: float, p: float) -> float:
    """``base ** p``, refused with :class:`NumericalError` when ``base`` is
    nonzero and its power is 0 or not finite: the verdict would rest on a
    0 or an infinity, not on the data."""
    with np.errstate(under="ignore", over="ignore"):
        power = float(np.float64(base) ** p)
    if base != 0.0 and not 0.0 < power < math.inf:
        raise NumericalError(f"{what} {base:.3g} to the power p={p:g} is "
                             f"{power}; the stability check needs it finite "
                             f"and nonzero")
    return power


def stability_check(problem1, problem2, p: float = 1.0, *,
                    lattice_steps: int = 64) -> StabilityReport:
    """Continuity of u in the data (phi, f, g).

    Per level: lhs = sup_x |u1 - u2|(0, .)^p against rhs =
    E-hat[|phi1-phi2|^p at x_c + B_T] + (int sup_x |f1-f2| dt)^p +
    (sigma_high^2 int sup_x |g1-g2| dt)^p, the driver differences evaluated
    along the second solution (crude upper Riemann bounds; every catalog
    comparison has f1=f2 and g1=g2 so only the terminal term is active).
    The levels are the problems' grid and its coarsenings by 2 and 4
    (``_coarsen``; nx - 1 must be a multiple of 4), rows coarse to fine,
    each with its own CFL nt or the problems' pinned nt.  Pass iff the
    fitted constant lhs/rhs moves by < 2x across levels.  A level whose
    lhs is at most 1e-14 while another's is above it misses the data and
    is refused with :class:`DomainError`, as the verdict would rest on the
    other levels alone.  Needs a finite p >= 1, and refuses a nonzero
    delta or terminal difference whose p-th power is 0 or not finite.
    Both solves are streamed: only u(0, .) of the first and the per-level
    driver differences of the second are kept.  A pair whose drivers
    differ only in ``name`` and the payoff (``phi``, ``phi_x``,
    ``phi_kinks``, ``L1``, ``m``; every other field the same object) is
    stepped as one two-row sweep, each row bit for bit the row of its own
    sweep; any other pair gets two sweeps.  An f or g that is one function
    in both drivers has a zero difference and is not evaluated.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError(f"stability check needs a finite p >= 1, got {p}")
    g1, g2 = problem1.grid, problem2.grid
    if (g1.x_min, g1.x_max, g1.nx, g1.T) != (g2.x_min, g2.x_max, g2.nx, g2.T):
        raise DomainError("stability check needs both problems on one grid")
    if problem1.G != problem2.G:
        raise DomainError("stability check needs a shared generator")
    G = problem1.G
    d1, d2 = problem1.driver, problem2.driver
    # a driver difference is identically zero when both are one function
    same_f, same_g = d1.f is d2.f, d1.g is d2.g
    # a pair that differs only in its payoff shares every step, and the time
    # steps (which read no payoff field): both rows go through one sweep
    stacked = all(getattr(d1, fd.name) is getattr(d2, fd.name)
                  for fd in dataclasses.fields(DriverSpec)
                  if fd.name not in ("name", "phi", "phi_x", "phi_kinks",
                                     "L1", "m"))
    xc = 0.5 * (g1.x_min + g1.x_max)
    grids = [_coarsen(g1, f, "the stability check") for f in (4, 2, 1)]
    # the time steps of every level, and with them the work budget of
    # every solve, are settled before the first solve; the finest first,
    # so that a pin or a budget it fails is refused on the problems' grid.
    # A stacked pair settles once, for the two rows of its one sweep.
    steps = {grid.nx: [_pde._time_steps(grid, (G,), d2, rows=2)] * 2
             if stacked else [_pde._time_steps(grid, (G,), d)
                              for d in (d1, d2)]
             for grid in reversed(grids)}
    levels = [(grid, *steps[grid.nx]) for grid in grids]

    def diff(bt):
        x = xc + np.asarray(bt, dtype=float)
        return np.abs(np.asarray(d1.phi(x), dtype=float)
                      - np.asarray(d2.phi(x), dtype=float))
    # every level keeps T (``_coarsen``), so one lattice gives the terminal
    # term of every level
    spec = LatticeSpec.for_horizon(g1.T, lattice_steps, G)
    # the largest difference at the lattice's terminal nodes, before the DP
    nodes = np.arange(-spec.steps, spec.steps + 1) * spec.dx
    _power("terminal difference", float(np.max(diff(nodes))), p)
    terminal = _gexpect.lattice_oracle(
        CylinderFunctional((g1.T,), lambda bt: diff(bt) ** p), G, spec)
    rows = []
    for grid, (nt1, dt1), (nt, dt) in levels:
        xs, dx = grid.xs, grid.dx
        # the rows of the second solve: [phi1, phi2] when stacked
        if stacked:
            phi = np.stack([_pde._terminal_data(d, xs) for d in (d1, d2)])
        else:
            u1 = _pde._last_level(d1, grid, (G,), nt1, dt1,
                                  _pde._terminal_data(d1, xs)[None])
            phi = _pde._terminal_data(d2, xs)[None]
        # the differences at t = T would carry weight 0 in the integrals
        fhat = np.zeros(nt)
        ghat = np.zeros(nt)
        if same_f and same_g:
            u2 = _pde._last_level(d2, grid, (G,), nt, dt, phi)
        else:
            for n, _a, u2 in _pde._backward_steps(d2, grid, (G,), nt, dt, phi):
                y = u2[-1]
                if not same_f:
                    fhat[n] = np.max(np.abs(
                        np.asarray(d1.f(n * dt, xs, y), dtype=float)
                        - np.asarray(d2.f(n * dt, xs, y), dtype=float)))
                if not same_g:
                    z = _pde._ux(y, dx)
                    ghat[n] = np.max(np.abs(
                        np.asarray(d1.g(n * dt, xs, y, z), dtype=float)
                        - np.asarray(d2.g(n * dt, xs, y, z), dtype=float)))
        if stacked:
            u1 = u2
        delta = float(np.max(np.abs(u1[0] - u2[-1])))
        lhs = _power("delta", delta, p)
        fint = 0.0
        gint = 0.0
        for n in range(nt):
            fint += fhat[n] * dt
            gint += ghat[n] * dt * G.sigma_high ** 2
        rhs = terminal + fint ** p + gint ** p
        constant = lhs / rhs if rhs > 0 else 0.0
        rows.append((grid.nx, delta, lhs, rhs, constant))
    seen = [r[2] > 1e-14 for r in rows]
    if any(seen) and not all(seen):
        nx = rows[seen.index(False)][0]
        raise DomainError(f"the stability check's level nx={nx} does not "
                          f"see the data difference (lhs <= 1e-14 there, "
                          f"above it on another level); pass a larger --nx")
    consts = [r[4] for r in rows]
    stable = not any(seen) or max(consts) < 2.0 * min(consts)
    return StabilityReport(rows=tuple(rows), stable=stable)


# ---------------------------------------------------------------------------
# dynamic-programming consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DpCheckReport:
    t1: float
    t2: float
    x0: float
    u_t1: float
    lattice_value: float
    residual: float


def dynamic_programming_check(problem, t1: float, t2: float, *, x0: float = 0.0,
                              steps: int = 64) -> DpCheckReport:
    """Re-derive u(t1, x0) by lattice DP on [t1, t2] with terminal data
    u(t2, .) and per-step rewards f dt + g sigma^2 dt read from the solved
    fields.  Supports drivers that leave b, h and sigma at their defaults
    (none in ``DriverSpec.live``; the state is x0 + noise); anything else
    raises :class:`DomainError`.  A lattice over the
    ``gexpect.DP_NODE_STEPS_MAX`` work budget raises
    :class:`NumericalError` before the PDE solve, and then one whose nodes
    x0 +- steps dx leave the grid, where u(t2, .) is not known,
    :class:`DomainError`."""
    _real("t1", t1)
    _real("t2", t2)
    if not (0.0 <= t1 <= t2 <= problem.grid.T):
        raise DomainError(f"need 0 <= t1 <= t2 <= T, got ({t1}, {t2})")
    _real("x0", x0)
    d = problem.driver
    for nm, default in (("b", 0), ("h", 0), ("sigma", 1)):
        if nm in d.live:
            raise DomainError(f"dp check supports {nm} == {default} only")
    # an empty window needs no lattice; otherwise refuse bad steps unsolved
    spec = (LatticeSpec.for_horizon(t2 - t1, steps, problem.G)
            if t2 > t1 + 1e-15 else None)
    if spec is not None:
        steps = spec.steps
        charge("dp lattice", _gexpect._node_steps([steps]),
               _gexpect.DP_NODE_STEPS_MAX, "node-steps", f"steps={steps}, "
               f"each level charged at least {_gexpect.DP_LEVEL_NODES_MIN} "
               f"nodes")
        lo, hi, grid = x0 - steps * spec.dx, x0 + steps * spec.dx, problem.grid
        if lo < grid.x_min or hi > grid.x_max:
            raise DomainError(f"the dp lattice's nodes [{lo:g}, {hi:g}] "
                              f"leave the domain [{grid.x_min:g}, "
                              f"{grid.x_max:g}]; pass fewer --steps or a "
                              f"wider --x-min/--x-max")
    sol = _pde.solve_terminal_pde(problem)
    u_t1 = sol.value(t1, x0)
    if spec is None:
        return DpCheckReport(t1=t1, t2=t2, x0=x0, u_t1=u_t1,
                             lattice_value=u_t1, residual=0.0)
    dt, G = spec.dt, problem.G
    probs = spec.probs(G)
    nodes = x0 + np.arange(-steps, steps + 1) * spec.dx
    inner = nodes[1:-1]
    fields = FieldInterpolator(sol)
    V = fields.u_at(t2, nodes)[None]
    # every level reads u and z at the same inner nodes
    at_inner = GridPoints(sol.xs, inner)
    for k in range(steps - 1, -1, -1):
        t = t1 + k * dt
        n = fields.level(t)
        y = at_inner.sample(sol.u[n])
        z = at_inner.sample(fields.z_row(n))
        fval = np.asarray(d.f(t, inner, y), dtype=float)
        gval = np.asarray(d.g(t, inner, y, z), dtype=float)
        V = _gexpect._sup_step(V, probs, [(fval + gval * sg * sg) * dt
                                          for sg in (G.sigma_low, G.sigma_high)])
    lattice_value = float(V[0, steps])
    return DpCheckReport(t1=t1, t2=t2, x0=x0, u_t1=u_t1,
                         lattice_value=lattice_value,
                         residual=abs(lattice_value - u_t1))


# ---------------------------------------------------------------------------
# singular-weight counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleReport:
    exponent: float
    rows: tuple            # (eps, bound, estimate, se, ratio)
    slope: float | None    # None with one eps: no fit
    slope_target: float
    slope_ok: bool
    mc_ok: bool


def counterexample_demo(T: float, eps_list, *, n_paths: int = 100_000,
                        n_steps: int = 256, seed: int = 0,
                        exponent: float = -0.2) -> CounterexampleReport:
    """Unbounded pairing of a singular quadratic-variation weight with the
    coupled density family.

    For each eps the closed-form value of E[X_T int_0^T (QV_s)^q dB_s]
    along the rank-one coupled pair (eps W, W/eps) is
    T^(1+q) eps^(2q) / (1+q) (q = exponent < 0), which blows up as
    eps -> 0; this is why a z-dependent f is rejected at construction.
    The MC column estimates the same expectation after the exact change of
    measure that absorbs X_T (the density of the shifted Brownian motion),
    simulating dW = dW~ + dt/eps; the singular time quadrature integrates
    the first cell exactly and uses midpoints after.  The eps values are
    distinct, so that two or more of them fit a slope.
    """
    q = -float(exponent)
    if not (0.0 < q < 0.5):
        raise DomainError(f"weight exponent must lie in (-0.5, 0), got {exponent}")
    eps = tuple(float(e) for e in eps_list)
    if not eps or not all(math.isfinite(e) and e > 0 for e in eps):
        raise DomainError(f"eps values must be finite and positive, got {eps}")
    if len(set(eps)) < len(eps):
        raise DomainError(f"eps values must be distinct, got {eps}")
    # charged 16 bytes a path-step, as an estimate is: an over-count, since
    # one block of normals, scaled in place, is all that is held
    block = _scenario._block(_count("n_steps", n_steps))
    n_paths, n_steps, dt = _scenario._check_run(n_paths, n_steps, seed, 0.0,
                                                T, held=block, draws=len(eps))
    w = ((np.arange(n_steps) + 0.5) * dt) ** (-q)
    q_det = dt ** (1.0 - q) / (1.0 - q) + float(w[1:].sum()) * dt
    sqdt = math.sqrt(dt)
    rows = []
    for li, e in enumerate(eps):
        bound = T ** (1.0 - q) * e ** (-2.0 * q) / (1.0 - q)
        level_seed = int(seed) + 1_000_003 * li
        vals = np.empty(n_paths)
        for start in range(0, n_paths, block):
            stop = min(start + block, n_paths)
            xi = path_normals(level_seed, stop - start, n_steps,
                              path_offset=start)
            vals[start:stop] = np.multiply(xi, sqdt, out=xi) @ w
            del xi  # not alive through the next draw
        vals = e ** (1.0 - 2.0 * q) * (vals + q_det / e)
        est, se = mean_and_se(vals)
        rows.append((e, bound, est, se, est / bound))
    slope = float(np.polyfit(np.log(eps), np.log([r[1] for r in rows]), 1)[0]) \
        if len(eps) >= 2 else None
    slope_target = -2.0 * q
    slope_ok = (len(eps) < 2) or abs(slope - slope_target) <= 0.02
    mc_ok = all(r[4] >= 0.95 for r in rows)
    return CounterexampleReport(exponent=-q, rows=tuple(rows),
                                slope=slope, slope_target=slope_target,
                                slope_ok=slope_ok, mc_ok=mc_ok)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _jsonable(obj, key: str):
    """``obj`` in plain JSON types; :class:`NumericalError` for a number
    that is not finite, which standard JSON cannot hold, named by ``key``."""
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, float) and not math.isfinite(obj):
        raise NumericalError(f"{key} is {obj}; summary.json holds finite "
                             f"numbers only")
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{key}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{key}[{i}]") for i, v in enumerate(obj)]
    return obj


def write_csv(path: str, header, rows) -> None:
    """CSV with 13-significant-digit floats and a mandatory header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, bool):
                    cells.append(str(v).lower())
                elif isinstance(v, (int, np.integer)):
                    cells.append(str(int(v)))
                elif isinstance(v, str):
                    cells.append(v)
                else:
                    cells.append(format(float(v), ".12e"))
            fh.write(",".join(cells) + "\n")


def write_report(output_dir: str, experiment: str, parameters: dict,
                 values: dict, verdicts: dict, tables: dict | None = None
                 ) -> str:
    """summary.json {experiment, parameters, values, verdicts} plus one CSV
    per named table; returns the summary path.

    The summary is standard JSON: a value that is not finite raises
    :class:`NumericalError` before any file is written."""
    summary = _jsonable(dict(experiment=experiment, parameters=parameters,
                             values=values, verdicts=verdicts), "summary")
    os.makedirs(output_dir, exist_ok=True)
    spath = os.path.join(output_dir, "summary.json")
    with open(spath, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    for name, (header, rows) in (tables or {}).items():
        write_csv(os.path.join(output_dir, f"{name}.csv"), header, rows)
    return spath
