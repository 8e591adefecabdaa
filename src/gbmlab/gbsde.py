"""Backward equations under volatility uncertainty via vanishing viscosity.

A degenerate interval [0, sigma_high] is replaced by the elliptic family
[eps, sqrt(sigma_high^2 + eps^2)] over a decreasing eps schedule; each level
is solved with the monotone PDE scheme and the limit ``u0`` at t = 0 is
the first-order Richardson extrapolation of the two finest levels.  The module
also houses the experiment battery: K-path reconstruction, convergence and
curvature scans, semiconvexity and stability checks, a dynamic-programming
consistency test, the singular-weight counterexample demo and empirical
path-space norms.

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

from .gcore import (CylinderFunctional, DomainError, DriverSpec, GFunction1D,
                    Grid1D, NumericalError, _zero3, _zero4, regularize)
from . import pde as _pde
from .pde import PdeForm, PdeProblem, PdeSolution, FieldInterpolator
from . import gexpect as _gexpect
from .gexpect import LatticeSpec
from . import scenario as _scenario
from .scenario import PathBundle, mean_and_se, path_normals


# ---------------------------------------------------------------------------
# problems and solution families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BsdeProblem:
    """Backward problem under a degenerate volatility interval."""

    grid: Grid1D
    driver: DriverSpec
    G: GFunction1D
    form: PdeForm

    def __post_init__(self) -> None:
        if self.form not in (PdeForm.REGULARIZED_BSDE, PdeForm.MARKOVIAN_FBSDE):
            raise DomainError(f"unsupported backward form {self.form}")
        # delegate coefficient-shape validation to the PDE container
        PdeProblem(self.grid, self.driver, self.G, self.form)


@dataclass(frozen=True)
class BsdeSolutionFamily:
    """The eps family at t = 0, plus the dense levels when they were kept.

    ``u[k]`` is u_eps(0, .) of level k, ``u0`` the extrapolated limit at
    t = 0, ``deltas`` the sup gaps between consecutive rows of ``u`` and
    ``min_uxx`` the per-level minimum of d_xx u over the central third of
    the nodes and all time levels (None when streamed without
    ``curvature``).  ``solutions`` holds the dense levels of
    ``solve_gbsde``; it is ``()`` for ``stream_gbsde``.
    """

    problem: BsdeProblem
    eps_schedule: tuple
    nt: int
    u: np.ndarray
    u0: np.ndarray
    deltas: tuple
    min_uxx: tuple | None
    solutions: tuple

    def u_at(self, i: int, x: float) -> float:
        """u of level ``i`` at (0, x), linear in x."""
        return float(np.interp(x, self.problem.grid.xs, self.u[i]))

    def u0_at(self, x: float) -> float:
        """The extrapolated limit at (0, x), linear in x."""
        return float(np.interp(x, self.problem.grid.xs, self.u0))


def _eps_generators(problem: BsdeProblem, eps_schedule) -> tuple:
    """(eps, generators): the schedule, checked, and one regularized
    generator per level."""
    eps = tuple(float(e) for e in eps_schedule)
    if len(eps) < 2:
        raise DomainError("need at least two eps levels")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise DomainError(f"eps schedule must be strictly decreasing: {eps}")
    if not problem.G.degenerate:
        raise DomainError("vanishing-viscosity family needs a degenerate "
                          "generator (sigma_low = 0)")
    return eps, [regularize(problem.G, e) for e in eps]


def _extrapolate(eps: tuple, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """First-order extrapolation to eps = 0 from the two finest levels."""
    e1, e2 = eps[-2], eps[-1]
    return u2 + (u2 - u1) * (e2 / (e1 - e2))


def _new_family(problem: BsdeProblem, eps: tuple, nt: int, u: np.ndarray,
                min_uxx, solutions=()) -> BsdeSolutionFamily:
    """The family from its t = 0 rows ``u``: the limit and the deltas are
    reduced from them here, for both solvers."""
    return BsdeSolutionFamily(
        problem=problem, eps_schedule=eps, nt=nt, u=u,
        u0=_extrapolate(eps, u[-2], u[-1]),
        deltas=tuple(float(np.max(np.abs(a - b))) for a, b in zip(u, u[1:])),
        min_uxx=min_uxx, solutions=solutions)


def _central_uxx(u: np.ndarray, dx: float) -> np.ndarray:
    """d_xx of ``u[..., nx]`` over the central third of the nodes, as
    ``pde.derivatives`` computes it (no boundary node lies there once
    nx >= 3)."""
    nx = u.shape[-1]
    lo = nx // 3
    hi = max(lo + 1, nx - nx // 3)
    return _pde._second_diff(u[..., lo - 1:hi + 1], dx)


def solve_gbsde(problem: BsdeProblem, eps_schedule, *,
                safety: float = 0.9) -> BsdeSolutionFamily:
    """Solve one elliptic level per eps and extrapolate the limit.

    All levels are stepped together on one time grid (the step forced by
    the coarsest, most diffusive level, or the grid's pinned ``nt`` if that
    is stable for every level) so fields can be compared and extrapolated
    node by node.  Requires a degenerate generator and a strictly
    decreasing schedule with at least two levels.

    The family keeps the dense levels in ``solutions``: u and the
    generator argument of every level at every time level, because
    ``reconstruct_K`` and ``FieldInterpolator`` read the fields along
    paths.  A caller that needs only t = 0 and the per-level reductions
    uses ``stream_gbsde``.
    """
    eps, gs = _eps_generators(problem, eps_schedule)
    solutions = _pde._solve_levels(problem.grid, problem.driver, gs,
                                   problem.form, safety)
    min_uxx = tuple(float(_central_uxx(sol.u, sol.dx).min())
                    for sol in solutions)
    return _new_family(problem, eps, solutions[0].nt,
                       np.array([sol.u[0] for sol in solutions]), min_uxx,
                       solutions)


def stream_gbsde(problem: BsdeProblem, eps_schedule, *, safety: float = 0.9,
                 curvature: bool = False) -> BsdeSolutionFamily:
    """The family of ``solve_gbsde`` without its dense levels.

    The levels are stepped on the same time grid, under the same checks
    (schedule, pin-or-CFL rule, node-step budget, finiteness), but only
    the last level is kept, plus, with ``curvature``, a running per-level
    minimum of the central-third d_xx from phi on.  Memory is O(levels x
    nx) instead of O(levels x nt x nx).  Every value equals the dense
    family's bit for bit: the minima and maxima are exact and the
    extrapolation is elementwise.
    """
    eps, gs = _eps_generators(problem, eps_schedule)
    grid, driver = problem.grid, problem.driver
    nt, dt, _ = _pde._time_steps(grid, gs, driver, safety)
    phi = _pde._terminal_data(driver, grid.xs)
    u = np.broadcast_to(phi, (len(gs), grid.nx))
    mins = np.full(len(gs), _central_uxx(phi, grid.dx).min())
    for _n, _a, u in _pde._backward_steps(driver, grid, gs, nt, dt, u):
        if curvature:
            np.minimum(mins, _central_uxx(u, grid.dx).min(axis=-1), out=mins)
    # the step overwrites its level in place, hence the copy
    return _new_family(problem, eps, nt, u.copy(),
                       tuple(mins.tolist()) if curvature else None)


# ---------------------------------------------------------------------------
# K reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KPath:
    """Cumulative defect K along paths: K_0 = 0, non-increasing pathwise."""

    K: np.ndarray
    eps: float

    @property
    def K_T(self) -> np.ndarray:
        return self.K[:, -1]


def reconstruct_K(family: BsdeSolutionFamily, eps_index: int,
                  bundle: PathBundle, x0: float | None = None) -> KPath:
    """Integrate dK = 0.5 a dQV - G_eps(a) dt along the bundle's paths.

    ``x0`` defaults to the bundle's own start state (FEEDBACK bundles carry
    it); the increments read the curvature field of the chosen eps level.
    Raises :class:`NumericalError` where K increases by more than its
    rounding tolerance, and :class:`DomainError` for a streamed family,
    which keeps no fields to read.
    """
    if not family.solutions:
        raise DomainError("K reconstruction needs the dense levels of "
                          "solve_gbsde; the family was streamed")
    sol = family.solutions[eps_index]
    if x0 is None:
        if bundle.x0 is None:
            raise DomainError("bundle carries no start state; pass x0")
        x0 = bundle.x0
    X = _scenario.forward_sde(family.problem.driver, bundle.t0, x0, bundle)
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
    return KPath(K=K, eps=family.eps_schedule[eps_index])


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


def convergence_report(family: BsdeSolutionFamily) -> ConvergenceReport:
    """Consecutive-level sup deltas at t=0 against |e-e'| + e^2 + e'^2.

    A power law C * bound^r is fitted by log-log least squares; a pair is
    flagged when its delta exceeds the fit by more than 20%.
    """
    eps = family.eps_schedule
    if len(eps) < 3:
        raise DomainError("convergence report needs >= 3 eps levels")
    rows = []
    for k, delta in enumerate(family.deltas):
        bound = abs(eps[k] - eps[k + 1]) + eps[k] ** 2 + eps[k + 1] ** 2
        rows.append((eps[k], eps[k + 1], delta, bound, delta / bound))
    deltas = np.array([r[2] for r in rows])
    bounds = np.array([r[3] for r in rows])
    if np.any(deltas <= 0.0):
        rate, logc = 0.0, -np.inf
        fitted_c = 0.0
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
        raise DomainError("family was streamed without the curvature minimum")
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


def semiconvexity_scan(problem, *, safety: float = 0.9) -> SemiconvexityReport:
    """Fit the smallest C with second differences >= -C (1 + |x|^{2m}).

    The probe increment is the grid step itself:
    (u(t, x+2dx) - 2u(t, x+dx) + u(t, x)) / dx^2 anchored at x.  Requires
    the driver to carry second derivatives (phi_xx at minimum).
    """
    driver = problem.driver
    if driver.phi_xx is None:
        raise DomainError("semiconvexity scan needs second derivatives "
                          "(driver.phi_xx missing)")
    sol = _pde.solve_terminal_pde(problem, safety=safety)
    dx = sol.dx
    xs = sol.xs[:-2]
    second = _pde._second_diff(sol.u, dx)
    weight = 1.0 + np.abs(xs) ** (2 * driver.m)
    ratio = second / weight[None, :]
    C = max(0.0, -float(ratio.min()))
    viol = int(np.sum(second < -C * weight[None, :] - 1e-9 * (1.0 + C)))
    return SemiconvexityReport(C=C,
                               min_second_diff=float(second.min()),
                               max_second_diff=float(second.max()),
                               violations=viol, m=driver.m)


# ---------------------------------------------------------------------------
# stability in the data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    p: float
    rows: tuple          # (nx, delta, lhs, rhs, constant)
    stable: bool


def _refine(grid: Grid1D, factor: int) -> Grid1D:
    """``factor`` times finer in x; a pinned ``nt`` grows by ``factor**2``,
    as the explicit step's CFL bound shrinks with dx^2, so the solver
    honours or refuses the pin on every refinement."""
    nt = None if grid.nt is None else grid.nt * factor ** 2
    return Grid1D(grid.x_min, grid.x_max, (grid.nx - 1) * factor + 1, grid.T,
                  nt)


def _streamed(problem: PdeProblem, nt: int, dt: float):
    """The solver's step generator for one problem solved in ``nt`` steps
    of ``dt`` from phi, without dense storage."""
    grid, driver = problem.grid, problem.driver
    phi = _pde._terminal_data(driver, grid.xs)
    return _pde._backward_steps(driver, grid, (problem.G,), nt, dt,
                                phi[None])


def stability_check(problem1, problem2, p: float = 1.0, *,
                    refinements: int = 3, lattice_steps: int = 64,
                    safety: float = 0.9) -> StabilityReport:
    """Continuity of u in the data (phi, f, g).

    Per refinement level: lhs = sup_x |u1 - u2|(0, .)^p against rhs =
    E-hat[|phi1-phi2|^p at x_c + B_T] + (int sup_x |f1-f2| dt)^p +
    (sigma_high^2 int sup_x |g1-g2| dt)^p, the driver differences evaluated
    along the second solution (crude upper Riemann bounds; every catalog
    comparison has f1=f2 and g1=g2 so only the terminal term is active).
    Pass iff the fitted constant lhs/rhs moves by < 2x across levels.
    Needs a finite p >= 1.  Both solves are streamed: only u(0, .) of the
    first and the per-level driver differences of the second are kept.  A
    pair whose drivers differ only in ``name`` and ``phi`` (every other
    field the same object) is stepped as one two-row sweep, each row bit
    for bit the row of its own sweep; any other pair gets two sweeps.
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
    # a driver difference is identically zero when both are the shared zero
    same_f = d1.f is _zero3 and d2.f is _zero3
    same_g = d1.g is _zero4 and d2.g is _zero4
    # a pair that differs only in phi shares every step, and the time steps
    # (which read no phi): both rows go through one sweep
    stacked = all(getattr(d1, fd.name) is getattr(d2, fd.name)
                  for fd in dataclasses.fields(DriverSpec)
                  if fd.name not in ("name", "phi"))
    xc = 0.5 * (g1.x_min + g1.x_max)
    # the time steps of every level, and with them the work budget of
    # every solve, are settled before the first solve
    levels = []
    for level in range(refinements):
        grid = _refine(g1, 2 ** level)
        levels.append((grid, *(_pde._time_steps(grid, (G,), d, safety)[:2]
                               for d in (d1, d2))))
    rows = []
    for grid, (nt1, dt1), (nt, dt) in levels:
        xs, dx = grid.xs, grid.dx
        pr1 = PdeProblem(grid, d1, G, problem1.form)
        pr2 = PdeProblem(grid, d2, G, problem2.form)
        if stacked:
            phi = np.stack([_pde._terminal_data(d, xs) for d in (d1, d2)])
            steps = _pde._backward_steps(d1, grid, (G,), nt, dt, phi)
        else:
            for _n, _a, u1 in _streamed(pr1, nt1, dt1):
                pass  # only u(0, .) is kept
            steps = _streamed(pr2, nt, dt)
        # the differences at t = T would carry weight 0 in the integrals
        fhat = np.zeros(nt)
        ghat = np.zeros(nt)
        for n, _a, u2 in steps:
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
        lhs = delta ** p

        def psi(bt):
            x = xc + np.asarray(bt, dtype=float)
            return np.abs(np.asarray(d1.phi(x), dtype=float)
                          - np.asarray(d2.phi(x), dtype=float)) ** p
        spec = LatticeSpec.for_horizon(grid.T, lattice_steps, G)
        terminal = _gexpect.lattice_oracle(
            CylinderFunctional((grid.T,), psi), G, spec)
        fint = 0.0
        gint = 0.0
        for n in range(nt):
            fint += fhat[n] * dt
            gint += ghat[n] * dt * G.sigma_high ** 2
        rhs = terminal + fint ** p + gint ** p
        constant = lhs / rhs if rhs > 0 else 0.0
        rows.append((grid.nx, delta, lhs, rhs, constant))
    consts = [r[4] for r in rows if r[2] > 1e-14]
    stable = (not consts) or (max(consts) < 2.0 * min(consts))
    return StabilityReport(p=p, rows=tuple(rows), stable=stable)


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
                              steps: int = 64, safety: float = 0.9,
                              sol: PdeSolution | None = None) -> DpCheckReport:
    """Re-derive u(t1, x0) by lattice DP on [t1, t2] with terminal data
    u(t2, .) and per-step rewards f dt + g sigma^2 dt read from the solved
    fields.  Supports b = h = 0, sigma = 1 problems (the state is
    x0 + noise); anything else raises."""
    grid = problem.grid
    if not (0.0 <= t1 <= t2 <= grid.T):
        raise DomainError(f"need 0 <= t1 <= t2 <= T, got ({t1}, {t2})")
    d = problem.driver
    xs_probe = np.linspace(grid.x_min, grid.x_max, 7)
    for t in (t1, t2):
        for nm, fn in (("b", d.b), ("h", d.h)):
            if np.max(np.abs(np.asarray(fn(t, xs_probe), dtype=float))) > 1e-14:
                raise DomainError(f"dp check supports {nm} == 0 only")
        if np.max(np.abs(np.asarray(d.sigma(t, xs_probe), dtype=float)
                         - 1.0)) > 1e-14:
            raise DomainError("dp check supports sigma == 1 only")
    # an empty window needs no lattice; otherwise refuse bad steps unsolved
    spec = (LatticeSpec.for_horizon(t2 - t1, steps, problem.G)
            if t2 > t1 + 1e-15 else None)
    if sol is None:
        sol = _pde.solve_terminal_pde(problem, safety=safety)
    u_t1 = sol.value(t1, x0)
    if spec is None:
        return DpCheckReport(t1=t1, t2=t2, x0=x0, u_t1=u_t1,
                             lattice_value=u_t1, residual=0.0)
    dt = spec.dt
    nodes = x0 + np.arange(-steps, steps + 1) * spec.dx
    inner = nodes[1:-1]
    fields = FieldInterpolator(sol)
    V = fields.u_at(t2, nodes)[None]
    for k in range(steps - 1, -1, -1):
        t = t1 + k * dt
        y = fields.u_at(t, inner)
        z = fields.z_at(t, inner)
        fval = np.asarray(d.f(t, inner, y), dtype=float)
        gval = np.asarray(d.g(t, inner, y, z), dtype=float)
        V = _gexpect._sup_step(V, spec.probs, [(fval + gval * sg * sg) * dt
                                               for sg in spec.sigma_choices])
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
    T: float
    rows: tuple            # (eps, bound, estimate, se, ratio)
    slope: float
    slope_target: float
    slope_ok: bool
    mc_ok: bool


def counterexample_demo(T: float, eps_list, mc: dict | None = None,
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
    the first cell exactly and uses midpoints after.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"need a finite T > 0, got {T}")
    q = -float(exponent)
    if not (0.0 < q < 0.5):
        raise DomainError(f"weight exponent must lie in (-0.5, 0), got {exponent}")
    eps = tuple(float(e) for e in eps_list)
    if not eps or not all(math.isfinite(e) and e > 0 for e in eps):
        raise DomainError(f"eps values must be finite and positive, got {eps}")
    mc = dict(mc or {})
    n_paths = int(mc.get("n_paths", 100_000))
    n_steps = int(mc.get("n_steps", 256))
    _scenario._check_path_counts(n_paths, n_steps)
    seed = int(mc.get("seed", 0))
    dt = T / n_steps
    w = ((np.arange(n_steps) + 0.5) * dt) ** (-q)
    q_det = dt ** (1.0 - q) / (1.0 - q) + float(w[1:].sum()) * dt
    sqdt = math.sqrt(dt)
    rows = []
    chunk = 16_384
    for li, e in enumerate(eps):
        bound = T ** (1.0 - q) * e ** (-2.0 * q) / (1.0 - q)
        level_seed = seed + 1_000_003 * li
        vals = np.empty(n_paths)
        for start in range(0, n_paths, chunk):
            stop = min(start + chunk, n_paths)
            xi = path_normals(level_seed, stop - start, n_steps,
                              path_offset=start)
            vals[start:stop] = (xi * sqdt) @ w
        vals = e ** (1.0 - 2.0 * q) * (vals + q_det / e)
        est, se = mean_and_se(vals)
        rows.append((e, bound, est, se, est / bound))
    slope = float(np.polyfit(np.log(eps), np.log([r[1] for r in rows]), 1)[0]) \
        if len(eps) >= 2 else float("nan")
    slope_target = -2.0 * q
    slope_ok = (len(eps) < 2) or abs(slope - slope_target) <= 0.02
    mc_ok = all(r[4] >= 0.95 for r in rows)
    return CounterexampleReport(exponent=-q, T=T, rows=tuple(rows),
                                slope=slope, slope_target=slope_target,
                                slope_ok=slope_ok, mc_ok=mc_ok)


# ---------------------------------------------------------------------------
# path-space norms
# ---------------------------------------------------------------------------

def path_norms(eta, p: float, bundles) -> dict:
    """Empirical QV-weighted and dt-weighted norms of a per-step process.

    H = max over bundles of E[(sum eta^2 dQV)^{p/2}]^{1/p}; M is the dt
    analogue.  The inner exponent is 2 (the natural Z-space form), so the
    comparison constant between the two is sigma_high itself.
    ``eta`` is an array broadcastable to (n_paths, n_steps).
    """
    if p <= 0:
        raise DomainError(f"need p > 0, got {p}")
    per_bundle = []
    h_norm = 0.0
    m_norm = 0.0
    sigma_high = None
    for bundle in bundles:
        sigma_high = bundle.control.G.sigma_high
        eta2 = np.broadcast_to(np.asarray(eta, dtype=float) ** 2,
                               bundle.dB.shape)
        dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
        h_p = float(np.mean(np.sum(eta2 * dqv, axis=1) ** (p / 2.0)))
        m_p = float(np.mean(np.sum(eta2 * bundle.dt, axis=1) ** (p / 2.0)))
        h = h_p ** (1.0 / p)
        m = m_p ** (1.0 / p)
        per_bundle.append((bundle.control.label, h, m))
        h_norm = max(h_norm, h)
        m_norm = max(m_norm, m)
    consistent = h_norm <= sigma_high * m_norm * (1.0 + 1e-9) + 1e-300
    return dict(h_norm=h_norm, m_norm=m_norm, per_bundle=per_bundle,
                consistent=bool(consistent))


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
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
    per named table; returns the summary path."""
    os.makedirs(output_dir, exist_ok=True)
    summary = dict(experiment=experiment, parameters=_jsonable(parameters),
                   values=_jsonable(values), verdicts=_jsonable(verdicts))
    spath = os.path.join(output_dir, "summary.json")
    with open(spath, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, (header, rows) in (tables or {}).items():
        write_csv(os.path.join(output_dir, f"{name}.csv"), header, rows)
    return spath
