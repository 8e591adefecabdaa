"""Explicit monotone finite-difference solver for the terminal-value PDE

    d_t u + G(sigma^2 d_xx u + 2 h d_x u + 2 g(t, x, u, sigma d_x u))
          + b d_x u + f(t, x, u) = 0,      u(T, .) = phi,

stepped backward from T to 0.  The scheme is first order, uses central
second differences, a lagged central first difference inside the generator
argument, upwinding for the drift b, and a zero-second-derivative closure at
the two boundary nodes.  Under the CFL bound every update coefficient is
nonnegative, which gives discrete monotonicity, constant preservation and
sublinearity (the properties the cross-checks in tests rely on).

The G-heat equation, the regularized G-BSDE and the Markovian G-FBSDE are
views of this one equation and are stepped by the same code;
``PdeProblem.form`` names the narrowest of them a driver fits, derived from
the terms it sets (``DriverSpec.live``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .gcore import (DomainError, DriverSpec, GFunction1D, Grid1D,
                    NumericalError)


# Largest dense storage (u and a_field, every time level) one solve may
# allocate.  The biggest solve in the test suite and the benchmark (nx=1601
# in ``stability``) needs about 0.36 GiB; a run that asks for more than this
# exits with a NumericalError instead of meeting the OOM killer.
DENSE_BYTES_MAX = 2 * 2 ** 30

# Most node-steps one solve may take, each step charged
# max(rows x nx, STEP_NODES_MIN) nodes.  The biggest charge in the test
# suite and the benchmark (a stage of ``cylinder --psi sum-sq``: 401 rows,
# nt=809, nx=401) is about 1.3e8; a run that asks for more than this exits
# with a NumericalError before its first step.
NODE_STEPS_MAX = 2 ** 31

# Fewest nodes one step is charged.  A step of ``_backward_steps`` costs
# about c0 + c1 * (rows x nx): a least-squares fit of the best-of-3 per-step
# time over rows 1, 4, 16 and nx 51 to 3201 (2-core Intel Xeon VM, numpy
# 2.4, sigma_low = 0, sigma_high = 1, two fits, with the per-sweep ``_Plan``
# and a deferred finiteness check) gave c0 = 10 to 11 us and c1 = 3.5 to
# 3.9 ns for ``quadratic`` and ``smooth-bump`` (c0 / c1 = 2600 to 3200),
# and c0 = 31 to 34 us, c1 = 17.6 to 18.1 ns for ``sine-gz``, which checks
# every step (c0 / c1 = 1700 to 1900).  With a floor F >= c0 / c1 a
# charged node-step costs at most c1 + c0 / F <= 2 c1, whatever the row
# width (about 22 ns for sine-gz at F = 8192, so about 47 s for the whole
# budget), where counting nodes alone lets one 51-node row cost 500 ns per
# node-step (18 min for the budget).
STEP_NODES_MIN = 8192

# Most nodes ``_last_level`` steps at once.  A G-heat step touches u, a and
# the rate, 8 bytes a node each (its deferred finiteness check needs no
# mask): 1.2 MB for a block of 3 * 2^14 nodes, about 56% of the 2 MiB L2
# of a core (2-core Intel Xeon VM), so a block's buffers stay in L2 across
# the step's passes.  Stepping the 401 rows x 401 nodes cylinder stage
# (nt = 809) in blocks of 8, 16, 32, 64, 80, 122, 163 and 201 rows took
# 0.96 to 1.0, 0.71, 0.54 to 0.62, 0.50 to 0.52, 0.48 to 0.50, 0.46 to
# 0.48, 0.47 to 0.48 and 0.52 to 0.53 s (best of 2, two rounds), against
# 0.72 to 0.74 s unblocked; this block holds 122 such rows.
BLOCK_NODES = 3 * 2 ** 14


class PdeForm(enum.Enum):
    GHEAT = "gheat"
    REGULARIZED_BSDE = "regularized_bsde"
    MARKOVIAN_FBSDE = "markovian_fbsde"


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

def _form(driver: DriverSpec) -> PdeForm:
    """The narrowest form ``driver`` fits, read from ``driver.live``:
    ``MARKOVIAN_FBSDE`` if b, h, sigma or f is live, else
    ``REGULARIZED_BSDE`` if g is, else ``GHEAT``."""
    live = driver.live
    if any(nm in live for nm in ("b", "h", "sigma", "f")):
        return PdeForm.MARKOVIAN_FBSDE
    return PdeForm.REGULARIZED_BSDE if "g" in live else PdeForm.GHEAT


@dataclass(frozen=True)
class PdeProblem:
    """A grid, a driver and a generator; the equation form is derived from
    the driver (``form``), not declared."""

    grid: Grid1D
    driver: DriverSpec
    G: GFunction1D

    @property
    def form(self) -> PdeForm:
        """The narrowest form the driver fits, from the terms it sets
        (``DriverSpec.live``): a coefficient set to anything but its
        default counts, even one that returns zeros."""
        return _form(self.driver)


# ---------------------------------------------------------------------------
# CFL bound
# ---------------------------------------------------------------------------

def _driver_bounds(grid: Grid1D, driver: DriverSpec) -> dict:
    """Sampled coefficient bounds used by the CFL denominator."""
    xs = grid.xs
    ts = (0.0, 0.5 * grid.T, grid.T)
    sig_max = b_max = h_max = 0.0
    for t in ts:
        sig_max = max(sig_max, float(np.max(np.abs(driver.sigma(t, xs)))))
        b_max = max(b_max, float(np.max(np.abs(driver.b(t, xs)))))
        h_max = max(h_max, float(np.max(np.abs(driver.h(t, xs)))))
    ys = np.array([-2.0, 0.0, 2.0])
    gz = gy = fy = 0.0
    for t in (0.0, grid.T):
        for y in ys:
            for z in ys:
                yv = np.full_like(xs, y)
                zv = np.full_like(xs, z)
                gz = max(gz, float(np.max(np.abs(driver.g_z(t, xs, yv, zv)))))
                gy = max(gy, float(np.max(np.abs(driver.g_y(t, xs, yv, zv)))))
            fy = max(fy, float(np.max(np.abs(driver.f_y(t, xs,
                                                        np.full_like(xs, y))))))
    return dict(sig_max=sig_max, b_max=b_max, h_max=h_max,
                g_z_lip=gz, g_y_lip=gy, f_y_lip=fy)


def cfl_timestep(grid: Grid1D, G: GFunction1D, driver: DriverSpec,
                 safety: float = 0.9) -> float:
    """Largest stable explicit time step for the monotone scheme.

    The denominator collects every first-order update coefficient:
    diffusion max sigma^2 * sigma_high^2, drift dx*|b|, the dx-scaled
    contributions of h and of the z-slope of g, and the dx^2-scaled
    zero-order Lipschitz rates of g and f.  Raises :class:`DomainError`
    if the bound is not finite and positive.
    """
    return _cfl_bound(grid, G, _driver_bounds(grid, driver), safety)


def _cfl_bound(grid: Grid1D, G: GFunction1D, bb: dict, safety: float) -> float:
    """``cfl_timestep`` from the sampled bounds ``bb`` of the driver."""
    if not (0.0 < safety <= 1.0):
        raise DomainError(f"need 0 < safety <= 1, got {safety}")
    dx = grid.dx
    sh2 = G.sigma_high ** 2
    denom = (bb["sig_max"] ** 2 * sh2
             + dx * bb["b_max"]
             + dx * sh2 * (bb["h_max"] + bb["g_z_lip"] * bb["sig_max"])
             + dx * dx * (sh2 * bb["g_y_lip"] + bb["f_y_lip"]))
    denom = max(denom, dx * dx / grid.T)  # all-zero coefficients: dt <= T
    bound = safety * dx * dx / denom
    if not 0.0 < bound < math.inf:  # NaN: dx * sh2 overflows, times zero
        raise DomainError(f"no finite positive CFL bound for sigma_high="
                          f"{G.sigma_high:g} and dx={dx:g}")
    return bound


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeSolution:
    """Dense backward solution on the grid.

    ``u[n, j]`` approximates u(t_n, x_j) with t_n = n*dt; ``a_field[n, j]``
    is the generator argument sigma^2 d_xx u + 2 h d_x u + 2 g evaluated from
    the same slice.
    """

    u: np.ndarray
    a_field: np.ndarray
    grid: Grid1D
    driver: DriverSpec
    G: GFunction1D
    dx: float
    dt: float

    @property
    def nt(self) -> int:
        return self.u.shape[0] - 1

    @property
    def xs(self) -> np.ndarray:
        return self.grid.xs

    @property
    def ts(self) -> np.ndarray:
        return np.arange(self.u.shape[0]) * self.dt

    def value(self, t: float, x: float) -> float:
        """u at (t, x): nearest time level at or below t, linear in x."""
        n = _time_index(self.ts, t)
        return float(np.interp(x, self.xs, self.u[n]))


@dataclass(frozen=True)
class DerivativeFields:
    ux: np.ndarray
    uxx: np.ndarray
    ut: np.ndarray


@dataclass(frozen=True)
class ControlField:
    """Bang-bang volatility field sigma*(t, x) with its tie mask."""

    sigma_star: np.ndarray
    ambiguous: np.ndarray


def _time_index(ts: np.ndarray, t: float) -> int:
    # the slack absorbs rounding in t; below half a level spacing it cannot
    # move a read onto the next level
    slack = min(1e-12, 0.5 * (ts[1] - ts[0])) if len(ts) > 1 else 1e-12
    n = int(np.searchsorted(ts, t + slack, side="right") - 1)
    return min(max(n, 0), len(ts) - 1)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _time_steps(grid: Grid1D, Gs, driver: DriverSpec, safety: float,
                rows: int | None = None) -> tuple[int, float, float]:
    """(nt, dt, bound): the grid's pinned ``nt`` if it satisfies the CFL
    bound of every generator in ``Gs``, else the fewest steps that do.

    Raises :class:`NumericalError` if the pinned ``nt`` is too small, or if
    stepping ``rows`` rows (one per generator by default) would exceed
    ``NODE_STEPS_MAX`` node-steps, each step charged at least
    ``STEP_NODES_MIN`` nodes.
    """
    bb = _driver_bounds(grid, driver)  # sampled once for every generator
    bound = min(_cfl_bound(grid, G, bb, safety) for G in Gs)
    nt_needed = max(1, math.ceil(grid.T / bound - 1e-12))
    if grid.nt is None:
        nt = nt_needed
    else:
        nt = grid.nt
        if grid.T / nt > bound * (1.0 + 1e-12):
            raise NumericalError(
                f"CFL violation: grid.nt={nt} gives dt={grid.T / nt:.6g} "
                f"above the stable bound {bound:.6g} (needs nt >= {nt_needed})")
    rows = len(Gs) if rows is None else rows
    work = max(rows * grid.nx, STEP_NODES_MIN) * nt
    if work > NODE_STEPS_MAX:
        raise NumericalError(
            f"solve needs {work:.3g} node-steps for nt={nt}, nx={grid.nx}, "
            f"{rows} row(s), each step charged at least {STEP_NODES_MIN} "
            f"nodes; the limit is {NODE_STEPS_MAX:.3g}")
    return nt, grid.T / nt, bound


class _Plan:
    """The explicit step of one sweep over rows ``u[rows, nx]``: the work
    buffers, the stencil's views into them and the constants of the step,
    built once and used by every step.

    ``u`` is copied once and never written.  Only the terms in
    ``driver.live`` are evaluated, and a ``g`` that carries a ``constant``
    (``gcore._const4``) adds ``2 * constant`` without a slope or a call.
    Every live term keeps the operations and the order of the allocating
    step, so every level has its bits; the scaling by sigma_high^2 is
    skipped when it is 1 on every row.
    """

    def __init__(self, driver: DriverSpec, grid: Grid1D, Gs, dt: float,
                 u: np.ndarray):
        self.driver, self.xs, self.dx = driver, grid.xs, grid.dx
        self.sh2 = np.array([[G.sigma_high ** 2] for G in Gs])
        self.sl2 = np.array([[G.sigma_low ** 2] for G in Gs])
        self.u = u = np.array(u, dtype=float, order="C")
        nx = u.shape[-1]
        self.a, self.rate, self.tmp = (np.empty(u.shape) for _ in range(3))
        # the stencil runs along the flattened rows; the values it leaves at
        # the row ends mix two rows and are overwritten by the end views
        flat = u.reshape(-1)
        self.right, self.mid, self.left = flat[2:], flat[1:-1], flat[:-2]
        self.a_inner = self.a.reshape(-1)[1:-1]
        self.a_ends = self.a[..., ::nx - 1]
        self.dx2, self.two_dx = self.dx * self.dx, 2.0 * self.dx
        self.half_dt = 0.5 * dt
        live = driver.live
        self.one = "sigma" not in live
        self.h = "h" in live
        g = live.get("g")
        c = getattr(g, "constant", None)
        self.g, self.two_c = (g, None) if c is None else (None, 2.0 * c)
        if self.h or self.g is not None:
            self.d1 = np.empty(u.shape)
            self.d1_inner = self.d1.reshape(-1)[1:-1]
            self.d1_ends = self.d1[..., ::nx - 1]
            # u[..., (1, nx-1)] and u[..., (0, nx-2)]: the one-sided slopes
            self.u_hi, self.u_lo = u[..., 1::nx - 2], u[..., ::nx - 2][..., :2]
        self.b, self.f = "b" in live, "f" in live
        # whether a step calls a driver callable on u (b, h and sigma take
        # only t and x)
        self.reads_u = self.f or self.g is not None
        if self.b:
            self.slopes = np.empty(u.shape[:-1] + (nx + 1,))
        # without b and f the rate is only ever scaled: 0.5 * rate * dt
        # equals (0.5 * dt) * rate, as halving is exact (unless 0.5 * rate
        # is subnormal, which can move u only where |u| < 1e-290 dt)
        self.fold = not (self.b or self.f)
        # 1.0 * x == x bit for bit (zeros, infinities and NaN included)
        self.scale = bool((self.sh2 != 1.0).any())
        self.lower = _lower_term(driver, self.sh2, self.sl2, u, self.dx, dt)

    def generator_arg(self, t: float) -> np.ndarray:
        """sigma^2 d_xx u + 2 h d_x u + 2 g(t, x, u, sigma d_x u) for each
        row of ``u``, with the lagged central slope d_x u, computed into and
        returned as ``a``."""
        a, a_inner, u, xs, driver = self.a, self.a_inner, self.u, self.xs, \
            self.driver
        # _second_diff, then the zero closure at the row ends
        np.multiply(2.0, self.mid, out=a_inner)
        np.subtract(self.right, a_inner, out=a_inner)
        np.add(a_inner, self.left, out=a_inner)
        np.divide(a_inner, self.dx2, out=a_inner)
        self.a_ends.fill(0.0)
        if not self.one:
            sig = np.asarray(driver.sigma(t, xs), dtype=float)
            np.multiply(sig * sig, a, out=a)
        if self.h or self.g is not None:
            # _ux: central inside, one-sided at the row ends
            d1, inner, ends = self.d1, self.d1_inner, self.d1_ends
            np.subtract(self.right, self.left, out=inner)
            np.divide(inner, self.two_dx, out=inner)
            np.subtract(self.u_hi, self.u_lo, out=ends)
            np.divide(ends, self.dx, out=ends)
            if self.h:
                np.multiply(2.0 * np.asarray(driver.h(t, xs), dtype=float),
                            d1, out=self.tmp)
                np.add(a, self.tmp, out=a)
            if self.g is not None:
                # the rate buffer is free until the step computes the rate
                z = d1 if self.one else np.multiply(sig, d1, out=self.rate)
                np.multiply(2.0, np.asarray(self.g(t, xs, u, z), dtype=float),
                            out=self.tmp)
                np.add(a, self.tmp, out=a)
        if self.two_c is not None:  # a + 2 * full(c), the same bits
            np.add(a, self.two_c, out=a)
        return a

    def upwind(self, b: np.ndarray) -> np.ndarray:
        """One-sided slopes along the drift ``b`` into ``tmp``: forward
        where b > 0, backward elsewhere, the end slopes copied at the ends."""
        s, inner, u = self.slopes, self.slopes[..., 1:-1], self.u
        np.subtract(u[..., 1:], u[..., :-1], out=inner)
        np.divide(inner, self.dx, out=inner)
        s[..., 0] = s[..., 1]
        s[..., -1] = s[..., -2]
        np.copyto(self.tmp, s[..., :-1])
        np.copyto(self.tmp, s[..., 1:], where=b > 0.0)
        return self.tmp


def _lower_term(driver: DriverSpec, sh2: np.ndarray, sl2: np.ndarray,
                u: np.ndarray, dx: float, dt: float) -> bool:
    """Whether the step must compute the sigma_low term sl2 * min(a, 0).

    With every sl2 zero the term is a zero, and dropping it leaves every
    bit unchanged except where a = -inf, which the term turns into NaN.
    For the G-heat driver (no b, f, h, g, unit sigma) a is the second
    difference, |a| <= 4 max|u| / dx^2, and a step with dt sh2 <= dx^2 is
    a convex combination, so max|u| stays at most the terminal max|u| (up
    to rounding, hence the factor 8): while that bound is finite, a is
    finite and the term may go.
    """
    if sl2.any() or _form(driver) is not PdeForm.GHEAT:
        return True
    dx2 = dx * dx
    bound = 8.0 * float(np.max(np.abs(u), initial=0.0))
    return not (dt * float(np.max(sh2)) <= dx2
                and dx2 > 0.0 and math.isfinite(bound / dx2))


def _backward_steps(driver: DriverSpec, grid: Grid1D, Gs, nt: int, dt: float,
                    u: np.ndarray, *, deferred: bool = False):
    """Explicit monotone steps from stacked terminal rows ``u[rows, nx]``.

    Row r is stepped under the generator ``Gs[r]`` (every row under
    ``Gs[0]`` if only one is given); the rows share the driver and the time
    grid.  Yields ``(n, a, u_n)`` for n = nt-1, ..., 0, where ``a`` is the
    generator argument of the known level n+1 and ``u_n`` the new level.
    Raises :class:`NumericalError` at the first level that turns non-finite.

    With ``deferred`` the caller looks at no level before the sweep ends
    and checks the last one instead (``_raise_sweep_error``): then a step
    that calls no driver callable on u (no live f, no g other than a
    ``gcore._const4`` constant) skips the per-step check.  A step that
    does keeps it, so that no f or g is ever called on a non-finite level.

    ``u`` is copied once and never written.  The step computes in the
    buffers of one :class:`_Plan`, so the yielded ``a`` and ``u_n`` are
    valid only until the next step overwrites them: a caller that keeps a
    level copies it.
    """
    plan = _Plan(driver, grid, Gs, dt, u)
    u, rate, tmp = plan.u, plan.rate, plan.tmp
    sh2, sl2, lower, fold = plan.sh2, plan.sl2, plan.lower, plan.fold
    xs, half_dt, step_b, step_f = grid.xs, plan.half_dt, plan.b, plan.f
    scale = plan.scale
    check = plan.reads_u or not deferred
    finite = np.empty(u.shape, dtype=bool) if check else None
    for n in range(nt - 1, -1, -1):
        t_known = (n + 1) * dt
        a = plan.generator_arg(t_known)
        # rate = 0.5 * (sh2 * max(a, 0) - sl2 * max(-a, 0)), with
        # -max(-a, 0) computed as min(a, 0): the same bits, zeros included
        np.maximum(a, 0.0, out=rate)
        if scale:
            np.multiply(sh2, rate, out=rate)
        if lower:
            np.minimum(a, 0.0, out=tmp)
            np.multiply(sl2, tmp, out=tmp)
            np.add(rate, tmp, out=rate)
        if fold:
            np.multiply(half_dt, rate, out=rate)
        else:
            np.multiply(0.5, rate, out=rate)
            if step_b:
                b = np.asarray(driver.b(t_known, xs), dtype=float)
                if np.any(b):
                    np.multiply(b, plan.upwind(b), out=tmp)
                    np.add(rate, tmp, out=rate)
            if step_f:
                np.add(rate,
                       np.asarray(driver.f(t_known, xs, u), dtype=float),
                       out=rate)
            np.multiply(dt, rate, out=rate)
        np.add(u, rate, out=u)
        if check and not np.logical_and.reduce(np.isfinite(u, out=finite),
                                               axis=None):
            j = int(np.argmin(finite.all(axis=0)))
            raise NumericalError(
                f"solution turned non-finite at time level {n} "
                f"(t={n * dt:.6g}), node {j} (x={xs[j]:.6g})")
        yield n, a, u


def _raise_sweep_error(driver: DriverSpec, grid: Grid1D, Gs, nt: int,
                       dt: float, u: np.ndarray):
    """Raise the error of one checked sweep from the rows ``u``, whose
    deferred sweep ended in a non-finite level.

    Each step ends with u + rate on the node's own previous value, so a
    node that turns non-finite stays non-finite at every later level,
    whatever the driver: a finite last level proves every level finite,
    and a non-finite one means the sweep failed.  Stepping ``u`` again
    with the per-step check raises the error of the first level, and at it
    the first node, at which any row fails.
    """
    for _ in _backward_steps(driver, grid, Gs, nt, dt, u):
        pass
    raise NumericalError("solution turned non-finite")


def _last_level(driver: DriverSpec, grid: Grid1D, Gs, nt: int, dt: float,
                u: np.ndarray) -> np.ndarray:
    """u(0, .) of ``_backward_steps`` from the rows ``u[rows, nx]``, as a
    new array, the same bits as the last level of one sweep.

    The rows are independent, so they are stepped through all ``nt`` steps
    in blocks of at most ``BLOCK_NODES`` nodes, whose work buffers stay in
    cache.  The caller has charged the work budget for the whole stack
    (``_time_steps(rows=...)``).  The blocks defer the finiteness check
    (``_backward_steps(deferred=True)``): the stack's last level is
    checked once.  If it is not finite, or a block that checks every step
    fails, the stack is stepped again unblocked with the per-step check,
    which raises the error of one sweep (``_raise_sweep_error``).
    """
    out = np.array(u, dtype=float, order="C")
    per_block = max(1, BLOCK_NODES // grid.nx)
    try:
        for lo in range(0, out.shape[0], per_block):
            block = slice(lo, lo + per_block)
            for _n, _a, level in _backward_steps(
                    driver, grid, Gs if len(Gs) == 1 else Gs[block], nt, dt,
                    out[block], deferred=True):
                pass
            out[block] = level
    except NumericalError:
        _raise_sweep_error(driver, grid, Gs, nt, dt, u)
    if not np.isfinite(out).all():
        _raise_sweep_error(driver, grid, Gs, nt, dt, u)
    return out


def _terminal_data(driver: DriverSpec, xs: np.ndarray) -> np.ndarray:
    """phi on the nodes; :class:`NumericalError` at the first non-finite
    node."""
    phi = np.empty(xs.shape)
    phi[...] = np.asarray(driver.phi(xs), dtype=float)
    if not np.all(np.isfinite(phi)):
        j = int(np.argmin(np.isfinite(phi)))
        raise NumericalError(f"terminal data non-finite at node {j} (x={xs[j]:.6g})")
    return phi


def _solve_levels(grid: Grid1D, driver: DriverSpec, Gs, safety: float
                  ) -> tuple[PdeSolution, ...]:
    """Dense solutions of one driver under each generator in ``Gs``, on one
    shared time grid, as views of one stacked array.

    No level is read before the sweep ends, so the sweep defers its
    finiteness check (``_backward_steps(deferred=True)``) to one check of
    the last level, which proves every level finite; a failed sweep is
    stepped again with the per-step check (``_raise_sweep_error``)."""
    xs, dx = grid.xs, grid.dx
    nt, dt, _ = _time_steps(grid, Gs, driver, safety)
    dense = 2 * 8 * len(Gs) * (nt + 1) * grid.nx
    if dense > DENSE_BYTES_MAX:
        raise NumericalError(
            f"dense solution needs {dense / 2 ** 30:.3g} GiB for nt={nt}, "
            f"nx={grid.nx}, {len(Gs)} row(s); the limit is "
            f"{DENSE_BYTES_MAX / 2 ** 30:.3g} GiB")
    u = np.empty((len(Gs), nt + 1, grid.nx))
    a_field = np.empty_like(u)
    u[:, nt] = _terminal_data(driver, xs)
    for n, a, un in _backward_steps(driver, grid, Gs, nt, dt, u[:, nt],
                                    deferred=True):
        a_field[:, n + 1] = a
        u[:, n] = un
    if not np.isfinite(u[:, 0]).all():
        _raise_sweep_error(driver, grid, Gs, nt, dt, u[:, nt])
    a_field[:, 0] = _Plan(driver, grid, Gs, dt, u[:, 0]).generator_arg(0.0)
    grid = grid.with_nt(nt)
    return tuple(PdeSolution(u=u[i], a_field=a_field[i], grid=grid,
                             driver=driver, G=G, dx=dx, dt=dt)
                 for i, G in enumerate(Gs))


def solve_terminal_pde(problem: PdeProblem, *, safety: float = 0.9) -> PdeSolution:
    """Backward explicit sweep from u(T, .) = phi to u(0, .).

    Raises :class:`NumericalError` if the grid pins an ``nt`` above the CFL
    bound, or if any slice turns non-finite (with the offending node and
    time level in the message).  Unless the driver's f or g reads u, the
    check runs once, on u(0, .), as a non-finite node stays non-finite
    (``_solve_levels``); the message is the per-step check's.
    """
    return _solve_levels(problem.grid, problem.driver, (problem.G,), safety)[0]


# ---------------------------------------------------------------------------
# derivative fields and the extremal control
# ---------------------------------------------------------------------------

def _ux(u: np.ndarray, dx: float) -> np.ndarray:
    """Central d_x along the last axis, one-sided at the two boundaries."""
    ux = np.empty_like(u, order="C")
    # along the flattened rows, as in ``_Plan``: the row ends are
    # overwritten below
    flat, inner = u.reshape(-1), ux.reshape(-1)[1:-1]
    np.subtract(flat[2:], flat[:-2], out=inner)
    np.divide(inner, 2.0 * dx, out=inner)
    ux[..., 0] = (u[..., 1] - u[..., 0]) / dx
    ux[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return ux


def _second_diff(u: np.ndarray, dx: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(u[j+1] - 2 u[j] + u[j-1]) / dx^2 for the interior nodes j along the
    last axis (into ``out`` if given)."""
    out = np.multiply(2.0, u[..., 1:-1], out=out)
    np.subtract(u[..., 2:], out, out=out)
    np.add(out, u[..., :-2], out=out)
    return np.divide(out, dx * dx, out=out)


def _uxx(u: np.ndarray, dx: float) -> np.ndarray:
    """Central d_xx along the last axis; each boundary node takes the value
    of its inner neighbour, the second difference over the first (last)
    three nodes."""
    uxx = np.empty_like(u)
    _second_diff(u, dx, out=uxx[..., 1:-1])
    uxx[..., 0] = uxx[..., 1]
    uxx[..., -1] = uxx[..., -2]
    return uxx


def derivatives(sol: PdeSolution) -> DerivativeFields:
    """Central d_x and d_xx (one-sided at boundaries), forward d_t."""
    u, dx, dt = sol.u, sol.dx, sol.dt
    ut = np.empty_like(u)
    ut[:-1] = (u[1:] - u[:-1]) / dt
    ut[-1] = ut[-2]
    return DerivativeFields(ux=_ux(u, dx), uxx=_uxx(u, dx), ut=ut)


def extremal_control(sol: PdeSolution, G: GFunction1D) -> ControlField:
    """Pointwise maximizing volatility: sigma_high where the generator
    argument is positive, sigma_low where negative, sigma_high (flagged) at
    ties, |a| <= 1e-10 max |a|."""
    a = sol.a_field
    tie_tol = 1e-10 * max(float(np.max(np.abs(a))), 1e-300)
    ambiguous = np.abs(a) <= tie_tol
    # a > tie_tol or a tie: sigma_high; a NaN gets sigma_low either way
    sigma_star = np.where(a >= -tie_tol, G.sigma_high, G.sigma_low)
    return ControlField(sigma_star=sigma_star, ambiguous=ambiguous)


class GridPoints:
    """Where points ``x`` fall on a uniform grid ``xs``, found once by index
    arithmetic and shared by every field row sampled there.

    ``sample(row)`` equals ``np.interp(x, xs, row)`` bit for bit: the slope
    form ``slope[j] * (x - xs[j]) + row[j]`` between nodes, the node value
    at a node, and the end values outside the grid.  ``nearest()`` is the
    nearest node, clipped to the grid.
    """

    def __init__(self, xs: np.ndarray, x):
        x = np.asarray(x, dtype=float)
        self.shape = x.shape
        x = x.ravel()
        last = xs.size - 1
        self.xs = xs
        self.q = (x - xs[0]) / (xs[1] - xs[0])
        # truncation is floor once q >= 0; fmax/fmin also send NaN to 0
        j = np.fmin(np.fmax(self.q, 0.0), last - 1).astype(np.intp)
        # rounding in q can put a point one cell off near a node
        j -= x < xs[j]
        j += x >= xs[j + 1]
        np.clip(j, 0, last - 1, out=j)
        left = xs[j]
        beyond = x >= xs[last]
        self.at = np.flatnonzero((x <= left) | beyond)
        self.node = j[self.at] + beyond[self.at]
        self.j = j
        self.offset = x - left
        self.offset[self.at] = 0.0

    def sample(self, row: np.ndarray) -> np.ndarray:
        slope = (row[1:] - row[:-1]) / (self.xs[1:] - self.xs[:-1])
        out = slope.take(self.j) * self.offset + row.take(self.j)
        out[self.at] = row[self.node]
        return out.reshape(self.shape)[()]

    def nearest(self) -> np.ndarray:
        j = np.clip(np.rint(self.q), 0, self.xs.size - 1).astype(np.int64)
        return j.reshape(self.shape)[()]


class FieldInterpolator:
    """Left-endpoint-in-time, linear-in-x sampler of a solution's fields."""

    def __init__(self, sol: PdeSolution):
        self.sol = sol
        self.ts = sol.ts
        self.xs = sol.xs
        self.ux = _ux(sol.u, sol.dx)

    def level(self, t: float) -> int:
        return _time_index(self.ts, t)

    def u_at(self, t: float, x):
        return GridPoints(self.xs, x).sample(self.sol.u[self.level(t)])

    def z_at(self, t: float, x):
        return GridPoints(self.xs, x).sample(self.ux[self.level(t)])

    def a_at(self, t: float, x):
        return GridPoints(self.xs, x).sample(self.sol.a_field[self.level(t)])


# ---------------------------------------------------------------------------
# regularity moduli
# ---------------------------------------------------------------------------

def fit_space_modulus(sol: PdeSolution) -> float:
    """Smallest C with |u(t,x1)-u(t,x2)| <= C(1+|x1|^m+|x2|^m)|x1-x2|
    (m of the driver) over node pairs separated by one node and by 1/16
    and 1/4 of the domain (comparable across refinements)."""
    m = sol.driver.m
    u, xs = sol.u, sol.xs
    c = 0.0
    for frac in (0.0, 1 / 16, 1 / 4):
        k = min(sol.grid.nx - 1, max(1, round(frac * (sol.grid.nx - 1))))
        num = np.abs(u[:, k:] - u[:, :-k])
        den = (1.0 + np.abs(xs[k:]) ** m + np.abs(xs[:-k]) ** m) \
            * (xs[k:] - xs[:-k])
        c = max(c, float(np.max(num / den)))
    return c


def fit_time_modulus(sol: PdeSolution) -> float:
    """Smallest C with |u(t1,x)-u(t2,x)| <= C(1+|x|^{m+1})sqrt(t2-t1)
    (m of the driver) over level pairs separated by 1/64, 1/16, 1/4 and
    all of T (so the fit is comparable across grid refinements)."""
    m = sol.driver.m
    u, xs = sol.u, sol.xs
    weight = 1.0 + np.abs(xs) ** (m + 1)
    c = 0.0
    for frac in (1 / 64, 1 / 16, 1 / 4, 1.0):
        k = min(sol.nt, max(1, round(frac * sol.nt)))
        num = np.abs(u[k:] - u[:-k])
        c = max(c, float(np.max(num / (weight[None, :] * math.sqrt(k * sol.dt)))))
    return c


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

# A cell is the ASCII text of format(v, ".12e") in a CELL-byte slot, padded
# with zero bytes; the widest text is "-d.dddddddddddde-ddd".  A fast-path
# cell is five little-endian words: "\0", the sign, the lead digit and ".";
# three groups of four digits; "e", the exponent sign and two digits.
CELL = 20
# Solution rows are laid out and written about this many bytes at a time
# (at least one time level).
_BLOCK_BYTES = 2 ** 20
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**k, exact for k <= 22


def _words(*columns) -> np.ndarray:
    """Rows of four byte values as little-endian uint32 words."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8) \
        .view("<u4").ravel()


_LEAD = _words(0, 0, ord("0"), ord("."))[0]
_DIGITS4 = _words(*(np.arange(10_000) // 10 ** k % 10 + ord("0")
                    for k in (3, 2, 1, 0)))                # "0000" .. "9999"
_EXPONENT = _words(ord("e"), np.where(np.arange(-99, 100) < 0, ord("-"),
                                      ord("+")),
                   *(np.abs(np.arange(-99, 100)) // 10 ** k % 10 + ord("0")
                     for k in (1, 0)))                     # "e-99" .. "e+99"


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10**(12 - e) by one multiply or divide by an exact power of ten
    (valid where |12 - e| <= 22)."""
    k = np.clip(12 - e, -22, 22)
    p = _POW10[np.abs(k)]
    m = a / p
    np.multiply(a, p, out=m, where=k >= 0)
    return m


def _e12_cells(v: np.ndarray, out: np.ndarray) -> int:
    """Write the text of ``format(x, ".12e")`` for each x of the 1-D float
    array ``v`` into the rows of the C-contiguous uint8 array
    ``out[len(v), CELL]``, as ASCII padded with zero bytes; returns how many
    cells were formatted by ``format`` itself."""
    a = np.abs(v)
    zero = a == 0.0
    normal = (a >= np.finfo(float).tiny) & (a <= np.finfo(float).max)
    a = np.where(normal, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    with np.errstate(under="ignore"):
        m = _scaled(a, e)
        off = np.flatnonzero((m < 1e12) | (m >= 1e13))
        if off.size:  # log10 can leave e one off next to a power of ten
            e[off] += (m[off] >= 1e13).astype(np.int64) - (m[off] < 1e12)
            m[off] = _scaled(a[off], e[off])
    # With |12 - e| <= 22 the power of ten is exact, so m carries one
    # rounding: |m - a 10**(12-e)| <= ulp(m)/2 <= 2**-10 for m < 2**44.
    # Where m is farther than that from a half-integer, that is where
    # |m - rint(m)| < 1/2 - 2**-10 (the difference is exact), the exact
    # value rounds to the same integer rint(m), as ``format`` rounds it.
    # Rounding to 10**13 would carry into the exponent: m < 10**13 - 1 keeps
    # clear of it.  An exact value just below 10**12 (m within 2**-10 above
    # it) has the text of 10**12 at exponent e, which it is given.
    mant = np.rint(m)
    fast = (normal & (np.abs(12 - e) <= 22) & (m >= 1e12) & (m < 1e13 - 1.0)
            & (np.abs(m - mant) < 0.5 - 2.0 ** -10))
    mant *= fast  # a zero cell reads 0.000000000000e+00, and the other
    e *= fast     # cells off the fast path are overwritten below
    fast |= zero
    hi = mant.astype(np.int64)
    lo = hi % 10 ** 8
    hi //= 10 ** 8
    words = out.view("<u4")
    words[:, 0] = _LEAD + ((hi // 10 ** 4).astype(np.uint32) << 16) \
        + np.signbit(v) * np.uint32(ord("-") << 8)
    words[:, 1] = _DIGITS4.take(hi % 10 ** 4)
    words[:, 2] = _DIGITS4.take(lo // 10 ** 4)
    words[:, 3] = _DIGITS4.take(lo % 10 ** 4)
    words[:, 4] = _EXPONENT.take(e + 99)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [format(x, ".12e") for x in v[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{CELL}").view(np.uint8) \
            .reshape(-1, CELL)
    return int(slow.size)


def export_solution_csv(sol: PdeSolution, path: str,
                        control: ControlField | None = None) -> None:
    """Write the dense solution as CSV rows (t, x, u, ux, uxx, a, sigma_star)
    with 13 significant digits and a mandatory header.

    Every cell reads ``format(v, ".12e")`` (see ``_e12_cells``).  A block of
    time levels is laid out in fixed CELL-byte slots, each followed by its
    separator, and written without the padding; t and x are formatted once.
    """
    if control is None:
        control = extremal_control(sol, sol.G)
    fields = (sol.u, _ux(sol.u, sol.dx), _uxx(sol.u, sol.dx), sol.a_field,
              np.asarray(control.sigma_star, dtype=float))
    nlev, nx = sol.u.shape
    levels = min(nlev, max(1, _BLOCK_BYTES // (7 * (CELL + 1) * nx)))
    buf = np.empty((levels, nx, 7, CELL + 1), dtype=np.uint8)
    buf[..., CELL] = ord(",")
    buf[:, :, -1, CELL] = ord("\n")
    cells = np.empty((levels * nx * len(fields), CELL), dtype=np.uint8)
    t_cells = np.empty((nlev, CELL), dtype=np.uint8)
    _e12_cells(sol.ts, t_cells)
    x_cells = np.empty((nx, CELL), dtype=np.uint8)
    _e12_cells(sol.xs, x_cells)
    with open(path, "wb") as fh:
        fh.write(b"t,x,u,ux,uxx,a,sigma_star\n")
        for n0 in range(0, nlev, levels):
            n1 = min(n0 + levels, nlev)
            block = buf[:n1 - n0]
            block[:, :, 0, :CELL] = t_cells[n0:n1, None]
            block[:, :, 1, :CELL] = x_cells
            v = np.stack([f[n0:n1] for f in fields], axis=-1)
            _e12_cells(v.ravel(), cells[:v.size])
            block[:, :, 2:, :CELL] = cells[:v.size].reshape(v.shape + (CELL,))
            fh.write(block[block != 0])
