"""Path simulation under volatility controls and Monte Carlo sensitivities.

A *control* picks the per-step volatility inside [sigma_low, sigma_high];
quadratic variation is sigma^2 dt by construction, so every simulated
measure is admissible by design and the only question (answered by
``verify_measure_in_Ptx``) is whether a control is extremal for the value
function it is paired with.

Randomness comes from counter-based Philox streams keyed by
(seed, path index): one Philox generator is re-keyed for each path, so
path i is the same no matter how many paths are drawn or in what chunks,
and estimates are reproducible and extensible.  Means and standard errors
use a deterministic pairwise reduction.

``estimate_dx`` and ``estimate_dt`` draw the normals once per estimate and
walk the paths once per candidate control.  Each step finds every path's
grid position once, reads u, u_x, the generator argument and the feedback
volatility there, advances X, log Gamma, Xhat (and Xbar for the time
derivative) as running per-path vectors, accumulates the estimator
integrand and writes the K increment.  ``simulate_paths``, ``forward_sde``,
``variational_paths`` and ``k_increments`` run the same step helpers over a
whole bundle, one stochastic process per call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .gcore import DomainError, DriverSpec, GFunction1D, NumericalError
from .pde import (FieldInterpolator, GridPoints, PdeSolution, _time_index,
                  extremal_control)


# ---------------------------------------------------------------------------
# PRNG and reductions
# ---------------------------------------------------------------------------

def path_normals(seed: int, n_paths: int, n_steps: int,
                 path_offset: int = 0) -> np.ndarray:
    """Standard normals, one Philox stream per path keyed by (seed, i).

    ``path_offset`` shifts the path indices so a large run can be produced
    in chunks while staying bit-identical to the unchunked run.
    """
    if n_paths < 1 or n_steps < 1:
        raise DomainError("need n_paths >= 1 and n_steps >= 1")
    out = np.empty((n_paths, n_steps))
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bg)
    fresh = bg.state  # counter zero, buffer empty; only the key changes
    key = fresh["state"]["key"]
    for i in range(n_paths):
        key[1] = path_offset + i
        bg.state = fresh
        gen.standard_normal(out=out[i])
    return out


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise (cascade) summation of a 1-D array."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    while v.size > 1:
        if v.size % 2:
            tail = v[-1:]
            v = np.concatenate([v[:-1:2] + v[1:-1:2], tail])
        else:
            v = v[::2] + v[1::2]
    return float(v[0])


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    mean = pairwise_sum(v) / n
    if n < 2:
        return mean, 0.0
    var = pairwise_sum((v - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# volatility controls
# ---------------------------------------------------------------------------

class ControlKind(enum.Enum):
    CONSTANT = "constant"
    PIECEWISE = "piecewise"
    FEEDBACK = "feedback"


@dataclass(frozen=True)
class VolatilityControl:
    """Admissible volatility selection; values stay in [sigma_low, sigma_high]
    of the governing generator."""

    kind: ControlKind
    G: GFunction1D
    label: str
    value: float | None = None
    times: tuple | None = None
    values: tuple | None = None
    field_sigma: np.ndarray | None = None
    field_ts: np.ndarray | None = None
    field_xs: np.ndarray | None = None
    ambiguous_frac: float = 0.0

    @classmethod
    def constant(cls, sigma: float, G: GFunction1D,
                 label: str | None = None) -> "VolatilityControl":
        sigma = float(sigma)
        if not (G.sigma_low <= sigma <= G.sigma_high):
            raise DomainError(f"sigma={sigma} outside "
                              f"[{G.sigma_low}, {G.sigma_high}]")
        return cls(kind=ControlKind.CONSTANT, G=G, value=sigma,
                   label=label or f"const[{sigma:g}]")

    @classmethod
    def piecewise(cls, times, values, G: GFunction1D,
                  label: str | None = None) -> "VolatilityControl":
        times = tuple(float(t) for t in times)
        values = tuple(float(v) for v in values)
        if len(times) != len(values) or not times:
            raise DomainError("need matching nonempty times and values")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if any(not (G.sigma_low <= v <= G.sigma_high) for v in values):
            raise DomainError("piecewise values leave the volatility interval")
        return cls(kind=ControlKind.PIECEWISE, G=G, times=times, values=values,
                   label=label or "piecewise")

    @classmethod
    def feedback(cls, sol: PdeSolution, G: GFunction1D, *,
                 flip_ambiguous: bool = False, tie_tol: float | None = None,
                 label: str | None = None) -> "VolatilityControl":
        cf = extremal_control(sol, G, tie_tol)
        sigma = cf.sigma_star.copy()
        if flip_ambiguous:
            sigma[cf.ambiguous] = G.sigma_low
        return cls(kind=ControlKind.FEEDBACK, G=G, field_sigma=sigma,
                   field_ts=sol.ts, field_xs=sol.xs,
                   ambiguous_frac=float(cf.ambiguous.mean()),
                   label=label or ("feedback-flip" if flip_ambiguous
                                   else "feedback"))

    def sigma_at(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is ControlKind.CONSTANT:
            return np.full_like(x, self.value)
        if self.kind is ControlKind.PIECEWISE:
            i = int(np.searchsorted(self.times, t + 1e-12, side="right") - 1)
            return np.full_like(x, self.values[max(i, 0)])
        n = _time_index(self.field_ts, t)
        return self.field_sigma[n, GridPoints(self.field_xs, x).nearest()]


# ---------------------------------------------------------------------------
# one step along the paths
# ---------------------------------------------------------------------------

def _step_size(t0: float, T: float, n_steps: int) -> float:
    horizon = T - t0
    if horizon <= 0:
        raise DomainError(f"need t0 < T, got t0={t0}, T={T}")
    if n_steps < 1:
        raise DomainError(f"need n_steps >= 1, got {n_steps}")
    return horizon / n_steps


def _forward_step(driver: DriverSpec, t: float, x: np.ndarray, dt: float,
                  dq, db) -> np.ndarray:
    """Euler step dX = b dt + h dQV + sigma dB."""
    return (x + np.asarray(driver.b(t, x), dtype=float) * dt
            + np.asarray(driver.h(t, x), dtype=float) * dq
            + np.asarray(driver.sigma(t, x), dtype=float) * db)


def _check_forward(X: np.ndarray) -> None:
    """Raise on the first path (row of ``X``, or entry of a state vector)
    that is not finite."""
    finite = np.isfinite(X)
    if not finite.all():
        i = int(np.argmin(finite.reshape(len(X), -1).all(axis=1)))
        raise NumericalError(f"forward state turned non-finite on path {i}")


def _opt(fn, *args):
    return 0.0 if fn is None else np.asarray(fn(*args), dtype=float)


class _Variations:
    """Running per-path first-order variation processes.

    Gamma uses the log-Euler form exp(sum f_y dt + (g_y - g_z^2/2) dQV +
    g_z dB), so positivity is exact; Xhat is the flow derivative
    (Xhat_t = 1); Xbar, the time-variation process (Xbar_t = 0), is kept
    only when the horizon end ``t_end`` is given.  ``finite`` records
    whether every value so far was finite.
    """

    def __init__(self, n_paths: int, t0: float, t_end: float | None):
        self.logG = np.zeros(n_paths)
        self.Gamma = np.ones(n_paths)
        self.Xhat = np.ones(n_paths)
        self.Xbar = None if t_end is None else np.zeros(n_paths)
        self.t_end = t_end
        self.horizon = None if t_end is None else t_end - t0
        self.finite = True

    def step(self, driver: DriverSpec, t: float, x, y, z, dt: float,
             dq, db) -> None:
        fy = np.asarray(driver.f_y(t, x, y), dtype=float)
        gy = np.asarray(driver.g_y(t, x, y, z), dtype=float)
        gz = np.asarray(driver.g_z(t, x, y, z), dtype=float)
        self.logG = self.logG + fy * dt + (gy - 0.5 * gz * gz) * dq + gz * db
        self.Gamma = np.exp(self.logG)
        bx = np.asarray(driver.b_x(t, x), dtype=float)
        hx = np.asarray(driver.h_x(t, x), dtype=float)
        sx = np.asarray(driver.sigma_x(t, x), dtype=float)
        if self.Xbar is not None:
            horizon, xb = self.horizon, self.Xbar
            tau = (self.t_end - t) / horizon
            bv = np.asarray(driver.b(t, x), dtype=float)
            hv = np.asarray(driver.h(t, x), dtype=float)
            sv = np.asarray(driver.sigma(t, x), dtype=float)
            self.Xbar = xb \
                + (bx * xb + tau * _opt(driver.b_t, t, x)
                   - bv / horizon) * dt \
                + (hx * xb + tau * _opt(driver.h_t, t, x)
                   - hv / horizon) * dq \
                + (sx * xb + tau * _opt(driver.sigma_t, t, x)
                   - sv / (2.0 * horizon)) * db
            self.finite = self.finite and bool(np.isfinite(self.Xbar).all())
        self.Xhat = self.Xhat * (1.0 + bx * dt + hx * dq + sx * db)
        self.finite = (self.finite and bool(np.isfinite(self.Gamma).all())
                       and bool(np.isfinite(self.Xhat).all()))


def _k_step(G: GFunction1D, a, dq, dt: float):
    """Increment 0.5 a dQV - G(a) dt of the martingale-defect process K."""
    return 0.5 * a * dq - G.eval(a) * dt


# ---------------------------------------------------------------------------
# path bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathBundle:
    """Increments of the driving noise under one control.

    ``dB[i, k]`` = sigma_k sqrt(dt) xi_{i,k}; quadratic variation increments
    are sigma^2 dt exactly by construction.  ``x_paths`` is populated when
    the control is FEEDBACK (state and noise are simulated jointly).
    """

    t0: float
    t_end: float
    n_paths: int
    n_steps: int
    dt: float
    dB: np.ndarray
    sigma: np.ndarray
    seed: int
    control: VolatilityControl
    x_paths: np.ndarray | None = None
    x0: float | None = None

    @property
    def dQV(self) -> np.ndarray:
        return self.sigma ** 2 * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.dt

    @property
    def B(self) -> np.ndarray:
        out = np.zeros((self.n_paths, self.n_steps + 1))
        np.cumsum(self.dB, axis=1, out=out[:, 1:])
        return out

    @property
    def QV(self) -> np.ndarray:
        dqv = np.broadcast_to(self.dQV, self.dB.shape)
        out = np.zeros((self.n_paths, self.n_steps + 1))
        np.cumsum(dqv, axis=1, out=out[:, 1:])
        return out


def simulate_paths(control: VolatilityControl, n_paths: int, n_steps: int,
                   T: float, seed: int, *, driver: DriverSpec | None = None,
                   t0: float = 0.0, x0: float = 0.0) -> PathBundle:
    """Simulate noise increments over [t0, T] under the control.

    FEEDBACK controls are evaluated at the current simulated state, so the
    forward state is advanced jointly (requires ``driver``) and stored on the
    bundle.
    """
    dt = _step_size(t0, T, n_steps)
    xi = path_normals(seed, n_paths, n_steps)
    sqdt = math.sqrt(dt)

    if control.kind is not ControlKind.FEEDBACK:
        tgrid = t0 + dt * np.arange(n_steps)
        sig = np.array([control.sigma_at(t, np.zeros(1))[0] for t in tgrid])
        dB = sig[None, :] * sqdt * xi
        return PathBundle(t0=t0, t_end=T, n_paths=n_paths, n_steps=n_steps,
                          dt=dt, dB=dB, sigma=sig, seed=int(seed),
                          control=control)

    if driver is None:
        raise DomainError("FEEDBACK controls need the forward driver")
    sig = np.empty((n_paths, n_steps))
    dB = np.empty((n_paths, n_steps))
    X = np.empty((n_paths, n_steps + 1))
    X[:, 0] = x0
    for k in range(n_steps):
        t = t0 + k * dt
        xk = X[:, k]
        s = control.sigma_at(t, xk)
        sig[:, k] = s
        dB[:, k] = s * sqdt * xi[:, k]
        X[:, k + 1] = _forward_step(driver, t, xk, dt, s * s * dt, dB[:, k])
    _check_forward(X)
    return PathBundle(t0=t0, t_end=T, n_paths=n_paths, n_steps=n_steps,
                      dt=dt, dB=dB, sigma=sig, seed=int(seed),
                      control=control, x_paths=X, x0=float(x0))


def forward_sde(driver: DriverSpec, t: float, x: float,
                bundle: PathBundle) -> np.ndarray:
    """Euler state paths dX = b dt + h dQV + sigma dB from X_t = x."""
    if abs(bundle.t0 - t) > 1e-12 * max(1.0, abs(t)):
        raise DomainError(f"bundle starts at {bundle.t0}, not {t}")
    if bundle.x_paths is not None and bundle.x0 == float(x):
        return bundle.x_paths
    n_paths, n_steps = bundle.n_paths, bundle.n_steps
    dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
    X = np.empty((n_paths, n_steps + 1))
    X[:, 0] = x
    dt = bundle.dt
    for k in range(n_steps):
        X[:, k + 1] = _forward_step(driver, bundle.t0 + k * dt, X[:, k], dt,
                                    dqv[:, k], bundle.dB[:, k])
    _check_forward(X)
    return X


# ---------------------------------------------------------------------------
# variational processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationalPaths:
    """Adjoint weight Gamma (> 0 by the exponential form), flow derivative
    Xhat (Xhat_t = 1) and time-variation process Xbar (Xbar_t = 0)."""

    Gamma: np.ndarray
    Xhat: np.ndarray
    Xbar: np.ndarray


def variational_paths(driver: DriverSpec, bundle: PathBundle, X: np.ndarray,
                      fields: FieldInterpolator | None = None
                      ) -> VariationalPaths:
    """Integrate the three first-order variation processes along paths.

    Y and Z along paths are read from ``fields`` (value and slope of the
    associated PDE solution); drivers whose f and g ignore (y, z) may pass
    ``fields=None``.
    """
    n_paths, n_steps = bundle.n_paths, bundle.n_steps
    dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
    var = _Variations(n_paths, bundle.t0, bundle.t_end)
    Gamma = np.empty((n_paths, n_steps + 1))
    Xhat = np.empty((n_paths, n_steps + 1))
    Xbar = np.empty((n_paths, n_steps + 1))
    Gamma[:, 0], Xhat[:, 0], Xbar[:, 0] = var.Gamma, var.Xhat, var.Xbar
    zeros = np.zeros(n_paths)
    for k in range(n_steps):
        tk = bundle.t0 + k * bundle.dt
        xk = X[:, k]
        yk = zk = zeros
        if fields is not None:
            n, pts = fields.level(tk), GridPoints(fields.xs, xk)
            yk, zk = pts.sample(fields.sol.u[n]), pts.sample(fields.ux[n])
        var.step(driver, tk, xk, yk, zk, bundle.dt, dqv[:, k],
                 bundle.dB[:, k])
        Gamma[:, k + 1], Xhat[:, k + 1], Xbar[:, k + 1] = \
            var.Gamma, var.Xhat, var.Xbar
    if not var.finite:
        raise NumericalError("variational process turned non-finite")
    return VariationalPaths(Gamma=Gamma, Xhat=Xhat, Xbar=Xbar)


# ---------------------------------------------------------------------------
# admissibility residual
# ---------------------------------------------------------------------------

def k_increments(fields: FieldInterpolator, G: GFunction1D,
                 bundle: PathBundle, X: np.ndarray) -> np.ndarray:
    """Per-step increments 0.5 a dQV - G(a) dt of the martingale-defect
    process K along simulated paths (a read from the solution's field)."""
    dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
    out = np.empty((bundle.n_paths, bundle.n_steps))
    dt = bundle.dt
    for k in range(bundle.n_steps):
        a = fields.a_at(bundle.t0 + k * dt, X[:, k])
        out[:, k] = _k_step(G, a, dqv[:, k], dt)
    return out


@dataclass(frozen=True)
class MeasureCheck:
    control_label: str
    mean_KT: float
    se: float
    u_ref: float
    residual: float
    residual_se: float
    accepted: bool


def verify_measure_in_Ptx(control: VolatilityControl, driver: DriverSpec,
                          t: float, x: float, G: GFunction1D,
                          sol: PdeSolution, mc: dict | None = None
                          ) -> MeasureCheck:
    """Empirical optimality residual of a control: E[K_T] normalized by
    max(1, |u(t, x)|), accepted iff |residual| <= 3 SE + 1e-2."""
    mc = dict(mc or {})
    n_paths = int(mc.get("n_paths", 10_000))
    n_steps = int(mc.get("n_steps", 256))
    seed = int(mc.get("seed", 0))
    bundle = simulate_paths(control, n_paths, n_steps, sol.grid.T, seed,
                            driver=driver, t0=t, x0=x)
    X = forward_sde(driver, t, x, bundle)
    fields = FieldInterpolator(sol)
    kt = k_increments(fields, G, bundle, X).sum(axis=1)
    mean, se = mean_and_se(kt)
    u_ref = sol.value(t, x)
    scale = max(1.0, abs(u_ref))
    residual = mean / scale
    residual_se = se / scale
    return MeasureCheck(control_label=control.label, mean_KT=mean, se=se,
                        u_ref=u_ref, residual=residual,
                        residual_se=residual_se,
                        accepted=abs(residual) <= 3.0 * residual_se + 1e-2)


# ---------------------------------------------------------------------------
# sensitivity estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityEstimate:
    """One-sided derivative estimates with per-control diagnostics."""

    t: float
    x: float
    plus: float
    minus: float
    se_plus: float
    se_minus: float
    controls: tuple
    any_control_accepted: bool


def _phi_sided(driver: DriverSpec, xT: np.ndarray, side: str) -> np.ndarray:
    analytic = (driver.phi_x is not None
                and not getattr(driver.phi_x, "_fd_backed", False)
                and not driver.phi_kinks)
    if analytic:
        return np.asarray(driver.phi_x(xT), dtype=float)
    delta = 1e-6 * (1.0 + np.abs(xT))
    base = np.asarray(driver.phi(xT), dtype=float)
    if side == "plus":
        return (np.asarray(driver.phi(xT + delta), dtype=float) - base) / delta
    return (base - np.asarray(driver.phi(xT - delta), dtype=float)) / delta


def _candidate_controls(sol: PdeSolution, G: GFunction1D) -> list:
    base = VolatilityControl.feedback(sol, G)
    controls = [base]
    if base.ambiguous_frac > 0.0:
        controls.append(VolatilityControl.feedback(sol, G, flip_ambiguous=True))
    return controls


def _feedback_pass(kind: str, driver: DriverSpec,
                   control: VolatilityControl, fields: FieldInterpolator,
                   G: GFunction1D, xi: np.ndarray, t0: float, x0: float):
    """One walk over the paths driven by the normals ``xi`` under a feedback
    control built from ``fields.sol`` (so it shares that grid).

    Returns (X_T, terminal weight, path integral, K_T) for the space
    (``kind`` "x": weight Xhat Gamma) or time (``kind`` "t": weight
    Xbar Gamma) derivative.  K_T sums the stored (n_paths, n_steps)
    increments row by row, in the same order as ``k_increments``.
    """
    sol = fields.sol
    T = sol.grid.T
    n_paths, n_steps = xi.shape
    dt = _step_size(t0, T, n_steps)
    sqdt = math.sqrt(dt)
    horizon = T - t0
    x = np.full(n_paths, float(x0))
    var = _Variations(n_paths, t0, T if kind == "t" else None)
    acc = np.zeros(n_paths)
    dk = np.empty((n_paths, n_steps))
    for k in range(n_steps):
        tk = t0 + k * dt
        n, pts = fields.level(tk), GridPoints(fields.xs, x)
        y, z, a = (pts.sample(sol.u[n]), pts.sample(fields.ux[n]),
                   pts.sample(sol.a_field[n]))
        s = control.field_sigma[n, pts.nearest()]
        db = s * sqdt * xi[:, k]
        dq = s * s * dt
        gam = var.Gamma
        if kind == "x":
            w = var.Xhat * gam
            acc += np.asarray(driver.f_x(tk, x, y), dtype=float) * w * dt
            acc += np.asarray(driver.g_x(tk, x, y, z), dtype=float) * w * dq
        else:
            tau = (T - tk) / horizon
            xb = var.Xbar
            fterm = (np.asarray(driver.f_x(tk, x, y), dtype=float) * xb
                     + tau * _opt(driver.f_t, tk, x, y)
                     - np.asarray(driver.f(tk, x, y), dtype=float) / horizon)
            gterm = (np.asarray(driver.g_z(tk, x, y, z), dtype=float) * z
                     / (2.0 * horizon)
                     + np.asarray(driver.g_x(tk, x, y, z), dtype=float) * xb
                     + tau * _opt(driver.g_t, tk, x, y, z)
                     - np.asarray(driver.g(tk, x, y, z), dtype=float)
                     / horizon)
            acc += fterm * gam * dt + gterm * gam * dq
        dk[:, k] = _k_step(G, a, dq, dt)
        var.step(driver, tk, x, y, z, dt, dq, db)
        x = _forward_step(driver, tk, x, dt, dq, db)
        _check_forward(x)
    if not var.finite:
        raise NumericalError("variational process turned non-finite")
    weight = (var.Xhat if kind == "x" else var.Xbar) * var.Gamma
    return x, weight, acc, dk.sum(axis=1)


def _estimate(kind: str, driver: DriverSpec, t: float, x: float,
              G: GFunction1D, sol: PdeSolution, mc: dict | None
              ) -> SensitivityEstimate:
    """One-sided derivative estimates over the candidate controls, which
    share one seed and so one draw of the normals."""
    mc = dict(mc or {})
    n_paths = int(mc.get("n_paths", 10_000))
    n_steps = int(mc.get("n_steps", 256))
    seed = int(mc.get("seed", 0))
    fields = FieldInterpolator(sol)
    controls = _candidate_controls(sol, G)
    _step_size(t, sol.grid.T, n_steps)  # refuse a bad horizon before drawing
    xi = path_normals(seed, n_paths, n_steps)
    scale = max(1.0, abs(sol.value(t, x)))
    results = []
    for control in controls:
        xT, weight, acc, kt = _feedback_pass(kind, driver, control, fields, G,
                                             xi, t, x)
        mp, sp = mean_and_se(_phi_sided(driver, xT, "plus") * weight + acc)
        mm, sm = mean_and_se(_phi_sided(driver, xT, "minus") * weight + acc)
        kmean, kse = mean_and_se(kt)
        results.append(dict(label=control.label, plus=mp, se_plus=sp,
                            minus=mm, se_minus=sm,
                            residual=kmean / scale, residual_se=kse / scale,
                            accepted=abs(kmean / scale)
                            <= 3.0 * kse / scale + 1e-2))
    best_p = max(results, key=lambda r: r["plus"])
    best_m = min(results, key=lambda r: r["minus"])
    return SensitivityEstimate(t=t, x=x, plus=best_p["plus"],
                               minus=best_m["minus"],
                               se_plus=best_p["se_plus"],
                               se_minus=best_m["se_minus"],
                               controls=tuple(results),
                               any_control_accepted=any(r["accepted"]
                                                        for r in results))


def estimate_dx(driver: DriverSpec, t: float, x: float, G: GFunction1D,
                sol: PdeSolution, mc: dict | None = None
                ) -> SensitivityEstimate:
    """Monte Carlo one-sided space derivatives of the value function at
    (t, x): E[phi'(X_T) Xhat_T Gamma_T + int f_x Xhat Gamma ds +
    int g_x Xhat Gamma dQV] under extremal feedback controls (and the
    tie-flipped variant); plus takes the max over controls, minus the min."""
    return _estimate("x", driver, t, x, G, sol, mc)


def estimate_dt(driver: DriverSpec, t: float, x: float, G: GFunction1D,
                sol: PdeSolution, mc: dict | None = None
                ) -> SensitivityEstimate:
    """Monte Carlo one-sided time derivatives at (t, x), 0 < t < T, via the
    time-variation process Xbar and the quadratic-variation correction
    g_z Z / (2 (T-t))."""
    if not (0.0 < t < sol.grid.T):
        raise DomainError(f"time sensitivity needs 0 < t < T, got t={t}")
    return _estimate("t", driver, t, x, G, sol, mc)


def export_sensitivity_csv(path: str, rows: list[dict]) -> None:
    """Rows: dicts with t, x, dx_plus, dx_minus, se_plus, se_minus,
    residual_of_control, n_paths, seed."""
    cols = ("t", "x", "dx_plus", "dx_minus", "se_plus", "se_minus",
            "residual_of_control", "n_paths", "seed")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for c in cols:
                v = row[c]
                cells.append(str(v) if isinstance(v, int)
                             else format(float(v), ".12e"))
            fh.write(",".join(cells) + "\n")
