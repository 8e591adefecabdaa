"""The plain path step, which evaluates every term of the driver, and the
whole-bundle passes built on it: the reference for ``scenario``'s one path
step (``scenario._Pass``).

Each pass runs one stochastic process over a whole bundle per call:
``simulate_paths`` -> ``forward_sde`` -> ``variational_paths`` ->
``k_increments``.  Every coefficient and derivative is called, the shared
zeros and ones of ``DriverSpec`` included, and a missing time derivative
counts as zero.  The library's passes, estimates and
``verify_measure_in_Ptx`` equal these bit for bit, up to the sign of a
zero (see ``scenario._Pass``).
"""

from __future__ import annotations

import math

import numpy as np

from gbmlab.gcore import DomainError, DriverSpec, GFunction1D, NumericalError
from gbmlab.pde import FieldInterpolator, GridPoints
from gbmlab.scenario import (ControlKind, PathBundle, VariationalPaths,
                             VolatilityControl, _check_forward, _check_run,
                             path_normals)


# ---------------------------------------------------------------------------
# one step along the paths
# ---------------------------------------------------------------------------

def _forward_step(driver: DriverSpec, t: float, x: np.ndarray, dt: float,
                  dq, db) -> np.ndarray:
    """Euler step dX = b dt + h dQV + sigma dB."""
    return (x + np.asarray(driver.b(t, x), dtype=float) * dt
            + np.asarray(driver.h(t, x), dtype=float) * dq
            + np.asarray(driver.sigma(t, x), dtype=float) * db)


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

def simulate_paths(control: VolatilityControl, n_paths: int, n_steps: int,
                   T: float, seed: int, *, driver: DriverSpec | None = None,
                   t0: float = 0.0, x0: float = 0.0) -> PathBundle:
    """Simulate noise increments over [t0, T] under the control.

    FEEDBACK controls are evaluated at the current simulated state, so the
    forward state is advanced jointly (requires ``driver``) and stored on the
    bundle.
    """
    feedback = control.kind is ControlKind.FEEDBACK
    n_paths, n_steps, dt = _check_run(n_paths, n_steps, seed, t0, T, x0,
                                      step_bytes=40, walk=feedback)
    if feedback and driver is None:
        raise DomainError("FEEDBACK controls need the forward driver")
    xi = path_normals(seed, n_paths, n_steps)
    sqdt = math.sqrt(dt)

    if not feedback:
        tgrid = t0 + dt * np.arange(n_steps)
        sig = np.array([control.sigma_at(t, np.zeros(1))[0] for t in tgrid])
        dB = sig[None, :] * sqdt * xi
        return PathBundle(t0=t0, t_end=T, n_paths=n_paths, n_steps=n_steps,
                          dt=dt, dB=dB, sigma=sig)

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
                      dt=dt, dB=dB, sigma=sig, x_paths=X, x0=float(x0))


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
            yk, zk = pts.sample(fields.sol.u[n]), pts.sample(fields.z_row(n))
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
