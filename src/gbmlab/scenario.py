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

``estimate_dx`` and ``estimate_dt`` draw the normals once per estimate,
stored step by step, and walk the paths in one loop over the steps.  Each
step finds every path's grid position once, reads u, u_x, the generator
argument and the feedback volatility there, advances X, log Gamma, Xhat
(and Xbar for the time derivative) as running per-path vectors,
accumulates the estimator integrand and writes the K increment.

The candidate controls share that walk.  The base feedback control walks
every path.  The tie-flipped control differs from it only at some tied
nodes, so a path follows the base path until it first stands nearest such
a node; there it forks: its state (X, the variations, the integral and the
K increments so far) moves to the flipped control's own walk, which steps
only forked paths.  Every operation is elementwise in the path, so the
flipped control's results are those of a walk over all paths, bit for bit.

``simulate_paths``, ``forward_sde``, ``variational_paths`` and
``k_increments`` run the same step helpers over a whole bundle, one
stochastic process per call.
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

# paths per block of the step-major (n_steps, n_paths) buffers
_BLOCK = 1024


def _check_path_counts(n_paths: int, n_steps: int) -> None:
    if n_paths < 1 or n_steps < 1:
        raise DomainError("need n_paths >= 1 and n_steps >= 1")


def path_normals(seed: int, n_paths: int, n_steps: int,
                 path_offset: int = 0) -> np.ndarray:
    """Standard normals, one Philox stream per path keyed by (seed, i).

    ``path_offset`` shifts the path indices so a large run can be produced
    in chunks while staying bit-identical to the unchunked run.
    """
    _check_path_counts(n_paths, n_steps)
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


def _normals_by_step(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """``path_normals`` laid out step-major, ``xi[k, i]``, so that a step
    reads one contiguous row; drawn in blocks of paths."""
    _check_path_counts(n_paths, n_steps)
    xi = np.empty((n_steps, n_paths))
    for lo in range(0, n_paths, _BLOCK):
        hi = min(lo + _BLOCK, n_paths)
        xi[:, lo:hi] = path_normals(seed, hi - lo, n_steps, lo).T
    return xi


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
    def constant(cls, sigma: float, G: GFunction1D) -> "VolatilityControl":
        sigma = float(sigma)
        if not (G.sigma_low <= sigma <= G.sigma_high):
            raise DomainError(f"sigma={sigma} outside "
                              f"[{G.sigma_low}, {G.sigma_high}]")
        return cls(kind=ControlKind.CONSTANT, G=G, value=sigma,
                   label=f"const[{sigma:g}]")

    @classmethod
    def piecewise(cls, times, values, G: GFunction1D) -> "VolatilityControl":
        times = tuple(float(t) for t in times)
        values = tuple(float(v) for v in values)
        if len(times) != len(values) or not times:
            raise DomainError("need matching nonempty times and values")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if any(not (G.sigma_low <= v <= G.sigma_high) for v in values):
            raise DomainError("piecewise values leave the volatility interval")
        return cls(kind=ControlKind.PIECEWISE, G=G, times=times, values=values,
                   label="piecewise")

    @classmethod
    def feedback(cls, sol: PdeSolution, G: GFunction1D, *,
                 flip_ambiguous: bool = False) -> "VolatilityControl":
        cf = extremal_control(sol, G)
        sigma = cf.sigma_star.copy()
        if flip_ambiguous:
            sigma[cf.ambiguous] = G.sigma_low
        return cls(kind=ControlKind.FEEDBACK, G=G, field_sigma=sigma,
                   field_ts=sol.ts, field_xs=sol.xs,
                   ambiguous_frac=float(cf.ambiguous.mean()),
                   label="feedback-flip" if flip_ambiguous else "feedback")

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
    if not horizon > 0:  # NaN too
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
                          dt=dt, dB=dB, sigma=sig, control=control)

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
                      dt=dt, dB=dB, sigma=sig, control=control, x_paths=X,
                      x0=float(x0))


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


def _residual(mean: float, se: float, u_ref: float) -> tuple:
    """(residual, its SE, accepted): E[K_T] and its SE scaled by
    max(1, |u_ref|), accepted iff |residual| <= 3 SE + 1e-2."""
    scale = max(1.0, abs(u_ref))
    residual, residual_se = mean / scale, se / scale
    return residual, residual_se, abs(residual) <= 3.0 * residual_se + 1e-2


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
    residual, residual_se, accepted = _residual(mean, se, u_ref)
    return MeasureCheck(control_label=control.label, mean_KT=mean, se=se,
                        u_ref=u_ref, residual=residual,
                        residual_se=residual_se, accepted=accepted)


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


class _Walk:
    """Paths ``idx`` of the bundle under one feedback control: X, the
    variation processes and the running estimator integral ``acc``."""

    def __init__(self, idx: np.ndarray, x0: float, t0: float,
                 t_end: float | None):
        self.idx = idx
        self.x = np.full(idx.size, float(x0))
        self.var = _Variations(idx.size, t0, t_end)
        self.acc = np.zeros(idx.size)

    def join(self, other: "_Walk", rows: np.ndarray) -> None:
        """Append the paths at positions ``rows`` of ``other``, with their
        whole state."""
        for obj, src, names in ((self, other, ("idx", "x", "acc")),
                                (self.var, other.var,
                                 ("logG", "Gamma", "Xhat", "Xbar"))):
            for name in names:
                mine = getattr(obj, name)
                if mine is not None:
                    setattr(obj, name, np.concatenate(
                        [mine, getattr(src, name)[rows]]))

    def weight(self, kind: str) -> np.ndarray:
        return (self.var.Xhat if kind == "x" else self.var.Xbar) \
            * self.var.Gamma


@dataclass(frozen=True)
class _Pass:
    """What the walks of one estimate share: the derivative (``kind`` "x"
    or "t"), driver, generator, fields and time grid."""

    kind: str
    driver: DriverSpec
    G: GFunction1D
    fields: FieldInterpolator
    t0: float
    dt: float

    def step(self, walk: _Walk, k: int, n: int, pts: GridPoints,
             s: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Advance ``walk`` over step k with volatility ``s`` and normals
        ``xi`` per path (``n`` is the field level, ``pts`` where the paths
        are).  Returns the step's K increments."""
        driver, fields, x, var = self.driver, self.fields, walk.x, walk.var
        sol, dt = fields.sol, self.dt
        T, tk = sol.grid.T, self.t0 + k * dt
        y, z, a = (pts.sample(sol.u[n]), pts.sample(fields.ux[n]),
                   pts.sample(sol.a_field[n]))
        db = s * math.sqrt(dt) * xi
        dq = s * s * dt
        gam = var.Gamma
        if self.kind == "x":
            w = var.Xhat * gam
            walk.acc += np.asarray(driver.f_x(tk, x, y), dtype=float) * w * dt
            walk.acc += np.asarray(driver.g_x(tk, x, y, z),
                                   dtype=float) * w * dq
        else:
            horizon = T - self.t0
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
            walk.acc += fterm * gam * dt + gterm * gam * dq
        dk = _k_step(self.G, a, dq, dt)
        var.step(driver, tk, x, y, z, dt, dq, db)
        walk.x = _forward_step(driver, tk, x, dt, dq, db)
        return dk


class _Fork:
    """A candidate control that differs from the base control only at
    some nodes.  A path leaves the base walk for this control's ``walk``
    at the first step where its nearest node is one of them, and takes its
    state along; until then the two controls give it the same path.
    ``dk`` holds (k, K increments) for each step the fork walk took, over
    a prefix of ``walk.idx``: positions are appended and never move."""

    def __init__(self, control: VolatilityControl, base: VolatilityControl,
                 walk: _Walk, n_paths: int):
        self.control = control
        self.differs = control.field_sigma != base.field_sigma
        self.level_differs = self.differs.any(axis=1)
        self.walk = walk
        self.forked = np.zeros(n_paths, dtype=bool)
        self.dk = []
        self.error = None

    def step(self, run: _Pass, base: _Walk, k: int, n: int,
             nearest: np.ndarray, xi: np.ndarray) -> None:
        """Fork the base paths whose nearest node ``nearest`` differs at
        step k (taking their state from before the step), then advance the
        fork walk with the step's normals ``xi`` (one per path of the
        bundle).  A non-finite X stops the walk; its error waits until
        the base walk has finished, as if the controls were walked one
        after the other."""
        if self.error is not None:
            return
        if self.level_differs[n]:
            new = np.flatnonzero(self.differs[n, nearest] & ~self.forked)
            if new.size:
                self.forked[new] = True
                self.walk.join(base, new)
        walk = self.walk
        if walk.idx.size == 0:
            return
        pts = GridPoints(run.fields.xs, walk.x)
        s = self.control.field_sigma[n, pts.nearest()]
        self.dk.append((k, run.step(walk, k, n, pts, s, xi[walk.idx])))
        finite = np.isfinite(walk.x)
        if not finite.all():
            # the lowest path index among those that turned non-finite
            self.error = NumericalError(
                "forward state turned non-finite on path "
                f"{int(walk.idx[~finite].min())}")

    def finish(self) -> None:
        if self.error is not None:
            raise self.error
        if not self.walk.var.finite:
            raise NumericalError("variational process turned non-finite")


def _k_totals(dk: np.ndarray, paths: np.ndarray | None = None,
              tail=()) -> np.ndarray:
    """K_T per path from the step-major increments ``dk[k, i]``.

    Blocks of paths are copied to contiguous rows and summed with
    ``.sum(axis=1)``, so every total is the row sum of the path-major
    array, in numpy's pairwise order.  With ``paths`` (indices), the rows
    of those paths, with (k, values) of ``tail`` written over a prefix of
    them, as ``_Fork.dk`` is laid out.
    """
    n = dk.shape[1] if paths is None else paths.size
    out = np.empty(n)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        cols = slice(lo, hi) if paths is None else paths[lo:hi]
        rows = np.ascontiguousarray(dk[:, cols].T)
        for k, values in tail:
            top = min(hi, values.size)
            if top > lo:
                rows[:top - lo, k] = values[lo:top]
        out[lo:hi] = rows.sum(axis=1)
    return out


def _estimate(kind: str, driver: DriverSpec, t: float, x: float,
              G: GFunction1D, sol: PdeSolution, mc: dict | None
              ) -> SensitivityEstimate:
    """One-sided derivative estimates over the candidate controls, which
    share one seed and so one draw of the normals, in one loop over the
    steps: the base control walks every path, and each other candidate
    forks paths off that walk (``_Fork``)."""
    mc = dict(mc or {})
    n_paths = int(mc.get("n_paths", 10_000))
    n_steps = int(mc.get("n_steps", 256))
    seed = int(mc.get("seed", 0))
    fields = FieldInterpolator(sol)
    controls = _candidate_controls(sol, G)
    # refuse a bad horizon before drawing
    dt = _step_size(t, sol.grid.T, n_steps)
    xi = _normals_by_step(seed, n_paths, n_steps)
    run = _Pass(kind, driver, G, fields, t, dt)
    t_end = sol.grid.T if kind == "t" else None
    base = _Walk(np.arange(n_paths), x, t, t_end)
    sigma = controls[0].field_sigma
    forks = [_Fork(c, controls[0], _Walk(base.idx[:0], x, t, t_end), n_paths)
             for c in controls[1:]]
    dk = np.empty((n_steps, n_paths))
    for k in range(n_steps):
        n, pts = fields.level(t + k * dt), GridPoints(fields.xs, base.x)
        nearest = pts.nearest()
        for fork in forks:
            fork.step(run, base, k, n, nearest, xi[k])
        dk[k] = run.step(base, k, n, pts, sigma[n, nearest], xi[k])
        _check_forward(base.x)
    del xi  # the K totals' blocks need not stack on the normals' memory
    if not base.var.finite:
        raise NumericalError("variational process turned non-finite")
    for fork in forks:
        fork.finish()
    kt = _k_totals(dk)
    walks = [(base.x, base.weight(kind), base.acc, kt)]
    for fork in forks:
        xT, weight, acc, kt_f = (base.x.copy(), base.weight(kind),
                                 base.acc.copy(), kt.copy())
        w = fork.walk
        xT[w.idx], weight[w.idx], acc[w.idx] = w.x, w.weight(kind), w.acc
        kt_f[w.idx] = _k_totals(dk, w.idx, fork.dk)
        walks.append((xT, weight, acc, kt_f))
    u_ref = sol.value(t, x)
    results = []
    for control, (xT, weight, acc, kt) in zip(controls, walks):
        mp, sp = mean_and_se(_phi_sided(driver, xT, "plus") * weight + acc)
        mm, sm = mean_and_se(_phi_sided(driver, xT, "minus") * weight + acc)
        residual, residual_se, accepted = _residual(*mean_and_se(kt), u_ref)
        results.append(dict(label=control.label, plus=mp, se_plus=sp,
                            minus=mm, se_minus=sm, residual=residual,
                            residual_se=residual_se, accepted=accepted))
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
