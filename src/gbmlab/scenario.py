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
step finds every path's grid position once and reads the generator
argument and the feedback volatility there, and u and u_x only if a live
term of f or g takes them.  It evaluates each live driver coefficient
once, advances X, log Gamma, Xhat (and Xbar for the time derivative) as
running per-path vectors, accumulates the estimator integrand and writes
the K increment; which terms are live (``DriverSpec.live``) is decided
once per estimate (``_Pass``), and Gamma and Xhat stay 1 when none of
theirs is.  An estimate first checks its path arrays' bytes and its
path-step charge (``PATH_BYTES_MAX``, ``PATH_STEPS_MAX``).

The candidate controls share that walk.  The base feedback control walks
every path.  The tie-flipped control differs from it only at some tied
nodes, so a path follows the base path until it first stands nearest such
a node; there it forks: its state (X, the variations, the integral and the
K increments so far) moves to the flipped control's own walk, which steps
only forked paths.  Every operation is elementwise in the path, so the
flipped control's results are those of a walk over all paths, bit for bit.

``simulate_paths``, ``forward_sde``, ``variational_paths`` and
``k_increments`` run the plain step helpers (``_forward_step``,
``_Variations.step``, ``_k_step``), which evaluate every term, over a
whole bundle, one stochastic process per call: they are the reference the
estimates equal bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .gcore import ARITY, DomainError, DriverSpec, GFunction1D, NumericalError
from .pde import (ControlField, FieldInterpolator, GridPoints, PdeSolution,
                  _time_index, extremal_control)


# ---------------------------------------------------------------------------
# PRNG and reductions
# ---------------------------------------------------------------------------

# paths per block of the step-major (n_steps, n_paths) buffers
_BLOCK = 1024

# Largest path arrays one run may allocate: an estimate's normals and K
# increments (8 bytes a path-step each), or a counterexample chunk and its
# scaled copy.  The biggest in the test suite is 82 MB (a 10k x 512
# estimate), in the benchmark 41 MB (10k x 256); a run that asks for more
# than this exits with a NumericalError before its first draw instead of
# meeting the OOM killer.
PATH_BYTES_MAX = 2 ** 30

# Most path-steps one run may charge before its first draw.  Measured on a
# 2-core Intel Xeon VM (numpy 2.4): ``counterexample_demo`` costs about
# 3.8 us a path (re-keying Philox) plus 32 ns a path-step (48 ns at 256
# steps); a step of ``_estimate`` costs c0 + c1 * paths, normals included,
# with c0 = 63 to 220 us and c1 = 94 to 470 ns (the high ends for
# ``sine-gz``'s time derivative with most paths forked onto the
# tie-flipped walk).  So each path is charged at least PATH_STEPS_MIN
# steps (> 3.8 us / 32 ns), each estimate step at least STEP_PATHS_MIN
# paths (> c0 / c1), and each of an estimate's path-steps WALK_COST
# path-steps (about 470 / 48 ns).  Runs charged the whole budget took 14 s
# (counterexample, 4 draws x 262144 x 256) and 16 s (that forked
# ``sine-gz`` estimate, 1024 x 32768).  The biggest charge in the test
# suite is criterion 09's counterexample, 4 x 100k x 256 = 1.0e8 (a 10k x
# 512 estimate charges 4.1e7); in the benchmark 2.0e7 (each estimate, 10k
# x 256) and 1.0e7 (counterexample).
PATH_STEPS_MAX = 2 ** 28
PATH_STEPS_MIN = 256
STEP_PATHS_MIN = 1024
WALK_COST = 8


def _check_path_counts(n_paths: int, n_steps: int) -> None:
    if n_paths < 1 or n_steps < 1:
        raise DomainError("need n_paths >= 1 and n_steps >= 1")


def _check_path_work(n_paths: int, n_steps: int, nbytes: int, *,
                     draws: int = 1, walk: bool = False) -> None:
    """Refuse, before the first draw, a run of ``draws`` draws of
    (n_paths, n_steps) normals, walked as an estimate's paths if ``walk``,
    whose path arrays need more than ``PATH_BYTES_MAX`` bytes or whose
    charge exceeds ``PATH_STEPS_MAX`` path-steps."""
    _check_path_counts(n_paths, n_steps)
    if nbytes > PATH_BYTES_MAX:
        raise NumericalError(
            f"path arrays need {nbytes / 2 ** 30:.3g} GiB for "
            f"n_paths={n_paths}, n_steps={n_steps}; the limit is "
            f"{PATH_BYTES_MAX / 2 ** 30:.3g} GiB")
    work = draws * max(n_steps, PATH_STEPS_MIN) * (
        WALK_COST * max(n_paths, STEP_PATHS_MIN) if walk else n_paths)
    if work > PATH_STEPS_MAX:
        raise NumericalError(
            f"run charges {work} path-steps for n_paths={n_paths}, "
            f"n_steps={n_steps}, {draws} draw(s); the limit is "
            f"{PATH_STEPS_MAX}")


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
    """Mean and standard error of ``values``.  Raises
    :class:`NumericalError` if either is not finite, as when the squared
    deviations of finite values overflow."""
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    mean = pairwise_sum(v) / n
    var = pairwise_sum((v - mean) ** 2) / (n - 1) if n > 1 else 0.0
    se = math.sqrt(var / n)
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NumericalError(f"Monte Carlo estimate is not finite: "
                             f"mean {mean}, standard error {se}")
    return mean, se


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
    def feedback(cls, sol: PdeSolution, G: GFunction1D) -> "VolatilityControl":
        """The extremal control of ``sol``, sigma_high at its ties."""
        return cls._feedbacks(sol, G, extremal_control(sol, G), False)[0]

    @classmethod
    def _feedbacks(cls, sol: PdeSolution, G: GFunction1D, cf: ControlField,
                   flip: bool) -> list:
        """The feedback control on the field ``cf`` and, if ``flip``, the
        one with the tied nodes at sigma_low: one field, both controls."""
        sigmas = [cf.sigma_star]
        if flip:
            sigmas.append(cf.sigma_star.copy())
            sigmas[1][cf.ambiguous] = G.sigma_low
        return [cls(kind=ControlKind.FEEDBACK, G=G, field_sigma=sigma,
                    field_ts=sol.ts, field_xs=sol.xs, label=label)
                for sigma, label in zip(sigmas, ("feedback", "feedback-flip"))]

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
    mean_KT: float
    se: float
    residual: float
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
    residual, _se, accepted = _residual(mean, se, sol.value(t, x))
    return MeasureCheck(mean_KT=mean, se=se, residual=residual,
                        accepted=accepted)


# ---------------------------------------------------------------------------
# sensitivity estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityEstimate:
    """One-sided derivative estimates with the results of each control."""

    t: float
    x: float
    plus: float
    minus: float
    se_plus: float
    se_minus: float
    controls: tuple
    any_control_accepted: bool


def _phi_sided(driver: DriverSpec, xT: np.ndarray, side: str) -> np.ndarray:
    analytic = (not getattr(driver.phi_x, "_fd_backed", False)
                and not driver.phi_kinks)
    if analytic:
        return np.asarray(driver.phi_x(xT), dtype=float)
    delta = 1e-6 * (1.0 + np.abs(xT))
    base = np.asarray(driver.phi(xT), dtype=float)
    if side == "plus":
        return (np.asarray(driver.phi(xT + delta), dtype=float) - base) / delta
    return (base - np.asarray(driver.phi(xT - delta), dtype=float)) / delta


def _candidate_controls(sol: PdeSolution, G: GFunction1D) -> list:
    """The feedback control and, if any node ties, its tie-flipped twin,
    from one ``extremal_control`` pass."""
    cf = extremal_control(sol, G)
    return VolatilityControl._feedbacks(sol, G, cf, bool(cf.ambiguous.any()))


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


# the driver coefficients and derivatives a path step reads, by estimate
_STEP_READS = {"x": ("b", "h", "sigma", "b_x", "h_x", "sigma_x", "f_y", "g_y",
                     "g_z", "f_x", "g_x")}
_STEP_READS["t"] = _STEP_READS["x"] + ("b_t", "h_t", "sigma_t", "f", "f_t",
                                       "g", "g_t")


def _samples_finite(field: np.ndarray, dx: float) -> bool:
    """Whether ``GridPoints.sample`` of every row of ``field`` is finite at
    every finite point: with M = max|field|, a slope is at most 2 M / dx
    and a sample at most 3 M, up to rounding (hence the factor 8)."""
    bound = 8.0 * float(np.max(np.abs(field), initial=0.0))
    return math.isfinite(bound) and math.isfinite(bound / dx)


def _times(a, b):
    return None if a is None else a * b


def _over(a, b):
    return None if a is None else a / b


def _sum(*terms):
    """Left-to-right sum of the terms that are not None (None if none is)."""
    out = None
    for term in terms:
        if term is not None:
            out = term if out is None else out + term
    return out


class _Pass:
    """What the walks of one estimate share: the derivative (``kind`` "x"
    or "t"), driver, generator, fields and time grid, and which of the
    step's terms are live.

    ``step`` computes what ``_k_step``, ``_Variations.step`` and
    ``_forward_step`` compute, bit for bit, but evaluates each live
    coefficient once (``calls``) and skips each term whose coefficient is
    not in ``driver.live`` (the shared zero or one, or a None derivative).
    Such a term is an exact zero (+0.0 in the forward step).  Each sum it
    drops out of starts at a running value that is never -0.0 (X after
    the ``+ 0.0`` the step keeps when b or h is dead; log Gamma, Xbar and
    the integral, which only ever add to +0.0) or is an increment of one,
    so only the sign of a zero increment can differ.  A dead term times a
    state that is not finite is NaN, not zero, but the estimate then
    raises anyway.  One dead term multiplies a sampled field, g_z Z in the
    time integrand; it is skipped only when no sample of Z can be infinite
    (``_samples_finite``).
    """

    def __init__(self, kind: str, driver: DriverSpec, G: GFunction1D,
                 fields: FieldInterpolator, t0: float, dt: float):
        self.kind, self.driver, self.G, self.fields = kind, driver, G, fields
        self.t0, self.dt, self.sqdt = t0, dt, math.sqrt(dt)
        sol = fields.sol
        self.T = sol.grid.T
        self.horizon = self.T - t0
        live = tuple(filter(driver.live.__contains__, _STEP_READS[kind]))
        self.gamma = any(nm in live for nm in ("f_y", "g_y", "g_z"))
        self.xhat = any(nm in live for nm in ("b_x", "h_x", "sigma_x"))
        if kind == "t" and "g_z" not in live \
                and not _samples_finite(fields.ux, sol.dx):
            live += ("g_z",)  # g_z Z is NaN where Z is infinite
        self.calls = tuple((nm, ARITY[nm.split("_")[0]]) for nm in live)
        self.reads_y = any(arity > 2 for _nm, arity in self.calls)
        self.reads_z = any(arity > 3 for _nm, arity in self.calls)

    def step(self, walk: _Walk, k: int, n: int, pts: GridPoints,
             s: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Advance ``walk`` over step k with volatility ``s`` and normals
        ``xi`` per path (``n`` is the field level, ``pts`` where the paths
        are).  Returns the step's K increments."""
        fields, x, dt = self.fields, walk.x, self.dt
        sol, tk = fields.sol, self.t0 + k * dt
        y = pts.sample(sol.u[n]) if self.reads_y else None
        z = pts.sample(fields.ux[n]) if self.reads_z else None
        a = pts.sample(sol.a_field[n])
        db = s * self.sqdt * xi
        dq = s * s * dt
        args = (tk, x, y, z)
        c = {nm: np.asarray(getattr(self.driver, nm)(*args[:arity]),
                            dtype=float)
             for nm, arity in self.calls}
        self._integrand(walk, c, tk, z, dq)
        self._variations(walk.var, c, tk, dq, db)
        start = x if "b" in c and "h" in c else x + 0.0
        walk.x = _sum(start, _times(c.get("b"), dt), _times(c.get("h"), dq),
                      db if "sigma" not in c else c["sigma"] * db)
        return _k_step(self.G, a, dq, dt)

    def _integrand(self, walk: _Walk, c: dict, tk: float, z, dq) -> None:
        """Add the step's estimator integrand to ``walk.acc``."""
        var, dt = walk.var, self.dt
        if self.kind == "x":
            if "f_x" in c or "g_x" in c:
                w = var.Xhat * var.Gamma
                if "f_x" in c:
                    walk.acc += c["f_x"] * w * dt
                if "g_x" in c:
                    walk.acc += c["g_x"] * w * dq
            return
        horizon, xb, gam = self.horizon, var.Xbar, var.Gamma
        tau = (self.T - tk) / horizon
        # a - b is a + (-b), and b / -h is -(b / h), bit for bit
        fterm = _sum(_times(c.get("f_x"), xb), _times(c.get("f_t"), tau),
                     _over(c.get("f"), -horizon))
        gterm = _sum(_over(_times(c.get("g_z"), z), 2.0 * horizon),
                     _times(c.get("g_x"), xb), _times(c.get("g_t"), tau),
                     _over(c.get("g"), -horizon))
        inc = _sum(_times(_times(fterm, gam), dt),
                   _times(_times(gterm, gam), dq))
        if inc is not None:
            walk.acc += inc

    def _variations(self, var: _Variations, c: dict, tk: float, dq,
                    db) -> None:
        """Advance log Gamma, Xhat and Xbar over the step."""
        dt, checks = self.dt, []
        if self.gamma:
            gz = c.get("g_z")
            q = _sum(c.get("g_y"), _times(_times(gz, -0.5), gz))
            var.logG = _sum(var.logG, _times(c.get("f_y"), dt), _times(q, dq),
                            _times(gz, db))
            var.Gamma = np.exp(var.logG)
            checks.append(var.Gamma)
        if var.Xbar is not None:
            xb, horizon = var.Xbar, self.horizon
            tau = (self.T - tk) / horizon
            var.Xbar = _sum(xb, *(
                _times(_sum(_times(c.get(nm + "_x"), xb),
                            _times(c.get(nm + "_t"), tau),
                            _over(c.get(nm, one), div)), inc)
                for nm, one, div, inc in (
                    ("b", None, -horizon, dt), ("h", None, -horizon, dq),
                    ("sigma", 1.0, -2.0 * horizon, db))))
            checks.append(var.Xbar)
        if self.xhat:
            var.Xhat = var.Xhat * _sum(1.0, _times(c.get("b_x"), dt),
                                       _times(c.get("h_x"), dq),
                                       _times(c.get("sigma_x"), db))
            checks.append(var.Xhat)
        var.finite = var.finite and all(bool(np.isfinite(p).all())
                                        for p in checks)


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
    # refuse a bad horizon, and too big a walk, before drawing
    dt = _step_size(t, sol.grid.T, n_steps)
    _check_path_work(n_paths, n_steps, 16 * n_paths * n_steps, walk=True)
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
