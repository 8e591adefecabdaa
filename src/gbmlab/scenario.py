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

``estimate_dx``, ``estimate_dt`` and ``verify_measure_in_Ptx`` run one
walk (``_walk``): it draws the normals once, stored step by step, and
walks the paths in one loop over the steps.  Each step finds every path's
grid position and nearest node once and reads there the generator
argument, the control's volatility (``VolatilityControl.sigma_at`` at
that level and those nodes), and u and u_x only if a live term of f or g
takes them.  It evaluates each live driver coefficient once, advances X,
log Gamma, Xhat (and Xbar for the time derivative) as running per-path
vectors, accumulates the estimator integrand and writes the K increments
over the row of normals it has read, so a walk holds one (n_steps,
n_paths) buffer.  The feedback controls are one-byte masks over the
solution's nodes.  Which terms are live (``DriverSpec.live``) is decided
once per walk (``_Pass``), and Gamma and Xhat stay 1 when none of theirs
is.  Every entry point checks its inputs and charges the path budgets
once, before any work (``_check_run``).

An estimate walks its candidate controls, ``verify_measure_in_Ptx`` its
one control and X alone.  The base control walks every path.  The
tie-flipped control differs from it only at some tied nodes, so a path
follows the base path until it first stands nearest such a node; there it
forks: its state (X, the variations, the integral and the K increments so
far) moves to the flipped control's own walk, which steps only forked
paths.  Every operation is elementwise in the path, so the flipped
control's results are those of a walk over all paths, bit for bit.

``_Pass`` is the one implementation of the path recurrences: the walk
steps with it, and the whole-bundle passes (``simulate_paths``,
``forward_sde``, ``variational_paths``, ``k_increments``) advance one
stochastic process per call with it.  The plain step that evaluates every
term, and the whole-bundle passes built on it, are the reference in
``tests/path_reference.py``, which all of these equal bit for bit.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gcore import (ARITY, DomainError, DriverSpec, GFunction1D,
                    NumericalError, _count, _horizon, _real, charge, work)
from .pde import (FieldInterpolator, GridPoints, PdeSolution, _time_index,
                  extremal_control, sigma_of)


# ---------------------------------------------------------------------------
# PRNG and reductions
# ---------------------------------------------------------------------------

# bytes of one block of paths of the step-major (n_steps, n_paths) buffers
# (256 paths at 256 steps): a block is copied to or from path-major rows
_BLOCK_BYTES = 2 ** 19


def _block(n_steps: int) -> int:
    """Paths per block of an (n_steps, n_paths) buffer, at least one."""
    return max(1, _BLOCK_BYTES // (8 * n_steps))


# Largest path arrays one run may allocate, charged at 16 bytes a
# path-step.  That bounds an estimate's normals (8 bytes a path-step),
# whose rows take the K increments once read, plus at worst one fork's K
# increments (at most 8 more).  A counterexample holds one chunk of
# normals, scaled in place, so its charge is an over-count.  The biggest
# charge in the test suite is 82 MB (a 10k x 512 estimate), in the
# benchmark 41 MB (10k x 256); a run that asks for more than this exits
# with a NumericalError before its first draw instead of meeting the OOM
# killer.
PATH_BYTES_MAX = 2 ** 30

# Most path-steps one run may charge before its first draw.  Measured on a
# 2-core Intel Xeon VM (numpy 2.4): ``counterexample_demo`` costs about
# 1.3 to 1.6 us a path (re-keying Philox; 2.0 to 3.5 us while the state
# words were numpy integers) plus 16 to 24 ns a path-step (23 ns at 256
# steps; earlier 32 ns, 48 ns at 256); a step of ``_estimate`` costs
# c0 + c1 * paths, normals included, with c0 = 63 to 220 us and c1 = 94 to
# 470 ns (the high ends for ``sine-gz``'s time derivative with most paths
# forked onto the tie-flipped walk).  So each path is charged at least
# PATH_STEPS_MIN steps (> 3.8 us / 32 ns, the earlier costs), each
# estimate step at least STEP_PATHS_MIN paths (> c0 / c1), and each of an
# estimate's path-steps WALK_COST path-steps (about 470 / 48 ns).  Runs
# charged the whole budget took 14 s (counterexample, 4 draws x 262144 x
# 256; 9.9 s with the cheaper re-keying) and 16 s (that forked
# ``sine-gz`` estimate, 1024 x 32768).  The biggest charge in the test
# suite is criterion 09's counterexample, 4 x 100k x 256 = 1.0e8 (a 10k x
# 512 estimate charges 4.1e7); in the benchmark 2.0e7 (each estimate, 10k
# x 256) and 1.0e7 (counterexample).
PATH_STEPS_MAX = 2 ** 28
PATH_STEPS_MIN = 256
STEP_PATHS_MIN = 1024
WALK_COST = 8


def _seed(value) -> int:
    """``value`` as an int; DomainError unless it is an integer (a Python
    or numpy integer, not a bool).  Streams are keyed by it mod 2**64."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"seed must be an integer, got {value!r}")
    return int(value)


def _start_time(t, T: float, *, positive: bool = False) -> None:
    """DomainError unless ``t`` is a finite real with 0 <= t < T, and
    t > 0 if ``positive`` (a time derivative)."""
    _real("start time t", t)
    if positive and not 0.0 < t < T:
        raise DomainError(f"time sensitivity needs 0 < t < T, got t={t}")
    if not 0.0 <= t < T:
        raise DomainError(f"need 0 <= t < T, got t={t}, T={T}")


def _check_run(n_paths, n_steps, seed, t: float, T: float, x: float = 0.0,
               *, step_bytes: int = 16, held: int | None = None,
               draws: int = 1, walk: bool = False) -> tuple[int, int, float]:
    """The one check of a path run, before any work: integral counts >= 1,
    an integral seed, a finite T > 0, finite real t and x, 0 <= t < T, then
    ``step_bytes`` a path-step of ``held`` (default all) paths against
    ``PATH_BYTES_MAX`` and ``draws`` draws, walked as an estimate's if
    ``walk``, against ``PATH_STEPS_MAX``.  Returns (n_paths, n_steps, dt)."""
    n_paths, n_steps = _count("n_paths", n_paths), _count("n_steps", n_steps)
    _seed(seed)
    _horizon("T", T)
    _start_time(t, T)
    _real("start point x", x)
    detail = f"n_paths={n_paths}, n_steps={n_steps}"
    charge("path storage", step_bytes * min(n_paths, held or n_paths)
           * n_steps, PATH_BYTES_MAX, "bytes", detail)
    charge("run", draws * max(n_steps, PATH_STEPS_MIN) * (
        WALK_COST * max(n_paths, STEP_PATHS_MIN) if walk else n_paths),
        PATH_STEPS_MAX, "path-steps", f"{detail}, {draws} draw(s)")
    return n_paths, n_steps, (T - t) / n_steps


def path_normals(seed: int, n_paths: int, n_steps: int,
                 path_offset: int = 0) -> np.ndarray:
    """Standard normals, one Philox stream per path keyed by (seed, i).

    ``path_offset`` shifts the path indices so a large run can be produced
    in chunks while staying bit-identical to the unchunked run.
    """
    work()
    n_paths, n_steps = _count("n_paths", n_paths), _count("n_steps", n_steps)
    if not 0 <= path_offset <= 2 ** 64 - n_paths:
        raise DomainError(f"path indices {path_offset} to "
                          f"{path_offset + n_paths - 1} leave [0, 2**64)")
    out = np.empty((n_paths, n_steps))
    seed = _seed(seed) & 0xFFFFFFFFFFFFFFFF
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bg)
    # counter zero, buffer empty; only the key changes.  The state setter
    # reads Python ints in less than half the time of numpy uint64 words.
    fresh = bg.state
    key = [seed, 0]
    fresh["state"] = {"counter": [0, 0, 0, 0], "key": key}
    fresh["buffer"] = [0, 0, 0, 0]
    for i, row in enumerate(out, path_offset):
        key[1] = i
        bg.state = fresh
        gen.standard_normal(out=row)
    return out


def _normals_by_step(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """``path_normals`` laid out step-major, ``xi[k, i]``, so that a step
    reads one contiguous row; drawn in blocks of paths."""
    xi = np.empty((n_steps, n_paths))
    block = _block(n_steps)
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
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
    # an overflow, or an infinity less an infinity, is reported below
    with np.errstate(over="ignore", invalid="ignore"):
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
    of the governing generator.  A FEEDBACK control holds its field as a
    one-byte mask, ``field_high``: sigma_high where it is set, sigma_low
    elsewhere."""

    kind: ControlKind
    G: GFunction1D
    label: str
    value: float | None = None
    times: tuple | None = None
    values: tuple | None = None
    field_high: np.ndarray | None = None
    field_ts: np.ndarray | None = None
    field_xs: np.ndarray | None = None

    @classmethod
    def constant(cls, sigma: float, G: GFunction1D) -> "VolatilityControl":
        _real("volatility", sigma)
        sigma = float(sigma)
        if not (G.sigma_low <= sigma <= G.sigma_high):
            raise DomainError(f"sigma={sigma} outside "
                              f"[{G.sigma_low}, {G.sigma_high}]")
        return cls(kind=ControlKind.CONSTANT, G=G, value=sigma,
                   label=f"const[{sigma:g}]")

    @classmethod
    def piecewise(cls, times, values, G: GFunction1D) -> "VolatilityControl":
        times, values = tuple(times), tuple(values)
        for t in times:
            _real("breakpoint", t)
        for v in values:
            _real("volatility", v)
        times, values = tuple(map(float, times)), tuple(map(float, values))
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
        return _candidate_controls(sol, G)[0]

    def sigma_at(self, t: float, x, n: int | None = None,
                 nearest: np.ndarray | None = None) -> np.ndarray:
        """The volatility at time ``t`` of paths at ``x``.  A FEEDBACK
        control reads its mask at level ``n`` of its field, at the nodes
        ``nearest`` to ``x``; a walk passes both, else they are found here."""
        if self.kind is ControlKind.FEEDBACK:
            if nearest is None:
                n, nearest = (_time_index(self.field_ts, t),
                              GridPoints(self.field_xs, x).nearest())
            return sigma_of(self.field_high[n].take(nearest), self.G)
        value = self.value
        if self.kind is ControlKind.PIECEWISE:
            i = int(np.searchsorted(self.times, t + 1e-12, side="right") - 1)
            value = self.values[max(i, 0)]
        return np.full_like(np.asarray(x, dtype=float), value)


# ---------------------------------------------------------------------------
# one step along the paths
# ---------------------------------------------------------------------------

def _check_forward(X: np.ndarray) -> None:
    """Raise on the first path (row of ``X``, or entry of a state vector)
    that is not finite."""
    finite = np.isfinite(X)
    if not finite.all():
        i = int(np.argmin(finite.reshape(len(X), -1).all(axis=1)))
        raise NumericalError(f"forward state turned non-finite on path {i}")


def _k_step(G: GFunction1D, a, dq, dt: float, out):
    """Increment 0.5 a dQV - G(a) dt of the martingale-defect process K.

    The operations of ``0.5 * a * dq - G.eval(a) * dt``, in its order,
    write the increments into ``out`` with no temporary: ``a`` and ``dq``
    are overwritten as scratch.  Every bit is the same."""
    np.multiply(a, 0.5, out=out)
    out *= dq
    g = np.maximum(a, 0.0, out=dq)
    g *= G.sigma_high ** 2
    low = np.negative(a, out=a)
    np.maximum(low, 0.0, out=low)
    low *= G.sigma_low ** 2
    g -= low
    g *= 0.5
    g *= dt
    out -= g
    return out


class _Walk:
    """Paths ``idx`` of a bundle under one control: X, the running
    estimator integral ``acc`` and the first-order variation processes,
    log Gamma and Gamma = exp(log Gamma), the flow derivative Xhat
    (Xhat_t = 1) and, if ``xbar``, the time-variation process Xbar
    (Xbar_t = 0).  ``finite`` records whether every variation so far was
    finite."""

    def __init__(self, idx: np.ndarray, x0: float, xbar: bool = False):
        self.idx = idx
        self.x = np.full(idx.size, float(x0))
        self.acc, self.logG = np.zeros(idx.size), np.zeros(idx.size)
        self.Gamma, self.Xhat = np.ones(idx.size), np.ones(idx.size)
        self.Xbar = np.zeros(idx.size) if xbar else None
        self.finite = True

    def join(self, other: "_Walk", rows: np.ndarray) -> None:
        """Append the paths at positions ``rows`` of ``other``, with their
        whole state."""
        for name in ("idx", "x", "acc", "logG", "Gamma", "Xhat", "Xbar"):
            mine = getattr(self, name)
            if mine is not None:
                setattr(self, name,
                        np.concatenate([mine, getattr(other, name)[rows]]))

    def weight(self, kind: str) -> np.ndarray:
        return (self.Xhat if kind == "x" else self.Xbar) * self.Gamma


# the driver coefficients and derivatives a path step reads: for X alone,
# for X and the variations with Xbar, and for each estimate
_STEP_READS = {"path": ("b", "h", "sigma")}
_VARIATIONS = ("b_x", "h_x", "sigma_x", "f_y", "g_y", "g_z")
_STEP_READS["var"] = _STEP_READS["path"] + _VARIATIONS + ("b_t", "h_t",
                                                          "sigma_t")
_STEP_READS["x"] = _STEP_READS["path"] + _VARIATIONS + ("f_x", "g_x")
_STEP_READS["t"] = _STEP_READS["x"] + ("b_t", "h_t", "sigma_t", "f", "f_t",
                                       "g", "g_t")


def _samples_finite(bound: float, dx: float) -> bool:
    """Whether ``GridPoints.sample`` of every row of a field with
    |field| <= ``bound`` is finite at every finite point: a slope is at
    most 2 bound / dx and a sample at most 3 bound, up to rounding (hence
    the factor 8)."""
    bound = 8.0 * bound
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
    """What the walks of one run share: what it advances (``kind``: "path"
    for X alone, "var" for X and the variations with Xbar, "x" or "t" for
    an estimate of that derivative), the driver, generator, fields and
    time grid ending at ``T`` (by default the solution's), and which of
    the step's terms are live.

    ``advance`` computes what the plain step of ``tests/path_reference.py``
    computes, bit for bit, but evaluates each live coefficient once
    (``calls``) and skips each term whose coefficient is not in
    ``driver.live`` (the shared zero or one, or a None derivative).
    Such a term is an exact zero (+0.0 in the forward step).  Each sum it
    drops out of starts at a running value that is never -0.0 (X after
    the ``+ 0.0`` the step keeps when b or h is dead; log Gamma, Xbar and
    the integral, which only ever add to +0.0) or is an increment of one,
    so only the sign of a zero increment can differ.  A dead term times a
    state that is not finite is NaN, not zero, but the run then
    raises anyway.  One dead term multiplies a sampled field, g_z Z in the
    time integrand; it is skipped only when no sample of Z can be infinite
    (``_samples_finite`` of the bound |Z| <= 2 max|u| / dx, which reads
    no slope field).
    """

    def __init__(self, kind: str, driver: DriverSpec, G: GFunction1D | None,
                 fields: FieldInterpolator | None, t0: float, dt: float,
                 T: float | None = None):
        self.kind, self.driver, self.G, self.fields = kind, driver, G, fields
        self.t0, self.dt, self.sqdt = t0, dt, math.sqrt(dt)
        self.T = fields.sol.grid.T if T is None else T
        self.horizon = self.T - t0
        live = tuple(filter(driver.live.__contains__, _STEP_READS[kind]))
        self.gamma = any(nm in live for nm in ("f_y", "g_y", "g_z"))
        self.xhat = any(nm in live for nm in ("b_x", "h_x", "sigma_x"))
        if kind == "t" and "g_z" not in live:
            sol = fields.sol
            u_max = max(float(sol.u.max()), -float(sol.u.min()))
            if not _samples_finite(2.0 * u_max / sol.dx, sol.dx):
                live += ("g_z",)  # g_z Z is NaN where Z is infinite
        self.calls = tuple((nm, ARITY[nm.split("_")[0]]) for nm in live)
        self.reads_y = any(arity > 2 for _nm, arity in self.calls)
        self.reads_z = any(arity > 3 for _nm, arity in self.calls)

    def step(self, walk: _Walk, control: VolatilityControl, k: int, n: int,
             pts: GridPoints, nearest: np.ndarray,
             xi: np.ndarray) -> np.ndarray:
        """Advance ``walk`` over step k under ``control`` with normals
        ``xi`` (``n`` is the field level, ``pts`` and ``nearest`` where the
        paths are).  Returns the step's K increments, written over ``xi``."""
        fields, tk = self.fields, self.t0 + k * self.dt
        s = control.sigma_at(tk, walk.x, n, nearest)
        y = pts.sample(fields.sol.u[n]) if self.reads_y else None
        z = pts.sample(fields.z_row(n)) if self.reads_z else None
        a = pts.sample(fields.sol.a_field[n])
        db = s * self.sqdt
        db *= xi
        dq = s * s
        dq *= self.dt
        self.advance(walk, tk, y, z, dq, db)
        return _k_step(self.G, a, dq, self.dt, out=xi)

    def advance(self, walk: _Walk, tk: float, y, z, dq, db) -> None:
        """Advance ``walk`` over the step from ``tk`` with quadratic
        variation ``dq`` and noise ``db`` per path, Y and Z there ``y`` and
        ``z``: an estimate's integrand, the variations and X."""
        x, dt = walk.x, self.dt
        args = (tk, x, y, z)
        c = {nm: np.asarray(getattr(self.driver, nm)(*args[:arity]),
                            dtype=float)
             for nm, arity in self.calls}
        if self.kind in ("x", "t"):
            self._integrand(walk, c, tk, z, dq)
        self._variations(walk, c, tk, dq, db)
        start = x if "b" in c and "h" in c else x + 0.0
        walk.x = _sum(start, _times(c.get("b"), dt), _times(c.get("h"), dq),
                      db if "sigma" not in c else c["sigma"] * db)

    def _integrand(self, walk: _Walk, c: dict, tk: float, z, dq) -> None:
        """Add the step's estimator integrand to ``walk.acc``."""
        dt = self.dt
        if self.kind == "x":
            if "f_x" in c or "g_x" in c:
                w = walk.Xhat * walk.Gamma
                if "f_x" in c:
                    walk.acc += c["f_x"] * w * dt
                if "g_x" in c:
                    walk.acc += c["g_x"] * w * dq
            return
        horizon, xb, gam = self.horizon, walk.Xbar, walk.Gamma
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

    def _variations(self, walk: _Walk, c: dict, tk: float, dq,
                    db) -> None:
        """Advance log Gamma, Xhat and Xbar over the step.  Gamma takes the
        log-Euler form exp(sum f_y dt + (g_y - g_z^2/2) dQV + g_z dB), so
        its positivity is exact."""
        dt, checks = self.dt, []
        if self.gamma:
            gz = c.get("g_z")
            q = _sum(c.get("g_y"), _times(_times(gz, -0.5), gz))
            walk.logG = _sum(walk.logG, _times(c.get("f_y"), dt),
                             _times(q, dq), _times(gz, db))
            walk.Gamma = np.exp(walk.logG)
            checks.append(walk.Gamma)
        if walk.Xbar is not None:
            xb, horizon = walk.Xbar, self.horizon
            tau = (self.T - tk) / horizon
            walk.Xbar = _sum(xb, *(
                _times(_sum(_times(c.get(nm + "_x"), xb),
                            _times(c.get(nm + "_t"), tau),
                            _over(c.get(nm, one), div)), inc)
                for nm, one, div, inc in (
                    ("b", None, -horizon, dt), ("h", None, -horizon, dq),
                    ("sigma", 1.0, -2.0 * horizon, db))))
            checks.append(walk.Xbar)
        if self.xhat:
            walk.Xhat = walk.Xhat * _sum(1.0, _times(c.get("b_x"), dt),
                                         _times(c.get("h_x"), dq),
                                         _times(c.get("sigma_x"), db))
            checks.append(walk.Xhat)
        walk.finite = walk.finite and all(bool(np.isfinite(p).all())
                                          for p in checks)


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
    feedback = control.kind is ControlKind.FEEDBACK
    # at most 4.2 (n_paths, n_steps) arrays (tracemalloc), charged as five
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
    run = _Pass("path", driver, None, None, t0, dt, T)
    walk = _Walk(np.arange(n_paths), x0)
    for k in range(n_steps):
        tk = t0 + k * dt
        s = sig[:, k] = control.sigma_at(tk, walk.x)
        dB[:, k] = s * sqdt * xi[:, k]
        run.advance(walk, tk, None, None, s * s * dt, dB[:, k])
        X[:, k + 1] = walk.x
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
    n_paths, n_steps, dt = bundle.n_paths, bundle.n_steps, bundle.dt
    dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
    X = np.empty((n_paths, n_steps + 1))
    X[:, 0] = x
    run = _Pass("path", driver, None, None, bundle.t0, dt, bundle.t_end)
    walk = _Walk(np.arange(n_paths), x)
    for k in range(n_steps):
        run.advance(walk, bundle.t0 + k * dt, None, None, dqv[:, k],
                    bundle.dB[:, k])
        X[:, k + 1] = walk.x
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
    run = _Pass("var", driver, None, fields, bundle.t0, bundle.dt,
                bundle.t_end)
    # X is read, not advanced: each step starts the walk from X's column
    walk = _Walk(np.arange(n_paths), 0.0, xbar=True)
    Gamma, Xhat, Xbar = (np.empty((n_paths, n_steps + 1)) for _ in range(3))
    Gamma[:, 0], Xhat[:, 0], Xbar[:, 0] = walk.Gamma, walk.Xhat, walk.Xbar
    zeros = np.zeros(n_paths)
    for k in range(n_steps):
        tk = bundle.t0 + k * bundle.dt
        walk.x = X[:, k]
        y = z = zeros
        if fields is not None:
            n, pts = fields.level(tk), GridPoints(fields.xs, walk.x)
            y, z = pts.sample(fields.sol.u[n]), pts.sample(fields.z_row(n))
        run.advance(walk, tk, y, z, dqv[:, k], bundle.dB[:, k])
        Gamma[:, k + 1], Xhat[:, k + 1], Xbar[:, k + 1] = \
            walk.Gamma, walk.Xhat, walk.Xbar
    if not walk.finite:
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
        _k_step(G, a, dqv[:, k].copy(), dt, out[:, k])
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
                          sol: PdeSolution, *, n_paths: int = 10_000,
                          n_steps: int = 256, seed: int = 0) -> MeasureCheck:
    """Empirical optimality residual of a control (a FEEDBACK one built on
    the grid of ``sol``), from the estimates' walk with no forks: E[K_T]
    normalized by max(1, |u(t, x)|), accepted iff |residual| <= 3 SE +
    1e-2."""
    if control.kind is ControlKind.FEEDBACK and not (
            np.array_equal(control.field_ts, sol.ts)
            and np.array_equal(control.field_xs, sol.xs)):
        raise DomainError("a feedback control must be built on the grid "
                          "of the solution it is checked against")
    buf = _walk("path", driver, t, x, G, sol, n_paths, n_steps, seed,
                control)[3]
    mean, se = mean_and_se(_k_totals(buf))
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
    """The feedback control of ``sol`` and, if any node ties, its twin with
    the ties flipped to sigma_low: one mask each, from one pass."""
    cf = extremal_control(sol)
    masks = [cf.high]
    if cf.ambiguous.any():
        masks.append(cf.high > cf.ambiguous)  # high where not tied
    return [VolatilityControl(kind=ControlKind.FEEDBACK, G=G, field_high=high,
                              field_ts=sol.ts, field_xs=sol.xs, label=label)
            for high, label in zip(masks, ("feedback", "feedback-flip"))]


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
        # where the two controls' volatilities differ: where the masks do,
        # unless the two bounds are one volatility
        G = control.G
        self.differs = np.zeros(base.field_high.shape, dtype=bool) \
            if G.sigma_low == G.sigma_high \
            else control.field_high != base.field_high
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
            new = np.flatnonzero(self.differs[n].take(nearest)
                                 & ~self.forked)
            if new.size:
                self.forked[new] = True
                self.walk.join(base, new)
        walk = self.walk
        if walk.idx.size == 0:
            return
        pts = GridPoints(run.fields.xs, walk.x)
        self.dk.append((k, run.step(walk, self.control, k, n, pts,
                                    pts.nearest(), xi[walk.idx])))
        finite = np.isfinite(walk.x)
        if not finite.all():
            # the lowest path index among those that turned non-finite
            self.error = NumericalError(
                "forward state turned non-finite on path "
                f"{int(walk.idx[~finite].min())}")

    def finish(self) -> None:
        if self.error is not None:
            raise self.error
        if not self.walk.finite:
            raise NumericalError("variational process turned non-finite")


def _k_totals(dk: np.ndarray, paths: np.ndarray | None = None,
              tail=()) -> np.ndarray:
    """K_T per path from the step-major increments ``dk[k, i]`` (the
    path buffer of ``_walk``, whose rows took them over the normals).

    Blocks of paths are copied to contiguous rows and summed with
    ``.sum(axis=1)``, so every total is the row sum of the path-major
    array, in numpy's pairwise order.  With ``paths`` (indices), the rows
    of those paths, with (k, values) of ``tail`` written over a prefix of
    them, as ``_Fork.dk`` is laid out; each block is gathered step-major,
    so those values go into contiguous rows before the one transpose.
    """
    n = dk.shape[1] if paths is None else paths.size
    out = np.empty(n)
    block = _block(dk.shape[0])
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        steps = dk[:, lo:hi] if paths is None \
            else dk.take(paths[lo:hi], axis=1)
        for k, values in tail:
            top = min(hi, values.size)
            if top > lo:
                steps[k, :top - lo] = values[lo:top]
        out[lo:hi] = np.ascontiguousarray(steps.T).sum(axis=1)
    return out


def _walk(kind: str, driver: DriverSpec, t: float, x: float,
          G: GFunction1D, sol: PdeSolution, n_paths: int, n_steps: int,
          seed: int, control: VolatilityControl | None = None) -> tuple:
    """One loop over the steps that walks every path under ``control`` or,
    if None, under the candidate controls of ``sol``, whose others fork
    paths off the first one's walk (``_Fork``).  Returns (controls, base
    walk, forks, path buffer)."""
    # 16 bytes a path-step: the path buffer and at worst one fork's K
    # increments
    n_paths, n_steps, dt = _check_run(n_paths, n_steps, seed, t, sol.grid.T,
                                      x, walk=True)
    fields = FieldInterpolator(sol)
    controls = _candidate_controls(sol, G) if control is None else [control]
    # row k holds step k's normals until the forks and the base walk have
    # read them, then the base walk's K increments of that step
    buf = _normals_by_step(seed, n_paths, n_steps)
    run = _Pass(kind, driver, G, fields, t, dt)
    base = _Walk(np.arange(n_paths), x, kind == "t")
    forks = [_Fork(c, controls[0], _Walk(base.idx[:0], x, kind == "t"),
                   n_paths) for c in controls[1:]]
    for k in range(n_steps):
        n, pts = fields.level(t + k * dt), GridPoints(fields.xs, base.x)
        nearest = pts.nearest()
        for fork in forks:
            fork.step(run, base, k, n, nearest, buf[k])
        run.step(base, controls[0], k, n, pts, nearest, buf[k])
        _check_forward(base.x)
    if not base.finite:
        raise NumericalError("variational process turned non-finite")
    for fork in forks:
        fork.finish()
    return controls, base, forks, buf


def _estimate(kind: str, driver: DriverSpec, t: float, x: float,
              G: GFunction1D, sol: PdeSolution, n_paths: int, n_steps: int,
              seed: int) -> SensitivityEstimate:
    """One-sided derivative estimates from the candidate controls' walk."""
    controls, base, forks, buf = _walk(kind, driver, t, x, G, sol, n_paths,
                                       n_steps, seed)
    kt = _k_totals(buf)
    walks = [(base.x, base.weight(kind), base.acc, kt)]
    for fork in forks:
        xT, weight, acc, kt_f = (base.x.copy(), base.weight(kind),
                                 base.acc.copy(), kt.copy())
        w = fork.walk
        xT[w.idx], weight[w.idx], acc[w.idx] = w.x, w.weight(kind), w.acc
        kt_f[w.idx] = _k_totals(buf, w.idx, fork.dk)
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
                sol: PdeSolution, *, n_paths: int = 10_000,
                n_steps: int = 256, seed: int = 0) -> SensitivityEstimate:
    """Monte Carlo one-sided space derivatives of the value function at
    (t, x): E[phi'(X_T) Xhat_T Gamma_T + int f_x Xhat Gamma ds +
    int g_x Xhat Gamma dQV] under extremal feedback controls (and the
    tie-flipped variant); plus takes the max over controls, minus the min."""
    return _estimate("x", driver, t, x, G, sol, n_paths, n_steps, seed)


def estimate_dt(driver: DriverSpec, t: float, x: float, G: GFunction1D,
                sol: PdeSolution, *, n_paths: int = 10_000,
                n_steps: int = 256, seed: int = 0) -> SensitivityEstimate:
    """Monte Carlo one-sided time derivatives at (t, x), 0 < t < T, via the
    time-variation process Xbar and the quadratic-variation correction
    g_z Z / (2 (T-t))."""
    _start_time(t, sol.grid.T, positive=True)
    return _estimate("t", driver, t, x, G, sol, n_paths, n_steps, seed)
