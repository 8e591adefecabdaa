"""Sublinear expectations of terminal and cylinder payoffs.

Two independent routes are kept deliberately separate and cross-checked in
tests: a PDE route (``gexpect_terminal`` / ``gexpect_cylinder`` solve the
fully nonlinear heat equation backward) and a trinomial lattice route
(``lattice_oracle`` runs dynamic programming with per-step volatility choice
over the interval endpoints; one step moves +dx, 0, -dx with probability
p(sigma) = sigma^2 dt / (2 dx^2) for each side move, which is worst-case
optimal here because the one-step value is linear in sigma^2).

``doob_check`` certifies the maximal-inequality constant on the same lattice
by a forward-backward sweep whose state is (node, running max of the
conditional-expectation process), with the running max living on the exact
finite set of values the process can attain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gcore import (CylinderFunctional, DomainError, DriverSpec, GFunction1D,
                    Grid1D, NumericalError, _as_vectorized, payoff_driver,
                    preset_driver)
from . import pde as _pde

_MAX_STATE_NODES = 250_000

# the nonlinear heat equation's driver: every coefficient at its default
_HEAT = DriverSpec(name="gheat", phi=np.zeros_like)


# ---------------------------------------------------------------------------
# lattice specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    """Trinomial lattice mesh: ``steps`` steps of size ``dt``, space step
    ``dx``, per-step volatility menu ``sigma_choices`` (sorted ascending)."""

    steps: int
    dt: float
    dx: float
    sigma_choices: tuple

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise DomainError(f"need steps >= 1, got {self.steps}")
        if not all(math.isfinite(v) and v > 0 for v in (self.dt, self.dx)):
            raise DomainError(f"need finite dt > 0 and dx > 0, got "
                              f"dt={self.dt}, dx={self.dx}")
        if self.dx * self.dx == 0.0:
            raise DomainError(f"dx^2 underflows to 0, got dx={self.dx}")
        choices = tuple(sorted(float(s) for s in self.sigma_choices))
        object.__setattr__(self, "sigma_choices", choices)
        if not choices:
            raise DomainError("sigma_choices must be nonempty")
        if choices[0] < 0:
            raise DomainError("volatilities must be >= 0")
        worst = choices[-1] ** 2 * self.dt
        if worst > self.dx ** 2 * (1 + 1e-12):
            raise DomainError(
                f"lattice explosion: sigma^2 dt = {worst:.6g} exceeds dx^2 = "
                f"{self.dx ** 2:.6g}")

    @property
    def T(self) -> float:
        return self.steps * self.dt

    @property
    def probs(self) -> tuple:
        """Side-move probability sigma^2 dt / (2 dx^2) of each choice."""
        return tuple(sig ** 2 * self.dt / (2.0 * self.dx ** 2)
                     for sig in self.sigma_choices)

    @classmethod
    def for_horizon(cls, T: float, steps: int, G: GFunction1D) -> "LatticeSpec":
        """``steps`` steps over [0, T] choosing between the interval ends."""
        if steps < 1:
            raise DomainError(f"need steps >= 1, got {steps}")
        dt = T / steps
        return cls(steps=steps, dt=dt, dx=G.sigma_high * math.sqrt(dt),
                   sigma_choices=(G.sigma_low, G.sigma_high))


# ---------------------------------------------------------------------------
# lattice engine
# ---------------------------------------------------------------------------

def _stage_bounds(X: CylinderFunctional, spec: LatticeSpec) -> list[int]:
    s = []
    for t in X.times:
        k = round(t / spec.dt)
        if abs(k * spec.dt - t) > 1e-9 * max(1.0, t):
            raise DomainError(f"stage time {t} does not align with the "
                              f"lattice step {spec.dt}")
        s.append(int(k))
    if s[0] < 1 or any(b <= a for a, b in zip(s, s[1:])):
        raise DomainError(f"stage steps must be strictly increasing: {s}")
    if s[-1] > spec.steps:
        raise DomainError(f"lattice horizon {spec.T} shorter than t_N={X.times[-1]}")
    past = 1
    for k in s:
        if past * (2 * k + 1) > _MAX_STATE_NODES:
            raise DomainError(
                "augmented lattice state space exceeds the node guard "
                f"({_MAX_STATE_NODES}); reduce stages or steps")
        past *= 2 * k + 1
    return s


def _terminal_tab(X: CylinderFunctional, s: list[int], dx: float) -> np.ndarray:
    offs = np.meshgrid(*[np.arange(-k, k + 1) for k in s], indexing="ij",
                       sparse=True)
    incs = []
    for i, g in enumerate(offs):
        prev = offs[i - 1] if i > 0 else 0
        incs.append((g - prev) * dx)
    f = _as_vectorized(X.psi, len(s))
    tab = np.asarray(f(*incs), dtype=float)
    return np.ascontiguousarray(
        np.broadcast_to(tab, tuple(2 * k + 1 for k in s)), dtype=float)


def _lattice_steps(s: list[int]):
    """The backward steps k = s[-1]-1, ..., 0 over the stage steps ``s``,
    each paired with the stage ``(s_prev, s_cur)`` to contract after step k
    (k = s_prev, the start of every stage but the first), else None."""
    sb = [0] + list(s)
    for i in range(len(s), 0, -1):
        for k in range(sb[i] - 1, sb[i - 1] - 1, -1):
            yield k, (sb[i - 1], sb[i]) if k == sb[i - 1] and i > 1 else None


def _contract(V: np.ndarray, s_prev: int, s_cur: int) -> np.ndarray:
    """Collapse the just-finished stage: at its start step the current node
    equals the newest recorded boundary position, so take that diagonal.
    Axes after the node axis are kept."""
    r_prev = 2 * s_prev + 1
    V3 = V.reshape((V.shape[0] // r_prev, r_prev) + V.shape[1:])
    a = np.arange(r_prev)
    return V3[:, a, a - s_prev + s_cur]


def _sup_step(V: np.ndarray, probs, rewards=None, policy: bool = False):
    """One backward step over axis 1 of ``V[P, nodes, ...]``.

    Each interior node takes the largest over the volatility choices of
    p (up + down) + (1 - 2p) mid, plus that choice's ``rewards`` entry if
    given; the end nodes keep their values.  Ties go to the later, larger
    sigma.  With ``policy``, also returns the chosen index (int8) per
    interior node.
    """
    up, dn, mid = V[:, 2:], V[:, :-2], V[:, 1:-1]
    best = arg = None
    for ci, pr in enumerate(probs):
        cand = pr * (up + dn) + (1.0 - 2.0 * pr) * mid
        if rewards is not None:
            cand += rewards[ci]
        if best is None:
            best = cand
            if policy:
                arg = np.zeros(cand.shape, dtype=np.int8)
        else:
            take = cand >= best  # ties prefer the larger sigma
            np.copyto(best, cand, where=take)
            if policy:
                arg[take] = ci
    V = V.copy()
    V[:, 1:-1] = best
    return (V, arg) if policy else V


def _sup_dp(tab: np.ndarray, s: list[int], probs,
            record: dict | None = None, policy: dict | None = None):
    """Backward maximizing DP over the augmented lattice.

    Returns the step-0 array (shape (1, 2*s[0]+1)); the value sits at the
    center column.  ``record[k]``, if requested, is the value array at step k
    in its minimal layout; ``policy[k]`` is (interior offsets, chosen-sigma
    index array) per step.
    """
    V = tab.reshape(-1, 2 * s[-1] + 1)
    if record is not None:
        record[s[-1]] = V.copy()
    for k, stage in _lattice_steps(s):
        if policy is None:
            V = _sup_step(V, probs)
        else:
            V, arg = _sup_step(V, probs, policy=True)
            half = V.shape[1] // 2
            policy[k] = (np.arange(-half + 1, half), arg)
        if stage is not None:
            V = _contract(V, *stage)
        if record is not None:
            record[k] = V.copy()
    return V


def lattice_oracle(X: CylinderFunctional, G: GFunction1D, spec: LatticeSpec,
                   *, return_policy: bool = False):
    """Worst-case lattice expectation of the cylinder payoff."""
    s = _stage_bounds(X, spec)
    tab = _terminal_tab(X, s, spec.dx)
    policy: dict | None = {} if return_policy else None
    V = _sup_dp(tab, s, spec.probs, policy=policy)
    value = float(V[0, s[0]])
    if return_policy:
        return value, policy
    return value


# ---------------------------------------------------------------------------
# PDE route
# ---------------------------------------------------------------------------

def _resolve_payoff(phi) -> DriverSpec:
    if isinstance(phi, DriverSpec):
        return phi
    if isinstance(phi, str):
        return preset_driver(phi)
    # bare callable: sample its slope so the wrapper's declared envelope is
    # not the default one (which a steep payoff legitimately exceeds); a
    # dense sweep catches narrow features that random pairs miss
    xs = np.linspace(-3.0, 3.0, 2049)
    step = 1e-4 * (1.0 + np.abs(xs))
    slope = np.abs(np.asarray(phi(xs + step), dtype=float)
                   - np.asarray(phi(xs - step), dtype=float)) / (2.0 * step)
    l1 = max(1.0, 2.0 * float(np.max(slope)))
    return payoff_driver(phi, name="terminal", L1=l1)


def gexpect_terminal(phi, T: float, G: GFunction1D, *, nx: int = 401,
                     safety: float = 0.9) -> float:
    """Worst-case expectation of phi at horizon T, via the nonlinear heat
    equation on ``Grid1D.default_for``; returns u(0, 0).  Raises
    :class:`DomainError` for a driver that is not a pure payoff, whose
    form is not ``GHEAT``."""
    driver = _resolve_payoff(phi)
    grid = Grid1D.default_for(0.0, T, G, nx=nx)
    form = _pde._form(driver)
    if form is not _pde.PdeForm.GHEAT:
        raise DomainError(f"driver '{driver.name}' is not a pure payoff: it "
                          f"fits {form.value}, not gheat")
    # only u(0, .) is read: one row stepped to t = 0, no dense field
    nt, dt, _ = _pde._time_steps(grid, (G,), driver, safety)
    u0 = _pde._last_level(driver, grid, (G,), nt, dt,
                          _pde._terminal_data(driver, grid.xs)[None])
    return float(np.interp(0.0, grid.xs, u0[0]))


def default_stage_grids(X: CylinderFunctional, G: GFunction1D,
                        nx: int = 201) -> tuple:
    """Per-stage increment grids sized to the stage horizons."""
    return tuple(Grid1D.default_for(0.0, t - prev, G, nx=nx)
                 for prev, t in zip((0.0,) + X.times, X.times))


def _rows_at_zero(xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    j = int(np.searchsorted(xs, 0.0))
    if j < len(xs) and xs[j] == 0.0:
        return rows[:, j]
    w = (0.0 - xs[j - 1]) / (xs[j] - xs[j - 1])
    return (1.0 - w) * rows[:, j - 1] + w * rows[:, j]


def _cylinder_recursion(X: CylinderFunctional, G: GFunction1D, grids,
                        down_to: int, safety: float) -> np.ndarray:
    """Peel stages N..down_to+1 on the ``default_stage_grids`` ``grids``;
    returns the table over grids[:down_to]."""
    N = X.n_stages
    if N > 4:
        raise DomainError(f"cylinder recursion supports N <= 4, got {N}")
    shape = tuple(g.nx for g in grids)
    # the time steps of every stage, and with them the work budget of every
    # stage, and the table's bytes are settled before the table is built
    steps = {i: _pde._time_steps(grids[i - 1], (G,), _HEAT, safety,
                                 rows=math.prod(shape[:i - 1]))[:2]
             for i in range(N, down_to, -1)}
    nbytes = 8 * math.prod(shape)
    if nbytes > _pde.DENSE_BYTES_MAX:
        raise NumericalError(
            f"cylinder table needs {nbytes / 2 ** 30:.3g} GiB for nx={shape}; "
            f"the limit is {_pde.DENSE_BYTES_MAX / 2 ** 30:.3g} GiB")
    f = _as_vectorized(X.psi, N)
    mesh = np.meshgrid(*[g.xs for g in grids], indexing="ij", sparse=True)
    tab = np.ascontiguousarray(
        np.broadcast_to(np.asarray(f(*mesh), dtype=float), shape),
        dtype=float)
    for i in range(N, down_to, -1):
        grid = grids[i - 1]
        # only the level at the stage start is kept
        rows = _pde._last_level(_HEAT, grid, (G,), *steps[i],
                                tab.reshape(-1, grid.nx))
        tab = _rows_at_zero(grid.xs, rows).reshape(tab.shape[:-1])
    return tab


def gexpect_cylinder(X: CylinderFunctional, G: GFunction1D, *,
                     nx: int = 201, safety: float = 0.9) -> float:
    """Worst-case expectation of a cylinder payoff (N <= 4 stages) via one
    backward heat solve per stage, vectorized over the outer tabulation."""
    grids = default_stage_grids(X, G, nx=nx)
    return float(_cylinder_recursion(X, G, grids, 0, safety))


@dataclass(frozen=True)
class TableFunction:
    """Conditional-expectation table over the first ``stage`` increments."""

    grids: tuple
    values: np.ndarray

    def __call__(self, *args):
        if len(args) != len(self.grids):
            raise DomainError(f"expected {len(self.grids)} arguments")
        if len(self.grids) == 1:
            return np.interp(args[0], self.grids[0].xs, self.values)
        if len(self.grids) == 2:
            return _bilinear(self.grids[0].xs, self.grids[1].xs, self.values,
                             np.asarray(args[0], dtype=float),
                             np.asarray(args[1], dtype=float))
        raise DomainError("table interpolation supports up to 2 stages")


def _bilinear(xs, ys, table, x, y):
    i = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(ys, y) - 1, 0, len(ys) - 2)
    wx = np.clip((x - xs[i]) / (xs[i + 1] - xs[i]), 0.0, 1.0)
    wy = np.clip((y - ys[j]) / (ys[j + 1] - ys[j]), 0.0, 1.0)
    return ((1 - wx) * (1 - wy) * table[i, j] + wx * (1 - wy) * table[i + 1, j]
            + (1 - wx) * wy * table[i, j + 1] + wx * wy * table[i + 1, j + 1])


def conditional_gexpect(X: CylinderFunctional, stage: int, G: GFunction1D, *,
                        nx: int = 201, safety: float = 0.9) -> TableFunction:
    """Conditional worst-case expectation at stage time t_stage, tabulated
    over the first ``stage`` increments.

    Feeding the table back through the remaining recursion (as a new
    cylinder payoff on times[:stage]) reproduces ``gexpect_cylinder(X)``;
    tests rely on that tower identity.
    """
    if not (1 <= stage < X.n_stages):
        raise DomainError(f"need 1 <= stage < {X.n_stages}, got {stage}")
    grids = default_stage_grids(X, G, nx=nx)
    tab = _cylinder_recursion(X, G, grids, stage, safety)
    return TableFunction(grids=grids[:stage], values=tab)


# ---------------------------------------------------------------------------
# Doob-type maximal inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoobReport:
    """One maximal-inequality certificate: lhs <= C * rhs, margin = rhs-lhs."""

    p: float
    p_prime: float
    C: float
    lhs: float
    rhs: float
    margin: float


def doob_constant(p: float, p_prime: float) -> float:
    return (1.0 + p / (p_prime - p)) ** (1.0 / p)


def _running_max_lhs(records: dict, s: list[int], probs,
                     pw: float) -> float:
    """E-hat[ (sup_k M_k)^pw ] by DP over (lattice state, running max), the
    running max ranging over the exact finite set of recorded M values."""
    mvals = np.unique(np.concatenate([v.ravel() for v in records.values()]))
    mvals = np.concatenate([[-np.inf], mvals])
    powv = mvals ** pw
    powv[0] = 0.0  # sentinel, never selected
    m_axis = np.arange(len(mvals))

    def raised(rec: np.ndarray) -> np.ndarray:
        """Per (node, running-max rank): the rank after meeting ``rec``."""
        ranks = np.searchsorted(mvals, rec).astype(np.int64)
        return np.maximum(m_axis[None, None, :], ranks[:, :, None])

    W = powv[raised(records[s[-1]])]
    for k, stage in _lattice_steps(s):
        C = _sup_step(W, probs)
        if stage is not None:
            C = _contract(C, *stage)
        W = np.take_along_axis(C, np.broadcast_to(raised(records[k]), C.shape),
                               axis=2)
    return float(W[0, s[0], 0])


def doob_check(xi: CylinderFunctional, p: float, p_prime: float,
               G: GFunction1D, spec: LatticeSpec) -> DoobReport:
    """Certify the maximal inequality for |xi| on the lattice.

    lhs = E-hat[ sup_k (E-hat_k |xi|)^p ]^(1/p) against
    rhs = C(p, p') * E-hat[ |xi|^p' ]^(1/p').
    """
    if not (1.0 <= p < p_prime):
        raise DomainError(f"need 1 <= p < p_prime, got ({p}, {p_prime})")
    s = _stage_bounds(xi, spec)
    probs = spec.probs
    tab = np.abs(_terminal_tab(xi, s, spec.dx))
    records: dict = {}
    _sup_dp(tab, s, probs, record=records)
    lhs = _running_max_lhs(records, s, probs, p) ** (1.0 / p)
    rhs_e = float(_sup_dp(tab ** p_prime, s, probs)[0, s[0]])
    C = doob_constant(p, p_prime)
    rhs = C * rhs_e ** (1.0 / p_prime)
    return DoobReport(p=p, p_prime=p_prime, C=C, lhs=lhs, rhs=rhs,
                      margin=rhs - lhs)
