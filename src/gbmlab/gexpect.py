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
                    Grid1D, NumericalError, _as_vectorized, _count, _horizon,
                    charge, payoff_driver, preset_driver, work)
from . import pde as _pde

_MAX_STATE_NODES = 250_000

# Most node-steps one lattice DP may take, each step charged at least
# DP_LEVEL_NODES_MIN nodes; ``_running_max_lhs`` is charged (node x
# value)-steps, each node carrying its running-max values.  A step costs
# about c0 + c1 * nodes.  On a 2-core Intel Xeon VM (numpy 2.4):
# - a level of ``gbsde.dynamic_programming_check`` (two field reads on
#   every node, f, g and the sup step; nx = 401, ``quadratic`` and
#   ``sine-gz``): c0 = 150 to 250 us, c1 = 100 to 120 ns;
# - a step of ``_sup_dp`` (one-stage lattices of 64 to 4096 steps): c0
#   about 19 us, c1 = 4 to 9 ns;
# - a step of ``_running_max_lhs`` (``doob``, 8 to 100 steps, one and two
#   stages): c0 about 45 us, c1 = 19 to 33 ns a (node x value).
# So a charged unit costs at most c1 + c0 / DP_LEVEL_NODES_MIN: 2 c1 for
# the dp-check level (16 s for the whole budget; the widest dp-check
# lattice under it, steps = 5792, took 6.3 to 6.9 s), about 14 ns for
# ``_sup_dp`` (0.9 s) and 44 ns for ``_running_max_lhs`` (3 s; ``doob
# --steps 110``, charged 6.5e7, took 1.1 s).  The floor binds a
# one-stage lattice only below 2048 steps, whose charge stays under 2^23.
# The biggest charges in the test suite are 2.6e5
# node-steps (64 steps of dp-check or of ``lattice_oracle``, 256x
# headroom) and 3.1e6 (node x value)-steps (a three-stage ``doob_check``
# of 8 steps, 989 values); in the benchmark 2.6e5 (``stability``'s
# 64-step lattice), 3.3e4 (dp-check, 8 steps) and 4.5e4 (``doob --xi
# two-stage``, 8 steps, 46 values).  A run that asks for more than this
# exits with a NumericalError before the DP (before the PDE solve, for
# dp-check).
DP_NODE_STEPS_MAX = 2 ** 26
DP_LEVEL_NODES_MIN = 4096

# the nonlinear heat equation's driver: every coefficient at its default
_HEAT = DriverSpec(name="gheat", phi=np.zeros_like)


# ---------------------------------------------------------------------------
# lattice specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    """Trinomial lattice mesh: ``steps`` steps of size ``dt``, space step
    ``dx``.  Its volatilities are the ends of the generator it runs under
    (``probs``)."""

    steps: int
    dt: float
    dx: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", _count("steps", self.steps))
        if not all(math.isfinite(v) and v > 0 for v in (self.dt, self.dx)):
            raise DomainError(f"need finite dt > 0 and dx > 0, got "
                              f"dt={self.dt}, dx={self.dx}")
        if self.dx * self.dx == 0.0:
            raise DomainError(f"dx^2 underflows to 0, got dx={self.dx}")

    @property
    def T(self) -> float:
        return self.steps * self.dt

    def probs(self, G: GFunction1D) -> tuple:
        """Side-move probability sigma^2 dt / (2 dx^2) of sigma_low and of
        sigma_high, in that order; :class:`DomainError` if sigma_high^2 dt
        exceeds dx^2, where the middle move's probability turns negative."""
        worst = G.sigma_high ** 2 * self.dt
        if worst > self.dx ** 2 * (1 + 1e-12):
            raise DomainError(
                f"lattice explosion: sigma^2 dt = {worst:.6g} exceeds dx^2 = "
                f"{self.dx ** 2:.6g}")
        return tuple(sig ** 2 * self.dt / (2.0 * self.dx ** 2)
                     for sig in (G.sigma_low, G.sigma_high))

    @classmethod
    def for_horizon(cls, T: float, steps: int, G: GFunction1D) -> "LatticeSpec":
        """``steps`` steps over [0, T], dx = sigma_high sqrt(dt) for ``G``."""
        steps = _count("steps", steps)
        _horizon("T", T)
        dt = T / steps
        return cls(steps=steps, dt=dt, dx=G.sigma_high * math.sqrt(dt))


# ---------------------------------------------------------------------------
# lattice engine
# ---------------------------------------------------------------------------

def _node_steps(s: list[int], depth: int = 1,
                floor: int = DP_LEVEL_NODES_MIN) -> int:
    """Node-steps of ``_sup_dp`` over the stage steps ``s``, each node
    carrying ``depth`` values and each step charged at least ``floor``:
    stage i steps s_i - s_(i-1) times over the product of the widths
    2 s_j + 1, j <= i."""
    total, width, prev = 0, 1, 0
    for k in s:
        width *= 2 * k + 1
        total += (k - prev) * max(width * depth, floor)
        prev = k
    return total


def _stage_bounds(X: CylinderFunctional, spec: LatticeSpec,
                  dps: int = 1) -> list[int]:
    """The lattice steps of the stage times; charges the state count and
    the node-steps of ``dps`` DPs over them."""
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
    charge("augmented lattice (node guard)",
           math.prod(2 * k + 1 for k in s), _MAX_STATE_NODES, "nodes",
           f"stage steps {s}")
    charge("lattice", dps * _node_steps(s), DP_NODE_STEPS_MAX, "node-steps",
           f"stage steps {s}, {dps} DP(s), each step charged at least "
           f"{DP_LEVEL_NODES_MIN} nodes")
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


def _sup_step(V: np.ndarray, probs, rewards=None) -> np.ndarray:
    """One backward step over axis 1 of ``V[P, nodes, ...]``.

    Each interior node takes the largest over the volatility choices of
    p (up + down) + (1 - 2p) mid, plus that choice's ``rewards`` entry if
    given; the end nodes keep their values.  Ties go to the later, larger
    sigma.
    """
    work()
    up, dn, mid = V[:, 2:], V[:, :-2], V[:, 1:-1]
    best = None
    for ci, pr in enumerate(probs):
        cand = pr * (up + dn) + (1.0 - 2.0 * pr) * mid
        if rewards is not None:
            cand += rewards[ci]
        if best is None:
            best = cand
        else:
            np.copyto(best, cand, where=cand >= best)  # ties: larger sigma
    V = V.copy()
    V[:, 1:-1] = best
    return V


def _sup_dp(tab: np.ndarray, s: list[int], probs,
            record: dict | None = None) -> np.ndarray:
    """Backward maximizing DP over the augmented lattice.

    Returns the step-0 array (shape (1, 2*s[0]+1)); the value sits at the
    center column.  ``record[k]``, if requested, is the value array at step k
    in its minimal layout.
    """
    V = tab.reshape(-1, 2 * s[-1] + 1)
    if record is not None:
        record[s[-1]] = V.copy()
    for k, stage in _lattice_steps(s):
        V = _sup_step(V, probs)
        if stage is not None:
            V = _contract(V, *stage)
        if record is not None:
            record[k] = V.copy()
    return V


def lattice_oracle(X: CylinderFunctional, G: GFunction1D,
                   spec: LatticeSpec) -> float:
    """Worst-case lattice expectation of the cylinder payoff under ``G``,
    each step choosing between G's ends on the mesh ``spec``
    (:class:`DomainError` if its dx cannot carry sigma_high)."""
    probs = spec.probs(G)
    s = _stage_bounds(X, spec)
    tab = _terminal_tab(X, s, spec.dx)
    return float(_sup_dp(tab, s, probs)[0, s[0]])


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


def gexpect_terminal(phi, T: float, G: GFunction1D, *,
                     nx: int = 401) -> float:
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
    nt, dt = _pde._time_steps(grid, (G,), driver)
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


def gexpect_cylinder(X: CylinderFunctional, G: GFunction1D, *,
                     nx: int = 201) -> float:
    """Worst-case expectation of a cylinder payoff (N <= 4 stages) via one
    backward heat solve per stage on the ``default_stage_grids``,
    vectorized over the outer tabulation."""
    N = X.n_stages
    if N > 4:
        raise DomainError(f"cylinder recursion supports N <= 4, got {N}")
    grids = default_stage_grids(X, G, nx=nx)
    shape = tuple(g.nx for g in grids)
    # the time steps of every stage, and with them the work budget of every
    # stage, and the table's bytes are settled before the table is built
    steps = {i: _pde._time_steps(grids[i - 1], (G,), _HEAT,
                                 rows=math.prod(shape[:i - 1]))
             for i in range(N, 0, -1)}
    charge("cylinder table", 8 * math.prod(shape), _pde.DENSE_BYTES_MAX,
           "bytes", f"nx={shape}")
    work()
    f = _as_vectorized(X.psi, N)
    mesh = np.meshgrid(*[g.xs for g in grids], indexing="ij", sparse=True)
    tab = np.ascontiguousarray(
        np.broadcast_to(np.asarray(f(*mesh), dtype=float), shape),
        dtype=float)
    for i in range(N, 0, -1):
        grid = grids[i - 1]
        # only the level at the stage start is kept
        rows = _pde._last_level(_HEAT, grid, (G,), *steps[i],
                                tab.reshape(-1, grid.nx))
        tab = _rows_at_zero(grid.xs, rows).reshape(tab.shape[:-1])
    return float(tab)


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


def _finite_power(v: np.ndarray, pw: float, name: str) -> np.ndarray:
    """``v ** pw``, refused with :class:`NumericalError` before the DP that
    reads it if any entry is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = v ** pw
    if not np.isfinite(out).all():
        raise NumericalError(f"the {name} table is not finite: "
                             f"max {float(np.max(v)):.3g} to the power {pw:g}")
    return out


def doob_constant(p: float, p_prime: float) -> float:
    return (1.0 + p / (p_prime - p)) ** (1.0 / p)


def _running_max_lhs(records: dict, s: list[int], probs,
                     pw: float) -> float:
    """E-hat[ (sup_k M_k)^pw ] by DP over (lattice state, running max), the
    running max ranging over the exact finite set of recorded M values."""
    mvals = np.unique(np.concatenate([v.ravel() for v in records.values()]))
    mvals = np.concatenate([[-np.inf], mvals])
    # at most six arrays of 8 bytes a (node, value) are alive at once
    # (tracemalloc: 40 to 48 bytes from 16 steps up); the biggest charge
    # in the test suite is 36 MB (three stages, 8 steps), in the
    # benchmark 0.34 MB (``doob --xi two-stage``)
    detail = f"stage steps {s} and {len(mvals)} running-max values"
    charge("running max", 48 * records[s[-1]].size * len(mvals),
           _pde.DENSE_BYTES_MAX, "bytes", detail)
    charge("running max", _node_steps(s, len(mvals)), DP_NODE_STEPS_MAX,
           "(node x value)-steps", f"{detail}, each step charged at least "
           f"{DP_LEVEL_NODES_MIN} of them")
    powv = _finite_power(mvals[1:], pw, "M^p")
    powv = np.concatenate([[0.0], powv])  # sentinel, never selected
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
    rhs = C(p, p') * E-hat[ |xi|^p' ]^(1/p'), both under ``G`` on the mesh
    ``spec`` (:class:`DomainError` if its dx cannot carry sigma_high).
    """
    if not (1.0 <= p < p_prime < math.inf):
        raise DomainError(f"need 1 <= p < p_prime, both finite, got "
                          f"({p}, {p_prime})")
    probs = spec.probs(G)
    s = _stage_bounds(xi, spec, dps=2)
    tab = np.abs(_terminal_tab(xi, s, spec.dx))
    tab_pp = _finite_power(tab, p_prime, "|xi|^p'")
    # the records, their concatenation and np.unique's sorted copy: at
    # most 4 x 8 bytes a recorded value (tracemalloc: 3.3 to 3.7 x 8); the
    # biggest charge in the test suite is 126 kB, in the benchmark 26 kB
    charge("doob record storage",
           32 * (_node_steps(s, floor=0) + tab.size), _pde.DENSE_BYTES_MAX,
           "bytes", f"stage steps {s}")
    records: dict = {}
    _sup_dp(tab, s, probs, record=records)
    lhs = _running_max_lhs(records, s, probs, p) ** (1.0 / p)
    rhs_e = float(_sup_dp(tab_pp, s, probs)[0, s[0]])
    C = doob_constant(p, p_prime)
    rhs = C * rhs_e ** (1.0 / p_prime)
    return DoobReport(p=p, p_prime=p_prime, C=C, lhs=lhs, rhs=rhs,
                      margin=rhs - lhs)
