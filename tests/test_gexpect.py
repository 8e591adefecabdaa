"""Worst-case expectations, the lattice oracle, and the maximal inequality."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from gbmlab import gexpect
from gbmlab.gcore import (
    CylinderFunctional,
    DomainError,
    make_gfunction,
    payoff_driver,
    preset_driver,
)
from gbmlab.gexpect import (
    LatticeSpec,
    conditional_gexpect,
    doob_check,
    doob_constant,
    gexpect_cylinder,
    gexpect_terminal,
    lattice_oracle,
)

G01 = make_gfunction(0.0, 1.0)


# ---------------------------------------------------------------------------
# terminal payoffs
# ---------------------------------------------------------------------------

def test_terminal_quadratic():
    assert abs(gexpect_terminal(preset_driver("quadratic"), 1.0, G01)
               - 1.0) <= 1e-2


def test_terminal_linear():
    v = gexpect_terminal(lambda x: np.asarray(x, dtype=float), 1.0, G01)
    assert abs(v) <= 1e-3


def test_terminal_absolute_value():
    v = gexpect_terminal(preset_driver("abs"), 1.0, G01)
    assert abs(v - math.sqrt(2.0 / math.pi)) <= 1e-2


def test_terminal_monotone_and_sublinear():
    cos_v = gexpect_terminal(np.cos, 1.0, G01)
    abs_v = gexpect_terminal(preset_driver("abs"), 1.0, G01)
    both = gexpect_terminal(
        lambda x: np.cos(np.asarray(x, dtype=float))
        + np.abs(np.asarray(x, dtype=float)), 1.0, G01)
    shifted = gexpect_terminal(
        lambda x: np.cos(np.asarray(x, dtype=float)) + 0.5, 1.0, G01)
    assert both <= cos_v + abs_v + 1e-10
    assert cos_v <= shifted + 1e-12


# ---------------------------------------------------------------------------
# cylinder functionals
# ---------------------------------------------------------------------------

def test_cylinder_linear_sum():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a + b)
    assert abs(gexpect_cylinder(X, G01)) <= 1e-2


def test_cylinder_sum_of_squares():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a ** 2 + b ** 2)
    assert abs(gexpect_cylinder(X, G01) - 1.0) <= 2e-2


def test_cylinder_product():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a * b)
    assert abs(gexpect_cylinder(X, G01)) <= 2e-2


def test_conditional_independent_square():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: b ** 2)
    tab = conditional_gexpect(X, 1, G01)
    probe = np.linspace(-1.5, 1.5, 7)
    assert np.max(np.abs(tab(probe) - 0.5)) <= 2e-2


def test_conditional_measurable_stage():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a)
    tab = conditional_gexpect(X, 1, G01)
    xs = tab.grids[0].xs
    assert np.array_equal(tab(xs), xs)


def test_conditional_product_vanishes():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a * b)
    tab = conditional_gexpect(X, 1, G01)
    probe = np.linspace(-1.5, 1.5, 7)
    assert np.max(np.abs(tab(probe))) <= 1e-2


def test_tower_identity():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: np.abs(a + b))
    direct = gexpect_cylinder(X, G01)
    tab = conditional_gexpect(X, 1, G01)
    outer = gexpect_cylinder(
        CylinderFunctional(times=(0.5,), psi=tab, name="stage-1-table"), G01)
    assert abs(direct - outer) <= 2e-2


# ---------------------------------------------------------------------------
# lattice oracle
# ---------------------------------------------------------------------------

def test_lattice_convex_value():
    X = CylinderFunctional(times=(1.0,), psi=lambda a: a ** 2)
    v = lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 16, G01))
    assert abs(v - 1.0) <= 2e-2


def test_lattice_concave_freezes():
    X = CylinderFunctional(times=(1.0,), psi=lambda a: -(a ** 2))
    v = lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 16, G01))
    assert abs(v) <= 1e-12


def test_lattice_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec(steps=0, dt=0.1, dx=0.4, sigma_choices=(0.0, 1.0))
    with pytest.raises(DomainError):
        LatticeSpec(steps=4, dt=0.25, dx=0.1, sigma_choices=(0.0, 1.0))
    with pytest.raises(DomainError):
        LatticeSpec(steps=4, dt=0.25, dx=0.5, sigma_choices=())


def test_lattice_rejects_unaligned_stage_times():
    X = CylinderFunctional(times=(0.3,), psi=lambda a: np.abs(a))
    with pytest.raises(DomainError):
        lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 8, G01))


def test_pde_matches_lattice_on_payoff_suite():
    suite = (
        preset_driver("quadratic"),
        payoff_driver(lambda x: -np.asarray(x, dtype=float) ** 2,
                      lambda x: -2.0 * np.asarray(x, dtype=float),
                      name="neg-quadratic", L1=1.0, m=1),
        preset_driver("abs"),
        payoff_driver(np.cos, lambda x: -np.sin(np.asarray(x, dtype=float)),
                      name="cos", L1=1.0, m=1),
        preset_driver("smooth-bump"),
    )
    spec = LatticeSpec.for_horizon(1.0, 64, G01)
    for driver in suite:
        v_pde = gexpect_terminal(driver, 1.0, G01, nx=801)
        X = CylinderFunctional(times=(1.0,), psi=driver.phi, name=driver.name)
        v_lat = lattice_oracle(X, G01, spec)
        assert abs(v_pde - v_lat) <= 2e-2, driver.name


# ---------------------------------------------------------------------------
# maximal inequality
# ---------------------------------------------------------------------------

def test_doob_constant_frozen():
    assert doob_constant(2.0, 4.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_doob_constant_certificate():
    xi = CylinderFunctional(times=(1.0,),
                            psi=lambda a: np.full_like(
                                np.asarray(a, dtype=float), 0.7))
    rep = doob_check(xi, 2.0, 4.0, G01, LatticeSpec.for_horizon(1.0, 8, G01))
    assert rep.C == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert rep.lhs == pytest.approx(0.7, abs=1e-12)
    assert rep.rhs == pytest.approx(0.7 * math.sqrt(2.0), abs=1e-12)
    assert rep.margin == pytest.approx(0.7 * (math.sqrt(2.0) - 1.0), abs=1e-12)


def test_doob_terminal_absolute_value():
    xi = CylinderFunctional(times=(1.0,), psi=lambda a: np.abs(a))
    rep = doob_check(xi, 2.0, 4.0, G01, LatticeSpec.for_horizon(1.0, 8, G01))
    assert rep.margin >= 0.0


def test_doob_rejects_bad_exponents():
    xi = CylinderFunctional(times=(1.0,), psi=lambda a: np.abs(a))
    spec = LatticeSpec.for_horizon(1.0, 8, G01)
    with pytest.raises(DomainError):
        doob_check(xi, 4.0, 2.0, G01, spec)
    with pytest.raises(DomainError):
        doob_check(xi, 0.5, 2.0, G01, spec)


def test_doob_randomized_battery():
    rng = np.random.default_rng(7)
    spec = LatticeSpec.for_horizon(1.0, 8, G01)
    start = time.perf_counter()
    for _ in range(10):
        n = int(rng.integers(1, 3))
        ks = np.sort(rng.choice(np.arange(1, 9), size=n, replace=False))
        times = tuple(float(k) * spec.dt for k in ks)
        c = rng.uniform(-1.0, 1.0, size=3)
        if n == 1:
            xi = CylinderFunctional(
                times=times,
                psi=lambda a, c=c: c[0] * np.abs(a) + c[1] * np.cos(a + c[2]))
        else:
            xi = CylinderFunctional(
                times=times,
                psi=lambda a, b, c=c: (c[0] * np.abs(a) + c[1] * np.abs(b)
                                       + c[2] * np.cos(a + b)))
        for p, pp in ((1.5, 2.0), (2.0, 4.0), (3.0, 4.0)):
            rep = doob_check(xi, p, pp, G01, spec)
            assert rep.margin >= 0.0, (times, p, pp)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# the folded trinomial step against the loops it replaced
# ---------------------------------------------------------------------------

def _ref_contract(V, s_prev, s_cur):
    r_prev = 2 * s_prev + 1
    P = V.shape[0] // r_prev
    V3 = V.reshape(P, r_prev, V.shape[1])
    a = np.arange(r_prev)
    return V3[:, a, a - s_prev + s_cur]


def _ref_sup_dp(tab, s, probs, record=None, policy=None):
    """The lattice DP with its own step, stage walk and contraction."""
    N = len(s)
    V = tab.reshape(-1, 2 * s[-1] + 1)
    if record is not None:
        record[s[-1]] = V.copy()
    sb = [0] + list(s)
    for i in range(N, 0, -1):
        for k in range(sb[i] - 1, sb[i - 1] - 1, -1):
            up, dn, mid = V[:, 2:], V[:, :-2], V[:, 1:-1]
            best = None
            arg = None
            for ci, pr in enumerate(probs):
                cand = pr * (up + dn) + (1.0 - 2.0 * pr) * mid
                if best is None:
                    best = cand
                    arg = np.zeros(cand.shape, dtype=np.int8)
                else:
                    take = cand >= best  # ties prefer the larger sigma
                    best = np.where(take, cand, best)
                    arg[take] = ci
            V = V.copy()
            V[:, 1:-1] = best
            if policy is not None:
                half = (V.shape[1] - 1) // 2
                policy[k] = (np.arange(-half + 1, half), arg)
            if k == sb[i - 1] and i > 1:
                V = _ref_contract(V, sb[i - 1], sb[i])
            if record is not None:
                record[k] = V.copy()
    return V


def _ref_running_max_lhs(records, s, probs, pw):
    """The running-max DP with its own step, stage walk and contraction."""
    mvals = np.unique(np.concatenate([v.ravel() for v in records.values()]))
    mvals = np.concatenate([[-np.inf], mvals])
    powv = mvals ** pw
    powv[0] = 0.0  # sentinel, never selected
    n_m = len(mvals)

    def ranks(arr):
        return np.searchsorted(mvals, arr).astype(np.int64)

    sb = [0] + list(s)
    N = len(s)
    top = s[-1]
    r_top = ranks(records[top])
    m_axis = np.arange(n_m)
    W = powv[np.maximum(m_axis[None, None, :], r_top[:, :, None])]
    for i in range(N, 0, -1):
        for k in range(sb[i] - 1, sb[i - 1] - 1, -1):
            up, dn, mid = W[:, 2:, :], W[:, :-2, :], W[:, 1:-1, :]
            best = None
            for pr in probs:
                cand = pr * (up + dn) + (1.0 - 2.0 * pr) * mid
                best = cand if best is None else np.maximum(best, cand)
            C = W.copy()
            C[:, 1:-1, :] = best
            if k == sb[i - 1] and i > 1:
                r_prev = 2 * sb[i - 1] + 1
                P = C.shape[0] // r_prev
                C4 = C.reshape(P, r_prev, C.shape[1], n_m)
                a = np.arange(r_prev)
                C = C4[:, a, a - sb[i - 1] + sb[i], :]
            rk = ranks(records[k])
            idx = np.broadcast_to(np.maximum(m_axis[None, None, :],
                                             rk[:, :, None]), C.shape)
            W = np.take_along_axis(C, idx, axis=2)
    return float(W[0, s[0], 0])


FOLD_PAYOFFS = {
    "one-stage": CylinderFunctional(times=(1.0,),
                                    psi=lambda a: a * a - np.abs(a)),
    # -0.0 wherever a == b
    "signed-zero": CylinderFunctional(times=(0.5, 1.0),
                                      psi=lambda a, b: -np.abs(a - b)),
    "three-stage": CylinderFunctional(
        times=(0.25, 0.5, 1.0),
        psi=lambda a, b, c: np.cos(a + 2.0 * b) - c * c + np.abs(b)),
}


@pytest.mark.parametrize("payoff", sorted(FOLD_PAYOFFS))
@pytest.mark.parametrize("sigma_low", [0.0, 0.5, 1.0])
def test_folded_lattice_equals_the_separate_loops(payoff, sigma_low):
    X, G = FOLD_PAYOFFS[payoff], make_gfunction(sigma_low, 1.0)
    spec = LatticeSpec.for_horizon(1.0, 8, G)
    s = gexpect._stage_bounds(X, spec)
    probs = [sig ** 2 * spec.dt / (2.0 * spec.dx ** 2)
             for sig in spec.sigma_choices]
    assert spec.probs == tuple(probs)
    tab = gexpect._terminal_tab(X, s, spec.dx)
    if payoff == "signed-zero":
        assert np.signbit(tab[tab == 0.0]).all()

    ref_policy: dict = {}
    ref = _ref_sup_dp(tab, s, probs, policy=ref_policy)
    value, policy = lattice_oracle(X, G, spec, return_policy=True)
    assert np.float64(value).tobytes() == ref[0, s[0]].tobytes()
    assert sorted(policy) == sorted(ref_policy)
    for k, (offs, arg) in ref_policy.items():
        assert policy[k][0].tobytes() == offs.tobytes()
        assert policy[k][1].dtype == arg.dtype
        assert policy[k][1].shape == arg.shape
        assert policy[k][1].tobytes() == arg.tobytes()

    absx = np.abs(tab)
    records, ref_records = {}, {}
    assert (gexpect._sup_dp(absx, s, spec.probs, record=records).tobytes()
            == _ref_sup_dp(absx, s, probs, record=ref_records).tobytes())
    assert sorted(records) == sorted(ref_records)
    for k, rec in ref_records.items():
        assert records[k].shape == rec.shape
        assert records[k].tobytes() == rec.tobytes()
    for p, pp in ((1.0, 2.0), (1.5, 3.0)):
        lhs = gexpect._running_max_lhs(records, s, spec.probs, p)
        assert (np.float64(lhs).tobytes() == np.float64(
            _ref_running_max_lhs(ref_records, s, probs, p)).tobytes())
        rep = doob_check(X, p, pp, G, spec)
        want_lhs = _ref_running_max_lhs(ref_records, s, probs, p) ** (1.0 / p)
        want_rhs = doob_constant(p, pp) * float(
            _ref_sup_dp(absx ** pp, s, probs)[0, s[0]]) ** (1.0 / pp)
        assert np.float64(rep.lhs).tobytes() == np.float64(want_lhs).tobytes()
        assert np.float64(rep.rhs).tobytes() == np.float64(want_rhs).tobytes()
