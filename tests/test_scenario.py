"""Path simulation, variational processes, and derivative estimators."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from gbmlab import scenario
from gbmlab.gcore import (
    DomainError,
    Grid1D,
    make_gfunction,
    payoff_driver,
    preset_driver,
    regularize,
)
from gbmlab.pde import (
    FieldInterpolator,
    PdeForm,
    PdeProblem,
    derivatives,
    solve_terminal_pde,
)
from gbmlab.scenario import (
    VolatilityControl,
    estimate_dt,
    estimate_dx,
    forward_sde,
    k_increments,
    mean_and_se,
    pairwise_sum,
    path_normals,
    simulate_paths,
    variational_paths,
    verify_measure_in_Ptx,
)

G01 = make_gfunction(0.0, 1.0)


def _geometric_driver():
    return dataclasses.replace(
        preset_driver("quadratic"), name="geometric",
        sigma=lambda t, x: np.asarray(x, dtype=float),
        sigma_x=lambda t, x: np.ones_like(np.asarray(x, dtype=float)))


def _linear_driver():
    return payoff_driver(lambda x: np.asarray(x, dtype=float),
                         lambda x: np.ones_like(np.asarray(x, dtype=float)),
                         name="linear", L1=1.0, m=1)


def _solve(driver, G=G01, form=PdeForm.GHEAT, nx=401, T=1.0):
    grid = Grid1D.default_for(0.0, T, G, nx=nx)
    return solve_terminal_pde(PdeProblem(grid, driver, G, form))


# ---------------------------------------------------------------------------
# noise generation
# ---------------------------------------------------------------------------

def test_path_normals_split_stability():
    full = path_normals(0, 100, 16)
    head = path_normals(0, 40, 16)
    tail = path_normals(0, 60, 16, path_offset=40)
    assert np.array_equal(full[:40], head)
    assert np.array_equal(full[40:], tail)


def _fresh_stream_normals(seed, n_paths, n_steps, path_offset=0):
    # reference: a new Philox generator per path
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.stack([
        np.random.Generator(np.random.Philox(key=np.array(
            [seed, path_offset + i], dtype=np.uint64))).standard_normal(n_steps)
        for i in range(n_paths)])


@pytest.mark.parametrize("offset", [0, 16384])
def test_path_normals_equal_fresh_streams(offset):
    for seed in (0, 7, -3):
        ref = _fresh_stream_normals(seed, 37, 21, offset)
        assert np.array_equal(path_normals(seed, 37, 21, offset), ref)
        chunks = [path_normals(seed, stop - start, 21, offset + start)
                  for start, stop in ((0, 5), (5, 6), (6, 37))]
        assert np.array_equal(np.concatenate(chunks), ref)


def test_path_normals_chunk_invariance_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 64 - 1),
                      n_paths=st.integers(1, 24), n_steps=st.integers(1, 12),
                      offset=st.integers(0, 2 ** 40), data=st.data())
    def check(seed, n_paths, n_steps, offset, data):
        cut = data.draw(st.integers(0, n_paths))
        full = path_normals(seed, n_paths, n_steps, offset)
        parts = [path_normals(seed, stop - start, n_steps, offset + start)
                 for start, stop in ((0, cut), (cut, n_paths)) if stop > start]
        assert np.array_equal(np.concatenate(parts), full)

    check()


def test_pairwise_sum_and_se():
    rng = np.random.default_rng(3)
    v = rng.normal(size=1001)
    assert pairwise_sum(v) == pytest.approx(float(np.sum(v)), abs=1e-10)
    mean, se = mean_and_se(v)
    assert mean == pytest.approx(float(np.mean(v)), abs=1e-12)
    assert se == pytest.approx(float(np.std(v, ddof=1) / math.sqrt(len(v))),
                               rel=1e-10)


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

def test_constant_control_quadratic_variation_exact():
    ctrl = VolatilityControl.constant(1.0, G01)
    bundle = simulate_paths(ctrl, 50, 256, 1.0, seed=1)
    assert np.all(bundle.QV[:, -1] == 1.0)
    dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
    assert np.all(dqv >= G01.sigma_low ** 2 * bundle.dt)
    assert np.all(dqv <= G01.sigma_high ** 2 * bundle.dt)


def test_zero_control_freezes_paths():
    bundle = simulate_paths(VolatilityControl.constant(0.0, G01),
                            50, 64, 1.0, seed=1)
    assert np.all(bundle.dB == 0.0)
    assert np.all(bundle.QV == 0.0)


def test_same_seed_reproduces_bundle():
    ctrl = VolatilityControl.constant(1.0, G01)
    b1 = simulate_paths(ctrl, 20, 32, 1.0, seed=9)
    b2 = simulate_paths(ctrl, 20, 32, 1.0, seed=9)
    b3 = simulate_paths(ctrl, 20, 32, 1.0, seed=10)
    assert np.array_equal(b1.dB, b2.dB)
    assert not np.array_equal(b1.dB, b3.dB)


def test_piecewise_control_bounds():
    G = make_gfunction(0.3, 1.0)
    ctrl = VolatilityControl.piecewise((0.0, 0.5), (0.3, 1.0), G)
    bundle = simulate_paths(ctrl, 10, 8, 1.0, seed=2)
    assert np.allclose(bundle.sigma[:4], 0.3)
    assert np.allclose(bundle.sigma[4:], 1.0)
    dqv = bundle.dQV
    assert np.all(dqv >= G.sigma_low ** 2 * bundle.dt - 1e-18)
    assert np.all(dqv <= G.sigma_high ** 2 * bundle.dt + 1e-18)


def test_control_admissibility_enforced():
    with pytest.raises(DomainError):
        VolatilityControl.constant(1.5, G01)
    with pytest.raises(DomainError):
        VolatilityControl.piecewise((0.0, 0.5), (0.2, 1.0),
                                    make_gfunction(0.3, 1.0))
    with pytest.raises(DomainError):
        VolatilityControl.piecewise((0.5, 0.5), (1.0, 1.0), G01)


# ---------------------------------------------------------------------------
# forward flow
# ---------------------------------------------------------------------------

def test_forward_additive_exact():
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            40, 64, 1.0, seed=3)
    X = forward_sde(preset_driver("zero"), 0.0, 0.3, bundle)
    assert np.all(X[:, 0] == 0.3)
    assert np.max(np.abs(X - (0.3 + bundle.B))) <= 1e-12


def test_forward_geometric_strong_order():
    n_fine = 256
    fine = simulate_paths(VolatilityControl.constant(1.0, G01),
                          4000, n_fine, 1.0, seed=4)
    geom = _geometric_driver()
    exact = np.exp(fine.B[:, -1] - 0.5)
    errs, dts = [], []
    for n in (16, 64, 256):
        block = n_fine // n
        dB = fine.dB.reshape(fine.n_paths, n, block).sum(axis=2)
        bundle = dataclasses.replace(fine, n_steps=n, dt=1.0 / n, dB=dB,
                                     sigma=np.ones(n))
        X = forward_sde(geom, 0.0, 1.0, bundle)
        errs.append(float(np.mean(np.abs(X[:, -1] - exact))))
        dts.append(1.0 / n)
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.4 <= order <= 0.6


def test_forward_moment_bound():
    ctrl = VolatilityControl.constant(1.0, G01)
    quad = preset_driver("quadratic")
    fitted = 0.0
    for x0 in (0.0, 1.0, 2.0, 4.0):
        bundle = simulate_paths(ctrl, 4000, 64, 1.0, seed=5)
        X = forward_sde(quad, 0.0, x0, bundle)
        fitted = max(fitted, float(np.mean(X[:, -1] ** 2)) / (1.0 + x0 ** 2))
    assert fitted <= 1.1


# ---------------------------------------------------------------------------
# variational processes
# ---------------------------------------------------------------------------

def test_variational_pure_case_exact():
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            30, 64, 1.0, seed=6)
    zero = preset_driver("zero")
    X = forward_sde(zero, 0.0, 0.0, bundle)
    var = variational_paths(zero, bundle, X)
    assert np.all(var.Gamma == 1.0)
    assert np.all(var.Xhat == 1.0)
    assert np.all(var.Gamma > 0.0)


def test_variational_linear_drift():
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            30, 256, 1.0, seed=6)
    drifted = dataclasses.replace(
        preset_driver("quadratic"), name="drifted",
        b=lambda t, x: 0.5 * np.asarray(x, dtype=float),
        b_x=lambda t, x: np.full_like(np.asarray(x, dtype=float), 0.5))
    X = forward_sde(drifted, 0.0, 1.0, bundle)
    var = variational_paths(drifted, bundle, X)
    assert np.max(np.abs(var.Xhat[:, -1] - math.e ** 0.5)) <= 1e-2


def test_flow_derivative_matches_first_variation():
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            50, 128, 1.0, seed=7)
    delta = 1e-4
    for driver in (preset_driver("quadratic"), _geometric_driver()):
        X = forward_sde(driver, 0.0, 1.0, bundle)
        Xp = forward_sde(driver, 0.0, 1.0 + delta, bundle)
        fd = (Xp - X) / delta
        var = variational_paths(driver, bundle, X)
        rel = np.abs(fd - var.Xhat) / np.maximum(1.0, np.abs(var.Xhat))
        assert float(np.max(rel)) <= 0.05, driver.name


# ---------------------------------------------------------------------------
# space sensitivity
# ---------------------------------------------------------------------------

def test_dx_linear_payoff():
    driver = _linear_driver()
    sol = _solve(driver)
    est = estimate_dx(driver, 0.0, 0.0, G01, sol,
                      mc=dict(n_paths=2000, n_steps=64, seed=0))
    assert abs(est.plus - 1.0) <= 3.0 * est.se_plus + 1e-10
    assert abs(est.minus - 1.0) <= 3.0 * est.se_minus + 1e-10
    assert est.any_control_accepted


def test_dx_frozen_kink_one_sided():
    kinked = preset_driver("kinked")
    sol = _solve(kinked, form=PdeForm.MARKOVIAN_FBSDE)
    est = estimate_dx(kinked, 0.0, 0.0, G01, sol,
                      mc=dict(n_paths=500, n_steps=32, seed=0))
    assert est.plus == pytest.approx(1.0, abs=1e-12)
    assert est.minus == pytest.approx(-1.0, abs=1e-12)


def test_dx_quadratic_off_center():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    est = estimate_dx(quad, 0.0, 0.5, G01, sol,
                      mc=dict(n_paths=10_000, n_steps=256, seed=0))
    assert abs(est.plus - 1.0) <= 3.0 * est.se_plus + 2e-2
    assert est.plus >= est.minus - 1e-12


def test_dx_kink_closure_under_elliptic_flow():
    # Lipschitz kink at 0 with nondegenerate forward diffusion: the two
    # one-sided estimates close up
    driver = preset_driver("abs")
    sol = _solve(driver)
    est = estimate_dx(driver, 0.0, 0.0, G01, sol,
                      mc=dict(n_paths=10_000, n_steps=256, seed=0))
    gap = abs(est.plus - est.minus)
    assert gap <= 3.0 * (est.se_plus + est.se_minus) + 2e-2
    assert est.plus >= est.minus - 1e-12


def test_dx_pure_case_matches_pde_slope():
    Geps = regularize(G01, 0.2)
    driver = preset_driver("smooth-bump", {"width": 2.0})
    sol = _solve(driver, G=Geps)
    est = estimate_dx(driver, 0.0, 0.5, Geps, sol,
                      mc=dict(n_paths=10_000, n_steps=256, seed=0))
    d = derivatives(sol)
    j = int(np.argmin(np.abs(sol.xs - 0.5)))
    assert abs(est.plus - d.ux[0, j]) <= 3.0 * est.se_plus + 2e-2


# ---------------------------------------------------------------------------
# the one-pass estimators against whole-bundle passes
# ---------------------------------------------------------------------------

def _reference_estimate(kind, driver, t, x, G, sol, mc):
    """Per-control results of the estimators composed from whole-bundle
    passes: simulate_paths -> forward_sde -> variational_paths ->
    k_increments, with Y and Z read by np.interp, one simulation per
    control."""
    n_paths, n_steps, seed = mc["n_paths"], mc["n_steps"], mc["seed"]
    T = sol.grid.T
    horizon = T - t
    fields = FieldInterpolator(sol)
    scale = max(1.0, abs(sol.value(t, x)))
    results = []
    for control in scenario._candidate_controls(sol, G):
        bundle = simulate_paths(control, n_paths, n_steps, T, seed,
                                driver=driver, t0=t, x0=x)
        X = forward_sde(driver, t, x, bundle)
        var = variational_paths(driver, bundle, X, fields)
        dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
        acc = np.zeros(n_paths)
        for k in range(n_steps):
            tk = t + k * bundle.dt
            xk = X[:, k]
            n = min(max(int(np.searchsorted(sol.ts, tk + 1e-12,
                                            side="right")) - 1, 0), sol.nt)
            yk = np.interp(xk, sol.xs, sol.u[n])
            zk = np.interp(xk, sol.xs, fields.ux[n])
            if kind == "x":
                w = var.Xhat[:, k] * var.Gamma[:, k]
                acc += np.asarray(driver.f_x(tk, xk, yk)) * w * bundle.dt
                acc += np.asarray(driver.g_x(tk, xk, yk, zk)) * w * dqv[:, k]
            else:
                tau = (T - tk) / horizon
                gam, xb = var.Gamma[:, k], var.Xbar[:, k]
                ft = 0.0 if driver.f_t is None else driver.f_t(tk, xk, yk)
                gt = 0.0 if driver.g_t is None else driver.g_t(tk, xk, yk, zk)
                fterm = (driver.f_x(tk, xk, yk) * xb + tau * ft
                         - driver.f(tk, xk, yk) / horizon)
                gterm = (driver.g_z(tk, xk, yk, zk) * zk / (2.0 * horizon)
                         + driver.g_x(tk, xk, yk, zk) * xb + tau * gt
                         - driver.g(tk, xk, yk, zk) / horizon)
                acc += fterm * gam * bundle.dt + gterm * gam * dqv[:, k]
        weight = (var.Xhat if kind == "x" else var.Xbar)[:, -1] \
            * var.Gamma[:, -1]
        mp, sp = mean_and_se(
            scenario._phi_sided(driver, X[:, -1], "plus") * weight + acc)
        mm, sm = mean_and_se(
            scenario._phi_sided(driver, X[:, -1], "minus") * weight + acc)
        kmean, kse = mean_and_se(
            k_increments(fields, G, bundle, X).sum(axis=1))
        results.append(dict(label=control.label, plus=mp, se_plus=sp,
                            minus=mm, se_minus=sm, residual=kmean / scale,
                            residual_se=kse / scale,
                            accepted=abs(kmean / scale)
                            <= 3.0 * kse / scale + 1e-2))
    return results


@pytest.mark.parametrize("preset, params, kind, t, x", [
    ("smooth-bump", {"width": 2.0}, "x", 0.0, 0.5),
    ("abs", {}, "x", 0.0, 0.0),
    ("sine-gz", {}, "x", 0.25, 0.3),
    ("sine-gz", {}, "t", 0.5, 0.0),
])
def test_one_pass_estimates_equal_whole_bundle_passes(preset, params, kind,
                                                      t, x):
    G = regularize(G01, 0.2)
    driver = preset_driver(preset, params)
    form = PdeForm.GHEAT if preset != "sine-gz" else PdeForm.REGULARIZED_BSDE
    sol = _solve(driver, G=G, form=form, nx=201)
    mc = dict(n_paths=400, n_steps=48, seed=5)
    estimate = estimate_dx if kind == "x" else estimate_dt
    est = estimate(driver, t, x, G, sol, mc=mc)
    ref = _reference_estimate(kind, driver, t, x, G, sol, mc)
    # every case ties somewhere, so the tie-flipped control runs too
    assert len(est.controls) == len(ref) == 2
    for got, want in zip(est.controls, ref):
        assert got == want


def _first_fork_steps(driver, t, x, G, sol, mc):
    """Per path, the first step at which the base feedback control's path
    is nearest a node where the tie-flipped control differs (n_steps if
    never), read off a whole-bundle simulation under the base control."""
    base, flip = scenario._candidate_controls(sol, G)
    differs = flip.field_sigma != base.field_sigma
    n_paths, n_steps = mc["n_paths"], mc["n_steps"]
    bundle = simulate_paths(base, n_paths, n_steps, sol.grid.T, mc["seed"],
                            driver=driver, t0=t, x0=x)
    xs = sol.xs
    first = np.full(n_paths, n_steps)
    for k in range(n_steps - 1, -1, -1):
        tk = t + k * bundle.dt
        n = min(max(int(np.searchsorted(sol.ts, tk + 1e-12,
                                        side="right")) - 1, 0), sol.nt)
        j = np.clip(np.rint((bundle.x_paths[:, k] - xs[0]) / (xs[1] - xs[0])),
                    0, xs.size - 1).astype(np.intp)
        first[differs[n, j]] = k
    return first


def _assert_estimates_equal_whole_bundle_passes(kind, driver, t, x, G, sol,
                                                mc):
    estimate = estimate_dx if kind == "x" else estimate_dt
    est = estimate(driver, t, x, G, sol, mc=mc)
    ref = _reference_estimate(kind, driver, t, x, G, sol, mc)
    assert len(est.controls) == len(ref) == 2
    for got, want in zip(est.controls, ref):
        assert got == want


FORK_MC = dict(n_paths=400, n_steps=48, seed=5)


def test_paths_forked_at_the_first_step_equal_whole_bundle_passes():
    # the generator argument is 0 on the boundary columns at every level,
    # so a start on the first node is a tie for every path at step 0
    G = regularize(G01, 0.2)
    driver = preset_driver("smooth-bump", {"width": 2.0})
    sol = _solve(driver, G=G, nx=201)
    x = float(sol.xs[0])
    assert np.all(_first_fork_steps(driver, 0.0, x, G, sol, FORK_MC) == 0)
    _assert_estimates_equal_whole_bundle_passes("x", driver, 0.0, x, G, sol,
                                                FORK_MC)


@pytest.mark.parametrize("G", [regularize(G01, 0.2), make_gfunction(1.0, 1.0)],
                         ids=["no-path-reaches-a-tie", "equal-bounds"])
def test_unforked_paths_equal_whole_bundle_passes(G):
    # equal volatility bounds: the tie-flipped field is the base field
    driver = preset_driver("smooth-bump", {"width": 2.0})
    sol = _solve(driver, G=G, nx=201)
    first = _first_fork_steps(driver, 0.0, 0.5, G, sol, FORK_MC)
    assert np.all(first == FORK_MC["n_steps"])
    _assert_estimates_equal_whole_bundle_passes("x", driver, 0.0, 0.5, G,
                                                sol, FORK_MC)


@pytest.mark.parametrize("preset, G, kind, t, share", [
    ("abs", G01, "x", 0.0, 0.5),
    ("abs", G01, "t", 0.5, 0.5),
    ("sine-gz", regularize(G01, 0.2), "x", 0.0, 0.05),
], ids=["abs-x", "abs-t", "sine-gz-x"])
def test_paths_forked_mid_run_equal_whole_bundle_passes(preset, G, kind, t,
                                                        share):
    # coarse solves tie away from the start late in the run; the abs
    # paths' K increments vanish before the fork, the sine-gz ones do not
    driver = preset_driver(preset)
    form = PdeForm.GHEAT if preset == "abs" else PdeForm.REGULARIZED_BSDE
    sol = _solve(driver, G=G, form=form, nx=41)
    first = _first_fork_steps(driver, t, 0.0, G, sol, FORK_MC)
    assert np.mean((first > 0) & (first < FORK_MC["n_steps"])) > share
    _assert_estimates_equal_whole_bundle_passes(kind, driver, t, 0.0, G, sol,
                                                FORK_MC)


# ---------------------------------------------------------------------------
# time sensitivity
# ---------------------------------------------------------------------------

def test_dt_quadratic():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    est = estimate_dt(quad, 0.5, 0.0, G01, sol,
                      mc=dict(n_paths=10_000, n_steps=256, seed=0))
    assert abs(est.plus - (-1.0)) <= 3.0 * est.se_plus + 5e-2
    assert abs(est.minus - (-1.0)) <= 3.0 * est.se_minus + 5e-2


def test_dt_linear_payoff_vanishes():
    driver = _linear_driver()
    sol = _solve(driver)
    est = estimate_dt(driver, 0.5, 0.0, G01, sol,
                      mc=dict(n_paths=10_000, n_steps=256, seed=0))
    assert abs(est.plus) <= 3.0 * est.se_plus
    assert abs(est.minus) <= 3.0 * est.se_minus


def test_dt_bump_with_driver_matches_pde():
    driver = preset_driver("linear-h", {"phi": "smooth-bump"})
    sol = _solve(driver, form=PdeForm.MARKOVIAN_FBSDE)
    est = estimate_dt(driver, 0.5, 0.0, G01, sol,
                      mc=dict(n_paths=10_000, n_steps=512, seed=0))
    d = derivatives(sol)
    n = int(round(0.5 / sol.dt))
    j = int(np.argmin(np.abs(sol.xs)))
    ref = d.ut[n, j]
    assert abs(est.plus - ref) <= 3.0 * est.se_plus + 5e-2


def test_dt_rejects_boundary_times():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    for t in (0.0, 1.0):
        with pytest.raises(DomainError):
            estimate_dt(quad, t, 0.0, G01, sol, mc=dict(n_paths=10))


# ---------------------------------------------------------------------------
# measure admissibility
# ---------------------------------------------------------------------------

def test_measure_extremal_control_is_exact():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    ctrl = VolatilityControl.feedback(sol, G01)
    chk = verify_measure_in_Ptx(ctrl, quad, 0.0, 0.0, G01, sol,
                                mc=dict(n_paths=2000, n_steps=64, seed=0))
    assert abs(chk.residual) <= 1e-12
    assert chk.accepted


def test_measure_low_control_rejected_on_convex_payoff():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    ctrl = VolatilityControl.constant(0.0, G01)
    chk = verify_measure_in_Ptx(ctrl, quad, 0.0, 0.0, G01, sol,
                                mc=dict(n_paths=2000, n_steps=64, seed=0))
    assert chk.residual <= -0.5
    assert not chk.accepted


def test_measure_frozen_control_optimal_on_concave_payoff():
    neg = payoff_driver(lambda x: -np.asarray(x, dtype=float) ** 2,
                        lambda x: -2.0 * np.asarray(x, dtype=float),
                        name="neg-quadratic", L1=1.0, m=1)
    sol = _solve(neg)
    ctrl = VolatilityControl.constant(0.0, G01)
    chk = verify_measure_in_Ptx(ctrl, neg, 0.0, 0.0, G01, sol,
                                mc=dict(n_paths=2000, n_steps=64, seed=0))
    assert abs(chk.residual) <= 1e-12
    assert chk.accepted

