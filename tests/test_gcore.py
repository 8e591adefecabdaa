"""Generator algebra, driver catalog, grids, and run configuration."""

from __future__ import annotations

import ast
import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

from gbmlab import gexpect, pde, scenario
from gbmlab.gbsde import counterexample_demo, dynamic_programming_check
from gbmlab.gcore import (
    ARITY,
    DERIVATIVES,
    PRESET_NAMES,
    ConfigError,
    CylinderFunctional,
    DomainError,
    DriverSpec,
    Grid1D,
    NumericalError,
    charge,
    make_gfunction,
    parse_config,
    payoff_driver,
    preset_driver,
    _zero4,
    regularize,
)
from gbmlab.gexpect import (LatticeSpec, default_stage_grids, doob_check,
                            gexpect_cylinder, lattice_oracle)
from gbmlab.pde import PdeProblem, solve_terminal_pde


# ---------------------------------------------------------------------------
# generator evaluation
# ---------------------------------------------------------------------------

def test_eval_degenerate_positive_part():
    G = make_gfunction(0.0, 1.0)
    assert G.eval(2.0) == 1.0
    assert G.eval(-2.0) == 0.0
    assert G.degenerate


def test_eval_nondegenerate_negative_part():
    G = make_gfunction(0.5, 1.0)
    assert G.eval(-2.0) == -0.25
    assert not G.degenerate


def test_make_gfunction_rejects_bad_intervals():
    with pytest.raises(DomainError):
        make_gfunction(-0.1, 1.0)
    with pytest.raises(DomainError):
        make_gfunction(0.0, 0.0)
    with pytest.raises(DomainError):
        make_gfunction(1.5, 1.0)


def test_eval_vectorized_matches_scalar():
    G = make_gfunction(0.3, 2.0)
    a = np.linspace(-4.0, 4.0, 17)
    vec = G.eval(a)
    assert vec.shape == a.shape
    for ai, vi in zip(a, vec):
        assert vi == G.eval(float(ai))


def test_eval_properties_randomized():
    rng = np.random.default_rng(20240901)
    for lo, hi in ((0.0, 1.0), (0.5, 1.0), (0.3, 2.0)):
        G = make_gfunction(lo, hi)
        a = rng.uniform(-10.0, 10.0, size=1000)
        b = rng.uniform(-10.0, 10.0, size=1000)
        lam = rng.uniform(0.0, 5.0, size=1000)
        big, small = np.maximum(a, b), np.minimum(a, b)
        assert np.all(G.eval(big) - G.eval(small) >= -1e-12)
        assert np.max(np.abs(G.eval(lam * a) - lam * G.eval(a))) <= 1e-12 * (
            1.0 + np.max(np.abs(G.eval(a))) * np.max(lam))
        assert np.all(G.eval(a + b) <= G.eval(a) + G.eval(b) + 1e-12)


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def test_regularize_frozen_values():
    G = make_gfunction(0.0, 1.0)
    Ge = regularize(G, 0.1)
    assert Ge.sigma_low == 0.1
    assert Ge.sigma_high == pytest.approx(np.sqrt(1.01), abs=1e-15)
    assert Ge.eval(-2.0) == pytest.approx(-0.01, abs=1e-15)
    assert Ge.eval(2.0) == pytest.approx(1.01, abs=1e-15)


def test_regularize_error_paths():
    G = make_gfunction(0.0, 1.0)
    with pytest.raises(DomainError):
        regularize(G, 0.0)
    with pytest.raises(DomainError):
        regularize(G, 1.0)
    with pytest.raises(DomainError):
        regularize(make_gfunction(0.5, 1.0), 0.1)


def test_regularize_pointwise_error_identity():
    # G_eps(a) - G(a) = eps^2 |a| / 2 exactly, for either sign of a
    G = make_gfunction(0.0, 1.0)
    eps = 0.05
    Ge = regularize(G, eps)
    a = np.linspace(-10.0, 10.0, 401)
    diff = np.abs(Ge.eval(a) - G.eval(a))
    bound = 0.5 * eps ** 2 * np.abs(a)
    # slack covers the cancellation in eval's two half-terms (a few ulps of
    # sigma_high^2 * a / 2), nothing more
    assert np.all(diff <= bound + 1e-14)
    assert np.max(np.abs(diff - bound)) <= 1e-14


# ---------------------------------------------------------------------------
# driver catalog
# ---------------------------------------------------------------------------

def test_every_preset_constructs():
    # construction runs the derivative and Lipschitz self-checks
    for name in PRESET_NAMES:
        d = preset_driver(name)
        assert d.name == name


def test_quadratic_preset_fields():
    d = preset_driver("quadratic")
    x = np.array([-1.0, 0.0, 3.0])
    assert np.allclose(d.phi(x), x ** 2)
    assert np.allclose(d.phi_x(x), 2.0 * x)
    assert np.all(d.b(0.0, x) == 0.0)
    assert np.all(d.sigma(0.0, x) == 1.0)
    assert d.m == 1


def test_linear_h_preset_driver_constant():
    d = preset_driver("linear-h", {"c": 0.5})
    x = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(d.g(0.3, x, x, x), 0.5)
    assert np.all(d.h(0.3, x) == 0.0)
    assert np.all(d.f(0.3, x, x) == 0.0)


def test_zero_preset_is_identity_problem():
    d = preset_driver("zero")
    x = np.linspace(-1.0, 1.0, 5)
    for fn, args in ((d.b, (0.0, x)), (d.h, (0.0, x)),
                     (d.f, (0.0, x, x)), (d.g, (0.0, x, x, x)),
                     (d.phi, (x,))):
        assert np.all(np.asarray(fn(*args)) == 0.0)
    assert np.all(d.sigma(0.0, x) == 1.0)


def test_kinked_preset_freezes_the_flow():
    d = preset_driver("kinked")
    x = np.linspace(-1.0, 1.0, 5)
    assert np.all(d.sigma(0.5, x) == 0.0)
    assert np.allclose(d.phi(x), np.abs(x))
    assert d.phi_kinks == (0.0,)


def test_unknown_preset_rejected():
    with pytest.raises(DomainError):
        preset_driver("cubic")
    with pytest.raises(DomainError):
        preset_driver("abs", {"smoothing": -1.0})
    with pytest.raises(DomainError, match="unknown payoff"):
        preset_driver("linear-h", {"phi": [1]})


@pytest.mark.parametrize("name, params", [
    ("smooth-bump", {"amplitude": "abc"}),
    ("sine-gz", {"c": "abc"}),
    ("sine-gz", {"width": 0.0}),
    ("smooth-bump", {"width": 0.0}),
    ("smooth-bump", {"width": math.inf}),
    ("abs", {"smoothing": 1e300}),
    ("smooth-bump", {"width": 1e-308}),
    ("sine-gz", {"amplitude": 1e300, "width": 1e-10}),
    ("abs", {"smoothing": 1e-300}),
    ("smooth-bump", {"center": math.inf}),
], ids=["not-a-number", "c-not-a-number", "zero-width-sine-gz", "zero-width",
        "infinite-width", "smoothing-square-overflows",
        "width-lipschitz-overflows", "width-lipschitz-overflows-sine-gz",
        "smoothing-square-underflows", "infinite-center"])
def test_preset_driver_checks_its_own_parameters(name, params):
    # the values the CLI refuses before a run; the library raised
    # ValueError, ZeroDivisionError or OverflowError, or built the driver
    # (a square that underflows to 0 gave phi_xx = -inf or NaN)
    with pytest.raises(DomainError, match="must be"):
        preset_driver(name, params)


@pytest.mark.parametrize("name", ["smooth-bump", "sine-gz"])
@pytest.mark.parametrize("width", [1e-300, 2e-308, 1e200])
def test_bump_width_is_limited_by_its_lipschitz_bound_alone(name, width):
    # nothing squares a width: a square that leaves the float range is no
    # limit, 3 |amplitude| / width finite is; the driver passes its
    # self-check, without a warning, and its payoff reads the same near
    # and far from the bump
    driver = preset_driver(name, {"width": width})
    assert driver.L1 == max(1.0, 3.0 / width)
    x = np.array([-1e300, -3.0, 0.0, 0.5 * width, 3.0, 1e300])
    assert np.isfinite(driver.phi(x)).all()
    assert np.isfinite(driver.phi_x(x)).all()
    assert driver.phi(0.0) == 1.0


def test_lipschitz_envelope_violation_rejected():
    with pytest.raises(DomainError):
        payoff_driver(lambda x: 10.0 * np.asarray(x), L1=1.0)


@pytest.mark.parametrize("key, value", [
    ("L1", math.nan), ("L1", math.inf), ("L1", 0.0), ("L1", -1.0),
    ("m", math.nan), ("m", math.inf), ("m", 1.5), ("m", 0)])
def test_envelope_constants_are_refused_unless_finite(key, value):
    # a NaN or infinite envelope let a jump through the Lipschitz check
    def jump(x):
        return 5.0 * np.sign(np.asarray(x, dtype=float))
    for phi in (jump, lambda x: np.asarray(x, dtype=float)):
        with pytest.raises(DomainError, match=f"{key} must be"):
            payoff_driver(phi, **{key: value})


def test_derivative_self_check_rejects_mismatch():
    with pytest.raises(DomainError):
        payoff_driver(lambda x: np.asarray(x) ** 2,
                      lambda x: 3.0 * np.asarray(x), L1=5.0)


def test_a_payoff_second_derivative_is_not_accepted():
    # phi_x is the one payoff derivative: a second one, by keyword or as a
    # third positional argument, is an error, not ignored
    def square(x):
        return np.asarray(x, dtype=float) ** 2

    def twice(x):
        return 2.0 * np.asarray(x, dtype=float)

    with pytest.raises(TypeError):
        DriverSpec(name="square", phi=square, phi_x=twice, phi_xx=twice)
    with pytest.raises(TypeError):
        payoff_driver(square, twice, twice)


def test_default_derivative_of_a_replaced_coefficient_is_checked():
    # b is replaced but b_x keeps its zero default: the self-check must
    # compare them rather than skip the pair
    with pytest.raises(DomainError, match="b_x"):
        dataclasses.replace(preset_driver("quadratic"),
                            b=lambda t, x: 0.5 * np.asarray(x, dtype=float))


@pytest.mark.parametrize("c", [0.5, -1.5, 0.0])
def test_sine_gz_coefficients_equal_the_broadcast_zero_form(c):
    d = preset_driver("sine-gz", {"c": c})
    z = np.array([[0.0, -0.0, 1e-300, -2.5], [np.pi, -np.pi, 3.0, -0.0]])
    x, y = np.linspace(-1.0, 1.0, 4), np.zeros((2, 4))
    cases = [(0.3, x, y, z), (0.0, 0.5, -0.25, 0.0), (0.0, 0.5, -0.25, -0.0),
             (1.0, -1.0, 2.0, 1.25)]
    for t, xv, yv, zv in cases:
        zf = np.asarray(zv, dtype=float)
        for got, want in (
                (d.g(t, xv, yv, zv), c * np.sin(zf) + _zero4(t, xv, yv, zv)),
                (d.g_z(t, xv, yv, zv), c * np.cos(zf) + _zero4(t, xv, yv, zv))):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("c", [0.5, -1.5, 0.0])
def test_sine_gz_in_one_array_equals_the_allocating_expression(c):
    # g and g_z write sin (cos), the scaling by c and the + 0.0 into one
    # array; the allocating expression c * sin(z) + 0.0 is the reference
    d = preset_driver("sine-gz", {"c": c})
    z = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, np.pi, -np.pi, np.inf, -np.inf, np.nan],
        np.random.default_rng(5).normal(scale=4.0, size=64)])
    with np.errstate(invalid="ignore"):
        for fn, trig in ((d.g, np.sin), (d.g_z, np.cos)):
            assert fn(0.0, z, z, z).tobytes() == (c * trig(z) + 0.0).tobytes()
            for zk in z[:9]:  # one scalar at a time
                assert np.asarray(fn(0.0, 0.0, 0.0, zk)).tobytes() \
                    == np.asarray(c * trig(zk) + 0.0).tobytes()


# ---- which driver terms are live: decided in gcore alone ----

_DRIVER_FIELDS = [
    "name", "b", "h", "sigma", "f", "g", "phi", "b_x", "h_x", "sigma_x",
    "phi_x", "f_x", "f_y", "g_x", "g_y", "g_z", "b_t", "h_t", "sigma_t",
    "f_t", "g_t", "L1", "m", "phi_kinks", "skip_self_check"]


def test_driver_fields_are_unchanged_and_each_term_has_a_table_row():
    assert [fd.name for fd in dataclasses.fields(DriverSpec)] \
        == _DRIVER_FIELDS
    # every callable field is a coefficient or a row of the derivative table
    rows = [nm for nm, _base, _pos in DERIVATIVES]
    assert len(rows) == len(set(rows)) == 14
    assert [nm for nm in _DRIVER_FIELDS if nm in ARITY or nm in rows] \
        == _DRIVER_FIELDS[1:21]
    assert all(base.split("_")[0] in ARITY for _nm, base, _pos in DERIVATIVES)


@pytest.mark.parametrize("preset, live", [
    ("quadratic", ("phi", "phi_x")),
    ("linear-h", ("g", "phi", "phi_x")),
    ("sine-gz", ("g", "phi", "phi_x", "g_z")),
    # the shared zero is live where it is not the field's default
    ("kinked", ("sigma", "phi", "phi_x")),
])
def test_live_terms_of_the_presets(preset, live):
    driver = preset_driver(preset)
    assert tuple(driver.live) == live
    assert all(fn is getattr(driver, nm) for nm, fn in driver.live.items())


def test_a_none_time_derivative_is_not_live():
    def arr(v):
        return np.asarray(v, dtype=float)
    driver = dataclasses.replace(
        preset_driver("quadratic"), f=lambda t, x, y: t * arr(y),
        f_y=lambda t, x, y: t + 0.0 * arr(y), f_t=lambda t, x, y: arr(y))
    assert tuple(driver.live) == ("f", "phi", "phi_x", "f_y", "f_t")
    untimed = dataclasses.replace(driver, f_t=None)
    assert untimed.f_t is None
    assert tuple(untimed.live) == ("f", "phi", "phi_x", "f_y")


_SENTINELS = {"_zero2", "_one2", "_zero3", "_zero4"}


def _reads_driver_defaults(tree) -> bool:
    """Whether a function or statement both reaches DriverSpec's dataclass
    fields and reads a ``.default``."""
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.Assign, ast.Return)):
            continue
        nodes = list(ast.walk(scope))
        driver_fields = any(
            isinstance(n, ast.Attribute) and n.attr == "__dataclass_fields__"
            and isinstance(n.value, ast.Name) and n.value.id == "DriverSpec"
            or isinstance(n, ast.Call) and any(
                isinstance(arg, ast.Name) and arg.id == "DriverSpec"
                for arg in n.args)
            for n in nodes)
        default = any(isinstance(n, ast.Attribute) and n.attr == "default"
                      for n in nodes)
        if driver_fields and default:
            return True
    return False


def test_only_gcore_decides_which_driver_terms_are_live():
    src = Path(__file__).resolve().parents[1] / "src" / "gbmlab"
    modules = sorted(src.glob("*.py"))
    assert {p.stem for p in modules} >= {"gcore", "pde", "scenario", "gbsde"}
    for path in modules:
        if path.stem == "gcore":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & _SENTINELS, path.name
        assert not _reads_driver_defaults(tree), path.name


# ---------------------------------------------------------------------------
# grids and cylinder payoffs
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1D(1.0, -1.0, 11, 1.0)
    with pytest.raises(DomainError):
        Grid1D(-1.0, 1.0, 2, 1.0)
    with pytest.raises(DomainError):
        Grid1D(-1.0, 1.0, 11, 0.0)
    with pytest.raises(DomainError):
        Grid1D(-1.0, 1.0, 11, 1.0, nt=0)


def test_grid_geometry():
    g = Grid1D(-2.0, 2.0, 9, 1.0)
    assert g.dx == 0.5
    assert g.xs[0] == -2.0 and g.xs[-1] == 2.0
    assert g.with_nt(10).nt == 10
    gd = Grid1D.default_for(0.0, 1.0, make_gfunction(0.0, 1.0))
    assert gd.x_max == 7.0 and gd.x_min == -7.0


def test_cylinder_validation():
    with pytest.raises(DomainError):
        CylinderFunctional(times=(), psi=lambda: 0.0)
    with pytest.raises(DomainError):
        CylinderFunctional(times=(0.0, 1.0), psi=lambda a, b: a + b)
    with pytest.raises(DomainError):
        CylinderFunctional(times=(0.5, 0.5), psi=lambda a, b: a + b)
    with pytest.raises(DomainError):
        CylinderFunctional(times=(1.0,),
                           psi=lambda a: np.where(a > 0.0, a, np.nan))
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a + b)
    assert X.n_stages == 2


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

CONFIG_TEXT = """
[generator]
sigma_low = 0.0
sigma_high = 1.0
eps_schedule = 0.2, 0.1, 0.05

[grid]
x_min = -4.0
x_max = 4.0
nx = 201
T = 1.0

[driver]
preset = linear-h
c = 0.5

[mc]
n_paths = 5000
seed = 7
"""


def test_parse_config_roundtrip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg["generator"]["sigma_low"] == 0.0
    assert cfg["generator"]["eps_schedule"] == (0.2, 0.1, 0.05)
    assert cfg["grid"]["nx"] == 201
    assert isinstance(cfg["grid"]["nx"], int)
    assert cfg["grid"]["T"] == 1.0
    assert cfg["driver"]["preset"] == "linear-h"
    assert cfg["driver"]["c"] == 0.5
    assert cfg["mc"]["n_paths"] == 5000


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    assert parse_config(str(path)) == parse_config(CONFIG_TEXT)


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigError):
        parse_config("[plotting]\nstyle = fancy\n")


# ---------------------------------------------------------------------------
# work and memory budgets: one charge point
# ---------------------------------------------------------------------------

G01 = make_gfunction(0.0, 1.0)
# 21 nodes, 40 pinned levels: well inside the CFL bound
_PINNED = Grid1D(-3.0, 3.0, 21, 0.5, nt=40)
_SQUARES = CylinderFunctional((0.5, 1.0), psi=lambda a, b: a ** 2 + b ** 2)
_ABS = CylinderFunctional((1.0,), psi=np.abs)
_TWO_STAGE = CylinderFunctional((0.5, 1.0),
                                psi=lambda a, b: np.abs(a) + np.abs(b))
_FLAT = CylinderFunctional((1.0,), psi=lambda b: 1.0 + 0.0 * b)


def _pinned_solution():
    return solve_terminal_pde(PdeProblem(_PINNED, preset_driver("quadratic"),
                                         G01))


def _spec(steps):
    return LatticeSpec.for_horizon(1.0, steps, G01)


def _stage_nt(nx):
    # both stages of _SQUARES span 0.5: one grid, one nt
    grid = default_stage_grids(_SQUARES, G01, nx=nx)[1]
    return pde._time_steps(grid, (G01,), gexpect._HEAT)[0]


def _running_max_values(xi, steps):
    """1 + the distinct values ``doob_check`` records (the sentinel)."""
    spec = _spec(steps)
    s = gexpect._stage_bounds(xi, spec)
    records = {}
    gexpect._sup_dp(np.abs(gexpect._terminal_tab(xi, s, spec.dx)), s,
                    spec.probs, record=records)
    return 1 + np.unique(np.concatenate([v.ravel()
                                         for v in records.values()])).size


def _budgets():
    """(id, module, limit, what, unit, run, the exact charge of run)."""
    fn, fd, walk = pde.STEP_NODES_MIN, gexpect.DP_LEVEL_NODES_MIN, \
        scenario.WALK_COST
    m16 = _running_max_values(_TWO_STAGE, 16)
    quadratic = preset_driver("quadratic")
    return [
        ("solve-floor", pde, "NODE_STEPS_MAX", "solve", "node-steps",
         _pinned_solution, max(21, fn) * 40),
        ("solve-rows", pde, "NODE_STEPS_MAX", "solve", "node-steps",
         lambda: gexpect_cylinder(_SQUARES, G01, nx=101),
         max(101 * 101, fn) * _stage_nt(101)),
        ("dense-solution", pde, "DENSE_BYTES_MAX", "dense solution", "bytes",
         _pinned_solution, 2 * 8 * 41 * 21),
        ("solution-export", pde, "EXPORT_BYTES_MAX", "solution export",
         "bytes",
         lambda: pde.export_solution_csv(_pinned_solution(), os.devnull),
         26 + 21 * 41 * 7 * (pde.CELL + 1)),
        ("cylinder-table", pde, "DENSE_BYTES_MAX", "cylinder table", "bytes",
         lambda: gexpect_cylinder(_SQUARES, G01, nx=41), 8 * 41 * 41),
        ("node-guard", gexpect, "_MAX_STATE_NODES",
         "augmented lattice (node guard)", "nodes",
         lambda: lattice_oracle(_SQUARES, G01, _spec(8)), 9 * 17),
        ("lattice", gexpect, "DP_NODE_STEPS_MAX", "lattice", "node-steps",
         lambda: lattice_oracle(_SQUARES, G01, _spec(64)),
         32 * max(65, fd) + 32 * max(65 * 129, fd)),
        ("doob-lattice", gexpect, "DP_NODE_STEPS_MAX", "lattice",
         "node-steps", lambda: doob_check(_ABS, 2.0, 4.0, G01, _spec(8)),
         2 * 8 * max(17, fd)),
        ("running-max-steps", gexpect, "DP_NODE_STEPS_MAX", "running max",
         "(node x value)-steps",
         lambda: doob_check(_TWO_STAGE, 2.0, 4.0, G01, _spec(16)),
         8 * max(17 * m16, fd) + 8 * max(17 * 33 * m16, fd)),
        ("running-max-bytes", pde, "DENSE_BYTES_MAX", "running max", "bytes",
         lambda: doob_check(_TWO_STAGE, 2.0, 4.0, G01, _spec(16)),
         48 * 17 * 33 * m16),
        ("doob-records", pde, "DENSE_BYTES_MAX", "doob record storage",
         "bytes", lambda: doob_check(_FLAT, 2.0, 4.0, G01, _spec(8)),
         32 * (8 * 17 + 17)),
        ("path-storage", scenario, "PATH_BYTES_MAX", "path storage", "bytes",
         lambda: counterexample_demo(1.0, (0.5,), n_paths=64, n_steps=16),
         16 * 64 * 16),
        ("path-steps-draws", scenario, "PATH_STEPS_MAX", "run", "path-steps",
         lambda: counterexample_demo(1.0, (0.5, 0.25), n_paths=64,
                                     n_steps=16),
         2 * max(16, scenario.PATH_STEPS_MIN) * 64),
        ("path-steps-walk", scenario, "PATH_STEPS_MAX", "run", "path-steps",
         lambda: scenario.estimate_dx(quadratic, 0.25, 0.0, G01,
                                      _pinned_solution(), n_paths=64,
                                      n_steps=16),
         max(16, scenario.PATH_STEPS_MIN) * walk
         * max(64, scenario.STEP_PATHS_MIN)),
        ("dp-lattice", gexpect, "DP_NODE_STEPS_MAX", "dp lattice",
         "node-steps",
         lambda: dynamic_programming_check(
             PdeProblem(_PINNED, quadratic, G01), 0.1, 0.4, steps=8),
         8 * max(17, fd)),
    ]


def _shown(amount, unit):
    if unit == "bytes":
        return f"{amount / 2 ** 30:.3g} GiB"
    return f"{amount:.3g} {unit}"


_BUDGETS = _budgets()


@pytest.mark.parametrize("budget", _BUDGETS, ids=[b[0] for b in _BUDGETS])
def test_each_budget_admits_its_exact_charge(monkeypatch, budget):
    # a run charged exactly the limit runs; one unit less refuses it with
    # the amount and the limit, so each charge keeps its formula and floor
    _id, module, limit, what, unit, run, amount = budget
    monkeypatch.setattr(module, limit, amount)
    run()
    monkeypatch.setattr(module, limit, amount - 1)
    with pytest.raises(NumericalError) as refused:
        run()
    message = str(refused.value)
    assert message.startswith(f"{what} needs {_shown(amount, unit)} for ")
    assert message.endswith(f"; the limit is {_shown(amount - 1, unit)}")


def test_charge_shows_bytes_in_gib():
    charge("table", 2 ** 30, 2 ** 30, "bytes", "nothing")
    with pytest.raises(NumericalError, match=r"^table needs 1\.5 GiB for "
                       r"x=1; the limit is 1 GiB$"):
        charge("table", 3 * 2 ** 29, 2 ** 30, "bytes", "x=1")
