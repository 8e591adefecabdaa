"""Generator algebra, driver catalog, grids, and run configuration."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from gbmlab.gcore import (
    ARITY,
    DERIVATIVES,
    PRESET_NAMES,
    ConfigError,
    CylinderFunctional,
    DomainError,
    DriverSpec,
    Grid1D,
    make_gfunction,
    parse_config,
    payoff_driver,
    preset_driver,
    _zero4,
    regularize,
)


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
    assert np.allclose(d.phi_xx(x), 2.0)
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
    ("smooth-bump", {"width": 1e300}),
    ("abs", {"smoothing": 1e300}),
    ("smooth-bump", {"center": math.inf}),
], ids=["not-a-number", "c-not-a-number", "zero-width-sine-gz", "zero-width",
        "width-square-overflows", "smoothing-square-overflows",
        "infinite-center"])
def test_preset_driver_checks_its_own_parameters(name, params):
    # the values the CLI refuses before a run; the library raised
    # ValueError, ZeroDivisionError or OverflowError, or built the driver
    with pytest.raises(DomainError, match="must be"):
        preset_driver(name, params)


def test_lipschitz_envelope_violation_rejected():
    with pytest.raises(DomainError):
        payoff_driver(lambda x: 10.0 * np.asarray(x), L1=1.0)


def test_derivative_self_check_rejects_mismatch():
    with pytest.raises(DomainError):
        payoff_driver(lambda x: np.asarray(x) ** 2,
                      lambda x: 3.0 * np.asarray(x), L1=5.0)


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
    "f_t", "g_t", "phi_xx", "L1", "m", "phi_kinks", "skip_self_check"]


def test_driver_fields_are_unchanged_and_each_term_has_a_table_row():
    assert [fd.name for fd in dataclasses.fields(DriverSpec)] \
        == _DRIVER_FIELDS
    # every callable field is a coefficient or a row of the derivative table
    rows = [nm for nm, _base, _pos in DERIVATIVES]
    assert len(rows) == len(set(rows)) == 15
    assert [nm for nm in _DRIVER_FIELDS if nm in ARITY or nm in rows] \
        == _DRIVER_FIELDS[1:22]
    assert all(base.split("_")[0] in ARITY for _nm, base, _pos in DERIVATIVES)


@pytest.mark.parametrize("preset, live", [
    ("quadratic", ("phi", "phi_x", "phi_xx")),
    ("linear-h", ("g", "phi", "phi_x", "phi_xx")),
    ("sine-gz", ("g", "phi", "phi_x", "g_z", "phi_xx")),
    # the shared zero is live where it is not the field's default
    ("kinked", ("sigma", "phi", "phi_x", "phi_xx")),
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
    assert tuple(driver.live) == ("f", "phi", "phi_x", "f_y", "f_t", "phi_xx")
    untimed = dataclasses.replace(driver, f_t=None)
    assert untimed.f_t is None
    assert tuple(untimed.live) == ("f", "phi", "phi_x", "f_y", "phi_xx")


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
cfl_safety = 0.9

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
