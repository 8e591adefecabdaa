"""End-to-end command-line runs: exit codes, artifacts, config precedence."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import gbmlab
from gbmlab import cli, gbsde, gcore, gexpect, pde, scenario
from gbmlab.cli import _main
from gbmlab.gbsde import dynamic_programming_check
from gbmlab.gcore import (PRESET_NAMES, Grid1D, make_gfunction, preset_driver,
                          preset_keys, regularize)
from gbmlab.pde import PdeProblem


CONFIG_TEXT = """
[generator]
sigma_low = 0.0
sigma_high = 1.0
eps_schedule = 0.2, 0.1

[driver]
preset = linear-h
c = 0.25
"""


def _summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def _child(script: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this gbmlab, with
    one BLAS thread."""
    src = os.path.dirname(os.path.dirname(gbmlab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def _config_args(tmp_path, text):
    """``--config`` and a file holding ``text``, or nothing for None."""
    if text is None:
        return []
    path = tmp_path / "given.cfg"
    path.write_text(text)
    return ["--config", str(path)]


# ---- happy paths ----

def test_gexpect_quadratic(tmp_path, capsys):
    rc = _main(["gexpect", "--payoff", "quadratic", "--sigma-high", "1",
                "--sigma-low", "0", "--T", "1",
                "--output-dir", str(tmp_path)])
    assert rc == 0
    assert "value=" in capsys.readouterr().out
    summary = _summary(tmp_path)
    assert summary["values"]["value"] == pytest.approx(1.0, abs=1e-2)
    assert summary["parameters"]["subcommand"] == "gexpect"


def test_cylinder_sum(tmp_path):
    rc = _main(["cylinder", "--times", "0.5,1", "--psi", "sum",
                "--nx", "201", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert _summary(tmp_path)["values"]["value"] == pytest.approx(0.0,
                                                                  abs=1e-2)


@pytest.mark.parametrize("psi", sorted(cli._PSI_CATALOG))
def test_every_psi_runs_on_one_to_three_times(tmp_path, psi):
    # the stage meshes broadcast against each other but differ in shape
    for times in ("1", "0.5,1", "0.25,0.5,1"):
        out = tmp_path / times
        assert _main(["cylinder", "--psi", psi, "--times", times, "--nx", "41",
                      "--output-dir", str(out)]) == 0, times
        assert math.isfinite(_summary(out)["values"]["value"])


def test_cylinder_leaves_no_thread_behind(tmp_path, forced_threads):
    # the 401-row stage of sum-sq is stepped in 4 blocks, two rounds of two
    # workers; each has ended when the run returns
    before = threading.active_count()
    assert cli.run(["cylinder", "--psi", "sum-sq",
                    "--output-dir", str(tmp_path)]) == 0
    assert len(forced_threads) == 4
    assert threading.active_count() == before


def test_cylinder_max_of_two_half_unit_stages(tmp_path):
    # psi reads the stage increments a, b ~ N(0, 1/2) under sigma = 1;
    # max(a, b) is convex, so sigma = 1 throughout is the worst case, and
    # E[max(a, b)] = E|a - b| / 2 = 1 / sqrt(2 pi)
    assert _main(["cylinder", "--psi", "max",
                  "--output-dir", str(tmp_path)]) == 0
    assert _summary(tmp_path)["values"]["value"] == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-2)


def test_doob_certificate(tmp_path):
    rc = _main(["doob", "--p", "2", "--p-prime", "4", "--steps", "8",
                "--xi", "abs-terminal", "--output-dir", str(tmp_path)])
    assert rc == 0
    values = _summary(tmp_path)["values"]
    assert values["C"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert values["margin"] >= 0.0
    assert _summary(tmp_path)["verdicts"]["margin_nonnegative"] is True


def test_solve_pde_artifacts(tmp_path):
    rc = _main(["solve-pde", "--preset", "quadratic",
                "--output-dir", str(tmp_path)])
    assert rc == 0
    header = (tmp_path / "solution.csv").read_text().splitlines()[0]
    assert header == "t,x,u,ux,uxx,a,sigma_star"
    values = _summary(tmp_path)["values"]
    # degenerate generator is regularized with the leading eps 0.2
    assert values["u_at_probe"] == pytest.approx(1.04, abs=1e-2)
    assert values["form"] == "gheat"


@pytest.mark.parametrize("preset", ["linear-h", "sine-gz", "kinked"])
def test_gexpect_refuses_a_driver_that_is_not_a_payoff(tmp_path, preset):
    assert _main(["gexpect", "--preset", preset, "--nx", "41",
                  "--output-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "summary.json").exists()


def test_solve_pde_probe_reads_level_zero_below_the_time_slack(tmp_path):
    # dt = 5e-14: an absolute 1e-12 slack would read the terminal level
    rc = _main(["solve-pde", "--T", "1e-13", "--nx", "21",
                "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "solution.csv").read_text().splitlines()[1:]
    u00 = [r.split(",")[2] for r in rows
           if r.startswith("0.000000000000e+00,0.000000000000e+00,")]
    assert u00 == [format(_summary(tmp_path)["values"]["u_at_probe"], ".12e")]
    assert float(u00[0]) > 0.0  # the terminal value at x = 0 is 0


def test_gbsde_from_config_file(tmp_path):
    config = _config_file(tmp_path)
    out = tmp_path / "from-config"
    rc = _main(["gbsde", "--config", config, "--output-dir", str(out)])
    assert rc == 0
    values = _summary(out)["values"]
    # two-level extrapolation of x^2 + (1 + eps^2)(1 + c)(T - t) lands on
    # (1 - eps1*eps2)(1 + c)T = 0.98 * 1.25
    assert values["u0_at_probe"] == pytest.approx(1.225, abs=1e-10)
    assert values["eps_schedule"] == [0.2, 0.1]


@pytest.mark.parametrize("sub", ["gbsde", "convergence", "curvature"])
def test_family_commands_call_solve_gbsde_once(tmp_path, monkeypatch, sub):
    # the benchmark's gbsde.family span wraps this very function
    solve, calls = gbsde.solve_gbsde, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("curvature", False))
        return solve(*args, **kwargs)

    monkeypatch.setattr(gbsde, "solve_gbsde", counted)
    assert _main([sub, "--nx", "41", "--output-dir", str(tmp_path)]) == 0
    assert calls == [sub == "curvature"]


def test_flags_override_config(tmp_path):
    config = _config_file(tmp_path)
    out_param = tmp_path / "override-param"
    rc = _main(["gbsde", "--config", config, "--param", "c=0.5",
                "--output-dir", str(out_param)])
    assert rc == 0
    assert _summary(out_param)["values"]["u0_at_probe"] == \
        pytest.approx(1.47, abs=1e-10)

    out_eps = tmp_path / "override-eps"
    rc = _main(["gbsde", "--config", config, "--eps", "0.1,0.05",
                "--output-dir", str(out_eps)])
    assert rc == 0
    values = _summary(out_eps)["values"]
    assert values["eps_schedule"] == [0.1, 0.05]
    assert values["u0_at_probe"] == pytest.approx(0.995 * 1.25, abs=1e-10)


def test_artifacts_deterministic_across_reruns(tmp_path):
    argv = ["doob", "--p", "2", "--p-prime", "4", "--steps", "8",
            "--xi", "two-stage", "--output-dir", str(tmp_path)]
    assert _main(argv) == 0
    first = {name: (tmp_path / name).read_bytes()
             for name in ("summary.json", "doob.csv")}
    assert _main(argv) == 0
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob


def test_dry_run_validates_without_artifacts(tmp_path, capsys):
    out = tmp_path / "never-created"
    rc = _main(["gbsde", "--dry-run", "--output-dir", str(out)])
    assert rc == 0
    assert "dry-run ok" in capsys.readouterr().out
    assert not out.exists()
    # a dry run, stopped or refused inside the runner, leaves no dry-run
    # state behind: the next run in the process computes and writes
    assert _main(["gbsde", "--sigma-low", "0.1", "--dry-run"]) == 1
    assert not gcore.DRY_RUN.get()
    assert _main(["gbsde", "--nx", "21", "--output-dir", str(out)]) == 0
    assert (out / "summary.json").exists()


def test_a_dry_run_that_returns_writes_nothing(tmp_path, monkeypatch,
                                                capsys):
    # a runner that returns without reaching a unit of work still leaves
    # no artifact
    monkeypatch.setitem(cli._SUBCOMMANDS, "gexpect",
                        (lambda cfg, built: ({}, {}, {}, ""), "stub"))
    out = tmp_path / "never-created"
    assert _main(["gexpect", "--dry-run", "--output-dir", str(out)]) == 0
    assert "dry-run ok" in capsys.readouterr().out
    assert not out.exists()


def _benchmark_argvs() -> list:
    """Every argv of the benchmark workloads, with ``--seed 1`` appended to
    the seeded ones as the benchmark does."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [[*c.argv, *(["--seed", "1"] if c.seeded else [])]
            for cmds in workloads.WORKLOADS.values() for c in cmds]


def test_a_dry_run_computes_nothing(tmp_path, monkeypatch):
    # each benchmark command under --dry-run reaches exactly one of the
    # five units of work, which stops it before its first step
    argvs = _benchmark_argvs()
    assert len(argvs) == 19
    reached = []

    def spy():
        # the unit of work, and whether the dry run stops it
        reached.append((sys._getframe(1).f_code.co_name,
                        gcore.DRY_RUN.get()))
        real()
    real = gcore.work
    for module in (pde, gexpect, scenario):
        monkeypatch.setattr(module, "work", spy)
    units = {"_backward_steps", "_last_level", "_sup_step", "path_normals",
             "gexpect_cylinder"}
    seen = set()
    for argv in argvs:
        reached.clear()
        out = tmp_path / "never-created"
        assert _main([*argv, "--dry-run", "--output-dir", str(out)]) == 0, \
            argv
        assert not out.exists(), argv
        assert len(reached) == 1 and reached[0][1], (argv, reached)
        seen.add(reached[0][0])
    assert seen == units


def test_help_exits_zero(capsys):
    assert _main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out
    assert _main(["gexpect", "--help"]) == 0
    assert "--payoff" in capsys.readouterr().out


def test_counterexample_assert_run(tmp_path):
    rc = _main(["counterexample", "--T", "1", "--eps", "0.2,0.1,0.05,0.025",
                "--assert", "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = _summary(tmp_path)
    assert summary["values"]["slope"] == pytest.approx(-0.4, abs=0.02)
    assert summary["verdicts"] == {"slope_ok": True, "mc_ok": True}


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"not standard JSON: {token}")
    return json.loads(text, parse_constant=refuse)


def test_counterexample_with_one_eps_writes_a_null_slope(tmp_path):
    rc = _main(["counterexample", "--eps", "0.1", "--n-paths", "256",
                "--n-steps", "16", "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = _strict_json((tmp_path / "summary.json").read_text())
    assert summary["values"]["slope"] is None


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_summary_value_exits_two_and_writes_nothing(
        tmp_path, monkeypatch, capsys, bad):
    run, helptext = cli._SUBCOMMANDS["gexpect"]

    def patched(cfg, built):
        values, verdicts, tables, line = run(cfg, built)
        values["value"] = [1.0, bad]
        return values, verdicts, tables, line
    monkeypatch.setitem(cli._SUBCOMMANDS, "gexpect", (patched, helptext))
    out = tmp_path / "out"
    assert _main(["gexpect", "--nx", "41", "--output-dir", str(out)]) == 2
    assert "values.value[1]" in capsys.readouterr().err
    for path in out.rglob("*"):
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text, path.name
    assert not (out / "summary.json").exists()


def test_remaining_subcommands_smoke(tmp_path):
    invocations = {
        "convergence": ["--eps", "0.2,0.1,0.05", "--nx", "201"],
        "curvature": ["--eps", "0.2,0.1", "--nx", "201"],
        "sensitivity-x": ["--n-paths", "400", "--n-steps", "64",
                          "--nx", "201"],
        "sensitivity-t": ["--n-paths", "400", "--n-steps", "64",
                          "--nx", "201"],
        "kink": ["--preset", "kinked", "--x", "0", "--n-paths", "400",
                 "--n-steps", "64", "--nx", "201"],
        "semiconvexity": ["--nx", "141"],
        "stability": ["--shift", "0.1", "--nx", "101"],
    }
    for name, extra in invocations.items():
        out = tmp_path / name
        rc = _main([name, *extra, "--output-dir", str(out)])
        assert rc == 0, name
        assert (out / "summary.json").exists(), name


# ---- failure modes ----

def test_usage_errors_exit_one(tmp_path):
    assert _main([]) == 1
    assert _main(["frobnicate"]) == 1
    assert _main(["gbsde", "--eps", "a,b"]) == 1
    assert _main(["convergence", "--p", "2", "--output-dir",
                  str(tmp_path)]) == 1


def test_unknown_preset_exits_one(tmp_path):
    rc = _main(["gexpect", "--payoff", "nope", "--output-dir",
                str(tmp_path)])
    assert rc == 1


def test_malformed_config_exits_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[bogus]\nkey = 1\n")
    rc = _main(["gbsde", "--config", str(bad), "--output-dir",
                str(tmp_path)])
    assert rc == 1


def test_stability_needs_comparison_exits_one(tmp_path):
    rc = _main(["stability", "--nx", "101", "--output-dir", str(tmp_path)])
    assert rc == 1


def test_stability_exponent_below_one_or_infinite_exits_one(tmp_path):
    # the constants need a finite p >= 1, the bound doob takes too
    for p in ("inf", "0", "-1", "0.5", "nan"):
        rc = _main(["stability", "--shift", "0.1", "--nx", "51", "--p", p,
                    "--output-dir", str(tmp_path / p)])
        assert rc == 1, p


def test_lone_domain_bound_exits_one(tmp_path):
    # a lone bound sets no domain, so it is refused rather than echoed into
    # summary.json next to the default domain (inf as the token Infinity)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("[grid]\nx_max = 3.0\n")
    for i, bound in enumerate((["--x-max", "inf"], ["--x-min", "-2"],
                               ["--config", str(cfg)])):
        for dry in ([], ["--dry-run"]):
            out = tmp_path / f"lone{i}{len(dry)}"
            rc = _main(["solve-pde", "--nx", "21", *bound, *dry,
                        "--output-dir", str(out)])
            assert rc == 1, (bound, dry)
            assert not (out / "summary.json").exists()

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    out = tmp_path / "both"
    assert _main(["solve-pde", "--nx", "21", "--config", str(cfg),
                  "--x-min", "-2", "--output-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=refuse)
    assert (summary["parameters"]["x_min"],
            summary["parameters"]["x_max"]) == (-2.0, 3.0)
    xs = [float(row.split(",")[1]) for row in
          (out / "solution.csv").read_text().splitlines()[1:22]]
    assert (xs[0], xs[-1]) == (-2.0, 3.0)


def test_cfl_refusal_exits_two(tmp_path, monkeypatch, capsys):
    # a pinned nt below the CFL bound is refused before any sweep, for one
    # level, for the eps family and for semiconvexity and stability, whose
    # coarser levels take it: the user's grid, their finest, refuses it
    def sweep(*args, **kwargs):
        raise AssertionError("swept")
    monkeypatch.setattr(pde, "_backward_steps", sweep)
    for argv in (["solve-pde", "--nt", "10"],
                 ["gbsde", "--nt", "10", "--nx", "101"],
                 ["semiconvexity", "--nt", "10", "--nx", "51"],
                 ["stability", "--shift", "0.1", "--nt", "10", "--nx", "53"]):
        rc = _main([*argv, "--output-dir", str(tmp_path / argv[0])])
        assert rc == 2, argv[0]
        err = capsys.readouterr().err
        assert "CFL violation: grid.nt=10" in err, argv[0]
        if "--nx" in argv:
            assert f"at nx={argv[-1]} " in err, argv[0]


def test_coarser_levels_keep_a_stable_pin(tmp_path, monkeypatch):
    # nt=20 is stable at nx=51 and 53, and so on every coarser level, whose
    # CFL bound grows with dx^2: every sweep steps the pinned 20 levels
    nts = []
    steps = pde._backward_steps

    def recorded(driver, grid, Gs, nt, dt, u, **kw):
        nts.append(nt)
        return steps(driver, grid, Gs, nt, dt, u, **kw)
    monkeypatch.setattr(pde, "_backward_steps", recorded)
    for argv, table, levels in (
            (["semiconvexity", "--nt", "20", "--nx", "51"], "semiconvexity",
             [26, 51]),
            (["stability", "--shift", "0.1", "--nt", "20", "--nx", "53"],
             "rows", [14, 27, 53])):
        nts.clear()
        out = tmp_path / argv[0]
        assert _main([*argv, "--output-dir", str(out)]) == 0, argv[0]
        assert _summary(out)["parameters"]["nt"] == 20
        rows = (out / f"{table}.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == levels
        assert nts and set(nts) == {20}, argv[0]


@pytest.mark.parametrize("argv", [
    ["stability", "--shift", "0.1", "--nx", "402"],
    ["stability", "--shift", "0.1", "--nx", "5"],
    ["semiconvexity", "--nx", "402"],
], ids=["stability-402", "stability-5", "semiconvexity-402"])
def test_grid_the_levels_cannot_coarsen_exits_one_before_any_sweep(
        tmp_path, monkeypatch, capsys, argv):
    # stability coarsens the user's grid by 2 and 4, semiconvexity by 2:
    # nx - 1 must be a multiple of the factor, with 3 nodes left
    def sweep(*args, **kwargs):
        raise AssertionError("swept")
    monkeypatch.setattr(pde, "_backward_steps", sweep)
    assert _main([*argv, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"got nx={argv[-1]}" in err and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


# argvs that the run refuses before its first unit of work, by exit code
_REFUSED_BEFORE_WORK = {
    1: (["stability", "--shift", "0.1", "--nx", "402"],
        ["semiconvexity", "--nx", "402"],
        ["solve-pde", "--nx", "2"],
        ["gexpect", "--nx", "2"],
        ["cylinder", "--nx", "2"],
        ["dp-check", "--steps", "0"],
        ["doob", "--steps", "0"],
        ["kink", "--n-paths", "0"],
        ["counterexample", "--n-paths", "0"],
        ["gexpect", "--preset", "linear-h"],
        ["stability", "--shift", "0.1", "--p", "0.5"],
        ["stability"],
        ["dp-check", "--t1", "0.9"],
        ["doob", "--p", "5", "--p-prime", "4"],
        ["sensitivity-t", "--t", "0"],
        ["kink", "--t", "1.0"],
        ["sensitivity-x", "--t", "1.0"],
        ["gbsde", "--eps", "0.1,0.1"],
        ["convergence", "--eps", "0.1"],
        ["curvature", "--eps", "-1"],
        ["semiconvexity", "--eps", "0"],
        ["counterexample", "--eps", "0.1,0.1"],
        ["doob", "--xi", "two-stage", "--steps", "3"],
        ["solve-pde", "--eps", "2"],
        ["gbsde", "--sigma-low", "0.1"],
        ["cylinder", "--times", "0.5,1,1.5,2,2.5"],
        ["gexpect", "--cfl-safety=-inf"],
        ["solve-pde", "--cfl-safety", "0.9"],
        *([sub, "--x-min", "-1", "--x-max", "1", "--x", "5"]
          for sub in ("solve-pde", "gbsde", "dp-check", "kink")),
        # the dp lattice reaches 2.04 either side of x, beyond [-1, 1]
        *(["dp-check", "--x-min", "-1", "--x-max", "1", "--nx", "41",
           f"--x={x}"] for x in ("0", "0.9", "1")),
        *(["dp-check", f"--tol={tol}"] for tol in ("nan", "inf", "-inf"))),
    2: (["solve-pde", "--nt", "3", "--nx", "41"],
        ["solve-pde", "--nx", "2000"],
        ["sensitivity-x", "--n-paths", "100000000", "--nx", "41"]),
}


@pytest.mark.parametrize("argv, code", [
    pytest.param(argv, code, id="-".join(argv).replace("--", ""))
    for code, argvs in _REFUSED_BEFORE_WORK.items() for argv in argvs])
def test_dry_run_refuses_what_the_run_refuses(tmp_path, monkeypatch, argv,
                                              code):
    # a dry run is the run stopped at its first sweep, lattice step, draw
    # or cylinder table: every refusal before that point is its own, and
    # the rules of an estimate's path run and a convergence report's
    # levels, which follow a sweep, are checked by cli._build
    def work(*args, **kwargs):
        raise AssertionError("computed")
    monkeypatch.setattr(pde, "_backward_steps", work)
    monkeypatch.setattr(gexpect, "_sup_step", work)
    monkeypatch.setattr(gexpect, "work", work)
    monkeypatch.setattr(scenario, "path_normals", work)
    for dry in ([], ["--dry-run"]):
        out = tmp_path / f"out{len(dry)}"
        assert _main([*argv, *dry, "--output-dir", str(out)]) == code, dry
        assert not out.exists()


# the benchmark's stability and semiconvexity commands at nx = 401: the
# user's grid is their finest level, and its row is pinned byte for byte
_USER_GRID_ROWS = [
    (["stability", "--shift", "0.1"], "rows", [101, 201, 401],
     "401,1.000000000000e-01,1.000000000000e-02,1.000000000000e-02,"
     "1.000000000000e+00"),
    (["semiconvexity", "--preset", "abs", "--param", "smoothing=0.1"],
     "semiconvexity", [201, 401],
     "401,0.000000000000e+00,1.616652208928e-06,9.711184493201e+00,0"),
]


@pytest.mark.parametrize("argv, table, levels, row", _USER_GRID_ROWS,
                         ids=["stability", "semiconvexity"])
def test_user_grid_is_the_finest_level_and_keeps_its_row(tmp_path, argv,
                                                         table, levels, row):
    assert _main([*argv, "--assert", "--output-dir", str(tmp_path)]) == 0
    rows = (tmp_path / f"{table}.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == levels
    assert rows[-1] == row


def test_dense_memory_guard_exits_two(tmp_path):
    # CFL asks for about 4.06M time levels here, so the two dense arrays
    # would need about 3.3 GB; the solver must refuse before allocating.
    # The address-space cap keeps a missing guard from exhausting the
    # machine: without the guard the child dies with a MemoryError.
    script = textwrap.dedent(f"""
        import resource, sys
        cap = 3 * 2 ** 29  # 1.5 GiB of address space
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from gbmlab.cli import _main
        sys.exit(_main(["solve-pde", "--preset", "sine-gz", "--param",
                        "c=1e6", "--nx", "51", "--output-dir",
                        {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr


def test_semiconvexity_work_budget_exits_two(tmp_path):
    # the streamed scan holds no dense field, so the work budget alone
    # refuses the 4.06M levels this CFL bound asks for, before the first
    # step; the address-space cap turns a missing refusal into a failure
    script = textwrap.dedent(f"""
        import resource, sys
        cap = 3 * 2 ** 29  # 1.5 GiB of address space
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from gbmlab.cli import _main
        sys.exit(_main(["semiconvexity", "--preset", "sine-gz", "--param",
                        "c=1e6", "--nx", "51", "--output-dir",
                        {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "node-steps" in proc.stderr


def test_cylinder_table_guard_exits_two(tmp_path):
    # nx=20001 would tabulate 2.98 GiB and nx=3000000 65.5 TiB before the
    # first stage; every stage's work budget and the table's bytes are
    # checked first.  The address-space cap turns a missing guard into a
    # MemoryError.
    script = textwrap.dedent(f"""
        import resource, sys
        cap = 3 * 2 ** 29  # 1.5 GiB of address space
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from gbmlab.cli import _main
        print(*(_main(["cylinder", "--psi", "sum-sq", "--nx", nx,
                       "--output-dir", {str(tmp_path)!r}])
                for nx in ("20001", "3000000")))
        """)
    proc = _child(script, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["2", "2"], proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    # the normals and the K increments would take 5.72 GiB each
    ["sensitivity-x", "--preset", "smooth-bump", "--nx", "41", "--n-paths",
     "256", "--n-steps", "3000000"],
    # a block of normals is one path at least: one path of 300M steps
    # would take 2.24 GiB
    ["counterexample", "--n-paths", "1", "--n-steps", "300000000"],
], ids=["sensitivity-x", "counterexample"])
def test_path_memory_guard_exits_two(tmp_path, argv):
    # the path arrays' bytes are checked before the first draw; the
    # address-space cap turns a missing guard into a MemoryError
    script = textwrap.dedent(f"""
        import resource, sys
        cap = 2 ** 31  # 2 GiB of address space
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from gbmlab.cli import _main
        sys.exit(_main({argv!r} + ["--output-dir", {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "GiB" in proc.stderr


@pytest.mark.parametrize("argv", [
    # 4.8e10 normals in chunks under the byte guard: minutes of drawing
    ["counterexample", "--n-paths", "3000000", "--n-steps", "4000"],
    # one path over 3M steps, 48 MB of path arrays, but each step's fixed
    # cost of some 60 us adds up to minutes
    ["sensitivity-x", "--preset", "smooth-bump", "--nx", "41", "--n-paths",
     "1", "--n-steps", "3000000"],
], ids=["counterexample", "sensitivity-x-one-path"])
def test_path_work_budget_exits_two(tmp_path, argv):
    script = textwrap.dedent(f"""
        import sys
        from gbmlab.cli import _main
        sys.exit(_main({argv!r} + ["--output-dir", {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "path-steps" in proc.stderr


def test_dp_check_lattice_work_budget_exits_two(tmp_path):
    # 2 * 3M + 1 nodes over 3M levels: about 1.8e13 node-steps, which ran
    # on for minutes behind a finished PDE solve
    script = textwrap.dedent(f"""
        import sys
        from gbmlab.cli import _main
        sys.exit(_main(["dp-check", "--steps", "3000000", "--nx", "41",
                        "--output-dir", {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "node-steps" in proc.stderr


def test_lattice_budgets_exit_two(tmp_path):
    # doob's running-max DP asked 6.65 GiB for one rank array at 2000 steps,
    # and its per-step records filled the cap at 20000 steps; the others
    # ran for 5 s to minutes.  Each is refused before its DP, under the
    # address-space cap that turns a missing refusal into a MemoryError.
    argvs = [["doob", "--steps", "2000"], ["doob", "--steps", "20000"],
             ["doob", "--xi", "two-stage", "--steps", "80"],
             ["doob", "--steps", "200"],
             ["doob", "--xi", "two-stage", "--steps", "40"],
             ["stability", "--shift", "0.1", "--nx", "41", "--steps", "2000"],
             ["stability", "--shift", "0.1", "--nx", "41", "--steps",
              "15000"]]
    script = textwrap.dedent(f"""
        import resource
        cap = 3 * 2 ** 30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from gbmlab.cli import _main
        print(*(_main(argv + ["--output-dir", {str(tmp_path)!r}])
                for argv in {argvs!r}))
        """)
    proc = _child(script, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["2"] * len(argvs), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "GiB" in proc.stderr and "(node x value)-steps" in proc.stderr


# hostile values of each setting type; the mid-size integers reach work
# that 0, 1, 2 and 3M stop early or refuse outright
_HOSTILE = {"float": ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300"),
            "int": ("0", "-1", "1", "2", "80", "2000", "20000", "3000000"),
            "tuple": ("nan", "inf,1", "-1", "0", "1e300", "1,0.5",
                      "0.5,0.5")}


def _cycle(readers: list, extras: list) -> list:
    """(reader, extra) for k < max(len(readers), len(extras)): value k mod
    len(extras) on reader k mod len(readers), so that every value and every
    reader is tried."""
    n = max(len(readers), len(extras)) if extras else 0
    return [(readers[k % len(readers)], extras[k % len(extras)])
            for k in range(n)]


def _hostile_argvs() -> list:
    """Each numeric setting at each hostile value, and each preset's
    parameters at each hostile float, on small base sizes.  A setting's
    values cycle over the subcommands that read it (``_cycle``), so that
    every value and every reader is tried, and adding or deleting a setting
    moves no other argv."""
    subs = list(cli._SUBCOMMANDS)
    reads = {sub: cli._settings(sub) for sub in subs}
    pairs = []
    for f in dataclasses.fields(cli.RunConfig):
        flag = (f.metadata["flags"] or (f"--{f.name.replace('_', '-')}",))[0]
        readers = [sub for sub in subs if f.name in reads[sub]]
        pairs += _cycle(readers, [[f"{flag}={v}"] for v in
                                  _HOSTILE.get(f.type.split(" |")[0], ())])
    drivers = [sub for sub in subs if {"preset", "params"} <= set(reads[sub])]
    for preset in PRESET_NAMES:
        for key in sorted(preset_keys(preset, {}) - {"phi"}):
            pairs += _cycle(drivers, [["--preset", preset,
                                       f"--param={key}={v}"]
                                      for v in _HOSTILE["float"]])
    argvs = []
    for sub, extra in pairs:
        sizes = ((["--nx", "41"] if "nx" in reads[sub] else [])
                 + (["--n-paths", "256", "--n-steps", "16"]
                    if "n_paths" in reads[sub] else []))
        argvs.append([sub, *sizes, *extra])
    # grids that the levels of stability and semiconvexity cannot coarsen,
    # and the refusals from computed values, whatever the rotation gives
    argvs += [["stability", "--shift", "0.1", "--nx", "402"],
              ["semiconvexity", "--nx", "402"],
              ["doob", "--steps=2000"],
              ["kink", "--nx", "41", "--n-paths", "256", "--n-steps", "16",
               "--preset", "smooth-bump", "--param=amplitude=1e300"]]
    return argvs


# the hostile argvs that the run refuses with exit 2 from a value it
# computes, which a dry run, stopped before the first unit of work, never
# reaches
_REFUSED_FROM_COMPUTED_VALUES = {
    ("doob", "--steps=2000"):
        "the running-max budget counts the values the first DP records",
    ("kink", "--nx", "41", "--n-paths", "256", "--n-steps", "16",
     "--preset", "smooth-bump", "--param=amplitude=1e300"):
        "the estimate turns non-finite along the paths",
    ("sensitivity-x", "--nx", "41", "--n-paths", "256", "--n-steps", "16",
     "--preset", "smooth-bump", "--param=amplitude=1e300"):
        "the estimate turns non-finite along the paths",
    ("sensitivity-x", "--nx", "41", "--n-paths", "256", "--n-steps", "16",
     "--preset", "sine-gz", "--param=amplitude=1e300"):
        "the estimate turns non-finite along the paths",
}


def test_hostile_argvs_exit_cleanly(tmp_path):
    # every argv ends in an exit code, never a traceback, a MemoryError
    # under the address-space cap, an escaped exception or a warning, and
    # so does its dry run, which exits 0 or with the run's code: exit 1
    # whenever the run exits 1, and 0 for a run's exit 2 only where the
    # refusal needs a computed value
    argvs = _hostile_argvs()
    assert len(argvs) > 200
    script = textwrap.dedent(f"""
        import contextlib, io, json, resource, warnings
        cap = 3 * 2 ** 30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from gbmlab.cli import _main
        bad, codes = [], []
        for argv in {argvs!r}:
            pair = []
            for dry in ([], ["--dry-run"]):
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        with contextlib.redirect_stderr(err), \\
                                contextlib.redirect_stdout(io.StringIO()):
                            rc = _main(argv + dry + ["--output-dir",
                                                     {str(tmp_path)!r}])
                    except Exception as exc:
                        rc = repr(exc)
                if rc not in (0, 1, 2, 3) or "Traceback" in err.getvalue() \\
                        or caught:
                    bad.append((argv + dry, rc, err.getvalue()[-500:],
                                [str(w.message) for w in caught]))
                pair.append(rc)
            codes.append(pair)
        print(json.dumps([bad, codes]))
        """)
    proc = _child(script, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    bad, codes = json.loads(proc.stdout)
    assert bad == []
    run_only = [tuple(argv) for argv, (run, dry) in zip(argvs, codes)
                if (run, dry) == (2, 0)]
    assert sorted(run_only) == sorted(_REFUSED_FROM_COMPUTED_VALUES)
    assert all(dry in (0, run) and (run != 1 or dry == 1)
               for run, dry in codes), list(zip(argvs, codes))


def test_estimate_on_a_grid_inside_the_dense_budget_runs(tmp_path):
    # 46191 levels x 2800 nodes: the dense fields take 1.93 GiB, inside
    # pde.DENSE_BYTES_MAX; the controls add one-byte masks, where a float
    # copy of each (0.96 GiB) would pass the address-space cap
    script = textwrap.dedent(f"""
        import resource, sys
        cap = 3 * 2 ** 30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from gbmlab.cli import _main
        sys.exit(_main(["kink", "--nx", "2800", "--n-paths", "64",
                        "--n-steps", "8", "--output-dir", {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr


def test_infinite_horizon_exits_one(tmp_path):
    assert _main(["gexpect", "--T", "inf", "--output-dir",
                  str(tmp_path)]) == 1


def test_lattice_state_guard_exits_two(tmp_path, capsys):
    # two stages of 200 and 400 steps augment the lattice to 401 x 801
    # states, past the node guard: a work budget, refused like the others
    rc = _main(["doob", "--xi", "two-stage", "--steps", "400",
                "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "node guard" in err and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


def test_zero_lattice_steps_exits_one(tmp_path):
    for argv in (["doob", "--steps", "0"], ["dp-check", "--steps", "0"],
                 ["dp-check", "--steps", "-5"]):
        assert _main([*argv, "--output-dir", str(tmp_path)]) == 1, argv
    assert not (tmp_path / "summary.json").exists()


def test_dp_check_runs_the_steps_it_echoes(tmp_path):
    assert _main(["dp-check", "--steps", "2", "--nx", "101",
                  "--output-dir", str(tmp_path)]) == 0
    summary = _summary(tmp_path)
    assert summary["parameters"]["steps"] == 2
    # the domain is sized by the configured band, the solve regularized
    # with the leading eps
    G = make_gfunction(0.0, 1.0)
    problem = PdeProblem(Grid1D.default_for(0.0, 1.0, G, nx=101),
                         preset_driver("quadratic"), regularize(G, 0.2))
    report = dynamic_programming_check(problem, 0.25, 0.75, steps=2)
    assert summary["values"]["lattice_value"] == report.lattice_value


def test_zero_path_steps_exits_one(tmp_path):
    assert _main(["sensitivity-x", "--n-steps", "0", "--n-paths", "10",
                  "--nx", "51", "--output-dir", str(tmp_path)]) == 1


def test_work_budget_exits_two(tmp_path):
    # CFL asks for about 4.3M time levels at nx=53 here (3.5e10 node-steps
    # at the per-step floor), and 1.1M and 2.1M on the coarser levels of
    # 14 and 27 nodes; stability streams its solves, so only the node-step
    # budget, checked for every level before the first solve and for the
    # user's grid first, can stop it promptly
    script = textwrap.dedent(f"""
        import sys
        from gbmlab.cli import _main
        sys.exit(_main(["stability", "--shift", "0.1", "--preset", "sine-gz",
                        "--param", "c=1e6", "--nx", "53", "--output-dir",
                        {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "nx=53," in proc.stderr


@pytest.mark.parametrize("argv", [
    # CFL asks for about 4.1M time levels at nx=51: 8.4e8 node-steps for
    # the four eps levels, under the budget counted by nodes alone, yet
    # about 165 s of stepping; the family is streamed, so no dense-field
    # limit stops it either
    ["gbsde", "--preset", "sine-gz", "--param", "c=1e6", "--nx", "51"],
    ["convergence", "--preset", "sine-gz", "--param", "c=1e6", "--nx", "51"],
    ["curvature", "--preset", "sine-gz", "--param", "c=1e6", "--nx", "51"],
    # every level is under the budget counted by nodes alone (3.0e6, 1.2e7
    # and 4.5e7 node-steps for 14, 27 and 53 nodes), yet the 0.75M steps of
    # the three levels take about 25 s (about 31 us a step)
    ["stability", "--shift", "0.1", "--preset", "sine-gz", "--param",
     "c=1e5", "--nx", "53"],
], ids=["gbsde", "convergence", "curvature", "stability"])
def test_per_step_floor_refuses_long_narrow_solves(tmp_path, argv):
    script = textwrap.dedent(f"""
        import sys
        from gbmlab.cli import _main
        sys.exit(_main({argv!r} + ["--output-dir", {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "node-steps" in proc.stderr


def test_path_time_outside_the_horizon_exits_one(tmp_path):
    for argv in (["sensitivity-x", "--t", "nan"],
                 ["sensitivity-t", "--t", "nan"],
                 ["sensitivity-x", "--t", "-0.5"],
                 ["kink", "--t", "nan"],
                 ["kink", "--t", "-0.5"]):
        rc = _main([*argv, "--n-paths", "10", "--nx", "51", "--output-dir",
                    str(tmp_path / argv[0])])
        assert rc == 1, argv


def test_non_finite_x_exits_one_before_any_work(tmp_path):
    # with an explicit domain, --x nan reached an IndexError in kink's
    # nearest-node lookup, and the other runs ran to the strict-JSON guard
    # (exit 2); a fresh interpreter shows any traceback or warning
    runs = [[cmd, "--x-min", "-5", "--x-max", "5", f"--x={x}",
             "--n-paths", "64", "--n-steps", "8", "--nx", "51"]
            for cmd in ("kink", "sensitivity-x", "sensitivity-t")
            for x in ("nan", "inf", "-inf")]
    runs.append(["solve-pde", "--x-min", "-5", "--x-max", "5", "--x", "nan",
                 "--nx", "51"])
    script = textwrap.dedent(f"""
        from gbmlab.cli import _main
        for argv in {runs!r}:
            print(_main(argv + ["--output-dir", {str(tmp_path)!r}]))
        """)
    proc = _child(script, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1"] * len(runs)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.count("x must be finite") == len(runs)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    # dp-check's window is empty: no lattice to reach past the domain
    ["solve-pde"], ["gbsde"], ["dp-check", "--t1", "0.75"],
    ["kink", "--n-paths", "64", "--n-steps", "8"],
], ids=lambda argv: argv[0])
def test_probe_point_at_the_domain_end_runs(tmp_path, argv):
    # a probe point outside [x_min, x_max] exits 1, as every read would
    # clamp it to the nearest end (u(0, 5) on [-1, 1] read as u(0, 1)); the
    # end points themselves are probe points
    out = tmp_path / "at-the-end"
    assert _main([*argv, "--x-min", "-1", "--x-max", "1", "--nx", "41",
                  "--x", "1", "--output-dir", str(out)]) == 0
    assert _summary(out)["parameters"]["x"] == 1.0


def test_counterexample_bad_inputs_exit_one(tmp_path):
    for argv in (["--n-paths", "0"], ["--n-paths", "-3"],
                 ["--n-steps", "0"], ["--T", "-1"], ["--T", "nan"]):
        assert _main(["counterexample", *argv, "--output-dir",
                      str(tmp_path)]) == 1, argv


def test_negative_horizon_exits_one(tmp_path):
    assert _main(["gexpect", "--T", "-1", "--output-dir",
                  str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    # sigma_high ** 2 overflows
    ["gexpect", "--sigma-high", "1e300", "--nx", "41"],
    ["stability", "--shift", "0.1", "--sigma-high", "1e160", "--nx", "21"],
    # sigma_high ** 2 is finite, the regularized bound's square is not
    ["solve-pde", "--sigma-high", "1.2e154", "--nx", "21"],
    # a non-finite lattice step, and one whose square underflows
    ["doob", "--T", "nan"],
    ["doob", "--T", "inf"],
    ["doob", "--sigma-high", "1e-300"],
    ["counterexample", "--eps", "nan,0.1", "--n-paths", "256",
     "--n-steps", "16"],
    # dx * sigma_high ** 2 overflows, and the CFL bound is NaN
    ["solve-pde", "--sigma-high", "1e150", "--nx", "21"],
    ["gexpect", "--sigma-high", "1e150", "--nx", "21"],
    # each warned (overflow, inf - inf, divide by zero, a rank warning)
    # and ran on, to exit 2 or 0
    ["doob", "--p-prime", "inf"],
    ["stability", "--shift", "inf", "--nx", "21"],
    ["stability", "--shift=-inf", "--nx", "21"],
    ["gexpect", "--nx", "41", "--preset", "smooth-bump", "--param",
     "width=1e-308"],
    ["gbsde", "--nx", "41", "--preset", "sine-gz", "--param",
     "width=1e-308"],
    ["counterexample", "--eps", "0.5,0.5", "--n-paths", "256",
     "--n-steps", "16"],
], ids=["sigma-high-1e300", "sigma-high-1e160", "sigma-high-1.2e154",
        "doob-T-nan", "doob-T-inf", "doob-sigma-high-1e-300",
        "counterexample-eps-nan", "solve-pde-sigma-high-1e150",
        "gexpect-sigma-high-1e150", "doob-p-prime-inf", "stability-shift-inf",
        "stability-shift-minus-inf", "gexpect-width-1e-308",
        "gbsde-width-1e-308", "counterexample-repeated-eps"])
def test_hostile_argv_exits_one_without_traceback(tmp_path, capfd, argv):
    # capfd, not capsys: LAPACK writes its complaints to the file descriptor
    rc = _main([*argv, "--output-dir", str(tmp_path)])
    err = capfd.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("argv, message", [
    # |xi|^p' overflows: refused before the DP, without a RuntimeWarning
    (["doob", "--p-prime", "1e300"], "table is not finite"),
    # 0.1 ** 1e300 underflows to 0, and every constant read 0 (stable)
    (["stability", "--shift", "0.1", "--p", "1e300", "--nx", "21"],
     "to the power p=1e+300 is 0.0"),
    # |phi1 - phi2|^p overflowed in the lattice DP, with RuntimeWarnings
    (["stability", "--preset", "linear-h", "--preset-b", "sine-gz", "--p",
      "400", "--nx", "21"], "to the power p=400 is inf"),
], ids=["doob-p-prime-1e300", "stability-p-1e300", "stability-p-400"])
def test_vacuous_power_exits_two(tmp_path, capfd, argv, message):
    rc = _main([*argv, "--output-dir", str(tmp_path)])
    err = capfd.readouterr().err
    assert rc == 2, err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


def test_export_over_its_byte_budget_exits_two(tmp_path, capsys,
                                               monkeypatch):
    # solve-pde --nx 2000 wrote a 6.3 GB solution.csv, and then solved
    # first; here the limit is below the bound of any export, charged
    # before any sweep
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept")
    monkeypatch.setattr(pde, "EXPORT_BYTES_MAX", 0)
    monkeypatch.setattr(pde, "_backward_steps", no_sweep)
    rc = _main(["solve-pde", "--nx", "21", "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "solution export needs" in err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("argv, config", [
    (["gexpect", "--seed", "7"], None),
    (["cylinder", "--T", "1"], None),
    (["counterexample", "--preset", "abs"], None),
    (["gexpect"], "[mc]\nseed = 7\n"),
    (["counterexample"], "[driver]\npreset = abs\n"),
    (["solve-pde", "--form", "gheat"], None),
    (["solve-pde"], "[schedule]\nform = auto\n"),
    # the step's share of the CFL bound is pde.CFL_SAFETY, not a setting
    (["solve-pde"], "[grid]\ncfl_safety = 0.9\n"),
], ids=["gexpect-seed", "cylinder-T", "counterexample-preset",
        "gexpect-config-seed", "counterexample-config-preset",
        "solve-pde-form", "solve-pde-config-form",
        "solve-pde-config-cfl-safety"])
def test_setting_the_subcommand_does_not_read_exits_one(tmp_path, capsys,
                                                        argv, config):
    extra = _config_args(tmp_path, config)
    for dry in ([], ["--dry-run"]):
        out = tmp_path / f"out{len(dry)}"
        assert _main([*argv, *extra, *dry, "--output-dir", str(out)]) == 1
        assert not (out / "summary.json").exists()
        # the refusal names the subcommand; for a flag, its usage line
        # lists the flags it reads
        err = capsys.readouterr().err
        assert argv[0] in err
        if config is None:
            usage = err.split(f"usage: gbmlab {argv[0]} ")[1]
            assert "--output-dir" in usage and f"{argv[1]} " not in usage


def test_grid_subcommands_take_the_probe_point(tmp_path):
    # x centres the default domain, so every grid user reads it
    assert _main(["convergence", "--x", "0.5", "--nx", "21",
                  "--output-dir", str(tmp_path)]) == 0
    assert _summary(tmp_path)["parameters"]["x"] == 0.5


@pytest.mark.parametrize("argv, config", [
    (["doob", "--xi", "bogus"], None),
    (["cylinder"], "[schedule]\npsi = bogus\n"),
    (["stability"], "[schedule]\npreset_b = bogus\n"),
], ids=["xi-flag", "psi-config", "preset-b-config"])
def test_unknown_name_exits_one_under_dry_run(tmp_path, argv, config):
    extra = _config_args(tmp_path, config)
    assert _main([*argv, *extra, "--dry-run"]) == 1


_TINY = {
    "gexpect": ["--nx", "21"],
    "cylinder": ["--nx", "21"],
    "doob": ["--steps", "2"],
    "solve-pde": ["--nx", "21"],
    "gbsde": ["--nx", "21"],
    "convergence": ["--nx", "21"],
    "curvature": ["--nx", "21"],
    "sensitivity-x": ["--nx", "21", "--n-paths", "64", "--n-steps", "8"],
    "sensitivity-t": ["--nx", "21", "--n-paths", "64", "--n-steps", "8"],
    "kink": ["--nx", "21", "--n-paths", "64", "--n-steps", "8"],
    "semiconvexity": ["--nx", "21"],
    "dp-check": ["--nx", "21"],
    "counterexample": ["--n-paths", "64", "--n-steps", "8"],
    "stability": ["--shift", "0.1", "--nx", "21"],
}


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_runs_read_only_the_declared_settings(tmp_path, monkeypatch,
                                              subcommand):
    # a setting a run reads but does not declare would be refused as a
    # flag and as a config key; construction and the summary echo read
    # every field, so they are not recorded
    fields = set(cli.RunConfig.__dataclass_fields__)
    read, recording = set(), [True]
    getattribute = cli.RunConfig.__getattribute__

    def spy(self, name):
        if recording[0] and name in fields:
            read.add(name)
        return getattribute(self, name)

    def unrecorded(method):
        def wrapper(self, *args):
            recording[0] = False
            try:
                return method(self, *args)
            finally:
                recording[0] = True
        return wrapper

    monkeypatch.setattr(cli.RunConfig, "__getattribute__", spy)
    for name in ("__post_init__", "echo"):
        monkeypatch.setattr(cli.RunConfig, name,
                            unrecorded(getattr(cli.RunConfig, name)))
    assert _main([subcommand, *_TINY[subcommand],
                  "--output-dir", str(tmp_path)]) == 0
    assert "output_dir" in read
    assert read <= set(cli._settings(subcommand)), \
        read - set(cli._settings(subcommand))


def test_workers_flag_is_gone(tmp_path):
    assert _main(["gbsde", "--workers", "2", "--output-dir",
                  str(tmp_path)]) == 1


def test_assert_maps_failed_verdict_to_exit_three(tmp_path):
    argv = ["dp-check", "--t1", "0", "--t2", "0.5", "--tol", "1e-9",
            "--output-dir", str(tmp_path)]
    assert _main(argv) == 0
    assert _main(argv + ["--assert"]) == 3


# ---- typed config values, driver parameters, table CSVs ----

@pytest.mark.parametrize("argv, config", [
    (["solve-pde"], "[grid]\nnt = abc\n"),
    (["sensitivity-x", "--n-paths", "10"], "[mc]\nseed = abc\n"),
    (["sensitivity-x", "--n-paths", "10"], "[mc]\nn_paths = abc\n"),
    (["sensitivity-x", "--n-paths", "10"], "[schedule]\nt = abc\n"),
    (["cylinder"], "[schedule]\ntimes = abc\n"),
    (["dp-check"], "[schedule]\ntol = abc\n"),
    (["stability"], "[schedule]\nshift = abc\n"),
    (["solve-pde"], "[grid]\nnx = many\n"),
    (["solve-pde"], "[generator]\nsigma_high = tall\n"),
    (["solve-pde", "--eps", ","], None),
], ids=["nt", "seed", "n_paths", "t", "times", "tol", "shift", "nx",
        "sigma_high", "empty-eps"])
def test_badly_typed_setting_exits_one(tmp_path, capsys, argv, config):
    extra = _config_args(tmp_path, config)
    for dry in ([], ["--dry-run"]):
        out = tmp_path / f"out{len(dry)}"
        rc = _main([*argv, "--nx", "21", *extra, *dry,
                    "--output-dir", str(out)])
        assert rc == 1, dry
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_config_scalars_fill_tuple_fields_and_ints_stay_ints(tmp_path):
    cfg = tmp_path / "times.cfg"
    cfg.write_text("[schedule]\ntimes = 0.5\n")
    out = tmp_path / "out"
    assert _main(["cylinder", "--nx", "51", "--config", str(cfg),
                  "--output-dir", str(out)]) == 0
    assert _summary(out)["parameters"]["times"] == [0.5]
    cfg = tmp_path / "x.cfg"
    cfg.write_text("[schedule]\nx = 0\n")
    out = tmp_path / "out-x"
    assert _main(["solve-pde", "--nx", "21", "--config", str(cfg),
                  "--output-dir", str(out)]) == 0
    params = _summary(out)["parameters"]
    assert params["x"] == 0 and isinstance(params["x"], int)


def test_config_scalar_eps_schedule_is_promoted(tmp_path):
    cfg = tmp_path / "scalar.cfg"
    cfg.write_text("[generator]\neps_schedule = 0.1\n")
    out = tmp_path / "out"
    assert _main(["solve-pde", "--nx", "21", "--config", str(cfg),
                  "--output-dir", str(out)]) == 0
    assert _summary(out)["parameters"]["eps_schedule"] == [0.1]


@pytest.mark.parametrize("dry", [[], ["--dry-run"]], ids=["run", "dry-run"])
def test_param_no_preset_reads_exits_one(tmp_path, capsys, dry):
    # quadratic reads no parameter, so c=inf would only be echoed
    out = tmp_path / "out"
    rc = _main(["solve-pde", "--nx", "21", "--param", "c=inf", *dry,
                "--output-dir", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_params_are_checked_against_the_run_presets():
    # a typo is refused; the second preset's keys count for stability, and
    # counterexample reads exponent whatever the preset
    assert _main(["solve-pde", "--preset", "smooth-bump", "--param",
                  "widht=2", "--dry-run"]) == 1
    assert _main(["stability", "--preset", "abs", "--preset-b",
                  "smooth-bump", "--param", "width=2", "--dry-run"]) == 0
    assert _main(["gexpect", "--preset", "abs", "--param", "width=2",
                  "--dry-run"]) == 1
    assert _main(["gbsde", "--preset", "sine-gz", "--param",
                  "phi=abs", "--param", "smoothing=0.1", "--dry-run"]) == 0
    assert _main(["counterexample", "--param", "exponent=-0.3",
                  "--dry-run"]) == 0


_SMALL_PATHS = ["--nx", "41", "--n-paths", "256", "--n-steps", "16"]


@pytest.mark.parametrize("argv", [
    # not a number: float() raised ValueError
    ["gexpect", "--preset", "smooth-bump", "--param", "amplitude=abc"],
    ["counterexample", "--param", "exponent=abc"],
    # a zero width: ZeroDivisionError in the bump
    ["gbsde", "--preset", "sine-gz", "--param", "width=0", "--nx", "41"],
    # the bump's Lipschitz bound 3 |amplitude| / width overflows
    ["gexpect", "--preset", "smooth-bump", "--param", "amplitude=1e300",
     "--param", "width=1e-10"],
    # a square that leaves the float range: OverflowError
    ["solve-pde", "--preset", "abs", "--param", "smoothing=1e300"],
    # a center at infinity ran, and wrote Infinity into summary.json
    ["sensitivity-x", "--preset", "smooth-bump", "--param", "center=inf",
     *_SMALL_PATHS],
], ids=["not-a-number", "exponent-not-a-number", "zero-width",
        "width-lipschitz-overflows", "smoothing-square-overflows",
        "infinite-center"])
def test_preset_param_outside_its_domain_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert _main([*argv, "--output-dir", str(out)]) == 1
    assert "must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("subcommand", ["kink", "sensitivity-x",
                                        "sensitivity-t"])
def test_overflowing_monte_carlo_estimate_exits_two(tmp_path, capsys,
                                                    subcommand):
    # amplitude=1e300 lies in its domain, but the squared deviations of the
    # estimator overflow: the standard error was written as Infinity
    out = tmp_path / "out"
    argv = [subcommand, "--preset", "smooth-bump", "--param",
            "amplitude=1e300", *_SMALL_PATHS, "--output-dir", str(out)]
    assert _main(argv) == 2
    assert "not finite" in capsys.readouterr().err
    files = [p for p in out.rglob("*") if p.is_file()] if out.exists() else []
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text, path.name


def test_benchmark_command_lines_validate(tmp_path):
    # every argv of the benchmark workloads passes the flag and parameter
    # checks, so no removed option or key check can refuse one
    argvs = _benchmark_argvs()
    assert argvs
    for argv in argvs:
        assert _main([*argv, "--dry-run", "--assert",
                      "--output-dir", str(tmp_path)]) == 0, argv


def test_sensitivity_csv_is_one_reproducible_row(tmp_path):
    argv = ["sensitivity-x", "--n-paths", "200", "--n-steps", "16",
            "--nx", "51", "--output-dir", str(tmp_path)]
    assert _main(argv) == 0
    first = (tmp_path / "sensitivity.csv").read_bytes()
    lines = first.decode("utf-8").splitlines()
    assert lines[0] == ("t,x,dx_plus,dx_minus,se_plus,se_minus,"
                        "residual_of_control,n_paths,seed")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert len(row) == 9 and row[-2:] == ["200", "0"]
    assert _main(argv) == 0
    assert (tmp_path / "sensitivity.csv").read_bytes() == first


def test_time_oracle_within_half_a_level_of_the_horizon(tmp_path):
    # t = 0.9995 rounds to the last level nt; the forward difference there
    # must come from level nt - 1, not read 0 from u[nt] - u[nt]
    assert _main(["sensitivity-t", "--t", "0.9995", "--n-paths", "400",
                  "--n-steps", "16", "--output-dir", str(tmp_path)]) == 0
    summary = _summary(tmp_path)
    assert summary["values"]["pde_oracle"] == pytest.approx(-1.04, abs=1e-2)
    assert summary["verdicts"]["matches_pde"]

def test_doob_csv_is_one_row(tmp_path):
    assert _main(["doob", "--steps", "8", "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "doob.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,p_prime,C,lhs,rhs,margin"
    assert len(lines) == 2
    values = [float(v) for v in lines[1].split(",")]
    assert values[:2] == [2.0, 4.0]
    assert values[2] == pytest.approx(math.sqrt(2.0), rel=1e-12)
