"""End-to-end command-line runs: exit codes, artifacts, config precedence."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gbmlab
from gbmlab.cli import _main


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


def _config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


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


def test_cfl_refusal_exits_two(tmp_path):
    # a pinned nt below the CFL bound is refused, for one level, for the
    # eps family and for the refined grids of semiconvexity and stability
    for argv in (["solve-pde", "--nt", "10"],
                 ["gbsde", "--nt", "10", "--nx", "101"],
                 ["semiconvexity", "--nt", "10", "--nx", "51"],
                 ["stability", "--shift", "0.1", "--nt", "10", "--nx", "51"]):
        rc = _main([*argv, "--output-dir", str(tmp_path / argv[0])])
        assert rc == 2, argv[0]


def test_refined_grids_scale_a_stable_pinned_nt(tmp_path):
    # nt=20 is stable at nx=51; the 2x and 4x refinements step at 80 and
    # 320 levels, as dt must shrink with dx^2 (20 levels there is refused)
    for argv in (["semiconvexity", "--nt", "20", "--nx", "51"],
                 ["stability", "--shift", "0.1", "--nt", "20", "--nx", "51"]):
        out = tmp_path / argv[0]
        assert _main([*argv, "--output-dir", str(out)]) == 0, argv[0]
        assert _summary(out)["parameters"]["nt"] == 20


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
    src = os.path.dirname(os.path.dirname(gbmlab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr


def test_infinite_horizon_exits_one(tmp_path):
    assert _main(["gexpect", "--T", "inf", "--output-dir",
                  str(tmp_path)]) == 1


def test_zero_lattice_steps_exits_one(tmp_path):
    assert _main(["doob", "--steps", "0", "--output-dir",
                  str(tmp_path)]) == 1


def test_zero_path_steps_exits_one(tmp_path):
    assert _main(["sensitivity-x", "--n-steps", "0", "--n-paths", "10",
                  "--nx", "51", "--output-dir", str(tmp_path)]) == 1


def test_work_budget_exits_two(tmp_path):
    # CFL asks for about 4.1M time levels at nx=51 here, and 16.5M at
    # nx=201 on the last refinement (3.3e9 node-steps); stability streams
    # its solves, so only the node-step budget, checked for every level
    # before the first solve, can stop it promptly
    script = textwrap.dedent(f"""
        import sys
        from gbmlab.cli import _main
        sys.exit(_main(["stability", "--shift", "0.1", "--preset", "sine-gz",
                        "--param", "c=1e6", "--nx", "51", "--output-dir",
                        {str(tmp_path)!r}]))
        """)
    src = os.path.dirname(os.path.dirname(gbmlab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    # CFL asks for about 4.1M time levels at nx=51: 8.4e8 node-steps for
    # the four eps levels, under the budget counted by nodes alone, yet
    # about 165 s of stepping; the family is streamed, so no dense-field
    # limit stops it either
    ["gbsde", "--preset", "sine-gz", "--param", "c=1e6", "--nx", "51"],
    ["convergence", "--preset", "sine-gz", "--param", "c=1e6", "--nx", "51"],
    ["curvature", "--preset", "sine-gz", "--param", "c=1e6", "--nx", "51"],
    # every level is under the budget counted by nodes alone (2.1e7, 8.2e7
    # and 3.3e8 node-steps), yet the three levels take about 2.5 min
    ["stability", "--shift", "0.1", "--preset", "sine-gz", "--param",
     "c=1e5", "--nx", "51"],
], ids=["gbsde", "convergence", "curvature", "stability"])
def test_per_step_floor_refuses_long_narrow_solves(tmp_path, argv):
    script = textwrap.dedent(f"""
        import sys
        from gbmlab.cli import _main
        sys.exit(_main({argv!r} + ["--output-dir", {str(tmp_path)!r}]))
        """)
    src = os.path.dirname(os.path.dirname(gbmlab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "node-steps" in proc.stderr


def test_path_time_outside_the_horizon_exits_one(tmp_path):
    for argv in (["sensitivity-x", "--t", "nan"],
                 ["sensitivity-t", "--t", "nan"],
                 ["sensitivity-x", "--t", "-0.5"],
                 ["kink", "--t", "nan"]):
        rc = _main([*argv, "--n-paths", "10", "--nx", "51", "--output-dir",
                    str(tmp_path / argv[0])])
        assert rc == 1, argv


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
], ids=["sigma-high-1e300", "sigma-high-1e160", "sigma-high-1.2e154",
        "doob-T-nan", "doob-T-inf", "doob-sigma-high-1e-300",
        "counterexample-eps-nan"])
def test_hostile_argv_exits_one_without_traceback(tmp_path, capfd, argv):
    # capfd, not capsys: LAPACK writes its complaints to the file descriptor
    rc = _main([*argv, "--output-dir", str(tmp_path)])
    err = capfd.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


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
    (["solve-pde"], "[mc]\nseed = abc\n"),
    (["sensitivity-x"], "[mc]\nn_paths = abc\n"),
    (["sensitivity-x"], "[schedule]\nt = abc\n"),
    (["cylinder"], "[schedule]\ntimes = abc\n"),
    (["dp-check"], "[schedule]\ntol = abc\n"),
    (["stability"], "[schedule]\nshift = abc\n"),
    (["solve-pde"], "[grid]\nnx = many\n"),
    (["solve-pde"], "[generator]\nsigma_high = tall\n"),
    (["solve-pde", "--eps", ","], None),
], ids=["nt", "seed", "n_paths", "t", "times", "tol", "shift", "nx",
        "sigma_high", "empty-eps"])
def test_badly_typed_setting_exits_one(tmp_path, capsys, argv, config):
    extra = []
    if config is not None:
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        extra = ["--config", str(path)]
    for dry in ([], ["--dry-run"]):
        out = tmp_path / f"out{len(dry)}"
        rc = _main([*argv, "--nx", "21", "--n-paths", "10", *extra, *dry,
                    "--output-dir", str(out)])
        assert rc == 1, dry
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_config_scalars_fill_tuple_fields_and_ints_stay_ints(tmp_path):
    cfg = tmp_path / "scalar.cfg"
    cfg.write_text("[schedule]\ntimes = 0.5\nx = 0\n")
    out = tmp_path / "out"
    assert _main(["cylinder", "--nx", "51", "--config", str(cfg),
                  "--output-dir", str(out)]) == 0
    params = _summary(out)["parameters"]
    assert params["times"] == [0.5]
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


def test_benchmark_command_lines_validate(tmp_path):
    # every argv of the benchmark workloads passes the flag and parameter
    # checks, so no removed option or key check can refuse one
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    argvs = [c.argv for cmds in workloads.WORKLOADS.values() for c in cmds]
    assert argvs
    for argv in argvs:
        assert _main([*argv, "--dry-run", "--assert", "--seed", "1",
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


def test_doob_csv_is_one_row(tmp_path):
    assert _main(["doob", "--steps", "8", "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "doob.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,p_prime,C,lhs,rhs,margin"
    assert len(lines) == 2
    values = [float(v) for v in lines[1].split(",")]
    assert values[:2] == [2.0, 4.0]
    assert values[2] == pytest.approx(math.sqrt(2.0), rel=1e-12)
