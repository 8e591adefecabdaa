"""gbmlab benchmark: closed-loop passes over a workload's CLI command list.

    python3 perfbench/run.py --workload eps-family --seed 0 --seconds 35 --trace 0

Runs the workload's commands in-process through ``gbmlab.cli.run``, one at
a time, repeating whole passes until ``--seconds`` is spent (at least three
passes).  Every invocation runs with ``--assert``; its headline values are
checked against closed forms, and its artifacts must be byte-identical to
the first pass.  A speed probe (``speed.py``) runs between the commands of
an untraced pass, and ``wall_s`` scales each command's time by it to the
host's reference speed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object; a fuller record (run
context, checks, computed counts, spans) goes to ``perfbench/.runs/``.
See ``perfbench/README.md``.
"""

import os

# one BLAS thread: counterexample's matrix-vector product would otherwise
# start a BLAS thread pool next to the single benchmark thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
from workloads import SPEED_EXPONENT, WORKLOADS, read_table  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = Path("perfbench") / ".runs"      # relative to ROOT, the working dir
MIN_PASSES = 3
# set-up probes per run, half before and half after the measured passes,
# so that the median spans the run rather than its first seconds
SETUP_REPEATS = 24
READY = "import gbmlab.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


# -- set-up time ---------------------------------------------------------------

def setup_seconds(repeats: int) -> list[tuple[float, float]]:
    """Wall time from spawning a fresh interpreter until ``gbmlab.cli`` is
    imported, once per repeat, each with the mean of the speed probes
    before and after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = []
    for _ in range(repeats):
        before = speed.probe()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY], env=env,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        out.append((elapsed, 0.5 * (before + speed.probe())))
    return out


# -- one pass --------------------------------------------------------------------

def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _artifacts(outdir: Path) -> dict:
    """name -> (sha256, bytes) for every file the command wrote."""
    return {p.name: (_digest(p), p.stat().st_size)
            for p in sorted(outdir.iterdir()) if p.is_file()}


def _mc_errors(cmd, values, outdir) -> list[float]:
    out = [float(values[k]) for k in cmd.se_keys]
    for table, column in cmd.se_tables:
        out += [float(r[column]) for r in read_table(outdir, table)]
    return out


class Run:
    """State of one benchmark run: reference artifacts, failures, checks."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.reference: dict[int, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: dict[str, tuple] = {}
        self.mc_se: list[float] = []

    def invoke(self, i: int, cmd, tracer) -> tuple[float, int]:
        """Run command ``i`` once; returns (seconds, artifact bytes)."""
        outdir = self.workdir / f"{i}-{cmd.argv[0]}"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = list(cmd.argv) + ["--assert", "--output-dir", str(outdir)]
        if cmd.seeded:
            argv += ["--seed", str(self.seed)]
        label = " ".join(cmd.argv)
        self.attempted += 1
        sink = io.StringIO()
        code, error = None, None
        span = tracer.begin(f"cli.run_s.{cmd.argv[0]}") if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = self.cli.run(argv)
        except Exception:  # the run goes on; the invocation counts as failed
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end(span)
        failure = error or (None if code == 0 else
                            f"exit {code}: {sink.getvalue().strip()}")
        nbytes = 0
        try:
            if failure is None:
                failure, nbytes = self._verify(i, cmd, label, outdir)
        except Exception:  # a missing or malformed artifact fails it too
            failure = traceback.format_exc()
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if failure:
            self.failures.append(f"{label}: {failure}")
        return elapsed, nbytes

    def _verify(self, i, cmd, label, outdir):
        files = _artifacts(outdir)
        if i not in self.reference:
            self.reference[i] = files
        elif files != self.reference[i]:
            changed = sorted(set(files.items()) ^ set(self.reference[i].items()))
            return f"artifacts differ from the first pass: {changed}", 0
        with open(outdir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        self.mc_se += _mc_errors(cmd, summary["values"], outdir)
        bad = []
        for name, value, ref, tol in (cmd.check(summary, outdir)
                                      if cmd.check else ()):
            err = abs(float(value) - ref) / tol
            self.checks[f"{label} | {name}"] = (float(value), ref, tol, err)
            if not err <= 1.0:       # NaN fails too
                bad.append(f"{name}={value!r} vs {ref!r} +- {tol:g}")
        nbytes = sum(size for _digest, size in files.values())
        return ("check failed: " + "; ".join(bad) if bad else None), nbytes

    def one_pass(self, tracer=None) -> tuple[list[float], list[float], int]:
        """Each command once.  Returns the command times, the speed probe
        times (untraced: before each command and after the last one; traced:
        none) and the bytes of artifacts written."""
        times, probes, nbytes = [], [], 0
        for i, cmd in enumerate(self.commands):
            if not tracer:
                probes.append(speed.probe())
            elapsed, size = self.invoke(i, cmd, tracer)
            times.append(elapsed)
            nbytes += size
        if not tracer:
            probes.append(speed.probe())
        return times, probes, nbytes


def measure(run: Run, seconds: float, tracer=None):
    """Whole passes until the next one would end after ``seconds``, and at
    least ``MIN_PASSES``.  With a tracer, untraced passes (the first one is
    the artifact reference) alternate with traced ones.

    Returns the per-command times and the speed probe times of each
    untraced pass, the time of each traced pass, and the per-layer metrics
    of each traced pass.
    """
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        if tracer and len(untraced) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                times, _probes, nbytes = run.one_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(sum(times))
            layer = spans.layer_metrics(tracer, run.cli.SUBCOMMANDS)
            layer["cli.artifact_mb"] = nbytes / spans.MIB
            layers.append(layer)
        else:
            untraced.append(run.one_pass()[:2])
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed + elapsed / done > seconds:
            return untraced, traced, layers


def wall_seconds(untraced, exponent: float) -> float:
    """Seconds for one pass at the host's reference speed: each command's
    time is scaled by ``speed.REFERENCE_S`` over the mean of the probes
    either side of it, to the workload's ``exponent``; per command, the
    median over the passes; summed over the command list."""
    scaled = [[t * (2.0 * speed.REFERENCE_S / (probes[i] + probes[i + 1]))
               ** exponent for i, t in enumerate(times)]
              for times, probes in untraced]
    return sum(statistics.median(col) for col in zip(*scaled))


# -- run context -----------------------------------------------------------------

def context() -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 text=True, capture_output=True,
                                 timeout=30).stdout.strip()
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return dict(git_sha=sha or "unknown", nproc=os.cpu_count(), cpu=cpu,
                python=platform.python_version(), numpy=np.__version__,
                blas=blas, blas_threads=os.environ["OPENBLAS_NUM_THREADS"])


# -- main ------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="Monte Carlo seed of the path-based commands")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measure whole passes for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced passes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gbmlab" / "cli.py").is_file():
        print(f"error: no gbmlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from gbmlab import cli, gbsde, gcore, gexpect, pde, scenario

    setup = [] if args.trace else setup_seconds(SETUP_REPEATS // 2)
    run = Run(cli, args.workload, args.seed, RUNS / f"work-{args.workload}")
    tracer = spans.Tracer([cli, gbsde, gcore, gexpect, pde, scenario],
                          spans.targets(gcore, pde, gexpect, scenario, gbsde)
                          ) if args.trace else None
    try:
        untraced, traced, layers = measure(run, args.seconds, tracer)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if not args.trace:
        setup += setup_seconds(SETUP_REPEATS - SETUP_REPEATS // 2)

    ctx = context()
    err_max = max((c[3] for c in run.checks.values()), default=0.0)
    failed = len(run.failures)
    if args.trace:
        metrics = {k: statistics.median(layer[k] for layer in layers)
                   for k in layers[0]}
        metrics["cli.fail_frac"] = failed / run.attempted
        metrics["scenario.mc_se_max"] = max(run.mc_se, default=0.0)
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(
                                               sum(t) for t, _ in untraced))
    else:
        metrics = dict(wall_s=wall_seconds(untraced,
                                           SPEED_EXPONENT[args.workload]),
                       setup_s=statistics.median(
                           t * speed.REFERENCE_S / probe for t, probe in setup),
                       peak_rss_mb=resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                       err_ratio_max=err_max)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    units = {m["name"]: m["unit"] for m in declared}
    result = dict(correct=failed == 0 and run.attempted > 0,
                  attempted=run.attempted, failed=failed,
                  metrics={k: dict(value=v, unit=units[k]) for k, v
                           in sorted(metrics.items())})

    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, context=ctx,
                  passes=dict(untraced=len(untraced), traced=len(traced)),
                  commands=[" ".join(c.argv) for c in run.commands],
                  untraced_command_s=[t for t, _ in untraced],
                  speed_probe_s=[p for _, p in untraced],
                  unscaled_wall_s=statistics.median(
                      sum(t) for t, _ in untraced),
                  traced_pass_s=traced, setup_and_probe_s=setup,
                  failures=run.failures, mc_se_max=max(run.mc_se, default=0.0),
                  checks={k: dict(value=v, reference=r, tol=t, err_ratio=e)
                          for k, (v, r, t, e) in run.checks.items()},
                  computed_counts={k: v for k, v in metrics.items()
                                   if k in spans.COMPUTED},
                  result=result)
    if tracer:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans_last_traced_pass"] = [
            (name, s - t0, e - t0, parent) for name, s, e, parent in tracer.spans]
    RUNS.mkdir(parents=True, exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"gbmlab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(untraced)}+{len(traced)} traced")
    print("context: " + json.dumps(ctx))
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"  unscaled pass time, median: {record['unscaled_wall_s']:.6g} s; "
          "speed probe, median: "
          f"{statistics.median(sum(record['speed_probe_s'], [])):.6g} s "
          f"(reference {speed.REFERENCE_S} s)")
    for name, m in result["metrics"].items():
        tag = "  (computed)" if name in spans.COMPUTED else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{tag}")
    print(f"  invocations: {run.attempted} attempted, {failed} failed; "
          f"err_ratio_max={err_max:.6g}; mc_se_max="
          f"{max(run.mc_se, default=0.0):.6g}; record in {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
