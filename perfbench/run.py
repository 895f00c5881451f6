"""cavimd benchmark: runs one workload and prints its metrics.

Run from the root of a cavimd checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload repeats, untraced, until ``--seconds`` would
be exceeded (at least once), and the end-to-end metrics of BENCHMARK.json
are reported. With ``--trace 1`` untraced and traced repetitions alternate
(at least one pair) and the per-layer metrics of BENCHMARK.json are
reported, taken from the first traced repetition. Either way the
outputs are checked. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALL_CPUS = frozenset(os.sched_getaffinity(0))
#: worker processes for the parallel workload (capped by nproc)
THREADS = 2
#: fresh processes whose median gives setup_s
SETUP_PROBES = 7
TAIL_QUANTILES = (0.9, 0.99, 0.999, 0.9999)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment(src: Path) -> dict:
    """Fixed load: no CAVIMD_THREADS, single-threaded BLAS, cavimd from this checkout."""
    os.environ.pop("CAVIMD_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(src)
    return dict(os.environ)


def provenance(root: Path, ctx, threads: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git not available)"
    sources = sorted((root / "src" / "cavimd").glob("*.py"))
    return {
        "nproc": len(ALL_CPUS),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": ctx.seed,
        "cavimd_seed": ctx.cavimd_seed,
        "threads": threads,
        "src_lines": sum(len(f.read_text().splitlines()) for f in sources),
    }


def use_cpus(workers: int) -> None:
    """Run on every allowed CPU with workers, else on the first one only.

    On a shared host the CPUs of one machine can differ in speed by 10 % or
    more, and an unpinned serial process lands on either, which would make
    one run differ from the next.
    """
    os.sched_setaffinity(0, ALL_CPUS if workers > 1 else {min(ALL_CPUS)})


def setup_seconds(root: Path, env: dict, cavimd_seed: int) -> float:
    """One fresh-process measurement of the set-up every command pays."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(cavimd_seed)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        preexec_fn=lambda: use_cpus(1),
    )
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb(threads: int) -> float:
    """This process's peak RSS plus, with workers, `threads` times the largest worker's.

    RSS counts shared copy-on-write pages in every process, so this is the
    sum `ps` would show at the moment all workers peak together. Without
    workers, other children (helpers that imports may spawn) do not count.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if threads > 1 else 0
    print(f"  peak RSS: this process {own / 1024:.1f} MB, largest worker {child / 1024:.1f} MB")
    return (own + threads * child) / 1024.0


def tail_quantile(n: int):
    """Highest ladder quantile that leaves at least 10 samples above it."""
    best = None
    for q in TAIL_QUANTILES:
        if n * (1.0 - q) >= 10:
            best = q
    return best


def describe(name: str, hist) -> str:
    """Sample count, median and tail percentile (microseconds) of one span or kernel."""
    q = tail_quantile(hist.count)
    tail = f"p{q * 100:g} {hist.quantile(q) * 1e6:.4g} us" if q else "no tail (under 20 samples)"
    return (
        f"  {name:38s} n={hist.count:<8d} median {hist.quantile(0.5) * 1e6:.4g} us, "
        f"{tail}, busy {hist.busy:.4g} s"
    )


def layer_metrics(tr, untraced, untraced_wall: float, threads: int, workload) -> dict:
    """Per-layer metrics of one traced repetition; `untraced_wall` is the untraced median."""
    prop = "dynamics.propagate"
    forces = tr.kernel_hist("model.forces")
    pot = tr.kernel_hist("model.potential_energy")
    hess = tr.kernel_hist("model.fd_hessian")
    cav = tr.kernel_hist("cavity.cavity_energy")
    steps = tr.attr_sum(prop, "steps")
    frames = tr.attr_sum(prop, "frames")
    inner = {k: tr.kernel_hist(k, prop).busy for k in
             ("model.forces", "model.potential_energy", "cavity.kinetic_energy", "cavity.cavity_energy")}
    record_busy = inner["model.potential_energy"] + inner["cavity.kinetic_energy"] + inner["cavity.cavity_energy"]
    trajs = tr.attr_sum("ensemble.run_ensemble", "trajectories")
    failed = tr.attr_sum("ensemble.run_ensemble", "failed")
    drifts = [s.attrs["drift_ev"] for s in tr.named(prop)]
    parse = [s.duration for s in tr.named("config.parse_config")]
    build = [s.duration for s in tr.named("config.build_system")]
    written = tr.attr_sum("cli.write_trajectory_csv", "bytes")
    read = tr.attr_sum("cli.read_trajectory_csv", "bytes")

    def per(a, b):
        return a / b if b else 0.0

    return {
        "config.parse_config_s": statistics.median(parse) if parse else 0.0,
        "config.build_system_s": statistics.median(build) if build else 0.0,
        "model.forces_calls": forces.count,
        "model.forces_calls_per_traj_step": per(tr.kernel_hist("model.forces", prop).count, steps),
        "model.forces_us_p50": forces.quantile(0.5) * 1e6,
        "model.forces_us_p99": forces.quantile(0.99) * 1e6,
        "model.forces_busy_s": forces.busy,
        "model.potential_energy_calls": pot.count,
        "model.potential_energy_us_p50": pot.quantile(0.5) * 1e6,
        "model.potential_energy_busy_s": pot.busy,
        "model.fd_hessian_calls": hess.count,
        "model.fd_hessian_busy_s": hess.busy,
        "cavity.cavity_energy_calls": cav.count,
        "cavity.cavity_energy_busy_s": cav.busy,
        "dynamics.propagate_calls": len(tr.named(prop)),
        "dynamics.steps": steps,
        "dynamics.frames": frames,
        "dynamics.propagate_busy_s": tr.busy(prop),
        "dynamics.self_us_per_step": per(tr.busy(prop) - sum(inner.values()), steps) * 1e6,
        "dynamics.record_us_per_frame": per(record_busy, frames) * 1e6,
        "dynamics.energy_drift_full_ev": max(drifts) if drifts else 0.0,
        "ensemble.run_ensemble_calls": len(tr.named("ensemble.run_ensemble")),
        "ensemble.run_ensemble_busy_s": tr.busy("ensemble.run_ensemble"),
        "ensemble.resolve_velocities_busy_s": tr.busy("ensemble.resolve_velocities"),
        "ensemble.trajectories": trajs,
        "ensemble.failed": failed,
        "ensemble.ok_ratio": per(trajs - failed, trajs),
        "ensemble.parallel_efficiency": (
            per(tr.busy(prop), threads * untraced_wall) if workload.parallel else 0.0
        ),
        "analysis.resonance_scan_busy_s": tr.busy("analysis.resonance_scan"),
        "analysis.find_transition_state_busy_s": tr.busy("analysis.find_transition_state"),
        "analysis.system_normal_modes_busy_s": tr.busy("analysis.system_normal_modes"),
        "analysis.spectra_busy_s": tr.busy("analysis.polariton_modes") + tr.busy("analysis.ir_spectrum"),
        "analysis.mode_occupation_busy_s": tr.busy("analysis.mode_occupation"),
        "analysis.bond_force_correlation_busy_s": tr.busy("analysis.bond_force_correlation"),
        "cli.command_busy_s": tr.busy("cli.command"),
        "cli.write_trajectory_csv_calls": len(tr.named("cli.write_trajectory_csv")),
        "cli.write_trajectory_csv_bytes": written,
        "cli.write_trajectory_csv_mb_per_s": per(written / 1e6, tr.busy("cli.write_trajectory_csv")),
        "cli.read_trajectory_csv_calls": len(tr.named("cli.read_trajectory_csv")),
        "cli.read_trajectory_csv_mb_per_s": per(read / 1e6, tr.busy("cli.read_trajectory_csv")),
        "cli.write_csv_busy_s": tr.busy("cli.write_csv"),
        "cli.write_json_busy_s": tr.busy("cli.write_json"),
        "energy_drift_ev": untraced.extra.get("energy_drift_ev", 0.0),
        "traj_steps_per_s": per(untraced.traj_steps, untraced_wall),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cavimd" / "__init__.py").is_file() or not (root / "configs" / "default.yaml").is_file():
        print("error: run from the root of a cavimd checkout "
              "(src/cavimd/ and configs/default.yaml not found)", file=sys.stderr)
        return 2
    env = pin_environment(src)
    sys.path.insert(0, str(src))

    import cavimd
    from tracer import Tracer
    from workloads import WORKLOADS, Context

    if Path(cavimd.__file__).resolve().parent != (src / "cavimd").resolve():
        print(f"error: imported cavimd from {cavimd.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    workload = WORKLOADS[args.workload]
    ctx = Context(root=root, seed=args.seed, threads=min(THREADS, len(ALL_CPUS)))
    threads = ctx.threads if workload.parallel else 1
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    counter = iter(range(1, 10**6))

    def fresh() -> Path:
        return Path(tempfile.mkdtemp(prefix=f"rep{next(counter)}-", dir=scratch))

    try:
        checks, traj_attempted, traj_failed = [], 0, 0

        def check(rep):
            nonlocal traj_attempted, traj_failed
            found, attempted, failed = workload.check(ctx, rep)
            checks.extend(found)
            traj_attempted += attempted
            traj_failed += failed

        tr = None
        if args.trace == 0:
            # Set-up probes run between repetitions, so that they sample the
            # machine over the whole run rather than in one burst.
            reps, setups = [], []
            start = time.perf_counter()
            while True:
                use_cpus(threads)
                reps.append(workload.run(ctx, fresh(), threads))
                if len(reps) == 1:
                    # before any probe, and before later repetitions fork
                    # workers from a larger heap
                    rss = peak_rss_mb(threads)
                if len(setups) < SETUP_PROBES:
                    setups.append(setup_seconds(root, env, ctx.cavimd_seed))
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(r.wall_s for r in reps) > args.seconds:
                    break
            while len(setups) < SETUP_PROBES:
                setups.append(setup_seconds(root, env, ctx.cavimd_seed))
            for rep in reps:
                check(rep)
            for a, b in zip(reps, reps[1:]):
                checks.extend(workload.compare(a, b))
            if hasattr(workload, "recheck"):
                checks.extend(workload.recheck(ctx, reps[0]))
            walls = [r.wall_s for r in reps]
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss,
            }
            timings = [("wall_s", walls), ("setup_s", setups)]
        else:
            # Untraced and traced repetitions alternate. Spans inside pool
            # workers are invisible, so traced repetitions use one worker and
            # the overhead compares them with untraced ones at one worker; a
            # parallel workload also runs untraced at its own worker count.
            # The per-layer metrics come from the first traced repetition, so
            # that counts repeat exactly.
            parallel, serial, traced, tracers = [], [], [], []
            start = time.perf_counter()
            while True:
                if threads > 1:
                    use_cpus(threads)
                    parallel.append(workload.run(ctx, fresh(), threads))
                use_cpus(1)
                serial.append(workload.run(ctx, fresh(), 1))
                with Tracer() as tracer:
                    traced.append(workload.run(ctx, fresh(), 1))
                tracers.append(tracer)
                traced[-1].extra["trajectories"] = (
                    tracer.attr_sum("ensemble.run_ensemble", "trajectories"),
                    tracer.attr_sum("ensemble.run_ensemble", "failed"),
                )
                elapsed = time.perf_counter() - start
                if elapsed * (len(traced) + 1) / len(traced) > args.seconds:
                    break
            for rep in parallel + serial + traced:
                check(rep)
            checks.extend(workload.compare(serial[0], traced[0]))
            if parallel:
                checks.extend(workload.compare(parallel[0], traced[0]))
            if hasattr(workload, "recheck"):
                checks.extend(workload.recheck(ctx, serial[0]))
            walls = {name: [r.wall_s for r in reps] for name, reps in
                     (("untraced", parallel or serial), ("untraced 1 worker", serial), ("traced 1 worker", traced))}
            values = layer_metrics(tracers[0], serial[0], statistics.median(walls["untraced"]), threads, workload)
            values["trace.overhead_s"] = (
                statistics.median(walls["traced 1 worker"]) - statistics.median(walls["untraced 1 worker"])
            )
            tr = tracers[0]
            timings = [(f"wall_s {name}", w) for name, w in walls.items() if parallel or name != "untraced"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    attempted = len(checks) + traj_attempted
    failed = sum(1 for c in checks if not c.ok) + traj_failed
    info = provenance(root, ctx, threads)
    if args.trace:
        values["failed_frac"] = failed / attempted
        values["src.lines"] = info["src_lines"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: {set(values) ^ set(units)}")

    print(f"workload {workload.name}, trace {args.trace}, " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, samples in timings:
        print(f"  {name}: median {statistics.median(samples):.4f} s over {len(samples)} sample(s): "
              + " ".join(f"{x:.4f}" for x in samples))
    if tr is not None:
        print("spans and kernels (traced run):")
        for name in tr.names():
            hist = tr.kernel_hist(name)
            if not hist.count:
                hist = tr.span_hist(name)
            print(describe(name, hist))
    by_name = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    for name, group in by_name.items():
        bad = [c for c in group if not c.ok]
        shown = (bad or group)[0]
        print(f"  {'FAIL' if bad else 'PASS'} {name} ({len(group) - len(bad)}/{len(group)}): {shown.detail}")
    if traj_attempted:
        print(f"  trajectories: {traj_attempted} attempted, {traj_failed} failed")
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
