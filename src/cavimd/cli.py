"""Command-line interface: spectrum, run, ensemble, scan, analyze,
calibrate, model-check.

Outputs are plot-ready CSV tables (RFC-4180, header row, '.' decimal) and
JSON summaries; every output directory carries a manifest with the config
hash, RNG identifier and unit table. Boundary units: cm^-1, fs, Angstrom,
eV, K (dipoles in e*Angstrom, photon coordinates in atomic units).

Exit codes: 0 success, 1 validation error, 2 runtime/numerics error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analysis as _analysis
from . import model as _model
from .config import ConfigError, RunConfig, make_manifest, parse_config
from .dynamics import IntegrationError, Trajectory, propagate
from .ensemble import EnsembleResult, WorkerError, launch_states, make_specs, map_chunks, run_ensemble
from .model import CalibrationError, ModelSystem
from .units import (
    ANGSTROM_PER_BOHR,
    AUT_PER_FS,
    EV_PER_HARTREE,
    fs_to_au,
)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, float) or isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    """One header row, then `rows`: a 2-D float ndarray, or rows of mixed cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            # tolist() yields Python floats, so each cell is _fmt's repr(float(x))
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows.tolist())
            return
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_json(path: Path, payload: dict) -> None:
    if path.name != "manifest.json":
        payload = {"manifest": "manifest.json", **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_manifest(outdir: Path, config: RunConfig, command: str) -> None:
    write_json(outdir / "manifest.json", make_manifest(config, command))


# --- trajectory file format -----------------------------------------------------

def trajectory_header(system: ModelSystem) -> List[str]:
    cols = ["time_fs"]
    for p in system.particles:
        cols += [f"x_{p.label}_A", f"y_{p.label}_A", f"z_{p.label}_A"]
    for p in system.particles:
        cols += [f"vx_{p.label}_A_fs", f"vy_{p.label}_A_fs", f"vz_{p.label}_A_fs"]
    cols += ["photon_q_au", "photon_p_au"]
    cols += ["epot_eV", "ekin_eV", "ecav_eV", "etot_eV"]
    cols += ["mux_eA", "muy_eA", "muz_eA"]
    return cols


def write_trajectory_csv(path: Path, system: ModelSystem, traj: Trajectory) -> None:
    v_scale = ANGSTROM_PER_BOHR * AUT_PER_FS  # bohr/aut -> Angstrom/fs
    energies = np.column_stack([traj.epot, traj.ekin, traj.ecav, traj.etot]) * EV_PER_HARTREE
    matrix = np.column_stack(
        [traj.times_fs, traj.positions * ANGSTROM_PER_BOHR, traj.velocities * v_scale]
        + [traj.photon_q, traj.photon_p, energies, traj.dipole * ANGSTROM_PER_BOHR]
    )
    write_csv(path, trajectory_header(system), matrix)


def _write_trajectories(args) -> None:
    """Write one chunk of (row, trajectory) pairs as trajectory_<row>.csv files under a directory."""
    system, tdir, rows = args
    for row, traj in rows:
        write_trajectory_csv(tdir / f"trajectory_{row:06d}.csv", system, traj)


def _trajectory_files(rows) -> str:
    """The files that `_write_trajectories` writes for a chunk, by first and last."""
    first, last = (f"trajectory_{row:06d}.csv" for row, _ in (rows[0], rows[-1]))
    return first if first == last else f"{first} to {last}"


def _first_bad_line(path: Path, width: int) -> Optional[str]:
    """Where the first frame of a trajectory file is not `width` numbers, by file line number."""
    with open(path, newline="") as fh:
        for n, line in enumerate(fh, 1):
            cells = line.split("#", 1)[0].strip()  # as np.loadtxt reads it
            if n == 1 or not cells:
                continue
            cells = cells.split(",")
            if len(cells) != width:
                return f"line {n}: {len(cells)} columns, expected {width}"
            for c, cell in enumerate(cells, 1):
                try:
                    float(cell)
                except ValueError:
                    return f"line {n}: could not convert column {c} ({cell!r}) to float"
    return None


def read_trajectory_csv(path: Path, system: ModelSystem) -> Trajectory:
    """Inverse of write_trajectory_csv; a damaged file raises ConfigError naming it."""
    expected = trajectory_header(system)
    with open(path, newline="") as fh:
        if next(csv.reader([fh.readline()]), []) != expected:
            raise ConfigError(f"{path}: unexpected trajectory columns")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {_first_bad_line(path, len(expected)) or exc}") from None
    if data.shape[0] == 0:
        raise ConfigError(f"{path}: no frames after the header")
    if data.shape[1] != len(expected):
        raise ConfigError(f"{path}: {_first_bad_line(path, len(expected))}")
    n3 = 3 * system.n_particles
    times = data[:, 0] * AUT_PER_FS
    pos = data[:, 1 : 1 + n3] / ANGSTROM_PER_BOHR
    vel = data[:, 1 + n3 : 1 + 2 * n3] / (ANGSTROM_PER_BOHR * AUT_PER_FS)
    q = data[:, 1 + 2 * n3]
    p = data[:, 2 + 2 * n3]
    e = data[:, 3 + 2 * n3 : 7 + 2 * n3] / EV_PER_HARTREE
    mu = data[:, 7 + 2 * n3 : 10 + 2 * n3] / ANGSTROM_PER_BOHR
    dt_frame = times[1] - times[0] if times.size > 1 else 1.0
    return Trajectory(
        dt=dt_frame, stride=1, times=times, positions=pos, velocities=vel, photon_q=q, photon_p=p,
        epot=e[:, 0], ekin=e[:, 1], ecav=e[:, 2], etot=e[:, 3], dipole=mu,
    )


# --- commands ---------------------------------------------------------------------

def _ensemble_inputs(config: RunConfig, system: ModelSystem, seed: Optional[int]):
    ens = config.ensemble
    specs = make_specs(
        seed if seed is not None else ens.seed,
        ens.n_trajectories,
        ens.temperature_K,
        aim=ens.aim,
        resample_T_K=ens.resample_T_K,
    )
    return dict(
        positions=config.launch_positions(system),
        dt=fs_to_au(config.dynamics.dt_fs),
        n_steps=config.n_steps(),
        stride=config.dynamics.stride,
        window_fs=ens.window_fs,
    ), specs


def _write_ensemble_outputs(
    outdir: Path, config: RunConfig, system: ModelSystem, result: EnsembleResult
) -> None:
    formats = config.outputs.formats
    if "csv" in formats:
        rows = []
        for rec in result.records:
            ev = rec.event
            rows.append(
                [
                    rec.index,
                    rec.seed,
                    bool(ev.occurred) if ev else False,
                    ev.crossing_time_fs if ev and ev.occurred else None,
                    rec.dissociated,
                    rec.mean_bond_bohr * ANGSTROM_PER_BOHR if rec.mean_bond_bohr is not None else None,
                    rec.error or "",
                ]
            )
        write_csv(
            outdir / "ensemble.csv",
            ["index", "seed", "reacted", "crossing_time_fs", "dissociated", "mean_sic_A", "error"],
            rows,
        )
    if "json" in formats:
        write_json(
            outdir / "summary.json",
            {
                "n_trajectories": result.n_trajectories,
                "window_fs": list(config.ensemble.window_fs),
                "reaction_fraction": result.reaction_fraction,
                "mean_sic_A": result.mean_bond_bohr * ANGSTROM_PER_BOHR,
                "stderr_sic_A": (
                    None
                    if np.isnan(result.stderr_bond_bohr)
                    else result.stderr_bond_bohr * ANGSTROM_PER_BOHR
                ),
                "threshold_A": result.threshold_bohr * ANGSTROM_PER_BOHR,
                "errors": [rec.error for rec in result.records if rec.error],
            },
        )


def cmd_run(
    config: RunConfig, system: ModelSystem, outdir: Path, seed: Optional[int], threads: int
) -> int:
    kwargs, specs = _ensemble_inputs(config, system, seed)
    mode = config.cavity.mode()
    # the launch and the batch step of `cavimd ensemble`, so this is its trajectory 0
    state = launch_states(system, mode, specs[:1], kwargs["positions"])[0]
    traj, event = propagate(
        system, mode, state, kwargs["dt"], kwargs["n_steps"], kwargs["stride"]
    )
    tdir = outdir / "trajectories"
    tdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(tdir / "trajectory_000000.csv", system, traj)
    if "json" in config.outputs.formats:
        write_json(
            outdir / "summary.json",
            {
                "seed": specs[0].seed,
                "reacted": bool(event.occurred),
                "crossing_time_fs": event.crossing_time_fs,
                "dissociated": traj.dissociated,
                "threshold_A": event.threshold_bohr * ANGSTROM_PER_BOHR,
            },
        )
    _emit_manifest(outdir, config, "run")
    return 0


def cmd_ensemble(
    config: RunConfig, system: ModelSystem, outdir: Path, seed: Optional[int], threads: int
) -> int:
    kwargs, specs = _ensemble_inputs(config, system, seed)
    result = run_ensemble(system, config.cavity.mode(), specs, keep_trajectories=True, **kwargs)
    tdir = outdir / "trajectories"
    tdir.mkdir(parents=True, exist_ok=True)
    rows = list(zip(result.series_index, result.trajectories))
    map_chunks(_write_trajectories, (system, tdir), rows, threads, _trajectory_files)
    _write_ensemble_outputs(outdir, config, system, result)
    _emit_manifest(outdir, config, "ensemble")
    return 0


def cmd_scan(
    config: RunConfig, system: ModelSystem, outdir: Path, seed: Optional[int], threads: int
) -> int:
    kwargs, specs = _ensemble_inputs(config, system, seed)
    if config.scan.omega_list_cm1 is not None:
        conditions = [(w, config.cavity.ratio) for w in config.scan.omega_list_cm1]
        name = "resonance_scan.csv"
    else:
        conditions = [(config.cavity.omega_c_cm1, r) for r in config.scan.ratio_list]
        name = "coupling_scan.csv"
    rows = _analysis.resonance_scan(
        system,
        specs,
        conditions,
        polarization=np.asarray(config.cavity.polarization),
        bilinear=config.cavity.bilinear,
        self_polarization=config.cavity.self_polarization,
        **kwargs,
    )
    table = [
        [
            r.kind,
            r.omega_c_cm1,
            r.lambda_au,
            r.ratio,
            r.n,
            r.reaction_fraction,
            r.mean_bond_bohr * ANGSTROM_PER_BOHR,
            (None if np.isnan(r.stderr_bond_bohr) else r.stderr_bond_bohr * ANGSTROM_PER_BOHR),
        ]
        for r in rows
    ]
    write_csv(
        outdir / name,
        ["kind", "omega_c_cm1", "lambda_au", "ratio", "n", "reaction_fraction", "mean_sic_A", "stderr_sic_A"],
        table,
    )
    _emit_manifest(outdir, config, "scan")
    return 0


def cmd_spectrum(
    config: RunConfig, system: ModelSystem, outdir: Path, seed: Optional[int], threads: int
) -> int:
    modes = _analysis.system_normal_modes(system)
    pol = np.asarray(config.cavity.polarization)
    lam_list = config.spectrum.lambda_list_au
    if lam_list is None:
        lam_list = (0.0, config.cavity.lambda_au)
    broadening = config.spectrum.broadening_cm1
    rb = system.reactive_bond if system.reactive_bond_index is not None else None
    for lam in lam_list:
        cav = dataclasses.replace(config.cavity, lambda_au=lam).mode()
        if cav is None:
            eff, tag = modes, "bare"
            weights = (
                _analysis.sic_weighted_spectrum(modes, (rb.i, rb.j)) if rb is not None else None
            )
        else:
            eff = _analysis.polariton_modes(modes, cav)
            tag = f"lambda_{lam:g}"
            weights = (
                _analysis.polariton_sic_weights(eff, modes, (rb.i, rb.j))
                if rb is not None
                else None
            )
        lines, grid, curve = _analysis.ir_spectrum(eff, pol, broadening)
        if weights is not None:
            by_freq = {float(f): float(w) for f, w in zip(eff.frequencies_cm1, weights)}
            for ln in lines:
                ln.si_c_weight = by_freq.get(ln.frequency_cm1, 0.0)
        write_csv(
            outdir / f"spectrum_lines_{tag}.csv",
            ["frequency_cm1", "strength_au", "si_c_weight"],
            [[ln.frequency_cm1, ln.strength, ln.si_c_weight] for ln in lines],
        )
        write_csv(
            outdir / f"spectrum_curve_{tag}.csv",
            ["frequency_cm1", "intensity_au"],
            list(zip(grid, curve)),
        )
    _emit_manifest(outdir, config, "spectrum")
    return 0


def _load_run_trajectories(
    run_dir: Path, system: ModelSystem, min_frames: int, first: Optional[tuple] = None
) -> Tuple[List[Path], List[Trajectory]]:
    """The files and trajectories of a run, each of at least `min_frames` frames.

    Every file must share the frame times of `first`, a (path, trajectory)
    pair that defaults to the run's first file.
    """
    tdir = Path(run_dir) / "trajectories"
    files = sorted(tdir.glob("trajectory_*.csv"))
    if not files:
        raise FileNotFoundError(f"no trajectories under {tdir}")
    trajs = [read_trajectory_csv(f, system) for f in files]
    first_file, first_traj = first or (files[0], trajs[0])
    for f, t in zip(files, trajs):
        if t.n_frames < min_frames:
            raise ConfigError(f"{f}: {t.n_frames} frames, fewer than analyze.correlation_window")
        if t.n_frames != first_traj.n_frames:
            raise ConfigError(f"{f}: {t.n_frames} frames, but {first_file} has {first_traj.n_frames}")
        if not np.allclose(t.times_fs, first_traj.times_fs, rtol=0.0, atol=1e-9):
            raise ConfigError(f"{f}: frame times differ from those of {first_file}")
    return files, trajs


def cmd_analyze(
    config: RunConfig, system: ModelSystem, outdir: Path, seed: Optional[int], threads: int
) -> int:
    modes = _analysis.system_normal_modes(system)
    ref = system.reference_positions
    bonds = config.analyze.bonds
    window = config.analyze.correlation_window
    first = None
    maps = []
    for run in config.analyze.runs:
        files, trajs = _load_run_trajectories(Path(run), system, window if len(bonds) >= 2 else 1, first)
        first = first or (files[0], trajs[0])
        occ = _analysis.mean_occupation_map(
            [_analysis.mode_occupation(t, modes, ref) for t in trajs]
        )
        maps.append(occ)
        tag = Path(run).name
        header = ["time_fs"] + [f"mode_{f:.2f}_cm1" for f in occ.frequencies_cm1] + ["photon_q_au"]
        table = np.column_stack([occ.times_fs, occ.normalized, occ.photon_q])
        write_csv(outdir / f"occupation_{tag}.csv", header, table)
        # bond force correlations per configured pair against the first pair
        if len(bonds) >= 2:
            corr = _analysis.bond_force_correlation(
                trajs[0], system, tuple(bonds[0]), tuple(bonds[1]), window
            )
            write_csv(
                outdir / f"bond_correlation_{tag}.csv",
                ["time_fs", "correlation"],
                np.column_stack([corr.times_fs, corr.values]),
            )
            write_json(
                outdir / f"bond_correlation_{tag}.json",
                {
                    "bond_a": list(bonds[0]),
                    "bond_b": list(bonds[1]),
                    "window_frames": window,
                    "integrated": corr.integrated,
                    "degenerate_windows": corr.n_degenerate,
                },
            )
    if len(maps) == 2:
        diff = _analysis.occupation_difference(maps[0], maps[1])
        header = ["time_fs"] + [f"mode_{f:.2f}_cm1" for f in diff.frequencies_cm1] + ["photon_q_au"]
        table = np.column_stack([diff.times_fs, diff.delta, diff.photon_delta])
        write_csv(outdir / "occupation_difference.csv", header, table)
        rb = system.reactive_bond
        weights = _analysis.sic_weighted_spectrum(modes, (rb.i, rb.j))
        write_csv(
            outdir / "occupation_accumulated.csv",
            ["mode_cm1", "accumulated_fs", "si_c_weight"],
            [
                [f, a, w]
                for f, a, w in zip(diff.frequencies_cm1, diff.accumulated, weights)
            ]
            + [["photon", diff.photon_accumulated, 0.0]],
        )
    _emit_manifest(outdir, config, "analyze")
    return 0


def cmd_calibrate(
    config: RunConfig, system: ModelSystem, outdir: Path, seed: Optional[int], threads: int
) -> int:
    rb = system.reactive_bond
    well = rb.well
    mu_red = system.reduced_mass(rb.i, rb.j)
    write_json(
        outdir / "calibration.json",
        {
            "r0_bohr": well.r0,
            "r_ts_bohr": well.r_ts,
            "coefficients_c2_to_c6": list(well.coeffs),
            "tail_join_bohr": well.r0 + well.x_tail,
            "tail_slope_hartree_per_bohr": well.tail_slope,
            "barrier_eV": well.barrier * EV_PER_HARTREE,
            "curvature_min_hartree_bohr2": well.curvature_min,
            "curvature_ts_hartree_bohr2": well.curvature_ts,
            "ts_frequency_cm1": well.ts_frequency_cm1(mu_red),
        },
    )
    _emit_manifest(outdir, config, "calibrate")
    return 0


def cmd_model_check(
    config: RunConfig, system: ModelSystem, outdir: Path, seed: Optional[int], threads: int
) -> int:
    rng = np.random.default_rng(7)
    checks = {}
    x0 = system.reference_positions
    if x0 is None:
        raise ConfigError("model-check needs a reference geometry")
    # force consistency on random displaced geometries, each a batch row
    xs = x0 + 0.1 * rng.standard_normal((50, x0.size))
    f = _model.forces(system, xs)
    h = 1e-4
    step = h * np.eye(x0.size)
    e_plus = _model.potential_energy(system, (xs[:, None, :] + step).reshape(-1, x0.size))
    e_minus = _model.potential_energy(system, (xs[:, None, :] - step).reshape(-1, x0.size))
    fd = -(e_plus - e_minus).reshape(f.shape) / (2 * h)
    worst = float((np.abs(f - fd).max(axis=1) / np.abs(f).max(axis=1)).max())
    checks["force_fd_max_rel_err"] = worst
    checks["force_fd_ok"] = worst < 1e-6
    checks["reference_force_max"] = float(np.abs(_model.forces(system, x0)).max())
    checks["reference_is_stationary"] = checks["reference_force_max"] < 1e-10
    checks["total_charge"] = float(system.dipole.total_charge)
    modes = _analysis.system_normal_modes(system)
    vib = modes.frequencies_cm1[modes.frequencies_cm1 > 1.0]
    checks["vibrational_modes_cm1"] = [float(f) for f in vib]
    if system.reactive_bond_index is not None:
        rb = system.reactive_bond
        weights = _analysis.sic_weighted_spectrum(modes, (rb.i, rb.j))
        k = int(np.argmin(np.abs(modes.frequencies_cm1 - 856.0)))
        checks["mode_856_cm1"] = float(modes.frequencies_cm1[k])
        checks["mode_856_sic_weight"] = float(weights[k])
        checks["ts_frequency_cm1"] = rb.well.ts_frequency_cm1(system.reduced_mass(rb.i, rb.j))
        checks["barrier_eV"] = rb.well.barrier * EV_PER_HARTREE
    ok = checks["force_fd_ok"] and checks["reference_is_stationary"]
    checks["passed"] = bool(ok)
    write_json(outdir / "model_check.json", checks)
    _emit_manifest(outdir, config, "model-check")
    for key in ("force_fd_ok", "reference_is_stationary"):
        print(f"{'PASS' if checks[key] else 'FAIL'} {key}")
    return 0 if ok else 2


def _check_inputs(command: str, config: RunConfig, system: ModelSystem) -> None:
    """Reject config entries `command` cannot run with on `system`, before anything runs."""
    # the two-run tables of analyze weigh each mode by its reactive-bond stretch
    two_runs = command == "analyze" and len(config.analyze.runs) == 2
    if (command in ("ensemble", "scan", "calibrate") or two_runs) and system.reactive_bond_index is None:
        raise ConfigError(f"{command} requires a system with a reactive bond")
    if command == "scan" and config.scan.omega_list_cm1 is None and config.scan.ratio_list is None:
        raise ConfigError("scan command needs scan.omega_list_cm1 or scan.ratio_list")
    aim = config.ensemble.aim if command in ("run", "ensemble", "scan") else None
    pairs = [] if aim is None else [("ensemble.aim", aim)]
    if command == "analyze":
        if not config.analyze.runs:
            raise ConfigError("analyze command needs analyze.runs (one or two run directories)")
        pairs += [(f"analyze.bonds[{k}]", pair) for k, pair in enumerate(config.analyze.bonds)]
    n = system.n_particles
    for where, (i, j) in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ConfigError(f"{where} must name two different particles of 0..{n - 1}, got {[i, j]}")
    if aim is not None:
        # the projectile is aimed along the unit vector from particle i to particle j
        i, j = aim
        pts = config.launch_positions(system).reshape(-1, 3)
        if np.linalg.norm(pts[j] - pts[i]) < 1e-12:
            raise ConfigError(f"ensemble.aim particles {i} and {j} coincide in the launch geometry")


COMMANDS = {
    "spectrum": cmd_spectrum,
    "run": cmd_run,
    "ensemble": cmd_ensemble,
    "scan": cmd_scan,
    "analyze": cmd_analyze,
    "calibrate": cmd_calibrate,
    "model-check": cmd_model_check,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cavimd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override ensemble.seed")
        p.add_argument("--out", default=None, help="override outputs.directory")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="most worker processes that write trajectory files (default: CAVIMD_THREADS or 1)",
        )
        p.add_argument("--format", choices=["csv", "json", "both"], default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = parse_config(Path(args.config).read_text())
        if args.out is not None:
            config.outputs.directory = args.out
        if args.format is not None:
            config.outputs.formats = (
                ("csv", "json") if args.format == "both" else (args.format,)
            )
        threads = args.threads
        if threads is None:
            raw_threads = os.environ.get("CAVIMD_THREADS", "1")
            try:
                threads = int(raw_threads)
            except ValueError:
                raise ConfigError(f"CAVIMD_THREADS must be an integer, got {raw_threads!r}") from None
        if threads < 1:
            raise ConfigError(f"thread count must be >= 1, got {threads}")
        system = config.build_system()
        _check_inputs(args.command, config, system)
        outdir = Path(config.outputs.directory)
        outdir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, system, outdir, args.seed, threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, IntegrationError, WorkerError, _analysis.SearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # FileNotFoundError included
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
