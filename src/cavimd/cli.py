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
from typing import List, Optional, Sequence

import numpy as np

from . import analysis as _analysis
from . import model as _model
from .config import ConfigError, RunConfig, make_manifest, parse_config
from .dynamics import TIME_TOL_FS, IntegrationError, Trajectory, frame_buffer_bytes, propagate, window_steps
from .ensemble import Aggregates, EnsembleResult, WorkerError, launch_states, make_specs, map_chunks, run_ensemble
from .model import CalibrationError, ModelSystem
from .units import (
    ANGSTROM_PER_BOHR,
    AUT_PER_FS,
    EV_PER_HARTREE,
    UNIT_TABLE,
    au_to_fs,
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
            # tolist() yields Python floats, so each cell is _fmt's repr(float(x));
            # one row at a time, so no table-sized list of them is built
            fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in rows)
            return
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_json(path: Path, payload: dict) -> None:
    if path.name != "manifest.json":
        payload = {"manifest": "manifest.json", **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- trajectory file format -----------------------------------------------------

def _trajectory_columns(system: ModelSystem):
    """The trajectory file's columns in order: (Trajectory field, its names, factor from atomic units)."""
    # times go through au_to_fs and fs_to_au; a field of one column holds one value per frame
    per_particle = lambda *names: [n.format(p.label) for p in system.particles for n in names]  # noqa: E731
    return (
        ("times", ["time_fs"], None),
        ("positions", per_particle("x_{}_A", "y_{}_A", "z_{}_A"), ANGSTROM_PER_BOHR),
        ("velocities", per_particle("vx_{}_A_fs", "vy_{}_A_fs", "vz_{}_A_fs"), ANGSTROM_PER_BOHR * AUT_PER_FS),
        ("photon_q", ["photon_q_au"], 1.0),
        ("photon_p", ["photon_p_au"], 1.0),
        ("epot", ["epot_eV"], EV_PER_HARTREE),
        ("ekin", ["ekin_eV"], EV_PER_HARTREE),
        ("ecav", ["ecav_eV"], EV_PER_HARTREE),
        ("etot", ["etot_eV"], EV_PER_HARTREE),
        ("dipole", ["mux_eA", "muy_eA", "muz_eA"], ANGSTROM_PER_BOHR),
    )


def trajectory_header(system: ModelSystem) -> List[str]:
    return [name for _, names, _ in _trajectory_columns(system) for name in names]


def write_trajectory_csv(path: Path, system: ModelSystem, traj: Trajectory) -> None:
    cols = [au_to_fs(traj.times) if f is None else getattr(traj, k) * f for k, _, f in _trajectory_columns(system)]
    write_csv(path, trajectory_header(system), np.column_stack(cols))


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
    """Where the first frame of a trajectory file is not `width` finite numbers, by file line number."""
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
                    if not np.isfinite(float(cell)):
                        return f"line {n}: column {c} ({cell!r}) is not a finite number"
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
    if data.shape[1] != len(expected) or not np.isfinite(data).all():
        raise ConfigError(f"{path}: {_first_bad_line(path, len(expected))}")
    values, start = {}, 0
    for field, names, factor in _trajectory_columns(system):
        cols = data[:, start] if len(names) == 1 else data[:, start : start + len(names)]
        values[field] = fs_to_au(cols) if factor is None else cols / factor
        start += len(names)
    return Trajectory(**values)


# --- commands ---------------------------------------------------------------------

def _ensemble_inputs(config: RunConfig, system: ModelSystem, count: int):
    ens = config.ensemble
    specs = make_specs(ens.seed, count, ens.temperature_K, aim=ens.aim, resample_T_K=ens.resample_T_K)
    return dict(
        positions=config.launch_positions(system),
        dt=fs_to_au(config.dynamics.dt_fs),
        n_steps=config.dynamics.n_steps(),
        stride=config.dynamics.stride,
        window_fs=ens.window_fs,
    ), specs


def _angstrom(bohr: Optional[float]) -> Optional[float]:
    """A length in Angstrom; empty (JSON null) for a missing or non-finite one."""
    return bohr * ANGSTROM_PER_BOHR if bohr is not None and np.isfinite(bohr) else None


def _window_cells(stats: Aggregates) -> dict:
    """A condition's window statistics, from an EnsembleResult or a ScanRow.

    The standard error is empty for a single trajectory, where it is NaN.
    """
    return {
        "reaction_fraction": stats.reaction_fraction,
        "mean_sic_A": _angstrom(stats.mean_bond_bohr),
        "stderr_sic_A": _angstrom(stats.stderr_bond_bohr),
    }


def _outcome_cells(seed: int, event, dissociated: bool) -> dict:
    """A trajectory's outcome; a failed trajectory has no `event`."""
    return {
        "seed": seed,
        "reacted": event is not None and event.occurred,
        "crossing_time_fs": None if event is None else event.crossing_time_fs,
        "dissociated": dissociated,
    }


def _write_ensemble_outputs(outdir: Path, config: RunConfig, result: EnsembleResult) -> None:
    formats = config.outputs.formats
    if "csv" in formats:
        rows = [
            {
                "index": rec.index,
                **_outcome_cells(rec.seed, rec.event, rec.dissociated),
                "mean_sic_A": _angstrom(rec.mean_bond_bohr),
                "error": rec.error or "",
            }
            for rec in result.records
        ]
        write_csv(outdir / "ensemble.csv", list(rows[0]), [list(row.values()) for row in rows])
    if "json" in formats:
        write_json(
            outdir / "summary.json",
            {
                "n_trajectories": result.n_trajectories,
                "window_fs": list(config.ensemble.window_fs),
                **_window_cells(result),
                "threshold_A": _angstrom(result.threshold_bohr),
                "errors": [rec.error for rec in result.records if rec.error],
            },
        )


def cmd_run(config: RunConfig, system: ModelSystem, outdir: Path, threads: int) -> int:
    # one spec, since spec 0 does not depend on the count; with the launch and
    # the batch step of `cavimd ensemble`, this is its trajectory 0
    kwargs, specs = _ensemble_inputs(config, system, 1)
    mode = config.cavity.mode()
    state = launch_states(system, mode, specs, kwargs["positions"])[0]
    traj, event = propagate(
        system, mode, state, kwargs["dt"], kwargs["n_steps"], kwargs["stride"]
    )
    tdir = outdir / "trajectories"
    tdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(tdir / "trajectory_000000.csv", system, traj)
    if "json" in config.outputs.formats:
        # the threshold is inf without a reactive bond, which JSON cannot hold
        summary = _outcome_cells(specs[0].seed, event, traj.dissociated)
        write_json(outdir / "summary.json", {**summary, "threshold_A": _angstrom(event.threshold_bohr)})
    return 0


def cmd_ensemble(config: RunConfig, system: ModelSystem, outdir: Path, threads: int) -> int:
    kwargs, specs = _ensemble_inputs(config, system, config.ensemble.n_trajectories)
    result = run_ensemble(system, config.cavity.mode(), specs, keep_trajectories=True, **kwargs)
    tdir = outdir / "trajectories"
    tdir.mkdir(parents=True, exist_ok=True)
    rows = list(zip(result.series_index, result.trajectories))
    map_chunks(_write_trajectories, (system, tdir), rows, threads, _trajectory_files)
    _write_ensemble_outputs(outdir, config, result)
    return 0


def cmd_scan(config: RunConfig, system: ModelSystem, outdir: Path, threads: int) -> int:
    kwargs, specs = _ensemble_inputs(config, system, config.ensemble.n_trajectories)
    name, conditions = config.scan_conditions()
    rows = _analysis.resonance_scan(
        system,
        specs,
        [(omega_cm1, ratio) for _, omega_cm1, ratio in conditions],
        polarization=np.asarray(config.cavity.polarization),
        bilinear=config.cavity.bilinear,
        self_polarization=config.cavity.self_polarization,
        **kwargs,
    )
    table = [
        [r.kind, r.omega_c_cm1, r.lambda_au, r.ratio, r.n, *_window_cells(r).values()] for r in rows
    ]
    write_csv(outdir / f"{name}.csv", ["kind", "omega_c_cm1", "lambda_au", "ratio", "n", *_window_cells(rows[0])], table)
    return 0


def _spectrum_tag(lam: float) -> str:
    """File-name tag of the spectrum at coupling `lam`: zero is the bare system."""
    return "bare" if lam == 0.0 else f"lambda_{lam:g}"


def cmd_spectrum(config: RunConfig, system: ModelSystem, outdir: Path, threads: int) -> int:
    # arithmetic past floating-point range raises at once, rather than warning and failing later
    with np.errstate(over="raise", invalid="raise"):
        modes = _analysis.system_normal_modes(system)
        pol = np.asarray(config.cavity.polarization)
        lam_list = config.spectrum.lambda_list_au
        if lam_list is None:
            # one entry at zero coupling, where both would be the bare spectrum
            lam_list = tuple(dict.fromkeys((0.0, config.cavity.lambda_au)))
        broadening = config.spectrum.broadening_cm1
        for lam in lam_list:
            cav = dataclasses.replace(config.cavity, lambda_au=lam).mode()
            tag = _spectrum_tag(lam)
            eff = modes if cav is None else _analysis.polariton_modes(modes, cav)
            lines, grid, curve = _analysis.ir_spectrum(eff, pol, broadening)
            table = np.array([[ln.frequency_cm1, ln.strength, ln.si_c_weight] for ln in lines])
            write_csv(
                outdir / f"spectrum_lines_{tag}.csv",
                ["frequency_cm1", "strength_au", "si_c_weight"],
                table.reshape(-1, 3),
            )
            write_csv(
                outdir / f"spectrum_curve_{tag}.csv",
                ["frequency_cm1", "intensity_au"],
                np.column_stack((grid, curve)),
            )
    return 0


def _write_occupation_table(path: Path, times_fs, frequencies_cm1, values, photon) -> None:
    """A per-mode table over time: one column per mode, named by index and frequency, then the photon."""
    header = ["time_fs"] + [f"mode_{k}_{f:.2f}_cm1" for k, f in enumerate(frequencies_cm1)] + ["photon_q_au"]
    write_csv(path, header, np.column_stack([times_fs, values, photon]))


def _check_manifest(run: Path, system_block: dict) -> None:
    """Reject a run that `run` or `ensemble` did not make on the system `system_block`, in these units."""
    path = run / "manifest.json"
    try:
        manifest = json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:  # missing, or not JSON: an I/O error, as a missing run is
        raise OSError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    manifest = manifest if isinstance(manifest, dict) else {}
    resolved = manifest.get("resolved_config")
    if manifest.get("command") not in ("run", "ensemble"):
        raise ConfigError(f"{path}: command is {manifest.get('command')!r}, not run or ensemble")
    if not isinstance(resolved, dict) or resolved.get("system") != system_block:
        raise ConfigError(f"{path}: system differs from the analyze config's")
    if manifest.get("unit_constants") != UNIT_TABLE:
        raise ConfigError(f"{path}: unit_constants differ from this cavimd's")


def cmd_analyze(config: RunConfig, system: ModelSystem, outdir: Path, threads: int) -> int:
    """Every run is read and checked before any table is written, so a bad run writes nothing."""
    modes = _analysis.system_normal_modes(system)
    bonds = config.analyze.bonds
    window = config.analyze.correlation_window
    # every run's manifest and files first, so that a run of another system, or without
    # files, fails before a file is read; _check_inputs keeps the run names, and so the
    # output names, distinct
    runs = {}
    for run in config.analyze.runs:
        _check_manifest(Path(run), config.resolved_dict()["system"])
        tdir = Path(run) / "trajectories"
        runs[Path(run).name] = files = sorted(tdir.glob("trajectory_*.csv"))
        if not files:
            raise FileNotFoundError(f"no trajectories under {tdir}")

    first, maps, corrs = None, {}, {}  # first: the first file read, with its frame count and times

    def occupations(tag, files):
        """A run's occupation maps; each file is checked against `first`, then dropped after its step."""
        nonlocal first
        for f in files:
            t = read_trajectory_csv(f, system)
            first = first or (f, t.n_frames, t.times_fs)
            first_file, n_frames, times_fs = first
            if bonds and t.n_frames < window:
                raise ConfigError(f"{f}: {t.n_frames} frames, fewer than analyze.correlation_window")
            if t.n_frames != n_frames:
                raise ConfigError(f"{f}: {t.n_frames} frames, but {first_file} has {n_frames}")
            if not np.allclose(t.times_fs, times_fs, rtol=0.0, atol=TIME_TOL_FS):
                raise ConfigError(f"{f}: frame times differ from those of {first_file}")
            if bonds and f == files[0]:
                # force correlation of the two configured bonds, in the run's first trajectory
                corrs[tag] = _analysis.bond_force_correlation(t, system, tuple(bonds[0]), tuple(bonds[1]), window)
            yield _analysis.mode_occupation(t, modes, system.reference_positions)

    # one trajectory held at a time, however many a run has
    for tag, files in runs.items():
        maps[tag] = _analysis.mean_occupation_map(occupations(tag, files))
    for tag, occ in maps.items():
        _write_occupation_table(
            outdir / f"occupation_{tag}.csv", occ.times_fs, occ.frequencies_cm1, occ.normalized, occ.photon_q
        )
        if bonds:
            corr = corrs[tag]
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
        diff = _analysis.occupation_difference(*maps.values())
        _write_occupation_table(
            outdir / "occupation_difference.csv",
            diff.times_fs, diff.frequencies_cm1, diff.delta, diff.photon_delta,
        )
        write_csv(
            outdir / "occupation_accumulated.csv",
            ["mode_cm1", "accumulated_fs", "si_c_weight"],
            [
                [f, a, w]
                for f, a, w in zip(diff.frequencies_cm1, diff.accumulated, np.abs(modes.sic_projection))
            ]
            + [["photon", diff.photon_accumulated, 0.0]],
        )
    return 0


def cmd_calibrate(config: RunConfig, system: ModelSystem, outdir: Path, threads: int) -> int:
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
    return 0


def cmd_model_check(config: RunConfig, system: ModelSystem, outdir: Path, threads: int) -> int:
    rng = np.random.default_rng(7)
    checks = {}
    x0 = system.reference_positions
    # force consistency on random displaced geometries, each a batch row
    xs = x0 + 0.1 * rng.standard_normal((50, x0.size))
    f = _model.forces(system, xs)
    h = 1e-4
    step = h * np.eye(x0.size)
    # the four-point difference: its O(h^4) truncation error stays below the tolerance on stiff systems
    e = {k: _model.potential_energy(system, (xs[:, None, :] + k * step).reshape(-1, x0.size)) for k in (1, -1, 2, -2)}
    fd = -(8 * (e[1] - e[-1]) - (e[2] - e[-2])).reshape(f.shape) / (12 * h)
    worst = float((np.abs(f - fd).max(axis=1) / np.abs(f).max(axis=1)).max())
    checks["force_fd_max_rel_err"] = worst
    checks["force_fd_ok"] = worst < 1e-6
    checks["reference_force_max"] = float(np.abs(_model.forces(system, x0)).max())
    checks["reference_is_stationary"] = checks["reference_force_max"] < 1e-10
    checks["total_charge"] = float(system.dipole.total_charge)
    modes = _analysis.system_normal_modes(system)
    vib = modes.frequencies_cm1[modes.frequencies_cm1 > _analysis.NEAR_ZERO_CM1]
    checks["vibrational_modes_cm1"] = [float(f) for f in vib]
    if system.reactive_bond_index is not None:
        rb = system.reactive_bond
        k = int(np.argmin(np.abs(modes.frequencies_cm1 - _model.PTA_MODE_CM1)))
        checks["mode_856_cm1"] = float(modes.frequencies_cm1[k])
        checks["mode_856_sic_weight"] = float(abs(modes.sic_projection[k]))
        checks["ts_frequency_cm1"] = rb.well.ts_frequency_cm1(system.reduced_mass(rb.i, rb.j))
        checks["barrier_eV"] = rb.well.barrier * EV_PER_HARTREE
    ok = checks["force_fd_ok"] and checks["reference_is_stationary"]
    checks["passed"] = bool(ok)
    write_json(outdir / "model_check.json", checks)
    for key in ("force_fd_ok", "reference_is_stationary"):
        print(f"{'PASS' if checks[key] else 'FAIL'} {key}")
        if not checks[key]:
            print(f"error: model check {key} failed; see {outdir / 'model_check.json'}", file=sys.stderr)
    return 0 if ok else 2


def _reject_shared_outputs(key: str, entries, tags: List[str], pattern: str) -> None:
    """Reject two entries of `key` with one output tag: the second would overwrite the first's files."""
    for k, j in enumerate(map(tags.index, tags)):
        if j != k:
            where = f"{key}[{j}] = {entries[j]!r} and [{k}] = {entries[k]!r}"
            raise ConfigError(f"{where} both write {pattern.format(tags[k])}")


def _check_inputs(command: str, config: RunConfig, system: ModelSystem) -> None:
    """Reject config entries `command` cannot run with on `system`, before anything runs."""
    # the two-run tables of analyze weigh each mode by its reactive-bond stretch
    two_runs = command == "analyze" and len(config.analyze.runs) == 2
    if (command in ("ensemble", "scan", "calibrate") or two_runs) and system.reactive_bond_index is None:
        raise ConfigError(f"{command} requires a system with a reactive bond")
    if command == "scan" and not config.scan_conditions()[1]:
        raise ConfigError("scan command needs scan.omega_list_cm1 or scan.ratio_list")
    aim = config.ensemble.aim if command in ("run", "ensemble", "scan") else None
    pairs = [] if aim is None else [("ensemble.aim", aim)]
    if command == "analyze":
        runs, bonds = config.analyze.runs, config.analyze.bonds
        if len(runs) not in (1, 2):
            raise ConfigError(f"analyze.runs takes one or two run directories, got {len(runs)}")
        if len(bonds) not in (0, 2):
            raise ConfigError(f"analyze.bonds takes none or two particle pairs, got {len(bonds)}")
        pairs += [(f"analyze.bonds[{k}]", pair) for k, pair in enumerate(bonds)]
        _reject_shared_outputs("analyze.runs", runs, [Path(run).name for run in runs], "occupation_{}.csv")
    if command == "spectrum":
        lams = config.spectrum.lambda_list_au or ()
        _reject_shared_outputs("spectrum.lambda_list_au", lams, list(map(_spectrum_tag, lams)), "spectrum_*_{}.csv")
    n = system.n_particles
    for where, (i, j) in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ConfigError(f"{where} must name two different particles of 0..{n - 1}, got {[i, j]}")
    if command in ("run", "ensemble", "scan"):
        # a scan runs up to its window's end and keeps no whole frames
        rows = 1 if command == "run" else config.ensemble.n_trajectories
        n_steps, stride = config.dynamics.n_steps(), config.dynamics.stride
        if command == "scan":
            rows *= len(config.scan_conditions()[1]) + 1
            n_steps = window_steps(fs_to_au(config.dynamics.dt_fs), n_steps, stride, config.ensemble.window_fs)
        size = frame_buffer_bytes(system, rows, n_steps, stride, keep=command != "scan")
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if size > memory:
            gib = f"{size / 2**30:.3g} GiB of frame buffers, more than the {memory / 2**30:.3g} GiB"
            raise ConfigError(f"the run needs {gib} of physical memory")
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
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: config is not valid UTF-8: {exc}") from None
        config = parse_config(text)
        if args.seed is not None:
            config.ensemble.seed = args.seed
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
        code = COMMANDS[args.command](config, system, outdir, threads)
        write_json(outdir / "manifest.json", make_manifest(config, args.command))
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, IntegrationError, WorkerError, _analysis.SearchError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # such as an input past floating-point range
        print(f"error: numerics failed: {exc!r}", file=sys.stderr)
        return 2
    except OSError as exc:  # FileNotFoundError included
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
