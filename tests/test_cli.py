import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavimd import cli
from cavimd.cli import main, read_trajectory_csv, trajectory_header, write_csv, write_trajectory_csv
from cavimd.config import ConfigError, parse_config
from cavimd.dynamics import Trajectory
from cavimd.units import ANGSTROM_PER_BOHR, AUT_PER_FS, CM1_PER_HARTREE, EV_PER_HARTREE

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """
system:
  builtin: pta_surrogate
cavity:
  omega_c_cm1: 856.0
  ratio: 1.132
"""

SHORT_RUN = """
system:
  builtin: pta_surrogate
cavity:
  omega_c_cm1: 856.0
  ratio: 1.132
dynamics:
  duration_fs: 50.0
ensemble:
  n_trajectories: 3
  seed: 11
  window_fs: [0.0, 50.0]
outputs:
  directory: PLACEHOLDER
"""


BUILTIN = "system:\n  builtin: pta_surrogate\n"

#: two beads joined by one harmonic bond: an inline system without a reactive bond
TWO_BEADS = """system:
  particles:
    - {label: A, mass_amu: 19.0, charge: -0.5}
    - {label: B, mass_amu: 12.0, charge: 0.5}
  positions_bohr: [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
  bonds:
    - {kind: harmonic, i: 0, j: 1, k: 0.2, r0: 2.0}
"""

#: three beads with a reactive bond, where the default aim particles 0 and 1 share one point
AIM_COINCIDENT = """system:
  particles:
    - {label: A, mass_amu: 19.0, charge: -0.5}
    - {label: B, mass_amu: 12.0, charge: 0.5}
    - {label: C, mass_amu: 28.0, charge: 0.0}
  positions_bohr: [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [3.5, 0.0, 0.0]]
  bonds:
    - {kind: reactive, i: 0, j: 2, r0: 3.5, r_ts: 4.5, barrier_ev: 0.35, curvature_min: 0.2, curvature_ts: -0.01}
    - {kind: harmonic, i: 1, j: 2, k: 0.2, r0: 3.5}
"""


def short_config(tmp_path, name="cfg.yaml", extra="", n_traj=3, duration=50.0):
    text = SHORT_RUN.replace("PLACEHOLDER", str(tmp_path / "out"))
    text = text.replace("n_trajectories: 3", f"n_trajectories: {n_traj}")
    text = text.replace("duration_fs: 50.0", f"duration_fs: {duration}")
    text = text.replace("window_fs: [0.0, 50.0]", f"window_fs: [0.0, {duration}]")
    text += extra
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.dynamics.dt_fs == 0.25
    assert cfg.dynamics.stride == 4
    assert cfg.ensemble.window_fs == (0.0, 700.0)
    assert cfg.spectrum.broadening_cm1 == 30.0


def test_parse_resolves_lambda_from_ratio():
    cfg = parse_config(MINIMAL)
    assert cfg.cavity.lambda_au == pytest.approx(0.1000, abs=1e-3)
    assert cfg.resolved_dict()["cavity"]["lambda_au"] == pytest.approx(0.1, abs=1e-3)


def test_parse_rejects_both_couplings():
    text = MINIMAL.replace("ratio: 1.132", "ratio: 1.132\n  lambda_au: 0.1")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\nbogus: 1\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("ratio: 1.132", "ratio: 1.132\n  typo_key: 2"))


def test_parse_missing_block():
    with pytest.raises(ConfigError):
        parse_config("system:\n  builtin: pta_surrogate\n")


def test_parse_syntax_error_reports_location():
    with pytest.raises(ConfigError, match="line"):
        parse_config("system: [unclosed\n")


def test_parse_inline_system():
    text = """
system:
  particles:
    - {label: A, mass_amu: 19.0, charge: -0.5}
    - {label: B, mass_amu: 12.0, charge: 0.5}
  positions_bohr: [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
  bonds:
    - {kind: harmonic, i: 0, j: 1, k: 0.2, r0: 2.0}
cavity:
  omega_c_cm1: 500.0
  lambda_au: 0.0
"""
    cfg = parse_config(text)
    system = cfg.build_system()
    assert system.n_particles == 2
    assert system.reactive_bond_index is None
    with pytest.raises(ConfigError, match=r"bonds\[0\]\.r0 must be a finite number"):
        parse_config(text.replace("r0: 2.0", "r0: .nan")).build_system()
    with pytest.raises(ConfigError, match="reference_positions must be a flat 3N array of finite numbers"):
        parse_config(text.replace("[2.0, 0.0, 0.0]]", "[.nan, 0.0, 0.0]]")).build_system()
    d_extra = "  d_extra: [[.nan, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]\n"
    with pytest.raises(ConfigError, match="d_extra must be finite"):
        parse_config(text.replace("  bonds:\n", d_extra + "  bonds:\n")).build_system()
    for bad in ("abc", "[1, 2]"):
        with pytest.raises(ConfigError, match=r"particles\[0\]\.mass_amu must be a finite number"):
            parse_config(text.replace("mass_amu: 19.0", f"mass_amu: {bad}")).build_system()
    for old, new, message in [
        ("mass_amu: 19.0", "mass_amu: -1", "mass must be positive"),
        ("k: 0.2", "k: -0.3", "force constant must be positive"),
        ("i: 0, j: 1", "i: 0, j: 0", "bond endpoints must differ"),
        ("[2.0, 0.0, 0.0]]", "[0.0, 0.0, 0.0]]", "reference_positions: particles 0 and 1 are coincident"),
    ]:
        with pytest.raises(ConfigError, match=message):
            parse_config(text.replace(old, new)).build_system()


def test_inline_errors_name_the_entry(tmp_path, capsys):
    text = """
system:
  particles:
    - {label: A, mass_amu: 19.0, charge: -0.5}
    - {label: B, mass_amu: 12.0, charge: 0.5}
    - {label: C, mass_amu: 12.0, charge: 0.0}
    - {label: D, mass_amu: 16.0, charge: 0.0}
  positions_bohr: [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [4.0, 0.0, 0.0], [6.0, 0.0, 0.0]]
  bonds:
    - {kind: harmonic, i: 0, j: 1, k: 0.2, r0: 2.0}
    - {kind: harmonic, i: 1, j: 2, k: 0.2, r0: 2.0}
    - {kind: harmonic, i: 2, j: 3, k: 0.3, r0: 2.0}
  couplings:
    - {bond_a: 0, bond_b: 1, g3: 0.01}
    - {bond_a: 1, bond_b: 2, g3: 0.01}
cavity:
  omega_c_cm1: 500.0
  lambda_au: 0.0
"""
    assert parse_config(text).build_system().n_particles == 4
    for old, new, message in [
        ("k: 0.3", "k: -0.3", "bonds[2]: harmonic force constant must be positive"),
        ("i: 2, j: 3", "i: 3, j: 3", "bonds[2]: bond endpoints must differ"),
        ("bond_a: 1, bond_b: 2", "bond_a: 2, bond_b: 2", "couplings[1]: coupling must join two distinct bonds"),
        ("mass_amu: 12.0, charge: 0.5", "mass_amu: -1, charge: 0.5", "particles[1]: particle 'B': mass must be positive"),
    ]:
        assert old in text
        bad = text.replace(old, new, 1)
        with pytest.raises(ConfigError) as info:
            parse_config(bad).build_system()
        assert str(info.value) == message
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(bad)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_cli_coincident_aim_fails_cleanly(tmp_path, capsys, command):
    cfg = short_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(BUILTIN, AIM_COINCIDENT))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: ensemble.aim particles 0 and 1 coincide in the launch geometry\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "spectrum", "model-check"])
def test_cli_coincident_reference_fails_cleanly(tmp_path, capsys, command):
    cfg = short_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(BUILTIN, TWO_BEADS.replace("[2.0, 0.0, 0.0]]", "[0.0, 0.0, 0.0]]")))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reference_positions: particles 0 and 1 are coincident")
    assert not (tmp_path / "out").exists()


def test_cli_run_and_reread(tmp_path):
    cfg = short_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    tfile = out / "trajectories" / "trajectory_000000.csv"
    assert tfile.exists()
    assert (out / "manifest.json").exists()
    cfg_obj = parse_config(cfg.read_text())
    system = cfg_obj.build_system()
    traj = read_trajectory_csv(tfile, system)
    assert traj.n_frames == 51  # 200 steps / stride 4 + 1
    assert np.allclose(traj.etot, traj.epot + traj.ekin + traj.ecav, atol=1e-12)


def test_cli_ensemble_outputs_and_reproducibility(tmp_path):
    cfg = short_config(tmp_path)
    assert main(["ensemble", "--config", str(cfg)]) == 0
    out1 = tmp_path / "out"
    blobs = {p.name: p.read_bytes() for p in out1.glob("**/*.csv")}
    assert "ensemble.csv" in blobs
    assert json.loads((out1 / "summary.json").read_text())["n_trajectories"] == 3
    # identical config and seed reproduce byte-identical CSVs
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "out2")]) == 0
    for p in (tmp_path / "out2").glob("**/*.csv"):
        assert p.read_bytes() == blobs[p.name]
    # a different seed changes the numbers
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "out3"), "--seed", "99"]) == 0
    diff = (tmp_path / "out3" / "ensemble.csv").read_bytes() != blobs["ensemble.csv"]
    assert diff


def test_cli_scan_includes_baseline(tmp_path):
    extra = "scan:\n  omega_list_cm1: [856.0]\n"
    cfg = short_config(tmp_path, extra=extra, n_traj=2)
    assert main(["scan", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "resonance_scan.csv").read_text().splitlines()
    assert lines[0].startswith("kind,")
    assert lines[1].startswith("baseline,")
    assert len(lines) == 3


def test_cli_coupling_scan_rows(tmp_path):
    import csv as csvmod

    extra = "scan:\n  ratio_list: [0.0, 0.5, 1.132]\n"
    cfg = short_config(tmp_path, extra=extra, n_traj=2)
    assert main(["scan", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert not (out / "resonance_scan.csv").exists()
    with open(out / "coupling_scan.csv", newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    assert [r["kind"] for r in rows] == ["baseline", "scan", "scan", "scan"]
    assert [float(r["ratio"]) for r in rows[1:]] == [0.0, 0.5, 1.132]
    assert all(float(r["omega_c_cm1"]) == 856.0 for r in rows[1:])
    for key in ("lambda_au", "n", "reaction_fraction", "mean_sic_A", "stderr_sic_A"):
        assert rows[1][key] == rows[0][key]


def test_cli_spectrum_outputs(tmp_path):
    cfg = short_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    bare = (out / "spectrum_lines_bare.csv").read_text().splitlines()
    coupled_files = sorted(out.glob("spectrum_lines_lambda_*.csv"))
    assert len(coupled_files) == 1
    coupled = coupled_files[0].read_text().splitlines()
    assert bare[0] == "frequency_cm1,strength_au,si_c_weight"
    freqs_bare = [float(row.split(",")[0]) for row in bare[1:]]
    freqs_coupled = [float(row.split(",")[0]) for row in coupled[1:]]
    # polariton doublet brackets the bare 856 line
    near856 = [f for f in freqs_bare if abs(f - 856) < 10]
    assert len(near856) == 1
    lower = max(f for f in freqs_coupled if f < near856[0])
    upper = min(f for f in freqs_coupled if f > near856[0])
    assert lower < near856[0] < upper
    assert upper - lower > 50.0


def test_cli_spectrum_self_polarization_only_shifts_up(tmp_path):
    extra = "spectrum:\n  lambda_list_au: [0.0, 0.1]\n"
    cfg_text = (
        SHORT_RUN.replace("PLACEHOLDER", str(tmp_path / "out_sp"))
        .replace("ratio: 1.132", "ratio: 1.132\n  bilinear: false")
        + extra
    )
    cfg = tmp_path / "sp.yaml"
    cfg.write_text(cfg_text)
    assert main(["spectrum", "--config", str(cfg)]) == 0
    out = tmp_path / "out_sp"
    bare = [
        tuple(map(float, row.split(",")[:2]))
        for row in (out / "spectrum_lines_bare.csv").read_text().splitlines()[1:]
    ]
    coupled_file = sorted(out.glob("spectrum_lines_lambda_*.csv"))[0]
    coupled = [
        tuple(map(float, row.split(",")[:2]))
        for row in coupled_file.read_text().splitlines()[1:]
    ]
    # rank-one self-polarization update: every vibration moves up, and the
    # charged system's dipole-active soft modes may stiffen into new lines
    # at the bottom; the decoupled photon line carries zero strength
    bare_desc = sorted((f for f, _ in bare), reverse=True)
    coupled_desc = sorted((f for f, s in coupled if s > 0), reverse=True)
    assert len(coupled_desc) >= len(bare_desc)
    for fb, fc in zip(bare_desc, coupled_desc):
        assert fc >= fb - 1e-9


def test_cli_analyze_roundtrip(tmp_path):
    cfg = short_config(tmp_path, n_traj=2)
    assert main(["ensemble", "--config", str(cfg)]) == 0
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "outB"), "--seed", "5"]) == 0
    extra = f"analyze:\n  runs: [{tmp_path/'out'}, {tmp_path/'outB'}]\n  correlation_window: 16\n"
    cfg2 = short_config(tmp_path, name="cfg2.yaml", extra=extra, n_traj=2)
    assert main(["analyze", "--config", str(cfg2), "--out", str(tmp_path / "ana")]) == 0
    ana = tmp_path / "ana"
    assert (ana / "occupation_out.csv").exists()
    assert (ana / "occupation_difference.csv").exists()
    acc = (ana / "occupation_accumulated.csv").read_text().splitlines()
    assert acc[0] == "mode_cm1,accumulated_fs,si_c_weight"
    assert acc[-1].startswith("photon,")
    assert (ana / "bond_correlation_out.csv").exists()


def test_trajectory_csv_roundtrip_fidelity(tmp_path):
    cfg = short_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    cfg_obj = parse_config(cfg.read_text())
    system = cfg_obj.build_system()
    tfile = tmp_path / "out" / "trajectories" / "trajectory_000000.csv"
    traj = read_trajectory_csv(tfile, system)
    # regenerate the same trajectory in memory and compare after roundtrip
    from cavimd import FullState, PhotonState, propagate, zero_field_init, dipole
    from cavimd.ensemble import resolve_velocities, make_specs
    from cavimd.units import fs_to_au

    launch = cfg_obj.launch_positions(system)
    specs = make_specs(cfg_obj.ensemble.seed, 1, cfg_obj.ensemble.temperature_K, aim=cfg_obj.ensemble.aim)
    v = resolve_velocities(system, specs, launch)[0]
    mode = cfg_obj.cavity.mode()
    state = FullState(launch.copy(), v, zero_field_init(mode, dipole(system, launch)))
    ref, _ = propagate(system, mode, state, fs_to_au(0.25), cfg_obj.n_steps(), 4)
    assert np.allclose(traj.positions, ref.positions, rtol=1e-12, atol=1e-12)
    assert np.allclose(traj.velocities, ref.velocities, rtol=1e-12, atol=1e-14)
    assert np.allclose(traj.etot, ref.etot, rtol=1e-10, atol=1e-14)


AWKWARD = [-0.0, 1e-300, 0.1 + 0.2, 1e16, 3.0, -7.0, 5e-324, 1.7976931348623157e308, 2.0**-1074 * 3]


def _two_bead_system():
    text = """
system:
  particles:
    - {label: A, mass_amu: 19.0, charge: -0.5}
    - {label: B, mass_amu: 12.0, charge: 0.5}
  positions_bohr: [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
  bonds:
    - {kind: harmonic, i: 0, j: 1, k: 0.2, r0: 2.0}
cavity:
  omega_c_cm1: 500.0
  lambda_au: 0.0
"""
    return parse_config(text).build_system()


def test_trajectory_csv_format_is_pinned(tmp_path):
    # every cell is repr(float(x)) of the scaled value, RFC-4180 "\r\n" line ends,
    # and reading parses each cell back to the same double
    system = _two_bead_system()
    frames = 4
    rng = np.random.default_rng(3)
    col = lambda k: np.array([AWKWARD[(k + j) % len(AWKWARD)] for j in range(frames)])  # noqa: E731
    grid = lambda width, k: np.column_stack([col(k + c) for c in range(width)])  # noqa: E731
    traj = Trajectory(
        dt=2.0, stride=1, times=np.arange(frames) * 41.0,
        positions=grid(6, 0) * 1e-8, velocities=rng.standard_normal((frames, 6)),
        photon_q=col(1), photon_p=col(2),
        epot=col(3) * 1e-300, ekin=np.full(frames, 1.0), ecav=col(5) * 1e-300, etot=col(6) * 1e-300,
        dipole=grid(3, 7) * 1e-300,
    )
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, system, traj)

    v_scale = ANGSTROM_PER_BOHR * AUT_PER_FS
    lines = []
    for k in range(frames):
        row = [traj.times_fs[k], *(traj.positions[k] * ANGSTROM_PER_BOHR), *(traj.velocities[k] * v_scale)]
        row += [traj.photon_q[k], traj.photon_p[k]]
        row += [e[k] * EV_PER_HARTREE for e in (traj.epot, traj.ekin, traj.ecav, traj.etot)]
        row += list(traj.dipole[k] * ANGSTROM_PER_BOHR)
        lines.append(",".join(repr(float(x)) for x in row) + "\r\n")
    raw = path.read_bytes().decode()
    assert raw == ",".join(trajectory_header(system)) + "\r\n" + "".join(lines)
    assert "-0.0," in raw and "1e-300" in raw and "0.30000000000000004" in raw

    cells = np.array([[float(x) for x in line.split(",")] for line in lines])
    back = read_trajectory_csv(path, system)
    same = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()  # noqa: E731
    assert same(back.times, cells[:, 0] * AUT_PER_FS)
    assert same(back.positions, cells[:, 1:7] / ANGSTROM_PER_BOHR)
    assert same(back.velocities, cells[:, 7:13] / v_scale)
    assert same(back.photon_q, traj.photon_q) and same(back.photon_p, traj.photon_p)
    for k, name in enumerate(("epot", "ekin", "ecav", "etot")):
        assert same(getattr(back, name), cells[:, 15 + k] / EV_PER_HARTREE)
    assert same(back.dipole, cells[:, 19:22] / ANGSTROM_PER_BOHR)


def test_write_csv_array_and_rows_give_same_bytes(tmp_path):
    table = np.array([AWKWARD, [-x for x in AWKWARD], [float(k) for k in range(len(AWKWARD))]])
    header = [f"c{k}" for k in range(table.shape[1])]
    write_csv(tmp_path / "array.csv", header, table)
    write_csv(tmp_path / "rows.csv", header, [[float(x) for x in row] for row in table])
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _drop_last_cell(lines):
    return [lines[0]] + [ln.rsplit(",", 1)[0] for ln in lines[1:]]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda lines: lines[:1], "no frames"),
        (
            lambda lines: lines[:3] + ["abc" + lines[3][lines[3].index(","):]] + lines[4:],
            ": line 4: could not convert column 1 ('abc') to float",
        ),
        (lambda lines: lines[:2], "fewer than analyze.correlation_window"),
        (_drop_last_cell, ": line 2: 45 columns, expected 46"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:], ": line 4: 45 columns, expected 46"),
        (lambda lines: lines[:-5], "frames, but"),
        (lambda lines: ["time_fs"] + lines[1:], "unexpected trajectory columns"),
    ],
    ids=["header-only", "non-numeric", "one-frame", "short-rows", "ragged", "truncated", "bad-header"],
)
def test_cli_analyze_damaged_trajectory_fails_cleanly(tmp_path, capsys, damage, message):
    cfg = short_config(tmp_path, n_traj=2)
    assert main(["ensemble", "--config", str(cfg)]) == 0
    bad = tmp_path / "out" / "trajectories" / "trajectory_000001.csv"
    bad.write_text("\n".join(damage(bad.read_text().splitlines())) + "\n")
    extra = f"analyze:\n  runs: [{tmp_path / 'out'}]\n  correlation_window: 16\n"
    cfg2 = short_config(tmp_path, name="cfg2.yaml", extra=extra, n_traj=2)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. numpy's "input contained no data" must not escape
        assert main(["analyze", "--config", str(cfg2), "--out", str(tmp_path / "ana")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra, second, message",
    [
        ("  bonds: [[1, 9], [1, 0]]\n", None, "analyze.bonds[0] must name two different particles of 0..5, got [1, 9]"),
        ("  bonds: [[1, 1], [1, 0]]\n", None, "analyze.bonds[0] must name two different particles of 0..5, got [1, 1]"),
        ("", (40.0, 4), "41 frames, but"),
        ("", (100.0, 8), "frame times differ from those of"),
    ],
    ids=["bond-out-of-range", "bond-equal-ends", "frame-counts-differ", "frame-times-differ"],
)
def test_cli_analyze_bad_inputs_fail_cleanly(tmp_path, capsys, extra, second, message):
    runs = [tmp_path / "out"]
    if second is not None:
        # a second run of another duration (and stride) than the 50 fs, stride-4 first one
        duration, stride = second
        assert main(["ensemble", "--config", str(short_config(tmp_path, n_traj=1))]) == 0
        cfg = short_config(tmp_path, name="second.yaml", n_traj=1, duration=duration)
        cfg.write_text(cfg.read_text().replace("dynamics:", f"dynamics:\n  stride: {stride}"))
        runs.append(tmp_path / "second")
        assert main(["ensemble", "--config", str(cfg), "--out", str(runs[1])]) == 0
    text = f"analyze:\n  runs: [{', '.join(map(str, runs))}]\n  correlation_window: 16\n" + extra
    cfg = short_config(tmp_path, name="ana.yaml", extra=text, n_traj=1)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_cli_analyze_two_runs_need_a_reactive_bond(tmp_path, capsys):
    cfg = short_config(tmp_path, extra=f"analyze:\n  runs: [{tmp_path / 'a'}, {tmp_path / 'b'}]\n")
    cfg.write_text(cfg.read_text().replace(BUILTIN, TWO_BEADS))
    for run in ("a", "b"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 1
    assert capsys.readouterr().err == "error: analyze requires a system with a reactive bond\n"
    assert not (tmp_path / "ana").exists()


def test_cli_analyze_numbers_match_library(tmp_path):
    # dual route: the analyze command's accumulated table vs the direct
    # occupation-difference computation on the re-read trajectories
    cfg = short_config(tmp_path, n_traj=2)
    assert main(["ensemble", "--config", str(cfg)]) == 0
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "outB"), "--seed", "5"]) == 0
    extra = f"analyze:\n  runs: [{tmp_path/'out'}, {tmp_path/'outB'}]\n  correlation_window: 16\n"
    cfg2 = short_config(tmp_path, name="cfg2.yaml", extra=extra, n_traj=2)
    assert main(["analyze", "--config", str(cfg2), "--out", str(tmp_path / "ana")]) == 0

    import csv as csvmod

    from cavimd.analysis import (
        mean_occupation_map,
        mode_occupation,
        occupation_difference,
        system_normal_modes,
    )

    cfg_obj = parse_config(cfg2.read_text())
    system = cfg_obj.build_system()
    modes = system_normal_modes(system)
    maps = []
    for run in ("out", "outB"):
        files = sorted((tmp_path / run / "trajectories").glob("trajectory_*.csv"))
        trajs = [read_trajectory_csv(f, system) for f in files]
        maps.append(
            mean_occupation_map(
                [mode_occupation(t, modes, system.reference_positions) for t in trajs]
            )
        )
    diff = occupation_difference(maps[0], maps[1])
    with open(tmp_path / "ana" / "occupation_accumulated.csv", newline="") as fh:
        rows = list(csvmod.reader(fh))[1:]
    acc_csv = np.array([float(r[1]) for r in rows if r[0] != "photon"])
    assert np.allclose(acc_csv, diff.accumulated, rtol=1e-10, atol=1e-12)


def test_cli_analyze_missing_inputs_exit_code(tmp_path):
    extra = f"analyze:\n  runs: [{tmp_path/'nonexistent'}]\n"
    cfg = short_config(tmp_path, extra=extra)
    assert main(["analyze", "--config", str(cfg)]) == 3


def test_cli_calibrate_and_model_check(tmp_path):
    cfg = short_config(tmp_path)
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "cal")]) == 0
    data = json.loads((tmp_path / "cal" / "calibration.json").read_text())
    assert data["barrier_eV"] == pytest.approx(0.35, abs=1e-9)
    assert data["ts_frequency_cm1"] == pytest.approx(86.0, abs=1e-6)
    assert main(["model-check", "--config", str(cfg), "--out", str(tmp_path / "mc")]) == 0
    checks = json.loads((tmp_path / "mc" / "model_check.json").read_text())
    assert checks["passed"] is True
    assert checks["total_charge"] == pytest.approx(-1.0)


def test_cli_exit_code_validation_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL + "\nbogus: 1\n")
    assert main(["ensemble", "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "old, new, env, flags",
    [
        ("n_trajectories: 3", "n_trajectories: x", None, []),
        ("window_fs: [0.0, 50.0]", "window_fs: [0.0]", None, []),
        ("outputs:", "analyze:\n  bonds: [[1]]\noutputs:", None, []),
        ("omega_c_cm1: 856.0", "omega_c_cm1: abc", None, []),
        ("outputs:", "scan:\n  omega_list_cm1: []\noutputs:", None, []),
        ("outputs:", "scan:\n  ratio_list: []\noutputs:", None, []),
        (None, None, "abc", []),
        (None, None, None, ["--threads", "-2"]),
        (None, None, None, ["--threads", "0"]),
        ("ratio: 1.132", 'ratio: 1.132\n  bilinear: "false"', None, []),
        ("n_trajectories: 3", "n_trajectories: 2.7", None, []),
        ("duration_fs: 50.0", "duration_fs: .inf", None, []),
        ("duration_fs: 50.0", "duration_fs: .nan", None, []),
        ("seed: 11", "seed: 11\n  temperature_K: .nan", None, []),
        ("omega_c_cm1: 856.0", "omega_c_cm1: .inf", None, []),
        ("ratio: 1.132", "lambda_au: .inf", None, []),
        ("ratio: 1.132", "ratio: .nan", None, []),
        ("ratio: 1.132", "ratio: 1.132\n  polarization: [.nan, 0.0, 0.0]", None, []),
        ("outputs:", "analyze:\n  runs: out_a\noutputs:", None, []),
        ("outputs:", "spectrum:\n  lambda_list_au: [-0.1]\noutputs:", None, []),
        ("outputs:", "analyze:\n  correlation_window: 1\noutputs:", None, []),
        ("seed: 11", "seed: 11\n  aim: [0, 9]", None, []),
        ("seed: 11", "seed: 11\n  aim: [1, 1]", None, []),
        (BUILTIN, TWO_BEADS, None, []),
        ("window_fs: [0.0, 50.0]", "window_fs: [-10.0, 40.0]", None, []),
        ("duration_fs: 50.0", "duration_fs: 50.0\n  stride: 1000", None, []),
        (BUILTIN, AIM_COINCIDENT, None, []),
    ],
)
def test_cli_bad_input_fails_cleanly(tmp_path, monkeypatch, capsys, old, new, env, flags):
    cfg = short_config(tmp_path)
    if old is not None:
        text = cfg.read_text()
        assert old in text
        cfg.write_text(text.replace(old, new, 1))
    monkeypatch.delenv("CAVIMD_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("CAVIMD_THREADS", env)
    assert main(["ensemble", "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    # rejected before anything ran or was written
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_missing_config(tmp_path):
    assert main(["ensemble", "--config", str(tmp_path / "nope.yaml")]) == 3


def test_threads_env_var_keeps_results_identical(tmp_path, monkeypatch):
    cfg = short_config(tmp_path, n_traj=2)
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "serial")]) == 0
    monkeypatch.setenv("CAVIMD_THREADS", "2")
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "par")]) == 0
    a = (tmp_path / "serial" / "ensemble.csv").read_bytes()
    b = (tmp_path / "par" / "ensemble.csv").read_bytes()
    assert a == b
    # every table, the trajectory files that the parallel writers wrote included
    names = sorted(f.relative_to(tmp_path / "serial") for f in (tmp_path / "serial").rglob("*.csv"))
    assert len([n for n in names if n.parent.name == "trajectories"]) == 2
    assert names == sorted(f.relative_to(tmp_path / "par") for f in (tmp_path / "par").rglob("*.csv"))
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def _die(job):
    os._exit(1)


def test_cli_dead_worker_fails_cleanly(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_write_trajectories", _die)
    cfg = short_config(tmp_path, n_traj=3, duration=10.0)
    assert main(["ensemble", "--config", str(cfg), "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: a worker process died: no result for trajectory_000000.csv, "
        "trajectory_000001.csv to trajectory_000002.csv\n"
    )
    assert multiprocessing.active_children() == []


def test_format_flag_limits_outputs(tmp_path):
    cfg = short_config(tmp_path, n_traj=2)
    assert main(
        ["ensemble", "--config", str(cfg), "--out", str(tmp_path / "csvonly"), "--format", "csv"]
    ) == 0
    assert (tmp_path / "csvonly" / "ensemble.csv").exists()
    assert not (tmp_path / "csvonly" / "summary.json").exists()


def test_manifest_contents(tmp_path):
    cfg = short_config(tmp_path)
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 0
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert manifest["package"] == "cavimd"
    assert "Philox" in manifest["rng_algorithm"]
    assert "cm^-1 per Hartree" in manifest["unit_constants"]
    assert manifest["resolved_config"]["cavity"]["lambda_au"] == pytest.approx(0.1, abs=1e-3)
    assert len(manifest["config_sha256"]) == 64


def test_scan_leaves_scipy_unloaded(tmp_path):
    # cavimd needs no SciPy, so a command never pays for loading it
    cfg = short_config(tmp_path, n_traj=1, duration=10.0, extra="scan:\n  omega_list_cm1: [856.0]\n")
    code = (
        "import sys; from cavimd.cli import main; "
        f"assert main(['scan', '--config', {str(cfg)!r}]) == 0; print('scipy' in sys.modules)"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_pool_modules_unloaded():
    # only a run split into several worker processes needs them
    code = "import sys, cavimd.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_static_commands_run_without_scipy(tmp_path):
    # nothing in cavimd needs SciPy: block the import and run every static command and the TS search
    cfg = short_config(tmp_path)
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from cavimd.cli import main\n"
        "from cavimd.analysis import find_transition_state\n"
        "from cavimd.model import build_pta_surrogate\n"
        "for command in ('calibrate', 'spectrum', 'model-check'):\n"
        f"    assert main([command, '--config', {str(cfg)!r}]) == 0, command\n"
        "print(find_transition_state(build_pta_surrogate(), 3.9, 5.1, 25).barrier_ev)\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.strip().splitlines()[-1]) == pytest.approx(0.35, abs=1e-4)


def test_benchmark_tracer_binds_every_wrapped_name(monkeypatch):
    # perfbench/tracer.py wraps program functions by module attribute; a rename must fail here
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    import cavimd.cli as cli

    original = cli.main
    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert cli.main is original
