import json
from pathlib import Path

import numpy as np
import pytest

from cavimd.cli import main, read_trajectory_csv
from cavimd.config import ConfigError, parse_config
from cavimd.units import CM1_PER_HARTREE

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
