import contextlib
import copy
import importlib.util
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavimd import cli
from cavimd.cli import main, read_trajectory_csv, trajectory_header, write_csv, write_trajectory_csv
from cavimd.config import ConfigError, RunConfig, parse_config
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


#: three beads at rest, with a reactive bond from the first to the second and a harmonic one to the third
THREE_BEADS = """system:
  particles:
    - {label: A, mass_amu: 19.0, charge: -0.5}
    - {label: B, mass_amu: 12.0, charge: 0.5}
    - {label: C, mass_amu: 28.0, charge: 0.0}
  positions_bohr: [[0.0, 0.0, 0.0], [3.5, 0.0, 0.0], [7.0, 0.0, 0.0]]
  bonds:
    - {kind: reactive, i: 0, j: 1, r0: 3.5, r_ts: 4.5, barrier_ev: 0.35, curvature_min: 0.2, curvature_ts: -0.01}
    - {kind: harmonic, i: 1, j: 2, k: 0.2, r0: 3.5}
"""


WINDOW_GAP = "ensemble:\n  window_fs: [1.1, 1.2]\n"


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


@pytest.fixture(params=["libyaml", "pure-python"])
def yaml_loader(request, monkeypatch):
    """parse_config's loader: libyaml's (skipped where PyYAML lacks it), or the pure-Python one."""
    if request.param == "libyaml" and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    if request.param == "pure-python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


def test_parse_syntax_error_reports_location(yaml_loader):
    # both loaders put the mark at the same line and column; only the words after it differ
    with pytest.raises(ConfigError, match=r"^config syntax error at line 2, column 1: "):
        parse_config("system: [unclosed\n")
    with pytest.raises(ConfigError, match=r"^config syntax error at line 9, column 9: "):
        parse_config(MINIMAL + "dynamics:\n  dt_fs: [0.25\n  stride: 4\n")


@pytest.mark.parametrize("system", [BUILTIN, TWO_BEADS, THREE_BEADS, AIM_COINCIDENT], ids=["default", "two", "three", "aim"])
def test_parse_reads_the_same_config_with_either_loader(monkeypatch, system):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    text = (ROOT / "configs" / "default.yaml").read_text()
    assert BUILTIN in text
    text = text.replace(BUILTIN, system)
    with_libyaml = json.dumps(parse_config(text).resolved_dict(), sort_keys=True)
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert json.dumps(parse_config(text).resolved_dict(), sort_keys=True) == with_libyaml


def test_parse_text_that_cannot_be_utf8_is_a_config_error(yaml_loader):
    # a lone surrogate, as a str decoded with errors="surrogateescape" holds for an undecodable byte
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "# \udcff\n")


def test_cli_config_that_is_not_utf8_fails_cleanly(tmp_path, capsys):
    cfg = short_config(tmp_path)
    cfg.write_bytes(b"# \xff\xfe\n" + cfg.read_bytes())
    assert main(["model-check", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: config is not valid UTF-8: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    assert np.array_equal(system.dipole.charges, [-0.5, 0.5])
    with pytest.raises(ConfigError, match=r"bonds\[0\]\.r0 must be a finite number"):
        parse_config(text.replace("r0: 2.0", "r0: .nan")).build_system()
    positions = "[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]"
    for bad, message in [
        ("[[0.0, 0.0, 0.0], [.nan, 0.0, 0.0]]", "positions_bohr[1][0] must be a finite number, got nan"),
        ("[[0.0, 0.0, 0.0], [3.5]]", "positions_bohr[1] must be a list of 3 entries, got [3.5]"),
        ("[[abc, 0.0, 0.0], [2.0, 0.0, 0.0]]", "positions_bohr[0][0] must be a finite number, got 'abc'"),
        ("[[0.0, 0.0, 0.0]]", "positions_bohr must be a list of 2 entries, got [[0.0, 0.0, 0.0]]"),
    ]:
        with pytest.raises(ConfigError) as info:
            parse_config(text.replace(positions, bad)).build_system()
        assert str(info.value) == message
    d_extra = "  d_extra: [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]\n"
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in system: \['d_extra'\]"):
        parse_config(text.replace("  bonds:\n", d_extra + "  bonds:\n")).build_system()
    for bad in ("abc", "[1, 2]"):
        with pytest.raises(ConfigError, match=r"particles\[0\]\.mass_amu must be a finite number"):
            parse_config(text.replace("mass_amu: 19.0", f"mass_amu: {bad}")).build_system()
    for old, new, message in [
        ("mass_amu: 19.0", "mass_amu: -1", "mass must be positive"),
        ("k: 0.2", "k: -0.3", "force constant must be positive"),
        ("i: 0, j: 1", "i: 0, j: 0", "bond endpoints must differ"),
        ("[2.0, 0.0, 0.0]]", "[0.0, 0.0, 0.0]]", "reference_positions: particles 0 and 1 are coincident"),
        ("r0: 2.0", "r0: 1.0e+300", r"reference_positions: energy or forces not finite at bond 0 \(harmonic"),
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


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("bonds",), [1.0], "bonds[0] must be a mapping of kind 'harmonic' or 'reactive', got 1.0"),
        (("bonds", 0, "kind"), "morse", "bonds[0] must be a mapping of kind 'harmonic' or 'reactive', got {"),
        (("bonds",), "abc", "bonds must be a list, got 'abc'"),
        (("particles", 0), None, "missing key(s) in particles[0]: ['charge', 'label', 'mass_amu']"),
        (("couplings",), {"x": 1}, "couplings must be a list, got {'x': 1}"),
        (("couplings",), [[0, 1]], "couplings[0] must be a mapping, got [0, 1]"),
    ],
)
def test_inline_entries_must_be_mappings_in_lists(path, value, message):
    config = yaml.safe_load(TWO_BEADS + "cavity:\n  omega_c_cm1: 500.0\n  lambda_au: 0.0\n")
    node = config["system"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as info:
        parse_config(yaml.safe_dump(config)).build_system()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "block, message",
    [
        ("dynamics:\n  stride: 0\n", "dynamics.stride must be >= 1, got 0"),
        ("ensemble:\n  n_trajectories: 0\n", "ensemble.n_trajectories must be >= 1, got 0"),
        (
            "ensemble:\n  window_fs: [-10.0, 40.0]\n",
            "ensemble.window_fs must be an increasing pair from 0 fs, got (-10.0, 40.0)",
        ),
        (
            "ensemble:\n  window_fs: [40.0, 10.0]\n",
            "ensemble.window_fs must be an increasing pair from 0 fs, got (40.0, 10.0)",
        ),
        ("outputs:\n  formats: [csv, xml]\n", "outputs.formats[1] must be csv or json, got 'xml'"),
        ("outputs:\n  formats: []\n", "outputs.formats must not be empty, got ()"),
        ("spectrum:\n  lambda_list_au: []\n", "spectrum.lambda_list_au must not be empty, got ()"),
        ("scan:\n  omega_list_cm1: []\n", "scan.omega_list_cm1 must not be empty, got ()"),
        ("scan:\n  ratio_list: []\n", "scan.ratio_list must not be empty, got ()"),
        ("analyze:\n  correlation_window: 1\n", "analyze.correlation_window must be >= 2, got 1"),
        # an indented line continues MINIMAL's last block, cavity
        ("  lambda_au: -1.0\n", "cavity.lambda_au must be non-negative, got -1.0"),
        ("  polarization: [0, 0, 0]\n", "cavity.polarization must be a non-zero 3-vector of finite length"),
        ('  bilinear: "false"\n', "cavity.bilinear must be true or false, got 'false'"),
        ("  self_polarization: 1\n", "cavity.self_polarization must be true or false, got 1"),
        ("dynamics:\n  dt_fs: 0\n", "dynamics.dt_fs must be positive, got 0.0"),
        ("dynamics:\n  duration_fs: .inf\n", "dynamics.duration_fs must be a finite number, got inf"),
        ("ensemble:\n  temperature_K: -1.0\n", "ensemble.temperature_K must be non-negative, got -1.0"),
        ("ensemble:\n  seed: 1.5\n", "ensemble.seed must be an integer, got 1.5"),
        ("ensemble:\n  aim: [0]\n", "ensemble.aim must be a list of 2 entries, got [0]"),
        (
            "ensemble:\n  launch: {sic_displacement_bohr: .nan}\n",
            "ensemble.launch.sic_displacement_bohr must be a finite number, got nan",
        ),
        ("ensemble:\n  launch: [0.6]\n", "ensemble.launch must be a mapping, got [0.6]"),
        ("spectrum:\n  broadening_cm1: 0\n", "spectrum.broadening_cm1 must be positive, got 0.0"),
        ("analyze:\n  runs: out_a\n", "analyze.runs must be a list, got 'out_a'"),
        ("analyze:\n  bonds: [[1, 2.5]]\n", "analyze.bonds[0][1] must be an integer, got 2.5"),
    ],
)
def test_a_value_outside_its_field_names_the_field(block, message):
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + block)
    assert str(info.value) == message


def _config_fields(cls):
    for f in fields(cls):
        yield cls, f
        if f.default_factory is not MISSING:
            yield from _config_fields(f.default_factory)


def test_every_config_field_that_is_not_a_float_has_a_parser():
    # `_block` reads a field without a parser with `_real`, which would turn an int or bool into a float
    checked = list(_config_fields(RunConfig))[1:]  # the system block has its own reader
    assert ("LaunchConfig", "sif_stretch_bohr") in {(cls.__name__, f.name) for cls, f in checked}
    for cls, f in checked:
        assert f.type == "float" or "parse" in f.metadata, f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("command", ["ensemble", "scan"])
def test_a_window_to_the_last_frame_is_checked_at_the_recorded_time(tmp_path, capsys, command):
    # 100 steps of 230000 fs, where the run records the last frame a few ulps before duration_fs
    system = THREE_BEADS
    for mass in ("19.0", "12.0", "28.0"):
        system = system.replace(f"mass_amu: {mass}", "mass_amu: 1.0e+30")
    text = MINIMAL.replace(BUILTIN, system).replace("ratio: 1.132", "lambda_au: 0.0") + (
        "dynamics: {dt_fs: 230000, duration_fs: 23000000, stride: 1}\n"
        "ensemble: {n_trajectories: 2, aim: null, window_fs: [0, 23000000]}\n"
        f"scan: {{omega_list_cm1: [856.0]}}\noutputs: {{directory: {tmp_path / 'out'}}}\n"
    )
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: ensemble.window_fs ends after the last recorded frame, at 22999999.999999996 fs\n"
    assert not (tmp_path / "out").exists()
    cfg.write_text(text.replace("window_fs: [0, 23000000]", "window_fs: [0, 22999999.0]"))
    assert main([command, "--config", str(cfg)]) == 0


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


def test_cli_scan_row_at_the_cavity_frequency_matches_the_ensemble_summary(tmp_path):
    import csv as csvmod

    # the scan keeps only the reactive bond and stops at the window's end; the ensemble keeps every frame
    # to duration_fs; one of the four resonant trajectories reacts inside the window
    text = SHORT_RUN.replace("duration_fs: 50.0", "duration_fs: 200.0\n  dt_fs: 0.5")
    text = text.replace("n_trajectories: 3", "n_trajectories: 4").replace("seed: 11", "seed: 26")
    text = text.replace("window_fs: [0.0, 50.0]", "window_fs: [0.0, 150.0]").replace("PLACEHOLDER", str(tmp_path))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text + "scan:\n  omega_list_cm1: [43.0, 856.0]\n")
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "scan")]) == 0
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "ensemble")]) == 0
    with open(tmp_path / "scan" / "resonance_scan.csv", newline="") as fh:
        (row,) = [r for r in csvmod.DictReader(fh) if r["omega_c_cm1"] == "856.0"]
    summary = json.loads((tmp_path / "ensemble" / "summary.json").read_text())
    assert summary["reaction_fraction"] == 0.25
    for key in ("reaction_fraction", "mean_sic_A", "stderr_sic_A"):
        assert row[key] == str(summary[key])


@pytest.mark.parametrize(
    "scan, expected",
    [
        ("{omega_list_cm1: [43.0, 856.0]}", ("resonance_scan", [("scan.omega_list_cm1[0]", 43.0, 1.132), ("scan.omega_list_cm1[1]", 856.0, 1.132)])),
        ("{ratio_list: [0.0, 0.5]}", ("coupling_scan", [("scan.ratio_list[0]", 856.0, 0.0), ("scan.ratio_list[1]", 856.0, 0.5)])),
        ("{}", ("coupling_scan", [])),
    ],
)
def test_scan_conditions_pair_each_list_entry_with_the_cavity(tmp_path, scan, expected):
    config = parse_config(short_config(tmp_path, extra=f"scan: {scan}\n").read_text())
    assert config.scan_conditions() == expected


def test_cli_ensembles_at_seeds_1_2_and_17_differ(tmp_path):
    # 1 and 2 differ in the index bits, where seed XOR index alone would give both one set of streams
    cfg = short_config(tmp_path)
    summaries = []
    for seed in ("1", "2", "17"):
        assert main(["ensemble", "--config", str(cfg), "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        summaries.append((tmp_path / seed / "summary.json").read_bytes())
    assert len(set(summaries)) == 3


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


def test_cli_spectrum_weighs_each_line_by_its_own_mode(tmp_path):
    # the si_c_weight column holds the weights of the modes ir_spectrum keeps, in their order
    from cavimd import analysis

    cfg = short_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg)]) == 0
    config = parse_config(cfg.read_text())
    system = config.build_system()
    bond = (system.reactive_bond.i, system.reactive_bond.j)
    modes = analysis.system_normal_modes(system)
    polaritons = analysis.polariton_modes(modes, config.cavity.mode())
    out = tmp_path / "out"
    (coupled,) = sorted(out.glob("spectrum_lines_lambda_*.csv"))
    for path, eff, weights in [
        (out / "spectrum_lines_bare.csv", modes, analysis.sic_weighted_spectrum(modes, bond)),
        (coupled, polaritons, analysis.polariton_sic_weights(polaritons, modes, bond)),
    ]:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        kept = eff.frequencies_cm1 > analysis.NEAR_ZERO_CM1
        np.testing.assert_array_equal(table[:, 0], eff.frequencies_cm1[kept])
        np.testing.assert_array_equal(table[:, 2], weights[kept])
        assert np.count_nonzero(table[:, 2]) > 0


def test_cli_spectrum_at_zero_coupling_computes_the_bare_spectrum_once(tmp_path, monkeypatch):
    cfg = short_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("ratio: 1.132", "ratio: 0.0"))
    calls = []
    spectrum = cli._analysis.ir_spectrum
    monkeypatch.setattr(cli._analysis, "ir_spectrum", lambda *a, **k: calls.append(1) or spectrum(*a, **k))
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert len(calls) == 1
    written = sorted(p.name for p in (tmp_path / "out").glob("spectrum_*.csv"))
    assert written == ["spectrum_curve_bare.csv", "spectrum_lines_bare.csv"]


def test_cli_run_without_reactive_bond_writes_strict_json(tmp_path):
    cfg = short_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(BUILTIN, TWO_BEADS))
    assert main(["run", "--config", str(cfg)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    summary = json.loads((tmp_path / "out" / "summary.json").read_text(), parse_constant=reject)
    assert summary["threshold_A"] is None
    assert summary["reacted"] is False


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
    ref, _ = propagate(system, mode, state, fs_to_au(0.25), cfg_obj.dynamics.n_steps(), 4)
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
        times=np.arange(frames) * 41.0,
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


def write_float64_cells(path, header, table):
    """`table` written through write_csv's cell path, every cell an np.float64."""
    write_csv(path, header, [[np.float64(x) for x in row] for row in table])


def test_write_csv_array_and_rows_give_same_bytes(tmp_path):
    special = [-0.0, 1e-5, 1e16, np.nan, np.inf, -np.inf] + AWKWARD[:3]
    table = np.array([AWKWARD, [-x for x in AWKWARD], [float(k) for k in range(len(AWKWARD))], special])
    header = [f"c{k}" for k in range(table.shape[1])]
    write_csv(tmp_path / "array.csv", header, table)
    write_csv(tmp_path / "rows.csv", header, [[float(x) for x in row] for row in table])
    write_float64_cells(tmp_path / "cells.csv", header, table)
    body = (tmp_path / "array.csv").read_bytes()
    assert body == (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    assert body.splitlines()[-1].startswith(b"-0.0,1e-05,1e+16,nan,inf,-inf,")


def test_cli_spectrum_tables_match_the_float64_cell_path(tmp_path, monkeypatch):
    tables = []
    spy = lambda path, header, rows: tables.append((path, header, rows)) or write_csv(path, header, rows)
    monkeypatch.setattr(cli, "write_csv", spy)
    assert main(["spectrum", "--config", str(short_config(tmp_path))]) == 0
    assert len(tables) == 4  # lines and curve, bare and coupled
    for path, header, rows in tables:
        assert isinstance(rows, np.ndarray) and rows.dtype == float
        write_float64_cells(tmp_path / "reference.csv", header, rows)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


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


@pytest.mark.parametrize(
    "analyze, message",
    [
        ("  runs: [a, b, c]\n", "analyze.runs takes one or two run directories, got 3"),
        ("  runs: []\n", "analyze.runs takes one or two run directories, got 0"),
        ("  runs: [a]\n  bonds: [[1, 3], [1, 0], [2, 1]]\n", "analyze.bonds takes none or two particle pairs, got 3"),
        ("  runs: [a]\n  bonds: [[1, 3]]\n", "analyze.bonds takes none or two particle pairs, got 1"),
    ],
    ids=["three-runs", "no-runs", "three-bonds", "one-bond"],
)
def test_cli_analyze_input_counts_fail_cleanly(tmp_path, capsys, analyze, message):
    # inputs analyze would otherwise accept and then leave unused
    cfg = short_config(tmp_path, extra="analyze:\n" + analyze)
    assert main(["analyze", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_spectrum_entries_sharing_files_fail_cleanly(tmp_path, capsys):
    cfg = short_config(tmp_path, extra="spectrum:\n  lambda_list_au: [0.1, 0.0, 0.1000001]\n")
    assert main(["spectrum", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: spectrum.lambda_list_au[0] = 0.1 and [2] = 0.1000001 both write spectrum_*_lambda_0.1.csv\n"
    )
    assert not (tmp_path / "out").exists()


def test_cli_analyze_runs_sharing_a_name_fail_cleanly(tmp_path, capsys):
    # both runs would write occupation_out.csv and bond_correlation_out.*, the second over the first
    cfg = short_config(tmp_path, n_traj=1)
    runs = [tmp_path / "a" / "out", tmp_path / "b" / "out"]
    for run in runs:
        assert main(["run", "--config", str(cfg), "--out", str(run)]) == 0
    cfg.write_text(cfg.read_text() + f"analyze:\n  runs: [{runs[0]}, {runs[1]}]\n  correlation_window: 16\n")
    capsys.readouterr()
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 1
    assert capsys.readouterr().err == (
        f"error: analyze.runs[0] = '{runs[0]}' and [1] = '{runs[1]}' both write occupation_out.csv\n"
    )
    assert not (tmp_path / "ana").exists()


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


def _two_runs(tmp_path, n_traj, extra=""):
    """Two ensembles of `n_traj` trajectories, and an analyze config over both."""
    cfg = short_config(tmp_path, n_traj=n_traj)
    assert main(["ensemble", "--config", str(cfg)]) == 0
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "outB"), "--seed", "5"]) == 0
    text = f"analyze:\n  runs: [{tmp_path / 'out'}, {tmp_path / 'outB'}]\n  correlation_window: 16\n" + extra
    return short_config(tmp_path, name="ana.yaml", extra=text, n_traj=n_traj)


def test_cli_analyze_holds_one_trajectory_at_a_time(tmp_path, monkeypatch):
    import weakref

    cfg = _two_runs(tmp_path, n_traj=4)
    read = cli.read_trajectory_csv
    refs, alive = [], []  # weak references to every trajectory read; how many live at each read

    def recording_read(path, system):
        alive.append(sum(ref() is not None for ref in refs))
        traj = read(path, system)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(cli, "read_trajectory_csv", recording_read)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 0
    assert len(alive) == 8
    assert max(alive) <= 1, alive


@pytest.mark.parametrize("bonds", ["", "  bonds: []\n"], ids=["bonds", "no-bonds"])
def test_cli_analyze_occupations_match_the_stacked_mean(tmp_path, bonds):
    # the streamed tables, byte for byte against np.mean over every map of a run held at once
    from cavimd.analysis import OccupationMap, mode_occupation, occupation_difference, system_normal_modes

    cfg = _two_runs(tmp_path, n_traj=3, extra=bonds)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 0
    system = parse_config(cfg.read_text()).build_system()
    modes = system_normal_modes(system)
    means = {}
    for run in ("out", "outB"):
        files = sorted((tmp_path / run / "trajectories").glob("trajectory_*.csv"))
        maps = [mode_occupation(read_trajectory_csv(f, system), modes, system.reference_positions) for f in files]
        mean = {k: np.mean([m.__dict__[k] for m in maps], axis=0) for k in ("energies", "normalized", "photon_q")}
        means[run] = OccupationMap(times_fs=maps[0].times_fs, frequencies_cm1=maps[0].frequencies_cm1, **mean)
    diff = occupation_difference(means["out"], means["outB"])
    tables = {f"occupation_{run}.csv": (m.times_fs, m.normalized, m.photon_q) for run, m in means.items()}
    tables["occupation_difference.csv"] = (diff.times_fs, diff.delta, diff.photon_delta)
    header = ["time_fs"] + [f"mode_{k}_{f:.2f}_cm1" for k, f in enumerate(modes.frequencies_cm1)] + ["photon_q_au"]
    for name, columns in tables.items():
        write_csv(tmp_path / name, header, np.column_stack(columns))
        assert (tmp_path / "ana" / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_cli_analyze_occupation_columns_have_unique_names(tmp_path):
    # near-degenerate rigid-body modes share a rounded frequency; csv.DictReader would drop repeats
    cfg = _two_runs(tmp_path, n_traj=2)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 0
    for name in ("occupation_out.csv", "occupation_outB.csv", "occupation_difference.csv"):
        header = (tmp_path / "ana" / name).read_text().splitlines()[0].split(",")
        assert len(header) == 20
        assert len(set(header)) == len(header), name


def test_cli_analyze_reports_the_first_bad_file_in_order(tmp_path, capsys):
    # file 1 has too few frames and file 3 cannot be read: each file is checked as it
    # is read, so file 1 is reported, although file 3 would fail its read
    cfg = _two_runs(tmp_path, n_traj=4)
    tdir = tmp_path / "out" / "trajectories"
    short, damaged = tdir / "trajectory_000001.csv", tdir / "trajectory_000003.csv"
    short.write_text("\n".join(short.read_text().splitlines()[:-5]) + "\n")
    damaged.write_text("\n".join(damaged.read_text().splitlines()[:3] + ["abc,1.0"]) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {short}: 46 frames, but ")
    assert str(damaged) not in err


def _other_system_header(lines):
    return [",".join(trajectory_header(_two_bead_system()))] + lines[1:]


def _set_cell(prefix, value):
    """Damage that sets line 4's cell in the first column whose name starts with `prefix` to `value`."""

    def damage(lines):
        cells = lines[3].split(",")
        cells[next(c for c, name in enumerate(lines[0].split(",")) if name.startswith(prefix))] = value
        return lines[:3] + [",".join(cells)] + lines[4:]

    return damage


@pytest.mark.parametrize(
    "damage, code, message",
    [
        (lambda lines: lines[:3] + [lines[3][: len(lines[3]) // 2]], 1, ": line 4: "),
        (_other_system_header, 1, ": unexpected trajectory columns"),
        (lambda lines: lines[:-5], 1, ": 46 frames, but "),
        ("unlink", 3, "no trajectories under "),
        ("rmdir", 3, "no trajectories under "),
        (_set_cell("x_", "nan"), 1, ": line 4: column 2 ('nan') is not a finite number"),
        (_set_cell("vx_", "inf"), 1, ": line 4: column 20 ('inf') is not a finite number"),
    ],
    ids=["truncated", "other-system", "fewer-frames", "no-files", "no-directory", "nan-position", "inf-velocity"],
)
def test_cli_analyze_bad_second_run_writes_nothing(tmp_path, capsys, monkeypatch, damage, code, message):
    # every run is read and checked before a table is written, so the first run's tables are not left behind;
    # and every run's files are listed before one is read
    cfg = _two_runs(tmp_path, n_traj=2)
    read, reads = cli.read_trajectory_csv, []
    monkeypatch.setattr(cli, "read_trajectory_csv", lambda path, system: reads.append(path) or read(path, system))
    tdir = tmp_path / "outB" / "trajectories"
    files = sorted(tdir.glob("trajectory_*.csv"))
    if callable(damage):
        files[1].write_text("\n".join(damage(files[1].read_text().splitlines())) + "\n")
    else:
        for f in files:
            f.unlink()
        if damage == "rmdir":
            tdir.rmdir()
    capsys.readouterr()
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[1] if callable(damage) else ''}") and message in err, err
    assert list((tmp_path / "ana").iterdir()) == []
    assert len(reads) == (4 if callable(damage) else 0)


def test_cli_analyze_missing_inputs_exit_code(tmp_path):
    extra = f"analyze:\n  runs: [{tmp_path/'nonexistent'}]\n"
    cfg = short_config(tmp_path, extra=extra)
    assert main(["analyze", "--config", str(cfg)]) == 3


def test_cli_analyze_rejects_a_run_of_another_system(tmp_path, capsys):
    # a three-bead ensemble, analyzed under a config whose third bead is heavier and stiffer: the
    # occupations would be projections on the other system's modes, so the run's manifest is checked
    run = tmp_path / "run"
    cfg = short_config(tmp_path, extra=f"analyze:\n  runs: [{run}]\n  bonds: []\n")
    cfg.write_text(cfg.read_text().replace(BUILTIN, THREE_BEADS))
    assert main(["ensemble", "--config", str(cfg), "--out", str(run)]) == 0
    other = tmp_path / "other.yaml"
    other.write_text(cfg.read_text().replace("mass_amu: 28.0", "mass_amu: 280.0").replace("k: 0.2", "k: 0.9"))
    capsys.readouterr()
    assert main(["analyze", "--config", str(other), "--out", str(tmp_path / "ana")]) == 1
    assert capsys.readouterr().err == f"error: {run / 'manifest.json'}: system differs from the analyze config's\n"
    assert list((tmp_path / "ana").iterdir()) == []
    # the system the run was made with passes, with another seed, count and cavity
    cfg.write_text(cfg.read_text().replace("seed: 11", "seed: 4").replace("ratio: 1.132", "ratio: 0.5"))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana"), "--seed", "3"]) == 0


@pytest.mark.parametrize(
    "damage, code, message",
    [
        (lambda manifest: manifest.unlink(), 3, "No such file or directory"),
        (lambda manifest: manifest.write_text("{"), 3, "Expecting property name"),
        ("scan", 1, "command is 'scan', not run or ensemble"),
        (
            lambda manifest: manifest.write_text(
                json.dumps({**json.loads(manifest.read_text()), "unit_constants": {"Angstrom per bohr": 0.5}})
            ),
            1,
            "unit_constants differ from this cavimd's",
        ),
    ],
    ids=["no-manifest", "not-json", "scan-output", "other-units"],
)
def test_cli_analyze_checks_each_run_manifest_first(tmp_path, capsys, monkeypatch, damage, code, message):
    run = tmp_path / "run"
    extra = f"analyze:\n  runs: [{run}]\n  correlation_window: 16\nscan:\n  omega_list_cm1: [856.0]\n"
    cfg = short_config(tmp_path, extra=extra)
    assert main(["scan" if damage == "scan" else "run", "--config", str(cfg), "--out", str(run)]) == 0
    if callable(damage):
        damage(run / "manifest.json")
    reads = []
    monkeypatch.setattr(cli, "read_trajectory_csv", lambda path, system: reads.append(path))
    capsys.readouterr()
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "ana")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / 'manifest.json'}: {message}") and err.count("\n") == 1, err
    assert reads == [] and list((tmp_path / "ana").iterdir()) == []


@pytest.mark.parametrize("resample", ["", "  resample_T_K: 20.0\n"], ids=["base", "resample"])
def test_cli_run_builds_one_sampling_spec(tmp_path, monkeypatch, resample):
    # run propagates trajectory 0 only, and spec 0 does not depend on the count, resampled or not
    counts = []
    make_specs = cli.make_specs

    def recording_make_specs(seed, count, *args, **kwargs):
        counts.append(count)
        return make_specs(seed, count, *args, **kwargs)

    monkeypatch.setattr(cli, "make_specs", recording_make_specs)
    outputs = {}
    for n_traj in (1, 100_000):
        cfg = short_config(tmp_path, name=f"cfg{n_traj}.yaml", n_traj=n_traj)
        cfg.write_text(cfg.read_text().replace("  seed: 11\n", "  seed: 11\n" + resample))
        out = tmp_path / f"run{n_traj}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outputs[n_traj] = [(out / name).read_bytes() for name in ("trajectories/trajectory_000000.csv", "summary.json")]
    assert counts == [1, 1]
    assert outputs[1] == outputs[100_000]


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
        ("outputs:", "spectrum:\n  lambda_list_au: []\noutputs:", None, []),
        ("outputs:", "outputs:\n  formats: []", None, []),
        ("ratio: 1.132", "ratio: 1.132\n  polarization: [1.0e+300, 0.0, 0.0]", None, []),
        # a reference so far from the harmonic bond's rest length that its energy overflows
        (BUILTIN, THREE_BEADS.replace("r0: 3.5}", "r0: 1.0e+300}"), None, []),
    ],
)
def test_cli_bad_input_fails_cleanly(tmp_path, monkeypatch, capsys, recwarn, old, new, env, flags):
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
    # the error line alone: no traceback, and no numpy warning, which would print to stderr ahead of it
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [str(w.message) for w in recwarn] == []
    # rejected before anything ran or was written
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, block, message",
    [
        ("ensemble", "ensemble:\n  resample_T_K: -20.0\n", "ensemble.resample_T_K must be non-negative, got -20.0"),
        ("scan", "scan:\n  omega_list_cm1: [856.0, 0.0]\n", "scan.omega_list_cm1[1] must be positive, got 0.0"),
        ("scan", "scan:\n  ratio_list: [1.0, -0.5]\n", "scan.ratio_list[1] must be non-negative, got -0.5"),
        # frames are 1 fs apart, and none lies in [1.1, 1.2] fs
        ("ensemble", WINDOW_GAP, "ensemble.window_fs holds no recorded frame; frames are 1 fs apart"),
        ("scan", WINDOW_GAP + "scan:\n  omega_list_cm1: [856.0]\n", "ensemble.window_fs holds no recorded frame; frames are 1 fs apart"),
        # more steps than a range of frames can index
        (
            "run",
            "dynamics:\n  dt_fs: 1.0e-300\n",
            f"dynamics.duration_fs / dt_fs must be at least 1 and below {np.iinfo(np.intp).max}",
        ),
        # the leaving group's beads, displaced this far, round to one point
        (
            "scan",
            "ensemble:\n  launch: {sic_displacement_bohr: 1.0e+30}\nscan:\n  omega_list_cm1: [856.0]\n",
            "ensemble.launch: particles 3 and 4 are coincident",
        ),
        # farther still, a bond's length overflows: named by the launch, with no warning ahead of it
        (
            "ensemble",
            "ensemble:\n  launch: {sic_displacement_bohr: 1.0e+300}\n",
            "ensemble.launch: non-finite distance between particles 1 and 3",
        ),
        (
            "run",
            "ensemble:\n  launch: {sif_stretch_bohr: 1.0e+300}\n",
            "ensemble.launch: non-finite distance between particles 0 and 1",
        ),
        # the coupling that the entry's ratio resolves to at 856 cm^-1, checked against lambda_au's bound
        (
            "scan",
            "scan:\n  ratio_list: [1.0, 1.0e+300]\n",
            "scan.ratio_list[1]'s lambda_au must be at most 1e+100, got 8.832013333881033e+298",
        ),
    ],
    ids=[
        "resample-negative", "omega-zero", "ratio-negative", "window-gap-ensemble", "window-gap-scan",
        "too-many-steps", "launch-out-of-range", "launch-overflow", "stretch-overflow", "ratio-list-lambda",
    ],
)
def test_cli_bad_scan_and_ensemble_entries_fail_cleanly(tmp_path, capsys, recwarn, command, block, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL + block + f"outputs:\n  directory: {tmp_path / 'out'}\n")
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "out").exists()


def test_cli_two_reactive_bonds_fail_cleanly(tmp_path, capsys, recwarn):
    harmonic = "{kind: harmonic, i: 1, j: 2, k: 0.2, r0: 3.5}"
    reactive = "{kind: reactive, i: 1, j: 2, r0: 3.5, r_ts: 4.5, barrier_ev: 0.35, curvature_min: 0.2, curvature_ts: -0.01}"
    cfg = short_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(BUILTIN, THREE_BEADS.replace(harmonic, reactive)))
    assert main(["ensemble", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: only one reactive bond is supported\n"
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "out").exists()


def test_cli_run_too_large_to_store_fails_at_once(tmp_path, capsys):
    # 3 trajectories of 1e10 fs: terabytes of frame buffers, refused before any sampling
    cfg = short_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("duration_fs: 50.0", "duration_fs: 1.0e10"))
    assert main(["ensemble", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the run needs ") and "GiB of physical memory" in err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize(
    "command, old, new, message",
    [
        ("calibrate", "r_ts: 4.5", "r_ts: 1.0e+300", "bonds[0]: no valid double-well shape for targets"),
        ("calibrate", "curvature_min: 0.2", "curvature_min: 1.0", "bonds[0]: no valid double-well shape for targets"),
    ],
    ids=["barrier-position", "stiff-well"],
)
def test_cli_numerics_out_of_range_fail_cleanly(tmp_path, capsys, recwarn, command, old, new, message):
    cfg = short_config(tmp_path)
    text = cfg.read_text().replace(BUILTIN, THREE_BEADS)
    assert old in text
    cfg.write_text(text.replace(old, new, 1))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    # the error line alone: no traceback, and no numpy warning ahead of it
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "out" / "calibration.json").exists()


@pytest.mark.parametrize(
    "command, old, new, message",
    [
        (
            "spectrum",
            "outputs:",
            "spectrum:\n  broadening_cm1: 1.0e+300\noutputs:",
            "spectrum.broadening_cm1 must be at most 1e+150, got 1e+300",
        ),
        ("ensemble", "charge: -0.5", "charge: 1.0e+300", "particles[0].charge must be at most 1e+100 in magnitude, got 1e+300"),
        (
            "spectrum",
            "outputs:",
            "spectrum:\n  lambda_list_au: [0.0, 1.0e+300]\noutputs:",
            "spectrum.lambda_list_au[1] must be at most 1e+100, got 1e+300",
        ),
        *[
            (command, old, new, message)
            for command in ("spectrum", "run")
            for old, new, message in [
                ("omega_c_cm1: 856.0", "omega_c_cm1: 1.0e+300", "cavity.omega_c_cm1 must be at most 1e+150, got 1e+300"),
                ("ratio: 1.132", "lambda_au: 1.0e+300", "cavity.lambda_au must be at most 1e+100, got 1e+300"),
                # the coupling that the ratio resolves to at 856 cm^-1, checked against lambda_au's bound
                (
                    "ratio: 1.132",
                    "ratio: 1.0e+300",
                    "cavity.ratio's lambda_au must be at most 1e+100, got 8.832013333881033e+298",
                ),
            ]
        ],
        (
            "scan",
            "outputs:",
            "scan:\n  omega_list_cm1: [856.0, 1.0e+300]\noutputs:",
            "scan.omega_list_cm1[1] must be at most 1e+150, got 1e+300",
        ),
        # the coupling that the cavity's ratio resolves to at each scanned frequency
        (
            "scan",
            "ratio: 1.132\n",
            "ratio: 1.0e+40\nscan:\n  omega_list_cm1: [856.0, 1.0e+150]\n",
            "scan.omega_list_cm1[1]'s lambda_au must be at most 1e+100, got 3.018720011167626e+112",
        ),
        # a ratio whose coupling overflows float64 at a high cavity frequency
        (
            "run",
            "omega_c_cm1: 856.0\n  ratio: 1.132",
            "omega_c_cm1: 1.0e+150\n  ratio: 1.0e+300",
            "cavity.ratio's lambda_au must be a finite number, got inf",
        ),
    ],
    ids=[
        "broadening", "charge", "coupling", "spectrum-omega", "spectrum-lambda", "spectrum-ratio", "run-omega",
        "run-lambda", "run-ratio", "scan-omega", "scan-omega-lambda", "ratio-overflow",
    ],
)
def test_cli_values_that_would_overflow_stop_at_their_parser(tmp_path, capsys, recwarn, command, old, new, message):
    cfg = short_config(tmp_path)
    text = cfg.read_text().replace(BUILTIN, THREE_BEADS)
    assert old in text
    cfg.write_text(text.replace(old, new, 1))
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new",
    [
        ("outputs:", "spectrum:\n  broadening_cm1: 1.0e+150\noutputs:"),
        ("charge: -0.5", "charge: -1.0e+100"),
        ("outputs:", "spectrum:\n  lambda_list_au: [1.0e+100]\noutputs:"),
        ("omega_c_cm1: 856.0", "omega_c_cm1: 1.0e+150"),
        ("ratio: 1.132", "lambda_au: 1.0e+100"),
    ],
    ids=["broadening", "charge", "coupling", "cavity-frequency", "cavity-coupling"],
)
def test_cli_spectrum_runs_at_each_bound(tmp_path, old, new):
    # each bound holds with every other value in its usual range; at two bounds at once the curve may overflow
    cfg = short_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(BUILTIN, THREE_BEADS).replace(old, new, 1))
    assert main(["spectrum", "--config", str(cfg)]) == 0


def test_cli_failed_model_check_prints_an_error_line(tmp_path, capsys):
    cfg = short_config(tmp_path)
    # the bond's rest length is 2.0 bohr, so the reference is not stationary
    cfg.write_text(cfg.read_text().replace(BUILTIN, TWO_BEADS.replace("[2.0, 0.0, 0.0]]", "[2.5, 0.0, 0.0]]")))
    assert main(["model-check", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "PASS force_fd_ok\nFAIL reference_is_stationary\n"
    report = tmp_path / "out" / "model_check.json"
    assert err == f"error: model check reference_is_stationary failed; see {report}\n"
    assert json.loads(report.read_text())["passed"] is False


#: THREE_BEADS bent to a right angle at the middle bead, with a cubic coupling of its two bonds
RIGHT_ANGLE = THREE_BEADS.replace("[7.0, 0.0, 0.0]", "[3.5, 3.5, 0.0]") + (
    "  couplings:\n    - {bond_a: 0, bond_b: 1, g3: 0.01}\n"
)


def test_model_check_passes_a_stiff_right_angle_system(tmp_path, capsys):
    # the two-point force difference at h = 1e-4 read a relative error of 1.44e-6 here
    cfg = short_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(BUILTIN, RIGHT_ANGLE))
    assert main(["model-check", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "PASS force_fd_ok\nPASS reference_is_stationary\n"
    assert json.loads((tmp_path / "out" / "model_check.json").read_text())["force_fd_max_rel_err"] < 1e-9


def test_model_check_fails_forces_scaled_by_one_part_in_1e5(tmp_path, monkeypatch, capsys):
    forces = cli._model.forces
    monkeypatch.setattr(cli._model, "forces", lambda *args: forces(*args) * (1 + 1e-5))
    assert main(["model-check", "--config", str(short_config(tmp_path))]) == 2
    assert capsys.readouterr().out == "FAIL force_fd_ok\nPASS reference_is_stationary\n"


@pytest.mark.parametrize("short_by, code", [(1, 1), (0, 0)])
def test_ensemble_size_check_counts_whole_frames_and_one_bond_length(tmp_path, monkeypatch, capsys, short_by, code):
    # frames 0..50 of 3 trajectories, each frame x and v (3N = 18 each), q, p, the time, 4 energies, the dipole
    # and the Si-C length, and one trajectory's energy scratch: the index tables (18 + 5 + 4), the bond
    # geometry (14 per bond, 5 bonds), the energy terms (4 per bond and coupling, 4 couplings) and 3N products
    size = 51 * (3 * (6 * 6 + 11) + 27 + 14 * 5 + 4 * 9 + 3 * 18) * 8
    real_sysconf = os.sysconf

    def sysconf(name):
        return {"SC_PHYS_PAGES": size - short_by, "SC_PAGE_SIZE": 1}.get(name) or real_sysconf(name)

    monkeypatch.setattr(os, "sysconf", sysconf)
    assert main(["ensemble", "--config", str(short_config(tmp_path))]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: the run needs ") and "GiB of physical memory" in err
    else:
        assert err == "" and (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("short_by, code", [(1, 1), (0, 0)])
def test_scan_size_check_counts_one_bond_length_per_row_and_frame(tmp_path, monkeypatch, capsys, short_by, code):
    # 3 trajectories x (baseline + 1 condition), frames 0..31 up to the first past the 30 fs window
    size = 3 * 2 * 32 * 8
    real_sysconf = os.sysconf

    def sysconf(name):
        return {"SC_PHYS_PAGES": size - short_by, "SC_PAGE_SIZE": 1}.get(name) or real_sysconf(name)

    monkeypatch.setattr(os, "sysconf", sysconf)
    cfg = short_config(tmp_path, extra="scan:\n  omega_list_cm1: [856.0]\n")
    cfg.write_text(cfg.read_text().replace("window_fs: [0.0, 50.0]", "window_fs: [0.0, 30.0]"))
    assert main(["scan", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: the run needs ") and "GiB of physical memory" in err
    else:
        assert err == "" and (tmp_path / "out" / "resonance_scan.csv").exists()


#: a config of every block, small enough that a command on it takes tens of milliseconds
SMALL_CONFIG = {
    "system": {"builtin": "pta_surrogate"},
    "cavity": {
        "omega_c_cm1": 856.0,
        "ratio": 1.132,
        "polarization": [1.0, 0.0, 0.0],
        "bilinear": True,
        "self_polarization": True,
    },
    "dynamics": {"dt_fs": 0.25, "duration_fs": 5.0, "stride": 4},
    "ensemble": {
        "temperature_K": 300.0,
        "n_trajectories": 2,
        "seed": 1,
        "resample_T_K": 20.0,
        "window_fs": [0.0, 5.0],
        "aim": [0, 1],
        "launch": {"sic_displacement_bohr": 0.6, "sif_stretch_bohr": 0.3},
    },
    "outputs": {"directory": "out", "formats": ["csv", "json"]},
    "spectrum": {"broadening_cm1": 30.0, "lambda_list_au": [0.0, 0.1]},
    "scan": {"omega_list_cm1": [43.0, 856.0]},
    # the two runs of `small_runs`, under its directory; their 6 frames hold the window
    "analyze": {"runs": ["ensemble", "run"], "correlation_window": 4, "bonds": [[1, 3], [1, 0]]},
}


@pytest.fixture(scope="session")
def small_runs(tmp_path_factory):
    """A directory holding an `ensemble` and a `run` output of SMALL_CONFIG, built once per session."""
    base = tmp_path_factory.mktemp("small_runs")
    cfg = base / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(SMALL_CONFIG))
    for command in ("ensemble", "run"):
        assert main([command, "--config", str(cfg), "--out", str(base / command)]) == 0
    return base


def config_leaves(node, path=()):
    """Key paths of every value in `node` that is not a mapping, and of every list entry."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if not isinstance(value, dict) or isinstance(node, list):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from config_leaves(value, path + (key,))


BAD_VALUES = [
    None, "abc", -1.0, -20.0, 0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 1e-300,
    [], [1.0], [1.0, 2.0, 3.0, 4.0], True, False, {"x": 1},
]

#: THREE_BEADS with a harmonic bond so far from its rest length at the reference that the energy and
#: the forces of its coupling to the reactive bond overflow
FAR_FROM_REST = yaml.safe_load(
    THREE_BEADS.replace("r0: 3.5}", "r0: 1.0e+300}") + "  couplings:\n    - {bond_a: 0, bond_b: 1, g3: 0.001}\n"
)["system"]


#: SMALL_CONFIG, and the same config with THREE_BEADS and one coupling as its inline system
CONFIGS = {
    "builtin": SMALL_CONFIG,
    "inline": {
        **SMALL_CONFIG,
        "system": yaml.safe_load(THREE_BEADS + "  couplings:\n    - {bond_a: 0, bond_b: 1, g3: 0.001}\n")["system"],
    },
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from([(name, path) for name, config in CONFIGS.items() for path in config_leaves(config)]),
    value=st.sampled_from(BAD_VALUES),
    command=st.sampled_from(list(cli.COMMANDS)),
)
@example(case=("builtin", ("ensemble", "resample_T_K")), value=-20.0, command="run")
@example(case=("builtin", ("scan", "omega_list_cm1", 1)), value=0.0, command="scan")
@example(case=("builtin", ("scan",)), value={"ratio_list": [1.0, -0.5]}, command="scan")
@example(case=("builtin", ("dynamics", "duration_fs")), value=1e10, command="ensemble")
@example(case=("builtin", ("dynamics", "duration_fs")), value=1e10, command="scan")
@example(case=("builtin", ("analyze", "runs", 1)), value="abc", command="analyze")
@example(case=("builtin", ("dynamics", "dt_fs")), value=1e-300, command="spectrum")
@example(case=("builtin", ("cavity", "polarization", 0)), value=1e300, command="run")
@example(case=("builtin", ("cavity", "omega_c_cm1")), value=1e300, command="run")
@example(case=("inline", ("cavity", "ratio")), value=1e300, command="spectrum")
@example(case=("builtin", ("ensemble", "launch", "sic_displacement_bohr")), value=10**30, command="scan")
@example(case=("builtin", ("system",)), value=FAR_FROM_REST, command="spectrum")
@example(case=("inline", ("system", "bonds")), value=[1.0], command="run")
@example(case=("inline", ("system", "bonds", 0)), value=None, command="run")
@example(case=("inline", ("system", "bonds")), value="abc", command="spectrum")
@example(case=("inline", ("system", "particles", 0)), value=None, command="model-check")
@example(case=("inline", ("system", "couplings")), value={"x": 1}, command="calibrate")
def test_every_bad_input_ends_in_an_error_line(small_runs, case, value, command):
    name, path = case
    config = copy.deepcopy(CONFIGS[name])
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    runs = config["analyze"]["runs"]
    if isinstance(runs, list):
        config["analyze"]["runs"] = [str(small_runs / run) if isinstance(run, str) else run for run in runs]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.yaml", Path(tmp) / "out"
        cfg.write_text(yaml.safe_dump(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        # analyze checks every run before it writes a table
        written = [] if command != "analyze" or not out.exists() else list(out.iterdir())
    assert code in (0, 1, 2, 3)
    if code:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
        assert written == []


def test_cli_out_of_memory_fails_cleanly(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_ensemble", no_memory)
    assert main(["ensemble", "--config", str(short_config(tmp_path))]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


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
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["numpy_version"] == np.__version__
    assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert all(isinstance(v, str) and v for v in manifest["blas"].values())


def test_manifest_records_the_seed_that_ran(tmp_path):
    cfg = short_config(tmp_path, n_traj=2, duration=5.0)  # seed: 11
    written = tmp_path / "seed5.yaml"
    written.write_text(cfg.read_text().replace("seed: 11", "seed: 5"))
    out = tmp_path / "run"
    manifests = []
    for path, flags in ((cfg, ["--seed", "5"]), (written, [])):
        assert main(["ensemble", "--config", str(path), "--out", str(out), *flags]) == 0
        rows = (out / "ensemble.csv").read_text().splitlines()[1:]
        # each trajectory's packed stream key: 5 XOR k, and (5 XOR 1) in the second word
        assert [row.split(",")[1] for row in rows] == [str((5 ^ k) | 4 << 64) for k in range(2)]
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0]["resolved_config"]["ensemble"]["seed"] == 5
    assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]


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
