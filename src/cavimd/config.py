"""Run configuration: YAML schema, validation, and the run manifest.

One structured config file drives every command. Required blocks are
`system` and `cavity`; everything else falls back to documented defaults
(dt 0.25 fs, stride 4, analysis window 0-700 fs, broadening 30 cm^-1).
Unknown keys are rejected so typos fail loudly. File-facing quantities use
cm^-1 / fs / Angstrom / eV / K; the resolved config (with the coupling
strength in atomic units) lands in the manifest of every output directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Optional, Tuple

import numpy as np
import yaml

from . import __version__ as _pkg_version
from .cavity import CavityMode, lambda_for_ratio
from .ensemble import RNG_ALGORITHM
from .model import (
    CouplingTerm,
    DipoleModel,
    HarmonicBond,
    ModelSystem,
    Particle,
    ReactiveBond,
    build_pta_surrogate,
    calibrate_reactive_bond,
    pta_launch_positions,
)
from .units import CM1_PER_HARTREE, EV_PER_HARTREE, UNIT_TABLE


class ConfigError(ValueError):
    """Invalid or unparsable run configuration."""


def _require_keys(block: dict, allowed: set, required: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


@dataclass
class CavityConfig:
    omega_c_cm1: float
    lambda_au: float
    ratio: float
    polarization: Tuple[float, float, float]
    bilinear: bool
    self_polarization: bool

    def mode(self) -> Optional[CavityMode]:
        if self.lambda_au == 0.0:
            return None
        return CavityMode(
            omega_c=self.omega_c_cm1 / CM1_PER_HARTREE,
            lambda_mag=self.lambda_au,
            polarization=np.asarray(self.polarization, dtype=float),
            bilinear_on=self.bilinear,
            self_polarization_on=self.self_polarization,
        )


@dataclass
class DynamicsConfig:
    dt_fs: float = 0.25
    duration_fs: float = 1000.0
    stride: int = 4


@dataclass
class LaunchConfig:
    sic_displacement_bohr: float = 0.60
    sif_stretch_bohr: float = 0.30


@dataclass
class EnsembleConfig:
    temperature_K: float = 300.0
    n_trajectories: int = 16
    seed: int = 2026
    resample_T_K: Optional[float] = None
    window_fs: Tuple[float, float] = (0.0, 700.0)
    aim: Optional[Tuple[int, int]] = (0, 1)
    launch: LaunchConfig = field(default_factory=LaunchConfig)


@dataclass
class OutputsConfig:
    directory: str = "out"
    formats: Tuple[str, ...] = ("csv", "json")


@dataclass
class SpectrumConfig:
    lambda_list_au: Optional[Tuple[float, ...]] = None
    broadening_cm1: float = 30.0


@dataclass
class ScanConfig:
    omega_list_cm1: Optional[Tuple[float, ...]] = None
    ratio_list: Optional[Tuple[float, ...]] = None


@dataclass
class AnalyzeConfig:
    runs: Tuple[str, ...] = ()
    correlation_window: int = 64
    bonds: Tuple[Tuple[int, int], ...] = ((1, 3), (1, 0))


@dataclass
class RunConfig:
    system_block: dict
    cavity: CavityConfig
    dynamics: DynamicsConfig
    ensemble: EnsembleConfig
    outputs: OutputsConfig
    spectrum: SpectrumConfig
    scan: ScanConfig
    analyze: AnalyzeConfig

    def build_system(self) -> ModelSystem:
        return build_system(self.system_block)

    def launch_positions(self, system: ModelSystem) -> np.ndarray:
        if self.system_block.get("builtin") == "pta_surrogate":
            lc = self.ensemble.launch
            return pta_launch_positions(
                system, lc.sic_displacement_bohr, lc.sif_stretch_bohr
            )
        if system.reference_positions is None:
            raise ConfigError("inline system needs positions_bohr")
        return system.reference_positions.copy()

    def n_steps(self) -> int:
        return int(round(self.dynamics.duration_fs / self.dynamics.dt_fs))

    def resolved_dict(self) -> dict:
        d = {
            "system": self.system_block,
            "cavity": asdict(self.cavity),
            "dynamics": asdict(self.dynamics),
            "ensemble": asdict(self.ensemble),
            "outputs": asdict(self.outputs),
            "spectrum": asdict(self.spectrum),
            "scan": asdict(self.scan),
            "analyze": asdict(self.analyze),
        }
        return json.loads(json.dumps(d, sort_keys=True))


def _parse_cavity(block: dict) -> CavityConfig:
    _require_keys(
        block,
        {"omega_c_cm1", "lambda_au", "ratio", "polarization", "bilinear", "self_polarization"},
        {"omega_c_cm1"},
        "cavity",
    )
    has_lambda = "lambda_au" in block
    has_ratio = "ratio" in block
    if has_lambda == has_ratio:
        raise ConfigError("cavity block needs exactly one of lambda_au / ratio")
    omega_cm1 = float(block["omega_c_cm1"])
    if not omega_cm1 > 0:
        raise ConfigError("omega_c_cm1 must be positive")
    omega = omega_cm1 / CM1_PER_HARTREE
    if has_lambda:
        lam = float(block["lambda_au"])
        if lam < 0:
            raise ConfigError("lambda_au must be non-negative")
        ratio = lam / np.sqrt(2.0 * omega)
    else:
        ratio = float(block["ratio"])
        if ratio < 0:
            raise ConfigError("ratio must be non-negative")
        lam = lambda_for_ratio(ratio, omega)
    pol = np.asarray(block.get("polarization", [1.0, 0.0, 0.0]), dtype=float)
    if pol.shape != (3,) or np.linalg.norm(pol) < 1e-12:
        raise ConfigError("polarization must be a non-zero 3-vector")
    pol = pol / np.linalg.norm(pol)
    return CavityConfig(
        omega_c_cm1=omega_cm1,
        lambda_au=float(lam),
        ratio=float(ratio),
        polarization=tuple(float(x) for x in pol),
        bilinear=bool(block.get("bilinear", True)),
        self_polarization=bool(block.get("self_polarization", True)),
    )


def _parse_system(block: dict) -> dict:
    allowed = {"builtin", "particles", "positions_bohr", "bonds", "couplings", "d_extra"}
    _require_keys(block, allowed, set(), "system")
    if "builtin" in block:
        if block["builtin"] != "pta_surrogate":
            raise ConfigError(f"unknown builtin system {block['builtin']!r}")
        extra = set(block) - {"builtin"}
        if extra:
            raise ConfigError(f"builtin system takes no extra keys, got {sorted(extra)}")
        return {"builtin": "pta_surrogate"}
    _require_keys(block, allowed, {"particles", "positions_bohr", "bonds"}, "system")
    return json.loads(json.dumps(block))


def build_system(system_block: dict) -> ModelSystem:
    """Instantiate a ModelSystem from a validated system block."""
    if system_block.get("builtin") == "pta_surrogate":
        return build_pta_surrogate()
    particles = []
    for k, p in enumerate(system_block["particles"]):
        _require_keys(p, {"label", "mass_amu", "charge"}, {"label", "mass_amu", "charge"}, f"particles[{k}]")
        particles.append(Particle(str(p["label"]), float(p["mass_amu"]), float(p["charge"])))
    bonds = []
    reactive_index = None
    for k, b in enumerate(system_block["bonds"]):
        kind = b.get("kind")
        if kind == "harmonic":
            _require_keys(b, {"kind", "i", "j", "k", "r0"}, {"kind", "i", "j", "k", "r0"}, f"bonds[{k}]")
            bonds.append(HarmonicBond(int(b["i"]), int(b["j"]), float(b["k"]), float(b["r0"])))
        elif kind == "reactive":
            keys = {"kind", "i", "j", "r0", "r_ts", "barrier_ev", "curvature_min", "curvature_ts"}
            _require_keys(b, keys, keys, f"bonds[{k}]")
            well = calibrate_reactive_bond(
                float(b["barrier_ev"]) / EV_PER_HARTREE,
                float(b["r0"]),
                float(b["r_ts"]),
                float(b["curvature_min"]),
                float(b["curvature_ts"]),
            )
            if reactive_index is not None:
                raise ConfigError("only one reactive bond is supported")
            reactive_index = k
            bonds.append(ReactiveBond(int(b["i"]), int(b["j"]), well))
        else:
            raise ConfigError(f"bonds[{k}]: kind must be 'harmonic' or 'reactive'")
    couplings = []
    for k, c in enumerate(system_block.get("couplings", [])):
        _require_keys(c, {"bond_a", "bond_b", "g3"}, {"bond_a", "bond_b", "g3"}, f"couplings[{k}]")
        couplings.append(CouplingTerm(int(c["bond_a"]), int(c["bond_b"]), float(c["g3"])))
    charges = np.array([p.charge for p in particles])
    d_extra = None
    if system_block.get("d_extra") is not None:
        d_extra = np.asarray(system_block["d_extra"], dtype=float)
    positions = np.asarray(system_block["positions_bohr"], dtype=float).reshape(-1)
    try:
        return ModelSystem(
            particles=tuple(particles),
            bonds=tuple(bonds),
            couplings=tuple(couplings),
            dipole=DipoleModel(charges, d_extra),
            reactive_bond_index=reactive_index,
            reference_positions=positions,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(
                f"config syntax error at line {mark.line + 1}, column {mark.column + 1}: {exc}"
            ) from None
        raise ConfigError(f"config syntax error: {exc}") from None
    try:
        return _parse_blocks(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        # a value of the wrong type, such as `n_trajectories: x`
        raise ConfigError(f"invalid config value: {exc}") from None


def _pair(raw, where: str) -> tuple:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{where} must be a pair, got {raw!r}")
    return tuple(raw)


def _parse_blocks(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of blocks")
    top_allowed = {"system", "cavity", "dynamics", "ensemble", "outputs", "spectrum", "scan", "analyze"}
    _require_keys(raw, top_allowed, {"system", "cavity"}, "config")

    system_block = _parse_system(raw["system"])
    cavity = _parse_cavity(raw["cavity"])

    dyn_block = raw.get("dynamics", {}) or {}
    _require_keys(dyn_block, {"dt_fs", "duration_fs", "stride"}, set(), "dynamics")
    dynamics = DynamicsConfig(
        dt_fs=float(dyn_block.get("dt_fs", 0.25)),
        duration_fs=float(dyn_block.get("duration_fs", 1000.0)),
        stride=int(dyn_block.get("stride", 4)),
    )
    if not dynamics.dt_fs > 0:
        raise ConfigError("dt_fs must be positive")
    if dynamics.duration_fs < dynamics.dt_fs:
        raise ConfigError("duration_fs must be at least dt_fs")
    if dynamics.stride < 1:
        raise ConfigError("stride must be >= 1")

    ens_block = raw.get("ensemble", {}) or {}
    _require_keys(
        ens_block,
        {"temperature_K", "n_trajectories", "seed", "resample_T_K", "window_fs", "aim", "launch"},
        set(),
        "ensemble",
    )
    launch_block = ens_block.get("launch", {}) or {}
    _require_keys(
        launch_block, {"sic_displacement_bohr", "sif_stretch_bohr"}, set(), "ensemble.launch"
    )
    launch = LaunchConfig(
        sic_displacement_bohr=float(launch_block.get("sic_displacement_bohr", 0.60)),
        sif_stretch_bohr=float(launch_block.get("sif_stretch_bohr", 0.30)),
    )
    aim_raw = ens_block.get("aim", (0, 1))
    aim = None if aim_raw is None else tuple(int(k) for k in _pair(aim_raw, "ensemble.aim"))
    window_raw = _pair(ens_block.get("window_fs", (0.0, 700.0)), "ensemble.window_fs")
    ensemble = EnsembleConfig(
        temperature_K=float(ens_block.get("temperature_K", 300.0)),
        n_trajectories=int(ens_block.get("n_trajectories", 16)),
        seed=int(ens_block.get("seed", 2026)),
        resample_T_K=(
            None if ens_block.get("resample_T_K") is None else float(ens_block["resample_T_K"])
        ),
        window_fs=(float(window_raw[0]), float(window_raw[1])),
        aim=aim,
        launch=launch,
    )
    if ensemble.temperature_K < 0:
        raise ConfigError("temperature_K must be non-negative")
    if ensemble.n_trajectories < 1:
        raise ConfigError("n_trajectories must be >= 1")
    if not ensemble.window_fs[0] < ensemble.window_fs[1]:
        raise ConfigError("window_fs must be an increasing pair")
    if ensemble.window_fs[1] > dynamics.duration_fs + 1e-9:
        raise ConfigError("window_fs exceeds duration_fs")

    out_block = raw.get("outputs", {}) or {}
    _require_keys(out_block, {"directory", "formats"}, set(), "outputs")
    formats = tuple(out_block.get("formats", ("csv", "json")))
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"unknown output format {f!r}")
    outputs = OutputsConfig(directory=str(out_block.get("directory", "out")), formats=formats)

    spec_block = raw.get("spectrum", {}) or {}
    _require_keys(spec_block, {"lambda_list_au", "broadening_cm1"}, set(), "spectrum")
    lam_list = spec_block.get("lambda_list_au")
    spectrum = SpectrumConfig(
        lambda_list_au=None if lam_list is None else tuple(float(x) for x in lam_list),
        broadening_cm1=float(spec_block.get("broadening_cm1", 30.0)),
    )
    if not spectrum.broadening_cm1 > 0:
        raise ConfigError("broadening_cm1 must be positive")

    scan_block = raw.get("scan", {}) or {}
    _require_keys(scan_block, {"omega_list_cm1", "ratio_list"}, set(), "scan")
    scan = ScanConfig(
        omega_list_cm1=(
            None
            if scan_block.get("omega_list_cm1") is None
            else tuple(float(x) for x in scan_block["omega_list_cm1"])
        ),
        ratio_list=(
            None
            if scan_block.get("ratio_list") is None
            else tuple(float(x) for x in scan_block["ratio_list"])
        ),
    )
    if scan.omega_list_cm1 is not None and scan.ratio_list is not None:
        raise ConfigError("scan block takes omega_list_cm1 or ratio_list, not both")
    if scan.omega_list_cm1 == () or scan.ratio_list == ():
        raise ConfigError("scan lists must not be empty")

    ana_block = raw.get("analyze", {}) or {}
    _require_keys(ana_block, {"runs", "correlation_window", "bonds"}, set(), "analyze")
    bonds_raw = ana_block.get("bonds", [[1, 3], [1, 0]])
    analyze = AnalyzeConfig(
        runs=tuple(str(r) for r in ana_block.get("runs", [])),
        correlation_window=int(ana_block.get("correlation_window", 64)),
        bonds=tuple(tuple(int(k) for k in _pair(b, "analyze.bonds entry")) for b in bonds_raw),
    )

    return RunConfig(
        system_block=system_block,
        cavity=cavity,
        dynamics=dynamics,
        ensemble=ensemble,
        outputs=outputs,
        spectrum=spectrum,
        scan=scan,
        analyze=analyze,
    )


def config_hash(config: RunConfig) -> str:
    blob = json.dumps(config.resolved_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def make_manifest(config: RunConfig, command: str) -> dict:
    """Self-describing provenance record written next to every output set."""
    return {
        "package": "cavimd",
        "version": _pkg_version,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config_sha256": config_hash(config),
        "rng_algorithm": RNG_ALGORITHM,
        "unit_constants": UNIT_TABLE,
        "resolved_config": config.resolved_dict(),
    }
