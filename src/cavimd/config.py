"""Run configuration: YAML schema, validation, and the run manifest.

One structured config file drives every command. Required blocks are
`system` and `cavity`; every other key falls back to the default on its
dataclass field below, the one place a default and its parser are written.
Unknown keys and non-finite numbers are rejected. File-facing quantities
use cm^-1 / fs / Angstrom / eV / K; the resolved config (with the coupling
strength in atomic units) lands in the manifest of every output directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import Optional, Tuple

import numpy as np
import yaml

from . import __version__ as _pkg_version
from .cavity import CavityMode, coupling_ratio, lambda_for_ratio
from .dynamics import TIME_TOL_FS, window_frames
from .ensemble import RNG_ALGORITHM
from .model import (
    PTA_LAUNCH_SIC_BOHR,
    PTA_LAUNCH_SIF_BOHR,
    CalibrationError,
    CouplingTerm,
    HarmonicBond,
    ModelSystem,
    Particle,
    ReactiveBond,
    build_pta_surrogate,
    calibrate_reactive_bond,
    pta_launch_positions,
)
from .units import CM1_PER_HARTREE, EV_PER_HARTREE, UNIT_TABLE, au_to_fs, fs_to_au


class ConfigError(ValueError):
    """Invalid or unparsable run configuration."""


def _require_keys(block: dict, allowed: set, required: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _flag(raw, where: str) -> bool:
    """A YAML boolean; anything else (such as the string "false") is an error."""
    if not isinstance(raw, (bool, np.bool_)):
        raise ConfigError(f"{where} must be true or false, got {raw!r}")
    return bool(raw)


def _integer(raw, where: str) -> int:
    """A whole number; a fractional value is an error, not truncated."""
    if isinstance(raw, (bool, np.bool_)):
        raise ConfigError(f"{where} must be an integer, got {raw!r}")
    if isinstance(raw, (int, np.integer)):
        return int(raw)
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    raise ConfigError(f"{where} must be an integer, got {raw!r}")


def _real(raw, where: str) -> float:
    """A finite number; NaN and infinities are errors."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = np.nan
    if not np.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {raw!r}")
    return value


def _list_of(parse, length: Optional[int] = None):
    """A YAML list (of exactly `length` entries if given) read entry by entry.

    A scalar, such as one string, is an error rather than a sequence of characters.
    """

    def parse_list(raw, where: str) -> tuple:
        if not isinstance(raw, (list, tuple)) or length not in (None, len(raw)):
            size = "" if length is None else f" of {length} entries"
            raise ConfigError(f"{where} must be a list{size}, got {raw!r}")
        return tuple(parse(x, f"{where}[{k}]") for k, x in enumerate(raw))

    return parse_list


def _optional(parse):
    return lambda raw, where: None if raw is None else parse(raw, where)


def _checked(parse, test, rule: str):
    """`parse`, then `test` on its value; a value that fails the test is an error stating `rule`."""

    def parse_checked(raw, where: str):
        value = parse(raw, where)
        if not test(value):
            raise ConfigError(f"{where} {rule}, got {value!r}")
        return value

    return parse_checked


_positive = _checked(_real, lambda x: x > 0, "must be positive")
_non_negative = _checked(_real, lambda x: x >= 0, "must be non-negative")
_count = lambda low: _checked(_integer, lambda n: n >= low, f"must be >= {low}")  # noqa: E731
_non_empty = lambda parse: _checked(parse, bool, "must not be empty")  # noqa: E731
_text = lambda raw, where: str(raw)  # noqa: E731

# bounds past which a command's float64 arithmetic overflows: the spectrum squares ten times the
# broadening (the top of its grid, past 1.3e153), a line's strength grows as the cube of a charge, and
# a polariton's frequency, which the spectrum squares too, as a coupling times a dipole derivative or
# as the cavity frequency, whose square is also the photon's stiffness
_broadening = _checked(_positive, lambda b: b <= 1e150, "must be at most 1e+150")
_charge = _checked(_real, lambda q: abs(q) <= 1e100, "must be at most 1e+100 in magnitude")
_coupling = _checked(_non_negative, lambda lam: lam <= 1e100, "must be at most 1e+100")
_frequency = _checked(_positive, lambda w: w <= 1e150, "must be at most 1e+150")


def _polarization(raw, where: str) -> tuple:
    pol = np.asarray(_list_of(_real, 3)(raw, where))
    with np.errstate(over="ignore"):  # an overflowing length is rejected below
        norm = np.linalg.norm(pol)
    if not 1e-12 <= norm < np.inf:
        raise ConfigError(f"{where} must be a non-zero 3-vector of finite length")
    return tuple(float(x) for x in pol / norm)


def _block(raw, name: str, cls, **parsers):
    """Read the config block or inline entry `raw` (a mapping, or None) into the dataclass `cls`.

    The keys are the fields of `cls`, and those without a default are
    required. Absent keys take the field default. A present key goes through
    its parser in `parsers` (by field name) if given, else the one on its
    field (see `_field`), else `_real`. A value that `cls` itself rejects is
    an error naming `name`.
    """
    block = {} if raw is None else raw
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a mapping, got {raw!r}")
    spec = {f.name: f for f in fields(cls)}
    required = {k for k, f in spec.items() if f.default is MISSING and f.default_factory is MISSING}
    _require_keys(block, set(spec), required, name)
    parse = lambda k: parsers.get(k) or spec[k].metadata.get("parse", _real)  # noqa: E731
    return _entry(name, cls, **{k: parse(k)(v, f"{name}.{k}") for k, v in block.items()})


def _field(default, parse):
    """A config field: its default (MISSING if the key is required) and the parser of its YAML value."""
    return field(default=default, metadata={"parse": parse})


def _block_field(cls):
    """A config field holding the block `cls`, read by `_block`; absent, it takes the defaults of `cls`."""
    return field(default_factory=cls, metadata={"parse": lambda raw, where: _block(raw, where, cls)})


@dataclass
class CavityConfig:
    omega_c_cm1: float = _field(MISSING, _frequency)
    # exactly one of lambda_au / ratio is given; parsing resolves the other, within the same bound
    lambda_au: Optional[float] = _field(None, _coupling)
    ratio: Optional[float] = _field(None, _non_negative)
    polarization: Tuple[float, float, float] = _field((1.0, 0.0, 0.0), _polarization)
    bilinear: bool = _field(True, _flag)
    self_polarization: bool = _field(True, _flag)

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
    dt_fs: float = _field(0.25, _positive)
    duration_fs: float = 1000.0
    stride: int = _field(4, _count(1))

    def n_steps(self) -> int:
        return int(round(self.duration_fs / self.dt_fs))


@dataclass
class LaunchConfig:
    sic_displacement_bohr: float = PTA_LAUNCH_SIC_BOHR
    sif_stretch_bohr: float = PTA_LAUNCH_SIF_BOHR


@dataclass
class EnsembleConfig:
    temperature_K: float = _field(300.0, _non_negative)
    n_trajectories: int = _field(16, _count(1))
    seed: int = _field(2026, _integer)
    resample_T_K: Optional[float] = _field(None, _optional(_non_negative))
    window_fs: Tuple[float, float] = _field(
        (0.0, 700.0), _checked(_list_of(_real, 2), lambda w: 0 <= w[0] < w[1], "must be an increasing pair from 0 fs")
    )
    aim: Optional[Tuple[int, int]] = _field((0, 1), _optional(_list_of(_integer, 2)))
    launch: LaunchConfig = _block_field(LaunchConfig)


@dataclass
class OutputsConfig:
    directory: str = _field("out", _text)
    formats: Tuple[str, ...] = _field(
        ("csv", "json"),
        _non_empty(_list_of(_checked(lambda raw, where: raw, lambda f: f in ("csv", "json"), "must be csv or json"))),
    )


@dataclass
class SpectrumConfig:
    lambda_list_au: Optional[Tuple[float, ...]] = _field(None, _optional(_non_empty(_list_of(_coupling))))
    broadening_cm1: float = _field(30.0, _broadening)


@dataclass
class ScanConfig:
    omega_list_cm1: Optional[Tuple[float, ...]] = _field(None, _optional(_non_empty(_list_of(_frequency))))
    ratio_list: Optional[Tuple[float, ...]] = _field(None, _optional(_non_empty(_list_of(_non_negative))))


@dataclass
class AnalyzeConfig:
    runs: Tuple[str, ...] = _field((), _list_of(_text))
    correlation_window: int = _field(64, _count(2))
    bonds: Tuple[Tuple[int, int], ...] = _field(((1, 3), (1, 0)), _list_of(_list_of(_integer, 2)))


@dataclass
class RunConfig:
    system_block: dict
    cavity: CavityConfig = _block_field(CavityConfig)
    dynamics: DynamicsConfig = _block_field(DynamicsConfig)
    ensemble: EnsembleConfig = _block_field(EnsembleConfig)
    outputs: OutputsConfig = _block_field(OutputsConfig)
    spectrum: SpectrumConfig = _block_field(SpectrumConfig)
    scan: ScanConfig = _block_field(ScanConfig)
    analyze: AnalyzeConfig = _block_field(AnalyzeConfig)

    def build_system(self) -> ModelSystem:
        """Instantiate the system block's ModelSystem.

        Every value an inline system's model classes reject is a ConfigError;
        one raised for a single particle, bond or coupling names that entry.
        """
        if self.system_block.get("builtin") == "pta_surrogate":
            return build_pta_surrogate()
        try:
            return _build_inline(self.system_block)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def launch_positions(self, system: ModelSystem) -> np.ndarray:
        if self.system_block.get("builtin") == "pta_surrogate":
            with np.errstate(over="ignore", invalid="ignore"):  # _geometry names the overflow of a far launch
                return _entry("ensemble.launch", pta_launch_positions, system, **asdict(self.ensemble.launch))
        return system.reference_positions.copy()

    def scan_conditions(self) -> Tuple[str, list]:
        """The scan's name and each condition as (config key, omega_c_cm1, ratio): a resonance scan of the
        frequency list at the cavity's ratio, else a coupling scan of the ratio list at its frequency."""
        scan, c = self.scan, self.cavity
        if scan.omega_list_cm1 is not None:
            return "resonance_scan", [(f"scan.omega_list_cm1[{k}]", w, c.ratio) for k, w in enumerate(scan.omega_list_cm1)]
        return "coupling_scan", [(f"scan.ratio_list[{k}]", c.omega_c_cm1, r) for k, r in enumerate(scan.ratio_list or ())]

    def resolved_dict(self) -> dict:
        d = {f.name: asdict(getattr(self, f.name)) for f in fields(self)[1:]}
        return json.loads(json.dumps({"system": self.system_block, **d}, sort_keys=True))


def _parse_system(block: dict) -> dict:
    allowed = {"builtin", "particles", "positions_bohr", "bonds", "couplings"}
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


def _entry(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its rejection of the values prefixed by the config entry `where`."""
    try:
        return build(*args, **kwargs)
    except CalibrationError as exc:
        raise CalibrationError(f"{where}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _bond(raw, where: str):
    """An inline bond: the fields of a harmonic bond, or the calibration targets of the reactive bond."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind == "harmonic":
        return _block({k: v for k, v in raw.items() if k != "kind"}, where, HarmonicBond, i=_integer, j=_integer)
    if kind != "reactive":
        raise ConfigError(f"{where} must be a mapping of kind 'harmonic' or 'reactive', got {raw!r}")
    keys = {"kind", "i", "j", "r0", "r_ts", "barrier_ev", "curvature_min", "curvature_ts"}
    _require_keys(raw, keys, keys, where)
    num = lambda key: _real(raw[key], f"{where}.{key}")  # noqa: E731
    targets = (num(key) for key in ("r0", "r_ts", "curvature_min", "curvature_ts"))
    well = _entry(where, calibrate_reactive_bond, num("barrier_ev") / EV_PER_HARTREE, *targets)
    return _entry(where, ReactiveBond, _integer(raw["i"], f"{where}.i"), _integer(raw["j"], f"{where}.j"), well)


def _build_inline(system_block: dict) -> ModelSystem:
    particles = _list_of(lambda raw, where: _block(raw, where, Particle, label=_text, charge=_charge))(
        system_block["particles"], "particles"
    )
    bonds = _list_of(_bond)(system_block["bonds"], "bonds")
    couplings = _list_of(lambda raw, where: _block(raw, where, CouplingTerm, bond_a=_integer, bond_b=_integer))(
        system_block.get("couplings", []), "couplings"
    )
    positions = _list_of(_list_of(_real, 3), len(particles))(system_block["positions_bohr"], "positions_bohr")
    return ModelSystem(
        particles=particles,
        bonds=bonds,
        couplings=couplings,
        reference_positions=np.array(positions, dtype=float).reshape(-1),
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration, with libyaml's loader where PyYAML has it.

    Both loaders share SafeLoader's constructor and resolver; only a syntax error's wording differs.
    """
    try:
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except UnicodeError as exc:  # libyaml cannot encode a lone surrogate to UTF-8
        raise ConfigError(f"config is not valid UTF-8: {exc}") from None
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


def _parse_blocks(raw) -> RunConfig:
    """Read every block by the parser on its `RunConfig` field, then check the rules across fields."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of blocks")
    blocks = fields(RunConfig)[1:]
    _require_keys(raw, {"system"} | {f.name for f in blocks}, {"system", "cavity"}, "config")
    system_block = _parse_system(raw["system"])
    parsed = {f.name: f.metadata["parse"](raw[f.name], f.name) for f in blocks if f.name in raw}
    config = RunConfig(system_block, **parsed)
    cavity, dynamics, ensemble = config.cavity, config.dynamics, config.ensemble

    if (cavity.lambda_au is None) == (cavity.ratio is None):
        raise ConfigError("cavity block needs exactly one of lambda_au / ratio")
    if cavity.ratio is None:
        cavity.ratio = float(coupling_ratio(cavity.lambda_au, cavity.omega_c_cm1 / CM1_PER_HARTREE))
    else:
        cavity.lambda_au = _resolved_coupling(cavity.ratio, cavity.omega_c_cm1, "cavity.ratio")

    # the step count indexes a range of frames, so it must fit a Py_ssize_t
    if not 1 <= dynamics.duration_fs / dynamics.dt_fs < np.iinfo(np.intp).max:
        raise ConfigError(f"dynamics.duration_fs / dt_fs must be at least 1 and below {np.iinfo(np.intp).max}")

    n_steps, stride = dynamics.n_steps(), dynamics.stride
    # the time the run records for its last frame (dynamics.frame_times), which may fall ulps short of duration_fs
    last_frame_fs = au_to_fs(n_steps // stride * stride * fs_to_au(dynamics.dt_fs))
    if ensemble.window_fs[1] > last_frame_fs + TIME_TOL_FS:
        raise ConfigError(f"ensemble.window_fs ends after the last recorded frame, at {last_frame_fs!r} fs")
    if not window_frames(fs_to_au(dynamics.dt_fs), n_steps, stride, ensemble.window_fs):
        raise ConfigError(
            f"ensemble.window_fs holds no recorded frame; frames are {stride * dynamics.dt_fs:g} fs apart"
        )

    if config.scan.omega_list_cm1 is not None and config.scan.ratio_list is not None:
        raise ConfigError("scan block takes omega_list_cm1 or ratio_list, not both")
    for key, omega_cm1, ratio in config.scan_conditions()[1]:
        _resolved_coupling(ratio, omega_cm1, key)
    return config


def _resolved_coupling(ratio: float, omega_c_cm1: float, where: str) -> float:
    """The coupling a ratio resolves to at a cavity frequency, within lambda_au's bound."""
    with np.errstate(over="ignore"):  # an overflow to inf fails the bound
        return _coupling(float(lambda_for_ratio(ratio, omega_c_cm1 / CM1_PER_HARTREE)), f"{where}'s lambda_au")


def config_hash(config: RunConfig) -> str:
    blob = json.dumps(config.resolved_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def make_manifest(config: RunConfig, command: str) -> dict:
    """Self-describing provenance record written next to every output set.

    The numpy and BLAS builds are recorded because LAPACK's `eigh` output,
    and so every normal-mode table, may differ in its last bits between them.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "package": "cavimd",
        "version": _pkg_version,
        "numpy_version": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config_sha256": config_hash(config),
        "rng_algorithm": RNG_ALGORITHM,
        "unit_constants": UNIT_TABLE,
        "resolved_config": config.resolved_dict(),
    }
