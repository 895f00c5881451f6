"""Thermal sampling, batch trajectory execution, and reaction statistics.

Sampling follows a two-stage protocol: Boltzmann velocities at the bath
temperature (optionally re-aimed so the projectile particle moves toward
its target), then optional resampling of additional members around a base
velocity set at a small relative temperature. Centre-of-mass momentum is
removed after every stage.

Randomness comes from numpy's counter-based Philox generator keyed by the
spec seed, so batches are reproducible across platforms and independent of
execution order and of the batch a trajectory runs in. Helper `make_specs`
derives per-trajectory seeds as base_seed XOR trajectory index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cavity import CavityMode, FullState, PhotonState, zero_field_init
from .dynamics import TIME_TOL_FS, IntegrationError, ReactionEvent, Trajectory, frame_times, run_rows
from .dynamics import propagate  # noqa: F401  (bound here for wrappers such as perfbench/tracer.py)
from .model import ModelSystem, dipole
from .units import KB_HARTREE_PER_K, au_to_fs

#: identifier recorded in manifests so runs can be reproduced elsewhere
RNG_ALGORITHM = "numpy.random.Philox (counter-based; stream key = seed XOR trajectory index)"

class WorkerError(RuntimeError):
    """A worker process ended without returning its result."""


@dataclass(frozen=True)
class SamplingSpec:
    """How to draw one trajectory's initial velocities."""

    temperature_K: float
    seed: int
    aim: Optional[Tuple[int, int]] = None  # (projectile, target) particle indices
    resample: Optional[Tuple[int, float]] = None  # (base spec index, T_rel Kelvin)

    def __post_init__(self):
        if self.temperature_K < 0:
            raise ValueError("temperature must be non-negative")
        if self.resample is not None and self.resample[1] < 0:
            raise ValueError("relative temperature must be non-negative")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))


def _remove_com(system: ModelSystem, v: np.ndarray) -> np.ndarray:
    m = system.masses
    vv = v.reshape(-1, 3)
    vcom = (m[:, None] * vv).sum(axis=0) / m.sum()
    vv = vv - vcom
    # the elementwise subtraction leaves an O(eps * sum|m v|) residual; dump
    # an exactly-summed correction on the heaviest particle so the total
    # momentum is zero to below 1e-14 even for heavy beads
    k = int(np.argmax(m))
    for c in range(3):
        residual = math.fsum(float(mi) * float(vi) for mi, vi in zip(m, vv[:, c]))
        vv[k, c] -= residual / m[k]
    return vv.reshape(-1)


def _boltzmann_draw(system: ModelSystem, temperature_K: float, rng) -> np.ndarray:
    sigma = np.sqrt(KB_HARTREE_PER_K * temperature_K / system.masses)
    return (sigma[:, None] * rng.standard_normal((system.n_particles, 3))).reshape(-1)


def aim_reflect(velocity: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Mirror the velocity component along `direction` if it points away.

    Speed is preserved exactly; only the sign of the projection flips, and
    only when it is negative.
    """
    comp = float(velocity @ direction)
    if comp < 0:
        return velocity - 2.0 * comp * direction
    return velocity.copy()


def sample_velocities(
    system: ModelSystem, spec: SamplingSpec, positions: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boltzmann velocities, aimed projectile, COM momentum removed.

    Each Cartesian component is drawn from a zero-mean normal with
    stddev sqrt(kB T / M_i). The aim step conditionally reflects the
    projectile's velocity component along the projectile->target line so it
    is non-negative toward the target; speeds are preserved exactly.
    """
    rng = _rng(spec.seed)
    v = _boltzmann_draw(system, spec.temperature_K, rng)
    if spec.aim is not None:
        if positions is None:
            positions = system.reference_positions
        if positions is None:
            raise ValueError("aiming requires positions")
        proj, target = spec.aim
        pts = np.asarray(positions, dtype=float).reshape(-1, 3)
        u = pts[target] - pts[proj]
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            raise ValueError("projectile and target coincide")
        u /= norm
        v[3 * proj : 3 * proj + 3] = aim_reflect(v[3 * proj : 3 * proj + 3], u)
    return _remove_com(system, v)


def resample_around(
    system: ModelSystem, base_velocities: np.ndarray, spec: SamplingSpec, count: int
) -> List[np.ndarray]:
    """`count` velocity sets spread around `base_velocities` at T_rel.

    Each member is base + a fresh Boltzmann draw at the relative
    temperature, with the COM momentum removed again. Deterministic per
    spec seed; member k uses the stream keyed by seed XOR k.
    """
    if spec.resample is None:
        raise ValueError("spec has no resample block")
    if count < 1:
        raise ValueError("count must be >= 1")
    base = np.asarray(base_velocities, dtype=float)
    t_rel = spec.resample[1]
    out = []
    for k in range(count):
        rng = _rng(spec.seed ^ k)
        v = base + _boltzmann_draw(system, t_rel, rng)
        out.append(_remove_com(system, v))
    return out


def make_specs(
    base_seed: int,
    count: int,
    temperature_K: float,
    aim: Optional[Tuple[int, int]] = None,
    resample_T_K: Optional[float] = None,
) -> List[SamplingSpec]:
    """Per-trajectory specs with seeds base_seed XOR index.

    With `resample_T_K` set, spec 0 is the base draw at the bath
    temperature and every later spec resamples around it at the relative
    temperature (the two-stage protocol).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    specs = [SamplingSpec(temperature_K, base_seed ^ 0, aim=aim)]
    for k in range(1, count):
        resample = (0, resample_T_K) if resample_T_K is not None else None
        specs.append(SamplingSpec(temperature_K, base_seed ^ k, aim=aim, resample=resample))
    return specs


def resolve_velocities(
    system: ModelSystem, specs: Sequence[SamplingSpec], positions: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Initial velocities for every spec, honouring resample references."""
    velocities: List[Optional[np.ndarray]] = [None] * len(specs)
    for k, spec in enumerate(specs):
        if spec.resample is None:
            velocities[k] = sample_velocities(system, spec, positions)
    for k, spec in enumerate(specs):
        if spec.resample is not None:
            base_idx = spec.resample[0]
            base = velocities[base_idx]
            if base is None:
                raise ValueError(f"spec {k} resamples around unresolved spec {base_idx}")
            velocities[k] = resample_around(system, base, spec, 1)[0]
    return velocities  # type: ignore[return-value]


@dataclass
class TrajectoryRecord:
    """Per-trajectory outcome inside an ensemble."""

    index: int
    seed: int
    event: Optional[ReactionEvent]
    mean_bond_bohr: Optional[float]
    dissociated: bool = False
    error: Optional[str] = None


@dataclass(frozen=True)
class Aggregates:
    """Windowed ensemble statistics: what every condition reports."""

    reaction_fraction: float
    mean_bond_bohr: float
    stderr_bond_bohr: float


@dataclass(frozen=True)
class EnsembleResult(Aggregates):
    """Batch outcomes plus the reactive-bond series needed for window statistics."""

    records: List[TrajectoryRecord]
    times_fs: np.ndarray
    bond_series: np.ndarray  # (n_ok, frames) reactive bond length, bohr
    series_index: List[int]  # record index per bond_series row
    threshold_bohr: float
    trajectories: Optional[List[Trajectory]] = None

    @property
    def n_trajectories(self) -> int:
        return len(self.records)


def launch_states(
    system: ModelSystem,
    mode: Optional[CavityMode],
    specs: Sequence[SamplingSpec],
    positions: np.ndarray,
) -> List[FullState]:
    """Initial phase-space point of every spec's trajectory at `positions`.

    Velocities come from `resolve_velocities`; the photon rests in the
    zero-field condition for the launch dipole, or at q = 0 without a cavity.
    """
    positions = np.asarray(positions, dtype=float)
    if mode is None:
        photon = PhotonState(0.0, 0.0)
    else:
        photon = zero_field_init(mode, dipole(system, positions))
    velocities = resolve_velocities(system, specs, positions)
    return [FullState(positions.copy(), v, photon, 0.0) for v in velocities]


#: (fn, fixed, items) of the `map_chunks` call a forked worker serves
_chunk_job: Optional[tuple] = None


def _set_chunk_job(*job) -> None:
    global _chunk_job
    _chunk_job = job


def _run_chunk(a: int, b: int) -> None:
    fn, fixed, items = _chunk_job
    fn((*fixed, items[a:b]))


def map_chunks(fn, fixed: tuple, items: Sequence, n_workers: int, name) -> None:
    """`fn((*fixed, chunk))` per contiguous chunk of `items`, for its side effects.

    At most `n_workers` chunks, none empty. One chunk runs in this process;
    several run one per forked worker, all joined before this returns. A
    worker inherits `fn`, `fixed` and `items` from this process and receives
    only its chunk's bounds, so nothing of them is pickled. If a worker dies,
    WorkerError names, by `name(chunk)`, every chunk without a result; the
    dead worker ran one of them.
    """
    n = max(1, min(n_workers, len(items)))
    bounds = [len(items) * k // n for k in range(n + 1)]
    chunks = list(zip(bounds, bounds[1:]))
    if n == 1:
        fn((*fixed, items))
        return
    # imported here: a run in one process need not load them (20-40 ms of start-up)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # forked workers share the parent's pages, get the initializer's
    # arguments without pickling and leave no process behind; leaving the
    # block joins them
    missing = []
    with ProcessPoolExecutor(
        n,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_chunk_job,
        initargs=(fn, fixed, items),
    ) as pool:
        for (a, b), future in [(chunk, pool.submit(_run_chunk, *chunk)) for chunk in chunks]:
            try:
                future.result()
            except BrokenProcessPool:
                missing.append(name(items[a:b]))
    if missing:
        raise WorkerError(f"a worker process died: no result for {', '.join(missing)}")


def run_conditions(
    system: ModelSystem,
    conditions: Sequence[Tuple[Optional[CavityMode], Sequence[SamplingSpec]]],
    *,
    positions: np.ndarray,
    dt: float,
    n_steps: int,
    stride: int = 4,
    window_fs: Optional[Tuple[float, float]] = None,
    keep_trajectories: bool = False,
) -> List[EnsembleResult]:
    """One ensemble per (mode, specs) condition, all propagated as one batch.

    Every spec of every condition is one row of the batch, launched by
    `launch_states`, and the batch runs in this process: a step costs
    mostly the same whatever the batch size, so splitting it across worker
    processes did not pay. A trajectory reacts when the reactive bond first
    crosses its barrier position r_ts. Per-trajectory integration errors are
    recorded on the ensemble instead of aborting the batch.
    """
    if len(conditions) == 0:
        raise ValueError("at least one condition is required")
    if any(len(specs) == 0 for _, specs in conditions):
        raise ValueError("at least one sampling spec is required")
    rb = system.reactive_bond
    rows = []
    for mode, specs in conditions:
        rows += [(mode, state) for state in launch_states(system, mode, specs, positions)]
    modes, states = zip(*rows)
    observed = run_rows(system, modes, states, dt, n_steps, stride, keep=keep_trajectories)
    times_fs = au_to_fs(frame_times(dt, n_steps, stride))
    results, start = [], 0
    for _, specs in conditions:
        chunk = slice(start, start + len(specs))
        start = chunk.stop
        results.append(_ensemble_result(specs, observed[chunk], times_fs, rb, window_fs))
    return results


def _ensemble_result(specs, observed, times_fs, rb, window_fs):
    """One condition's result from each row's `run_rows` outcome."""
    records: List[TrajectoryRecord] = []
    series_rows = []
    series_index = []
    kept = []
    for k, (spec, outcome) in enumerate(zip(specs, observed)):
        if isinstance(outcome, IntegrationError):
            records.append(TrajectoryRecord(k, spec.seed, None, None, error=str(outcome)))
            continue
        series, event, dissociated, trajectory = outcome
        records.append(TrajectoryRecord(k, spec.seed, event, float(series.mean()), dissociated=dissociated))
        series_rows.append(series)
        series_index.append(k)
        kept.append(trajectory)
    if not series_rows:
        raise IntegrationError(f"every trajectory in the batch failed (first: {records[0].error})")
    if window_fs is None:
        window_fs = (float(times_fs[0]), float(times_fs[-1]))
    bond_series = np.vstack(series_rows)
    events = [records[k].event for k in series_index]
    return EnsembleResult(
        records=records,
        times_fs=times_fs,
        bond_series=bond_series,
        series_index=series_index,
        threshold_bohr=rb.r_ts,
        **vars(_window_statistics(times_fs, bond_series, events, window_fs)),
        # every finished row keeps its trajectory, or none does
        trajectories=None if kept[0] is None else kept,
    )


def run_ensemble(
    system: ModelSystem, mode: Optional[CavityMode], specs: Sequence[SamplingSpec], **kwargs
) -> EnsembleResult:
    """One propagation per spec: `run_conditions` (same keyword arguments) of one condition."""
    return run_conditions(system, [(mode, specs)], **kwargs)[0]


def reaction_statistics(result: EnsembleResult, window_fs: Tuple[float, float]) -> Aggregates:
    """Window statistics: per-trajectory time-averaged bond length, their
    mean and standard error, and the fraction of first crossings inside the
    window."""
    events = [result.records[k].event for k in result.series_index]
    return _window_statistics(result.times_fs, result.bond_series, events, window_fs)


def _window_statistics(times, bond_series, events, window_fs) -> Aggregates:
    """`reaction_statistics` of the rows of `bond_series`, with `events` their reaction events."""
    t0, t1 = float(window_fs[0]), float(window_fs[1])
    if not t0 < t1:
        raise ValueError("window must have positive extent")
    if t0 < times[0] - TIME_TOL_FS or t1 > times[-1] + TIME_TOL_FS:
        raise ValueError(
            f"window [{t0}, {t1}] fs outside trajectory span [{times[0]}, {times[-1]}] fs"
        )
    mask = (times >= t0 - TIME_TOL_FS) & (times <= t1 + TIME_TOL_FS)
    if mask.sum() < 1:
        raise ValueError("window contains no frames")
    per_traj = bond_series[:, mask].mean(axis=1)
    n = per_traj.size
    mean = float(per_traj.mean())
    stderr = float(per_traj.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    crossings = 0
    for ev in events:
        if ev is not None and ev.occurred and t0 <= ev.crossing_time_fs <= t1:
            crossings += 1
    return Aggregates(reaction_fraction=crossings / n, mean_bond_bohr=mean, stderr_bond_bohr=stderr)
