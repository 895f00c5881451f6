"""Velocity-Verlet propagation of the coupled nuclear + photon system.

Nuclei and photon coordinate advance in one joint symplectic step: all
forces depend on coordinates only (positions and q), so the scheme is the
plain velocity Verlet on the extended phase space, time reversible and
second order. A single shared timestep is used for both subsystems.

One step advances a whole batch of trajectories, each row with its own
cavity parameters; a single trajectory is a batch of one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import model as _model
from .cavity import (
    CavityMode,
    CavityRows,
    FullState,
    PhotonState,
    cavity_energy,
    coupling_terms,
    dipole_direction,
    kinetic_energy,
    projection,
)
from .model import ModelSystem
from .units import au_to_fs

#: a bond stretched past this multiple of the barrier position counts as dissociated
DISSOCIATION_FACTOR = 5.0

#: frame times (fs) closer than this count as the same time
TIME_TOL_FS = 1e-9


class IntegrationError(RuntimeError):
    """Propagation failure (non-finite forces or coordinates)."""


@dataclass
class Trajectory:
    """Recorded time series of one propagation (all values atomic units)."""

    times: np.ndarray
    positions: np.ndarray  # (frames, 3N)
    velocities: np.ndarray  # (frames, 3N)
    photon_q: np.ndarray
    photon_p: np.ndarray
    epot: np.ndarray
    ekin: np.ndarray
    ecav: np.ndarray
    etot: np.ndarray
    dipole: np.ndarray  # (frames, 3)
    dissociated: bool = False

    @property
    def n_frames(self) -> int:
        return self.times.size

    @property
    def times_fs(self) -> np.ndarray:
        return au_to_fs(self.times)

    def bond_series(self, i: int, j: int) -> np.ndarray:
        """Distance between particles i and j at every frame (bohr)."""
        n3 = self.positions.shape[1]
        if not (0 <= 3 * i + 2 < n3 and 0 <= 3 * j + 2 < n3):
            raise ValueError("particle index out of range")
        return bond_lengths(self.positions, i, j)


def bond_lengths(x: np.ndarray, i: int, j: int) -> np.ndarray:
    """Distance between particles i and j in every row of the (rows, 3N) coordinates `x`."""
    return np.linalg.norm(x[:, 3 * i : 3 * i + 3] - x[:, 3 * j : 3 * j + 3], axis=1)


@dataclass(frozen=True)
class ReactionEvent:
    """First crossing of the reactive-bond threshold, if any."""

    occurred: bool
    crossing_time_fs: Optional[float]
    threshold_bohr: float


class _Propagator:
    """Forces of a batch of rows, each with its own cavity coefficients."""

    def __init__(self, system: ModelSystem, rows: CavityRows):
        self.system = system
        self.rows = rows
        self.masses3 = system.masses3
        self.dipole = system.dipole.value
        self.deps = dipole_direction(system, rows.polarization)

    def accelerations(self, x: np.ndarray, q: np.ndarray):
        """Nuclear (B, 3N) and photon (B,) accelerations; a row the forces fail at comes back non-finite."""
        t = self.system.terms
        f = t.forces(*t.geometry(x))
        rows = self.rows
        a_q, scale = coupling_terms(rows, q, projection(rows.polarization, self.dipole(x)))
        # scale is exactly 0 for lambda = 0 rows, which then move as matter-only ones
        return (f - scale[:, None] * self.deps) / self.masses3, a_q


def _frame_energies(system: ModelSystem, mode: Optional[CavityMode], x, v, q, p):
    """Potential, kinetic and cavity energy and dipole at each of one row's frames x, v, q, p.

    Each sum runs along one frame, so the values are those a frame-by-frame
    evaluation gives. A row without a cavity has zero cavity energy.
    """
    t = system.terms
    mu = system.dipole.value(x)
    epot = t.energy(t.geometry(x)[1])
    ekin = kinetic_energy(system, v)
    ecav = np.zeros(len(q)) if mode is None else cavity_energy(mode, PhotonState(q, p), mu)
    return epot, ekin, ecav, mu


def frame_buffer_bytes(system: ModelSystem, n_rows: int, n_steps: int, stride: int, keep: bool) -> int:
    """Bytes of frame data a `run_rows` call holds at its peak. Per row and frame: the reactive bond's
    length if the system has one and, with `keep`, x and v (3N each), q, p, the time, four energies and
    the dipole. With `keep` also, per frame, what `_frame_energies` holds on one row besides its results,
    bounded by a sum: the index tables its ordered sums cache (one per coordinate, bond and coupling) and
    each step's temporaries, the bond geometry's ends, vectors, squares and two partial sums (14 per
    bond), the energy terms (4 per bond and coupling) and the dipole's or kinetic energy's products (3N each)."""
    n3, nb, nc = 3 * system.n_particles, len(system.bonds), len(system.couplings)
    scratch = (n3 + nb + nc) + 14 * nb + 4 * (nb + nc) + 3 * n3
    per_row = (system.reactive_bond_index is not None) + keep * (2 * n3 + 10)
    return 8 * (n_steps // stride + 1) * (n_rows * per_row + keep * scratch)


def velocity_verlet_step(
    system: ModelSystem, mode: Optional[CavityMode], state: FullState, dt: float
) -> FullState:
    """One joint velocity-Verlet step; exactly reversible under (dt, -v, -p)."""
    traj, _ = propagate(system, mode, state, dt, 1)
    return FullState(
        traj.positions[-1],
        traj.velocities[-1],
        PhotonState(traj.photon_q[-1], traj.photon_p[-1]),
        traj.times[-1],
    )


def propagate(
    system: ModelSystem,
    mode: Optional[CavityMode],
    state: FullState,
    dt: float,
    n_steps: int,
    stride: int = 1,
) -> Tuple[Trajectory, ReactionEvent]:
    """Propagate, record every `stride`-th step, and flag the first reactive-bond crossing.

    The reactive bond is watched with its barrier position as the threshold;
    a system without one never reacts. Deterministic for identical inputs,
    and identical to the same row inside any `propagate_batch`.
    """
    outcome = propagate_batch(system, [mode], [state], dt, n_steps, stride)[0]
    if isinstance(outcome, IntegrationError):
        raise outcome
    return outcome


def propagate_batch(
    system: ModelSystem,
    modes: Sequence[Optional[CavityMode]],
    states: Sequence[FullState],
    dt: float,
    n_steps: int,
    stride: int = 1,
) -> List[Union[Tuple[Trajectory, ReactionEvent], IntegrationError]]:
    """Advance every (mode, state) row together with one array step.

    Returns, per row, what `propagate` returns for it, or the
    IntegrationError that ended it: `run_rows` with its frames kept.
    """
    _, rows = run_rows(system, modes, states, dt, n_steps, stride, keep=True)
    return [row if isinstance(row, IntegrationError) else (row[2], row[0]) for row in rows]


def run_rows(
    system: ModelSystem,
    modes: Sequence[Optional[CavityMode]],
    states: Sequence[FullState],
    dt: float,
    n_steps: int,
    stride: int = 1,
    keep: bool = False,
) -> Tuple[Optional[np.ndarray], List[Union[Tuple[ReactionEvent, bool, Optional[Trajectory]], IntegrationError]]]:
    """The one batch runner: check the batch once, propagate it, watch the reactive bond.

    Returns the reactive bond's length per row and frame (None when no bond
    is watched) and per row its first crossing of r_ts, its dissociation flag
    and, if `keep`, the `Trajectory`, or the IntegrationError that ended it.
    One recorder stores that length, and with `keep` also x, v, q and p;
    without `keep` no frame energies are evaluated. With `keep` a system
    without a reactive bond gets no length and never reacts. A row's outcome
    does not depend on the batch it runs in: every operation on a row is
    elementwise or summed in a fixed order, and a failing row stays in the
    batch, its later frames never read.
    """
    if not dt > 0:
        raise ValueError("timestep must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if len(modes) != len(states) or not states:
        raise ValueError("need one mode per state and at least one state")
    n_rows, n3, n_frames = len(states), 3 * system.n_particles, n_steps // stride + 1
    for k, s in enumerate(states):
        if s.positions.shape != (n3,) or s.velocities.shape != (n3,):
            shapes = f"{s.positions.shape} and {s.velocities.shape}"
            raise ValueError(f"state {k}: positions and velocities have shapes {shapes}, expected 3N = {n3} each")
    rb = None if keep and system.reactive_bond_index is None else system.reactive_bond
    # frame-major, so a window's mean adds each row's lengths frame by frame, in time order
    series = None if rb is None else np.empty((n_frames, n_rows)).T
    if keep:
        # one block per row, so each row's trajectory is a contiguous view
        xs, vs = np.empty((n_rows, n_frames, n3)), np.empty((n_rows, n_frames, n3))
        qs, ps = np.empty((n_rows, n_frames)), np.empty((n_rows, n_frames))

    # an energy-drift ledger can keep each row's running maximum here, storing no more frames
    def record(frame, x, v, q, p):
        if rb is not None:
            series[:, frame] = bond_lengths(x, rb.i, rb.j)
        if keep:
            xs[:, frame], vs[:, frame], qs[:, frame], ps[:, frame] = x, v, q, p

    errors = _integrate(system, modes, states, dt, n_steps, stride, record)
    times = frame_times(dt, n_steps, stride)
    rows = []
    for k, (mode, state) in enumerate(zip(modes, states)):
        if k in errors:
            rows.append(IntegrationError(errors[k]))
            continue
        t = state.time + times
        if rb is None:
            event, dissociated = ReactionEvent(False, None, float("inf")), False
        else:
            event = _first_crossing(series[k], t, rb.r_ts)
            dissociated = bool(np.any(series[k] > DISSOCIATION_FACTOR * rb.r_ts))
        traj = None
        if keep:
            with np.errstate(over="ignore", invalid="ignore"):
                epot, ekin, ecav, mu = _frame_energies(system, mode, xs[k], vs[k], qs[k], ps[k])
            traj = Trajectory(
                times=t, positions=xs[k], velocities=vs[k], photon_q=qs[k], photon_p=ps[k],
                epot=epot, ekin=ekin, ecav=ecav, etot=epot + ekin + ecav, dipole=mu, dissociated=dissociated,
            )
        rows.append((event, dissociated, traj))
    return series, rows


def _integrate(system, modes, states, dt, n_steps, stride, record) -> Dict[int, str]:
    """The one Verlet loop: advance a batch checked by `run_rows`.

    Calls `record(frame, x, v, q, p)` with the whole batch at frame 0 and
    every `stride` steps. Returns, per failed row, why it failed. The loop
    stops early once every row has failed.
    """
    prop = _Propagator(system, CavityRows.of(modes))
    x = np.array([s.positions for s in states], dtype=float)
    v = np.array([s.velocities for s in states], dtype=float)
    q = np.array([s.photon.q for s in states], dtype=float)
    p = np.array([s.photon.p for s in states], dtype=float)
    n_rows = len(states)
    errors: Dict[int, str] = {}

    def accelerations(x, q):
        """The batch's accelerations, recording why each row first turns non-finite."""
        a, a_q = prop.accelerations(x, q)
        if not np.isfinite(a.sum() + a_q.sum()):
            bad = ~(np.isfinite(a).all(axis=1) & np.isfinite(a_q))
            new = [k for k in np.flatnonzero(bad).tolist() if k not in errors]
            if new:
                for k, why in zip(new, _model.failure_reasons(system, x[new])):
                    errors[k] = "non-finite forces; offending term: " + why
        return a, a_q

    half = 0.5 * dt
    # failures are detected row by row above, so overflow on the way is expected
    with np.errstate(over="ignore", invalid="ignore"):
        a, a_q = accelerations(x, q)
        record(0, x, v, q, p)
        for step in range(1, n_steps + 1):
            if len(errors) == n_rows:
                break
            v_half = v + half * a
            p_half = p + half * a_q
            x = x + dt * v_half
            q = q + dt * p_half
            a, a_q = accelerations(x, q)
            v = v_half + half * a
            p = p_half + half * a_q
            if step % stride == 0:
                record(step // stride, x, v, q, p)
    return errors


def frame_times(dt: float, n_steps: int, stride: int) -> np.ndarray:
    """Times (a.u., from t = 0) of the frames `run_rows` records."""
    return np.arange(n_steps // stride + 1) * stride * dt


def window_frames(dt: float, n_steps: int, stride: int, window_fs: Tuple[float, float]) -> range:
    """Indices of the recorded frames inside `window_fs`, within TIME_TOL_FS.

    Frame k's time is au_to_fs(frame_times(...)[k]); bisection finds the
    window's ends without holding every frame time.
    """
    frames = range(n_steps // stride + 1)
    key = lambda k: au_to_fs(k * stride * dt)  # noqa: E731
    first = bisect.bisect_left(frames, window_fs[0] - TIME_TOL_FS, key=key)
    return range(first, bisect.bisect_right(frames, window_fs[1] + TIME_TOL_FS, key=key))


def window_steps(dt: float, n_steps: int, stride: int, window_fs: Optional[Tuple[float, float]]) -> int:
    """Steps up to the first frame past the window's end (all `n_steps` without one).

    That frame is kept: a crossing between it and the frame before can
    interpolate to a time inside the window. A first crossing found later
    lies past the window, and no window mean reads a later frame.
    """
    if window_fs is None:
        return n_steps
    return min(n_steps, window_frames(dt, n_steps, stride, window_fs).stop * stride)


def detect_reaction(
    trajectory: Trajectory, bond_particles: Tuple[int, int], threshold: float
) -> ReactionEvent:
    """First frame pair where the bond length crosses `threshold` (bohr).

    The crossing time is linearly interpolated between the bracketing
    frames. A threshold of zero degenerately fires at the first frame.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    i, j = bond_particles
    return _first_crossing(trajectory.bond_series(i, j), trajectory.times, threshold)


def _first_crossing(dist: np.ndarray, times: np.ndarray, threshold: float) -> ReactionEvent:
    """`detect_reaction` on a bond-length series `dist` recorded at `times` (a.u.)."""
    above = dist > threshold
    if not above.any():
        return ReactionEvent(False, None, threshold)
    k = int(np.argmax(above))
    if k == 0:
        t_cross = times[0]
    else:
        d0, d1 = dist[k - 1], dist[k]
        frac = (threshold - d0) / (d1 - d0) if d1 != d0 else 1.0
        t_cross = times[k - 1] + frac * (times[k] - times[k - 1])
    return ReactionEvent(True, float(au_to_fs(t_cross)), threshold)
