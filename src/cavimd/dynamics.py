"""Velocity-Verlet propagation of the coupled nuclear + photon system.

Nuclei and photon coordinate advance in one joint symplectic step: all
forces depend on coordinates only (positions and q), so the scheme is the
plain velocity Verlet on the extended phase space, time reversible and
second order. A single shared timestep is used for both subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import model as _model
from .cavity import CavityMode, FullState, PhotonState, cavity_energy, coupling_terms, kinetic_energy
from .model import ModelSystem
from .units import au_to_fs

#: a bond stretched past this multiple of the barrier position counts as dissociated
DISSOCIATION_FACTOR = 5.0


class IntegrationError(RuntimeError):
    """Propagation failure (non-finite forces or coordinates)."""


@dataclass
class Trajectory:
    """Recorded time series of one propagation (all values atomic units)."""

    dt: float
    stride: int
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
        d = self.positions[:, 3 * i : 3 * i + 3] - self.positions[:, 3 * j : 3 * j + 3]
        return np.linalg.norm(d, axis=1)


@dataclass(frozen=True)
class ReactionEvent:
    """First crossing of the reactive-bond threshold, if any."""

    occurred: bool
    crossing_time_fs: Optional[float]
    threshold_bohr: float


def _diagnose_nonfinite(system: ModelSystem, x: np.ndarray) -> str:
    """Name the first bonded term that evaluates non-finite at x."""
    pts = x.reshape(-1, 3)
    if not np.all(np.isfinite(x)):
        return "coordinates"
    for k, b in enumerate(system.bonds):
        r = float(np.linalg.norm(pts[b.i] - pts[b.j]))
        if not np.isfinite(b.energy(r)) or not np.isfinite(b.d1(r)):
            return f"bond {k} ({b.kind}, particles {b.i}-{b.j}, r={r:.3g})"
    return "coupling terms"


class _Propagator:
    """Shared force evaluation for single steps and full propagation."""

    def __init__(self, system: ModelSystem, mode: Optional[CavityMode]):
        self.system = system
        self.mode = mode
        self.masses3 = system.masses3
        self.dipole = system.dipole.value
        if mode is not None:
            self.deps = _model.dipole_gradient(system).T @ mode.polarization

    def accelerations(self, x: np.ndarray, q: float) -> Tuple[np.ndarray, float]:
        try:
            f = _model.forces(self.system, x)
        except ValueError as exc:
            raise IntegrationError(
                f"force evaluation failed: {exc}; offending term: "
                f"{_diagnose_nonfinite(self.system, np.asarray(x, dtype=float))}"
            ) from None
        a_q = 0.0
        mode = self.mode
        if mode is not None:
            a_q, scale = coupling_terms(mode, q, float(mode.polarization @ self.dipole(x)))
            # skipping a zero scale keeps lambda = 0 bit-identical to matter-only runs
            if scale != 0.0:
                f = f - scale * self.deps
        if not np.all(np.isfinite(f)) or not np.isfinite(a_q):
            raise IntegrationError(
                "non-finite forces; offending term: " + _diagnose_nonfinite(self.system, x)
            )
        return f / self.masses3, a_q

    def energies(self, x, v, q, p, mu):
        epot = _model.potential_energy(self.system, x)
        ekin = kinetic_energy(self.system, v)
        ecav = 0.0
        if self.mode is not None:
            ecav = cavity_energy(self.mode, PhotonState(q, p), mu)
        return epot, ekin, ecav


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
    monitor: Optional[Tuple[int, int, float]] = None,
) -> Tuple[Trajectory, ReactionEvent]:
    """Propagate, record every `stride`-th step, and flag the first bond crossing.

    `monitor` is (particle_i, particle_j, threshold_bohr); by default the
    designated reactive bond is watched with its barrier position as the
    threshold. Deterministic for identical inputs.
    """
    if not dt > 0:
        raise ValueError("timestep must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if monitor is None and system.reactive_bond_index is not None:
        rb = system.reactive_bond
        monitor = (rb.i, rb.j, rb.r_ts)

    prop = _Propagator(system, mode)
    x = state.positions.copy()
    v = state.velocities.copy()
    q, p = state.photon.q, state.photon.p
    t0 = state.time

    n_frames = n_steps // stride + 1
    n3 = x.size
    times = np.empty(n_frames)
    xs = np.empty((n_frames, n3))
    vs = np.empty((n_frames, n3))
    qs = np.empty(n_frames)
    ps = np.empty(n_frames)
    epot = np.empty(n_frames)
    ekin = np.empty(n_frames)
    ecav = np.empty(n_frames)
    mus = np.empty((n_frames, 3))

    def record(frame, step):
        times[frame] = t0 + step * dt
        xs[frame] = x
        vs[frame] = v
        qs[frame] = q
        ps[frame] = p
        mus[frame] = prop.dipole(x)
        epot[frame], ekin[frame], ecav[frame] = prop.energies(x, v, q, p, mus[frame])

    record(0, 0)
    a, a_q = prop.accelerations(x, q)
    frame = 1
    for step in range(1, n_steps + 1):
        v_half = v + 0.5 * dt * a
        p_half = p + 0.5 * dt * a_q
        x = x + dt * v_half
        q = q + dt * p_half
        a, a_q = prop.accelerations(x, q)
        v = v_half + 0.5 * dt * a
        p = p_half + 0.5 * dt * a_q
        if step % stride == 0:
            record(frame, step)
            frame += 1

    traj = Trajectory(
        dt=dt,
        stride=stride,
        times=times,
        positions=xs,
        velocities=vs,
        photon_q=qs,
        photon_p=ps,
        epot=epot,
        ekin=ekin,
        ecav=ecav,
        etot=epot + ekin + ecav,
        dipole=mus,
    )
    if system.reactive_bond_index is not None:
        rb = system.reactive_bond
        traj.dissociated = bool(
            np.any(traj.bond_series(rb.i, rb.j) > DISSOCIATION_FACTOR * rb.r_ts)
        )
    if monitor is None:
        return traj, ReactionEvent(False, None, float("inf"))
    i, j, threshold = monitor
    event = detect_reaction(traj, (i, j), threshold)
    return traj, event


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
    dist = trajectory.bond_series(i, j)
    above = dist > threshold
    if not above.any():
        return ReactionEvent(False, None, threshold)
    k = int(np.argmax(above))
    t = trajectory.times
    if k == 0:
        t_cross = t[0]
    else:
        d0, d1 = dist[k - 1], dist[k]
        frac = (threshold - d0) / (d1 - d0) if d1 != d0 else 1.0
        t_cross = t[k - 1] + frac * (t[k] - t[k - 1])
    return ReactionEvent(True, float(au_to_fs(t_cross)), threshold)
