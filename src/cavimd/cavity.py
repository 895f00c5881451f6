"""Single-mode light-matter coupling in the length gauge.

The photon is a classical unit-mass oscillator coordinate q with

    H_cav = p^2/2 + omega_c^2 q^2 / 2
            + omega_c * q * lambda * (eps . mu)      (bilinear term)
            + lambda^2 * (eps . mu)^2 / 2            (self-polarization)

where mu is the molecular dipole and eps the fixed cavity polarization.
The vacuum permittivity and mode volume are absorbed into the single
coupling strength lambda; the dimensionless coupling ratio
lambda / sqrt(2 omega_c) is what frequency scans hold fixed. Both
interaction terms carry switches so the self-polarization-only spectrum
variant can be reproduced; with both on the cavity energy is a completed
square and therefore never negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import model as _model
from .model import ModelSystem


@dataclass(frozen=True)
class CavityMode:
    """Cavity frequency, coupling strength and polarization (+ term switches)."""

    omega_c: float  # Hartree (angular frequency, a.u.)
    lambda_mag: float  # a.u. coupling strength
    polarization: np.ndarray
    self_polarization_on: bool = True
    bilinear_on: bool = True

    def __post_init__(self):
        if not self.omega_c > 0:
            raise ValueError("cavity frequency must be positive")
        if not self.lambda_mag >= 0:
            raise ValueError("coupling strength must be non-negative")
        eps = np.asarray(self.polarization, dtype=float)
        if eps.shape != (3,):
            raise ValueError("polarization must be a 3-vector")
        if abs(np.linalg.norm(eps) - 1.0) > 1e-9:
            raise ValueError("polarization must be a unit vector")
        object.__setattr__(self, "polarization", eps)


@dataclass(frozen=True)
class PhotonState:
    """Classical photon phase-space point."""

    q: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.q) and np.isfinite(self.p)):
            raise ValueError("photon state must be finite")


@dataclass
class FullState:
    """Nuclear + photonic phase space at one instant (positions/velocities flat 3N)."""

    positions: np.ndarray
    velocities: np.ndarray
    photon: PhotonState
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have matching shapes")

    def copy(self) -> "FullState":
        return FullState(
            self.positions.copy(),
            self.velocities.copy(),
            PhotonState(self.photon.q, self.photon.p),
            self.time,
        )


def coupling_ratio(lambda_mag: float, omega_c: float) -> float:
    """Dimensionless coupling lambda / sqrt(2 omega_c)."""
    if not omega_c > 0:
        raise ValueError("cavity frequency must be positive")
    if lambda_mag < 0:
        raise ValueError("coupling strength must be non-negative")
    return lambda_mag / np.sqrt(2.0 * omega_c)


def lambda_for_ratio(ratio: float, omega_c: float) -> float:
    """Coupling strength giving the requested ratio at omega_c (exact inverse)."""
    if not omega_c > 0:
        raise ValueError("cavity frequency must be positive")
    if ratio < 0:
        raise ValueError("coupling ratio must be non-negative")
    return ratio * np.sqrt(2.0 * omega_c)


def zero_field_init(mode: CavityMode, mu) -> PhotonState:
    """Photon displacement cancelling the initial cavity force: q0 = -lambda (eps.mu)/omega."""
    mu = np.asarray(mu, dtype=float)
    q0 = -mode.lambda_mag * float(mode.polarization @ mu) / mode.omega_c
    return PhotonState(q=q0, p=0.0)


def coupling_terms(mode: CavityMode, q: float, mu_eps: float) -> Tuple[float, float]:
    """Photon acceleration and nuclear-force scale for dipole projection mu_eps = eps.mu.

    The cavity force on the nuclei is -scale * D^T eps with D the constant
    dipole gradient; this is the only place the coupling derivatives are
    written down.
    """
    a_q = -mode.omega_c**2 * q
    scale = 0.0
    if mode.bilinear_on:
        a_q -= mode.omega_c * mode.lambda_mag * mu_eps
        scale += mode.omega_c * q
    if mode.self_polarization_on:
        scale += mode.lambda_mag * mu_eps
    return a_q, scale * mode.lambda_mag


def photon_force(mode: CavityMode, photon: PhotonState, mu) -> float:
    """Acceleration of the photon coordinate."""
    mu_eps = float(mode.polarization @ np.asarray(mu, dtype=float))
    return coupling_terms(mode, photon.q, mu_eps)[0]


def nuclear_cavity_force(
    mode: CavityMode, photon: PhotonState, system: ModelSystem, positions
) -> np.ndarray:
    """Force on the nuclei from the bilinear + self-polarization terms.

    With a constant dipole gradient D this is a scalar prefactor times the
    fixed vector D^T eps.
    """
    mu_eps = float(mode.polarization @ _model.dipole(system, positions))
    _, scale = coupling_terms(mode, photon.q, mu_eps)
    return -scale * (_model.dipole_gradient(system).T @ mode.polarization)


def cavity_energy(mode: CavityMode, photon: PhotonState, mu) -> float:
    """Photon plus interaction energy for the current dipole."""
    mu = np.asarray(mu, dtype=float)
    proj = float(mode.polarization @ mu)
    e = 0.5 * photon.p**2 + 0.5 * mode.omega_c**2 * photon.q**2
    if mode.bilinear_on:
        e += mode.omega_c * photon.q * mode.lambda_mag * proj
    if mode.self_polarization_on:
        e += 0.5 * (mode.lambda_mag * proj) ** 2
    return e


def kinetic_energy(system: ModelSystem, velocities) -> float:
    v = np.asarray(velocities, dtype=float)
    return 0.5 * float(system.masses3 @ (v * v))


def total_energy(system: ModelSystem, mode: CavityMode, state: FullState) -> float:
    """Matter potential + kinetic + cavity energy; the integrator's conserved quantity."""
    mu = _model.dipole(system, state.positions)
    return (
        _model.potential_energy(system, state.positions)
        + kinetic_energy(system, state.velocities)
        + cavity_energy(mode, state.photon, mu)
    )
