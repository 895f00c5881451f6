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

The coupling arithmetic runs on CavityRows, one entry per row of a batch,
which holds the constant coefficients (omega_c^2 and the switched products)
computed once; the switches enter them as 0/1 factors. The single-mode
functions are one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import model as _model
from .model import ModelSystem


def unit_polarization(polarization) -> np.ndarray:
    """`polarization` as a float 3-vector, checked to be of unit length."""
    eps = np.asarray(polarization, dtype=float)
    if eps.shape != (3,) or not abs(np.linalg.norm(eps) - 1.0) <= 1e-9:
        raise ValueError("polarization must be a unit 3-vector")
    return eps


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
        object.__setattr__(self, "polarization", unit_polarization(self.polarization))


@dataclass(frozen=True)
class CavityRows:
    """Coupling coefficients of every row of a batch, one array entry per row.

    A switched-off term has a zero coefficient. A row without a cavity has
    every coefficient and its polarization zero: it feels no cavity force,
    and its photon coordinate only drifts.
    """

    polarization: np.ndarray  # (B, 3)
    lambda_mag: np.ndarray
    omega2: np.ndarray
    bilinear_omega: np.ndarray
    bilinear_omega_lambda: np.ndarray
    self_polarization_lambda: np.ndarray

    @classmethod
    def of(cls, modes: Sequence[Optional[CavityMode]]) -> "CavityRows":
        def col(name, off):
            return np.array([off if m is None else getattr(m, name) for m in modes])

        omega, lam = col("omega_c", 0.0), col("lambda_mag", 0.0)
        bl_on, sp_on = col("bilinear_on", False), col("self_polarization_on", False)
        eps = col("polarization", np.zeros(3))
        return cls(eps, lam, omega * omega, bl_on * omega, bl_on * (omega * lam), sp_on * lam)


@dataclass(frozen=True)
class PhotonState:
    """Classical photon phase-space point (or one per row: q and p arrays)."""

    q: float
    p: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
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


def projection(polarization, mu):
    """eps . mu, added in a fixed order: one 3-vector pair, or one per row."""
    eps = np.asarray(polarization, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return eps[..., 0] * mu[..., 0] + eps[..., 1] * mu[..., 1] + eps[..., 2] * mu[..., 2]


def dipole_direction(system: ModelSystem, polarization) -> np.ndarray:
    """D^T eps, the gradient of eps . mu: flat 3N, or (B, 3N) for (B, 3) polarizations."""
    grad = _model.dipole_gradient(system)
    eps = np.asarray(polarization, dtype=float)
    return eps[..., 0:1] * grad[0] + eps[..., 1:2] * grad[1] + eps[..., 2:3] * grad[2]


def zero_field_init(mode: CavityMode, mu) -> PhotonState:
    """Photon displacement cancelling the initial cavity force: q0 = -lambda (eps.mu)/omega."""
    q0 = -mode.lambda_mag * float(projection(mode.polarization, mu)) / mode.omega_c
    return PhotonState(q=q0, p=0.0)


def coupling_terms(rows: CavityRows, q, mu_eps):
    """Photon acceleration and nuclear-force scale per row, for dipole projections mu_eps = eps.mu.

    The cavity force on the nuclei is -scale * D^T eps with D the constant
    dipole gradient; this is the only place the coupling derivatives are
    written down.
    """
    a_q = -rows.omega2 * q - rows.bilinear_omega_lambda * mu_eps
    scale = rows.bilinear_omega * q + rows.self_polarization_lambda * mu_eps
    return a_q, scale * rows.lambda_mag


def photon_force(mode: CavityMode, photon: PhotonState, mu) -> float:
    """Acceleration of the photon coordinate."""
    rows = CavityRows.of([mode])
    return float(coupling_terms(rows, photon.q, projection(rows.polarization, mu))[0][0])


def nuclear_cavity_force(
    mode: CavityMode, photon: PhotonState, system: ModelSystem, positions
) -> np.ndarray:
    """Force on the nuclei from the bilinear + self-polarization terms.

    With a constant dipole gradient D this is a scalar prefactor times the
    fixed vector D^T eps.
    """
    rows = CavityRows.of([mode])
    mu_eps = projection(rows.polarization, _model.dipole(system, positions))
    _, scale = coupling_terms(rows, photon.q, mu_eps)
    return -scale[0] * dipole_direction(system, rows.polarization)[0]


def coupling_energy(rows: CavityRows, q, p, mu_eps):
    """Photon plus interaction energy per row, for dipole projections mu_eps = eps.mu."""
    # squares as products: a scalar's ** 2 is pow(), which can differ from x * x in the last bit
    sp = rows.self_polarization_lambda * mu_eps
    e = 0.5 * (p * p) + 0.5 * rows.omega2 * (q * q)
    e = e + rows.bilinear_omega * q * rows.lambda_mag * mu_eps
    return e + 0.5 * (sp * sp)


def cavity_energy(mode: CavityMode, photon: PhotonState, mu):
    """Photon plus interaction energy for the current dipole, or per frame for arrays of frames."""
    rows = CavityRows.of([mode])
    e = coupling_energy(rows, photon.q, photon.p, projection(rows.polarization, mu))
    # one row, broadcast over the frames when q and p hold one entry per frame
    return e if np.ndim(photon.q) else e[0]


def kinetic_energy(system: ModelSystem, velocities):
    """0.5 m v^2 of flat velocities (a float), or per row of (B, 3N) velocities, added left to right."""
    v = np.asarray(velocities, dtype=float)
    e = 0.5 * sum((system.masses3 * (v * v)).T)  # from zero, column by column, whatever the batch
    return float(e) if v.ndim == 1 else e


def total_energy(system: ModelSystem, mode: CavityMode, state: FullState) -> float:
    """Matter potential + kinetic + cavity energy; the integrator's conserved quantity."""
    mu = _model.dipole(system, state.positions)
    return (
        _model.potential_energy(system, state.positions)
        + kinetic_energy(system, state.velocities)
        + cavity_energy(mode, state.photon, mu)
    )
