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

The coupling arithmetic takes either one CavityMode with scalar photon
coordinates or a CavityRows batch with one entry per row. Both carry the
same constant coefficients (omega_c^2 and the switched products), each
computed once; the switches enter them as 0/1 factors, so the same
expressions serve both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import model as _model
from .model import ModelSystem


class _Coefficients:
    """Constant products of a mode's parameters that the coupling arithmetic reads.

    Each is computed on first use and then kept; the 0/1 switches enter as
    factors, so a switched-off term has a zero coefficient.
    """

    @cached_property
    def omega2(self):
        return self.omega_c * self.omega_c

    @cached_property
    def bilinear_omega_lambda(self):
        return self.bilinear_on * (self.omega_c * self.lambda_mag)

    @cached_property
    def bilinear_omega(self):
        return self.bilinear_on * self.omega_c

    @cached_property
    def self_polarization_lambda(self):
        return self.self_polarization_on * self.lambda_mag


@dataclass(frozen=True)
class CavityMode(_Coefficients):
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
        if not abs(np.linalg.norm(eps) - 1.0) <= 1e-9:
            raise ValueError("polarization must be a unit vector")
        object.__setattr__(self, "polarization", eps)


@dataclass(frozen=True)
class CavityRows(_Coefficients):
    """Cavity parameters of every row of a batch, one array entry per row.

    A row without a cavity has omega_c = lambda_mag = 0, a zero polarization
    and `active` False: it feels no cavity force, carries no cavity energy,
    and its photon coordinate only drifts.
    """

    omega_c: np.ndarray
    lambda_mag: np.ndarray
    polarization: np.ndarray  # (B, 3)
    self_polarization_on: np.ndarray
    bilinear_on: np.ndarray
    active: np.ndarray

    @classmethod
    def of(cls, modes: Sequence[Optional[CavityMode]]) -> "CavityRows":
        off = (0.0, 0.0, np.zeros(3), False, False, False)
        cols = zip(
            *(
                off
                if m is None
                else (m.omega_c, m.lambda_mag, m.polarization, m.self_polarization_on, m.bilinear_on, True)
                for m in modes
            )
        )
        return cls(*(np.array(c) for c in cols))


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


def coupling_terms(mode, q, mu_eps):
    """Photon acceleration and nuclear-force scale for dipole projection mu_eps = eps.mu.

    `mode` is a CavityMode with scalar `q`, `mu_eps`, or CavityRows with one
    entry per row. The cavity force on the nuclei is -scale * D^T eps with D
    the constant dipole gradient; this is the only place the coupling
    derivatives are written down.
    """
    a_q = -mode.omega2 * q - mode.bilinear_omega_lambda * mu_eps
    scale = mode.bilinear_omega * q + mode.self_polarization_lambda * mu_eps
    return a_q, scale * mode.lambda_mag


def photon_force(mode: CavityMode, photon: PhotonState, mu) -> float:
    """Acceleration of the photon coordinate."""
    return float(coupling_terms(mode, photon.q, projection(mode.polarization, mu))[0])


def nuclear_cavity_force(
    mode: CavityMode, photon: PhotonState, system: ModelSystem, positions
) -> np.ndarray:
    """Force on the nuclei from the bilinear + self-polarization terms.

    With a constant dipole gradient D this is a scalar prefactor times the
    fixed vector D^T eps.
    """
    mu_eps = projection(mode.polarization, _model.dipole(system, positions))
    _, scale = coupling_terms(mode, photon.q, mu_eps)
    return -scale * dipole_direction(system, mode.polarization)


def cavity_energy(mode, photon: PhotonState, mu):
    """Photon plus interaction energy for the current dipole (per row for CavityRows)."""
    proj = projection(mode.polarization, mu)
    q, p = photon.q, photon.p
    # squares as products: a scalar's ** 2 is pow(), which can differ from x * x in the last bit
    sp = mode.self_polarization_lambda * proj
    e = 0.5 * (p * p) + 0.5 * mode.omega2 * (q * q)
    e = e + mode.bilinear_omega * q * mode.lambda_mag * proj
    return e + 0.5 * (sp * sp)


def kinetic_energy(system: ModelSystem, velocities):
    """0.5 m v^2 of flat velocities (a float), or per row of (B, 3N) velocities."""
    v = np.asarray(velocities, dtype=float)
    return 0.5 * _model.row_sums(system.masses3 * (v * v))


def total_energy(system: ModelSystem, mode: CavityMode, state: FullState) -> float:
    """Matter potential + kinetic + cavity energy; the integrator's conserved quantity."""
    mu = _model.dipole(system, state.positions)
    return (
        _model.potential_energy(system, state.positions)
        + kinetic_energy(system, state.velocities)
        + cavity_energy(mode, state.photon, mu)
    )
