"""Molecular surrogate: particles, bonded potential, dipole model.

The reactive complex is modelled as a short chain of point masses held
together by pairwise bonded terms. One designated bond carries a
double-well potential (bound minimum, barrier, near-flat dissociation
shelf); every other bond is harmonic. Cubic bond-bond couplings feed
vibrational energy between neighbouring bonds. The dipole is a
fixed-partial-charge model, so its gradient is a constant matrix.

All quantities are in Hartree atomic units unless a name says otherwise
(`mass_amu`, `*_cm1`, `*_ev`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .units import EMASS_PER_AMU, CM1_PER_HARTREE, EV_PER_HARTREE


class CalibrationError(RuntimeError):
    """Raised when no valid double-well polynomial satisfies the targets."""


@dataclass(frozen=True)
class Particle:
    """A point mass with a partial charge.

    Mass is given in unified atomic mass units and converted to electron
    masses on construction; charge is in units of the elementary charge.
    """

    label: str
    mass_amu: float
    charge: float

    def __post_init__(self):
        if not self.mass_amu > 0:
            raise ValueError(f"particle {self.label!r}: mass must be positive")

    @property
    def mass(self) -> float:
        """Mass in electron masses."""
        return self.mass_amu * EMASS_PER_AMU


@dataclass(frozen=True)
class HarmonicBond:
    """Harmonic stretch 0.5*k*(r - r0)^2 between particles i and j."""

    i: int
    j: int
    k: float
    r0: float

    kind = "harmonic"

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("bond endpoints must differ")
        if not self.k > 0:
            raise ValueError("harmonic force constant must be positive")

    def energy(self, r: float) -> float:
        return 0.5 * self.k * (r - self.r0) ** 2

    def d1(self, r: float) -> float:
        return self.k * (r - self.r0)

    def d2(self, r: float) -> float:
        return self.k


@dataclass(frozen=True)
class ReactiveWell:
    """Calibrated double-well bond potential.

    Polynomial sum(c_n * x^n, n = 2..6) in x = r - r0 up to the first
    inflection past the barrier, then a linear continuation so forces stay
    bounded on the dissociation side. The join sits where V'' = 0, which
    keeps the composite curve C2.
    """

    r0: float
    r_ts: float
    coeffs: tuple  # (c2, c3, c4, c5, c6)
    x_tail: float  # join offset (in x) of the linear branch
    tail_value: float
    tail_slope: float

    def _poly(self, x: float) -> float:
        c2, c3, c4, c5, c6 = self.coeffs
        return x * x * (c2 + x * (c3 + x * (c4 + x * (c5 + x * c6))))

    def _poly_d1(self, x: float) -> float:
        c2, c3, c4, c5, c6 = self.coeffs
        return x * (2 * c2 + x * (3 * c3 + x * (4 * c4 + x * (5 * c5 + x * 6 * c6))))

    def _poly_d2(self, x: float) -> float:
        c2, c3, c4, c5, c6 = self.coeffs
        return 2 * c2 + x * (6 * c3 + x * (12 * c4 + x * (20 * c5 + x * 30 * c6)))

    def energy(self, r: float) -> float:
        x = r - self.r0
        if x > self.x_tail:
            return self.tail_value + self.tail_slope * (x - self.x_tail)
        return self._poly(x)

    def d1(self, r: float) -> float:
        x = r - self.r0
        if x > self.x_tail:
            return self.tail_slope
        return self._poly_d1(x)

    def d2(self, r: float) -> float:
        x = r - self.r0
        if x > self.x_tail:
            return 0.0
        return self._poly_d2(x)

    @property
    def barrier(self) -> float:
        return self._poly(self.r_ts - self.r0)

    @property
    def curvature_min(self) -> float:
        return 2 * self.coeffs[0]

    @property
    def curvature_ts(self) -> float:
        return self._poly_d2(self.r_ts - self.r0)

    def ts_frequency_cm1(self, reduced_mass: float) -> float:
        """Barrier-top frequency sqrt(|V''(r_ts)| / mu) in cm^-1."""
        return np.sqrt(abs(self.curvature_ts) / reduced_mass) * CM1_PER_HARTREE


@dataclass(frozen=True)
class ReactiveBond:
    """The designated breakable bond, backed by a ReactiveWell."""

    i: int
    j: int
    well: ReactiveWell

    kind = "reactive-double-well"

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("bond endpoints must differ")

    @property
    def r0(self) -> float:
        return self.well.r0

    @property
    def r_ts(self) -> float:
        return self.well.r_ts

    def energy(self, r: float) -> float:
        return self.well.energy(r)

    def d1(self, r: float) -> float:
        return self.well.d1(r)

    def d2(self, r: float) -> float:
        return self.well.d2(r)


Bond = Union[HarmonicBond, ReactiveBond]


@dataclass(frozen=True)
class CouplingTerm:
    """Cubic bond-bond coupling g3 * (a*b^2 + a^2*b), a/b = stretch of each bond."""

    bond_a: int
    bond_b: int
    g3: float

    def __post_init__(self):
        if self.bond_a == self.bond_b:
            raise ValueError("coupling must join two distinct bonds")
        if not np.isfinite(self.g3):
            raise ValueError("coupling coefficient must be finite")


@dataclass(frozen=True)
class DipoleModel:
    """Fixed-partial-charge dipole mu(R) = sum_i q_i R_i (+ optional linear correction).

    `d_extra` is a constant 3 x 3N matrix added to the charge-block gradient.
    Its per-particle 3x3 blocks must sum to zero so translating a neutral
    system never changes mu.
    """

    charges: np.ndarray
    d_extra: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "charges", np.asarray(self.charges, dtype=float))
        if self.d_extra is not None:
            d = np.asarray(self.d_extra, dtype=float)
            n = self.charges.size
            if d.shape != (3, 3 * n):
                raise ValueError(f"d_extra must be 3 x {3*n}, got {d.shape}")
            block_sum = d.reshape(3, n, 3).sum(axis=1)
            if np.abs(block_sum).max() > 1e-10:
                raise ValueError("d_extra particle blocks must sum to zero")
            object.__setattr__(self, "d_extra", d)

    @property
    def total_charge(self) -> float:
        return float(self.charges.sum())

    def value(self, x: np.ndarray) -> np.ndarray:
        """Dipole at flat 3N positions `x`, without validating them (e*bohr)."""
        mu = self.charges @ x.reshape(-1, 3)
        if self.d_extra is not None:
            mu = mu + self.d_extra @ x
        return mu


@dataclass(frozen=True)
class ModelSystem:
    """Immutable bundle of particles, bonds, couplings and dipole model.

    Reactive systems designate their single double-well bond via
    `reactive_bond_index`; purely harmonic utility systems leave it None.
    """

    particles: tuple
    bonds: tuple
    couplings: tuple
    dipole: DipoleModel
    reactive_bond_index: Optional[int] = None
    reference_positions: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        labels = [p.label for p in self.particles]
        if len(set(labels)) != len(labels):
            raise ValueError("particle labels must be unique")
        n = len(self.particles)
        for b in self.bonds:
            if not (0 <= b.i < n and 0 <= b.j < n):
                raise ValueError(f"bond ({b.i},{b.j}) out of range for {n} particles")
        nb = len(self.bonds)
        for c in self.couplings:
            if not (0 <= c.bond_a < nb and 0 <= c.bond_b < nb):
                raise ValueError("coupling bond index out of range")
        reactive = [k for k, b in enumerate(self.bonds) if b.kind == "reactive-double-well"]
        designated = [] if self.reactive_bond_index is None else [self.reactive_bond_index]
        if reactive != designated:
            raise ValueError(
                "exactly one reactive bond must exist and be the designated one "
                f"(found {reactive}, designated {designated})"
            )
        if self.dipole.charges.size != n:
            raise ValueError("dipole charge vector length must match particle count")
        if self.reference_positions is not None:
            ref = np.asarray(self.reference_positions, dtype=float)
            if ref.shape != (3 * n,):
                raise ValueError("reference_positions must be a flat 3N array")
            object.__setattr__(self, "reference_positions", ref)

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def masses(self) -> np.ndarray:
        """Per-particle masses in electron masses."""
        return np.array([p.mass for p in self.particles])

    @property
    def masses3(self) -> np.ndarray:
        """Masses repeated per Cartesian component (3N)."""
        return np.repeat(self.masses, 3)

    @property
    def reactive_bond(self) -> ReactiveBond:
        if self.reactive_bond_index is None:
            raise ValueError("system has no reactive bond")
        return self.bonds[self.reactive_bond_index]


def _check_positions(system: ModelSystem, positions) -> np.ndarray:
    x = np.asarray(positions, dtype=float)
    if x.shape != (3 * system.n_particles,):
        raise ValueError(
            f"positions must be a flat array of length {3*system.n_particles}, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("positions contain non-finite values")
    return x


def _bond_geometry(system: ModelSystem, pts: np.ndarray):
    """Per-bond (length, unit vector i<-j) for current coordinates."""
    out = []
    for b in system.bonds:
        d = pts[b.i] - pts[b.j]
        r = float(np.linalg.norm(d))
        if r < 1e-12:
            raise ValueError(f"particles {b.i} and {b.j} are coincident")
        if not np.isfinite(r):
            raise ValueError(f"non-finite distance between particles {b.i} and {b.j}")
        out.append((r, d / r))
    return out


def potential_energy(system: ModelSystem, positions) -> float:
    """Total bonded potential, zero with every bond at its rest length."""
    x = _check_positions(system, positions)
    pts = x.reshape(-1, 3)
    geo = _bond_geometry(system, pts)
    e = 0.0
    for b, (r, _) in zip(system.bonds, geo):
        e += b.energy(r)
    for c in system.couplings:
        a = geo[c.bond_a][0] - system.bonds[c.bond_a].r0
        bb = geo[c.bond_b][0] - system.bonds[c.bond_b].r0
        e += c.g3 * (a * bb * bb + a * a * bb)
    return float(e)


def forces(system: ModelSystem, positions) -> np.ndarray:
    """Analytic -grad V, flat 3N array."""
    x = _check_positions(system, positions)
    pts = x.reshape(-1, 3)
    geo = _bond_geometry(system, pts)
    f = np.zeros_like(pts)
    # dV/dr per bond, accumulated over direct terms and couplings
    dvdr = np.array([b.d1(r) for b, (r, _) in zip(system.bonds, geo)])
    for c in system.couplings:
        a = geo[c.bond_a][0] - system.bonds[c.bond_a].r0
        bb = geo[c.bond_b][0] - system.bonds[c.bond_b].r0
        dvdr[c.bond_a] += c.g3 * (bb * bb + 2 * a * bb)
        dvdr[c.bond_b] += c.g3 * (2 * a * bb + a * a)
    for b, (r, u), g in zip(system.bonds, geo, dvdr):
        f[b.i] -= g * u
        f[b.j] += g * u
    return f.reshape(-1)


def dipole(system: ModelSystem, positions) -> np.ndarray:
    """Molecular dipole in e*bohr."""
    return system.dipole.value(_check_positions(system, positions))


def dipole_gradient(system: ModelSystem) -> np.ndarray:
    """Constant 3 x 3N dipole gradient: q_i * I3 blocks plus d_extra."""
    n = system.n_particles
    grad = np.zeros((3, 3 * n))
    for i, q in enumerate(system.dipole.charges):
        grad[:, 3 * i : 3 * i + 3] = q * np.eye(3)
    if system.dipole.d_extra is not None:
        grad = grad + system.dipole.d_extra
    return grad


def fd_hessian(system: ModelSystem, positions, h: float = 1e-3, symmetrize: bool = True) -> np.ndarray:
    """Central-difference Hessian of potential_energy (symmetric 4-point stencil).

    The off-diagonal stencil visits the same four displaced geometries for
    (k,l) and (l,k), so the raw asymmetry is pure summation roundoff; the
    returned matrix is (H + H^T)/2 unless `symmetrize` is disabled.
    """
    x = _check_positions(system, positions)
    if not h > 0:
        raise ValueError("finite-difference step must be positive")
    n = x.size
    hess = np.empty((n, n))
    e0 = potential_energy(system, x)

    def v(*shifts):
        xp = x.copy()
        for idx, s in shifts:
            xp[idx] += s
        return potential_energy(system, xp)

    for k in range(n):
        hess[k, k] = (v((k, h)) - 2 * e0 + v((k, -h))) / h**2
    for k in range(n):
        for l in range(k + 1, n):
            epp = v((k, h), (l, h))
            epm = v((k, h), (l, -h))
            emp = v((k, -h), (l, h))
            emm = v((k, -h), (l, -h))
            hess[k, l] = (epp - epm - emp + emm) / (4 * h**2)
            hess[l, k] = (epp - emp - epm + emm) / (4 * h**2)
    if not np.all(np.isfinite(hess)):
        raise ValueError("non-finite Hessian entries")
    if symmetrize:
        hess = 0.5 * (hess + hess.T)
    return hess


# --- reactive-well calibration -------------------------------------------

def _well_shape_valid(coeffs, t, r0):
    """Single barrier, monotone walls, and a usable outer inflection."""
    c2, c3, c4, c5, c6 = coeffs
    # stationary points of the polynomial: roots of V'(x)/x beside x = 0
    dcoef = [6 * c6, 5 * c5, 4 * c4, 3 * c3, 2 * c2]
    roots = np.roots(dcoef)
    real = roots[np.abs(roots.imag) < 1e-9].real
    inner_floor = -(r0 - 0.2)
    for x in real:
        if inner_floor < x < -1e-8:
            return None  # spurious stationary point on the compression side
        if 1e-8 < x < t - 1e-8:
            return None  # dip or shoulder between minimum and barrier
    # first inflection past the barrier = linear-branch join (C2 there)
    icoef = [30 * c6, 20 * c5, 12 * c4, 6 * c3, 2 * c2]
    iroots = np.roots(icoef)
    ireal = np.sort(iroots[np.abs(iroots.imag) < 1e-9].real)
    beyond = ireal[ireal > t + 1e-12]
    if beyond.size == 0:
        return None
    x_tail = float(beyond[0])
    d1 = sum(n * c * x_tail ** (n - 1) for n, c in zip(range(2, 7), coeffs))
    if d1 >= 0:
        return None  # outer branch must still descend at the join
    return x_tail


def calibrate_reactive_bond(
    barrier: float,
    r0: float,
    r_ts: float,
    curvature_min: float,
    curvature_ts: float,
    tol: float = 1e-10,
) -> ReactiveWell:
    """Solve for double-well coefficients matching six constraints.

    The polynomial sum(c_n x^n, n=2..6) automatically satisfies V(r0)=0 and
    V'(r0)=0; c2 pins V''(r0). The remaining three conditions at the barrier
    (V, V', V'') leave one spare degree of freedom, closed by choosing the
    smallest non-negative c6 that produces a single-barrier shape with a
    confining compression wall and an outer inflection for the linear tail.

    Raises CalibrationError with a residual report when the targets are
    infeasible.
    """
    if not barrier > 0:
        raise CalibrationError(f"barrier must be positive, got {barrier}")
    if not r_ts > r0:
        raise CalibrationError(f"r_ts ({r_ts}) must exceed r0 ({r0})")
    if not curvature_min > 0:
        raise CalibrationError("curvature at the minimum must be positive")
    if not curvature_ts < 0:
        raise CalibrationError("curvature at the barrier must be negative")

    t = r_ts - r0
    c2 = 0.5 * curvature_min
    mat = np.array(
        [
            [3 * t**2, 4 * t**3, 5 * t**4],
            [t**3, t**4, t**5],
            [6 * t, 12 * t**2, 20 * t**3],
        ]
    )
    last_residual = None
    for c6 in np.linspace(0.0, 2.0, 201):
        rhs = np.array(
            [
                -2 * c2 * t - 6 * c6 * t**5,
                barrier - c2 * t**2 - c6 * t**6,
                curvature_ts - 2 * c2 - 30 * c6 * t**4,
            ]
        )
        try:
            c3, c4, c5 = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        coeffs = (c2, float(c3), float(c4), float(c5), float(c6))
        # re-evaluate the constraints before accepting
        v = sum(c * t**n for n, c in zip(range(2, 7), coeffs))
        d1 = sum(n * c * t ** (n - 1) for n, c in zip(range(2, 7), coeffs))
        d2 = sum(n * (n - 1) * c * t ** (n - 2) for n, c in zip(range(2, 7), coeffs))
        scale = max(abs(barrier), abs(curvature_min), 1.0)
        residual = max(abs(v - barrier), abs(d1), abs(d2 - curvature_ts)) / scale
        last_residual = residual
        if residual > tol:
            continue
        x_tail = _well_shape_valid(coeffs, t, r0)
        if x_tail is None:
            continue
        tail_value = sum(c * x_tail**n for n, c in zip(range(2, 7), coeffs))
        tail_slope = sum(n * c * x_tail ** (n - 1) for n, c in zip(range(2, 7), coeffs))
        return ReactiveWell(
            r0=r0,
            r_ts=r_ts,
            coeffs=coeffs,
            x_tail=x_tail,
            tail_value=float(tail_value),
            tail_slope=float(tail_slope),
        )
    raise CalibrationError(
        "no valid double-well shape for targets "
        f"barrier={barrier:.6g}, r0={r0}, r_ts={r_ts}, "
        f"curvature_min={curvature_min:.6g}, curvature_ts={curvature_ts:.6g} "
        f"(last constraint residual {last_residual})"
    )


# --- the reactive-complex surrogate ---------------------------------------

# particle indices of the builtin chain
PTA_F, PTA_SI, PTA_ME, PTA_C1, PTA_C2, PTA_PH = range(6)
# bond indices
PTA_BOND_SIF, PTA_BOND_SIME, PTA_BOND_SIC, PTA_BOND_CC, PTA_BOND_CPH = range(5)

_PTA_MASSES_AMU = (19.0, 28.0, 45.0, 12.0, 12.0, 77.0)
_PTA_CHARGES = (-0.55, 0.70, 0.10, -0.65, -0.35, -0.25)
_PTA_R0 = {"sif": 3.10, "sime": 3.55, "sic": 3.60, "cc": 2.28, "cph": 2.72}
# cross-bond couplings to the reactive bond stay small so they do not move
# the saddle energy; the larger ones feed the non-reactive bath modes
_PTA_K = {"sif": 0.21, "sime": 0.18, "cc": 0.95, "cph": 0.30}
_PTA_R_TS = 4.55
_PTA_G3 = {
    (PTA_BOND_SIF, PTA_BOND_SIC): 8.0e-4,
    (PTA_BOND_SIC, PTA_BOND_CC): 8.0e-4,
    (PTA_BOND_SIF, PTA_BOND_SIME): 2.0e-2,
    (PTA_BOND_CC, PTA_BOND_CPH): 1.5e-2,
}


def _pta_reference_positions() -> np.ndarray:
    r = _PTA_R0
    pos = np.zeros((6, 3))
    pos[PTA_F] = (-r["sif"], 0.0, 0.0)
    pos[PTA_SI] = (0.0, 0.0, 0.0)
    # methyl bead sits off-axis so the chain is not exactly collinear
    me_y = -np.sqrt(r["sime"] ** 2 - 0.62**2 - 0.60**2)
    pos[PTA_ME] = (-0.62, me_y, -0.60)
    pos[PTA_C1] = (r["sic"], 0.0, 0.0)
    pos[PTA_C2] = (r["sic"] + r["cc"], 0.0, 0.0)
    pos[PTA_PH] = (r["sic"] + r["cc"] + r["cph"], 0.0, 0.0)
    return pos.reshape(-1)


def _assemble_pta(curvature_min: float, curvature_ts: float, barrier: float) -> ModelSystem:
    labels = ("F", "Si", "Me", "C1", "C2", "Ph")
    particles = [
        Particle(lbl, m, q) for lbl, m, q in zip(labels, _PTA_MASSES_AMU, _PTA_CHARGES)
    ]
    well = calibrate_reactive_bond(
        barrier, _PTA_R0["sic"], _PTA_R_TS, curvature_min, curvature_ts
    )
    bonds = [
        HarmonicBond(PTA_F, PTA_SI, _PTA_K["sif"], _PTA_R0["sif"]),
        HarmonicBond(PTA_ME, PTA_SI, _PTA_K["sime"], _PTA_R0["sime"]),
        ReactiveBond(PTA_SI, PTA_C1, well),
        HarmonicBond(PTA_C1, PTA_C2, _PTA_K["cc"], _PTA_R0["cc"]),
        HarmonicBond(PTA_C2, PTA_PH, _PTA_K["cph"], _PTA_R0["cph"]),
    ]
    couplings = [CouplingTerm(a, b, g) for (a, b), g in _PTA_G3.items()]
    return ModelSystem(
        particles=tuple(particles),
        bonds=tuple(bonds),
        couplings=tuple(couplings),
        dipole=DipoleModel(np.array(_PTA_CHARGES)),
        reactive_bond_index=PTA_BOND_SIC,
        reference_positions=_pta_reference_positions(),
    )


def build_pta_surrogate(
    mode_target_cm1: float = 856.0,
    ts_frequency_cm1: float = 86.0,
    barrier_ev: float = 0.35,
) -> ModelSystem:
    """Six-bead F-Si(-Me)-C-C-Ph chain tuned to the headline observables.

    The reactive Si-C bond is calibrated to the requested barrier and
    barrier-top frequency; the well curvature is then adjusted by secant
    iteration until the most Si-C-stretch-like normal mode sits at
    `mode_target_cm1` (within 0.5 cm^-1).
    """
    barrier = barrier_ev / EV_PER_HARTREE
    mi = _PTA_MASSES_AMU[PTA_SI] * EMASS_PER_AMU
    mj = _PTA_MASSES_AMU[PTA_C1] * EMASS_PER_AMU
    mu_red = mi * mj / (mi + mj)
    curvature_ts = -mu_red * (ts_frequency_cm1 / CM1_PER_HARTREE) ** 2

    # analysis imports this module, so its normal-mode path is bound at call time
    from .analysis import NEAR_ZERO_CM1, sic_weighted_spectrum, system_normal_modes

    def mode_freq(cmin):
        """Frequency of the genuine vibration with the largest Si-C stretch weight."""
        system = _assemble_pta(cmin, curvature_ts, barrier)
        modes = system_normal_modes(system)
        rb = system.reactive_bond
        weights = sic_weighted_spectrum(modes, (rb.i, rb.j))
        weights[modes.frequencies_cm1 < NEAR_ZERO_CM1] = 0.0
        return float(modes.frequencies_cm1[np.argmax(weights)])

    c0 = mu_red * (mode_target_cm1 / CM1_PER_HARTREE) ** 2
    c1 = 1.1 * c0
    f0 = mode_freq(c0) - mode_target_cm1
    f1 = mode_freq(c1) - mode_target_cm1
    for _ in range(30):
        if abs(f1) < 0.5:
            break
        if f1 == f0:
            raise CalibrationError("surrogate frequency tuning stalled")
        c0, c1, f0 = c1, c1 - f1 * (c1 - c0) / (f1 - f0), f1
        f1 = mode_freq(c1) - mode_target_cm1
    else:
        raise CalibrationError(
            f"surrogate frequency tuning did not converge (last {f1 + mode_target_cm1:.2f} cm^-1)"
        )
    return _assemble_pta(c1, curvature_ts, barrier)


def stretch_bond(system: ModelSystem, positions, bond_index: int, delta: float) -> np.ndarray:
    """Geometry helper: move a bond's first particle outward by `delta` bohr."""
    x = _check_positions(system, positions).copy()
    b = system.bonds[bond_index]
    pts = x.reshape(-1, 3)
    u = pts[b.i] - pts[b.j]
    u /= np.linalg.norm(u)
    pts[b.i] += delta * u
    return x


#: default launch parameters for the builtin surrogate (bohr)
PTA_LAUNCH_SIC_BOHR = 0.60
PTA_LAUNCH_SIF_BOHR = 0.30


def pta_launch_positions(
    system: ModelSystem,
    sic_displacement_bohr: float = PTA_LAUNCH_SIC_BOHR,
    sif_stretch_bohr: float = PTA_LAUNCH_SIF_BOHR,
) -> np.ndarray:
    """Hot pentavalent-complex launch geometry for the builtin surrogate.

    The leaving fragment (the C-C-Ph group) is displaced rigidly along the
    dissociation axis, loading the reactive bond just below its barrier,
    and the F-Si bond is stretched to mimic the energy released by the
    anion attachment. Stand-in for picking the quickly-reacting corner of
    the full thermal ensemble.
    """
    x = _check_positions(system, system.reference_positions).copy()
    pts = x.reshape(-1, 3)
    u = pts[PTA_C1] - pts[PTA_SI]
    u /= np.linalg.norm(u)
    for p in (PTA_C1, PTA_C2, PTA_PH):
        pts[p] += sic_displacement_bohr * u
    return stretch_bond(system, x, PTA_BOND_SIF, sif_stretch_bohr)
