"""Normal modes, spectra, mode occupations, bond correlations, transition
state search, and scans over cavity conditions (frequency, coupling ratio)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import model as _model
from .cavity import CavityMode, CavityRows, lambda_for_ratio, projection, unit_polarization
from .dynamics import TIME_TOL_FS, Trajectory, window_steps
from .ensemble import Aggregates, SamplingSpec, run_conditions
from .ensemble import run_ensemble  # noqa: F401  (bound here for wrappers such as perfbench/tracer.py)
from .model import ModelSystem
from .units import CM1_PER_HARTREE, EV_PER_HARTREE

#: modes below this frequency count as the near-zero (translation/rotation/soft) block
NEAR_ZERO_CM1 = 1.0


class SearchError(RuntimeError):
    """Transition-state search failed to bracket or converge."""


# --- normal modes -----------------------------------------------------------

@dataclass
class NormalModes:
    """Mass-weighted eigenmodes with per-mode dipole derivatives.

    `modes` holds orthonormal eigenvectors as columns (mass-weighted
    coordinates); `eigenvalues` are omega^2 in atomic units, with negative
    entries reported as negative cm^-1 in `frequencies_cm1` (imaginary
    modes). `mode_dipole[j]` is d(mu)/dQ_j; `sic_projection[j]` is mode j's signed
    overlap with the reactive-bond stretch (None without a reactive bond).
    """

    frequencies_cm1: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray
    mode_dipole: np.ndarray
    masses: Optional[np.ndarray] = None
    reference_positions: Optional[np.ndarray] = None
    sic_projection: Optional[np.ndarray] = None

    @property
    def n_modes(self) -> int:
        return self.frequencies_cm1.size


def hessian(system: ModelSystem, positions, h: float = 1e-4) -> np.ndarray:
    """Symmetrized central difference of the bonded forces (`model.fd_hessian`)."""
    return _model.fd_hessian(system, positions, h=h, symmetrize=True)


def normal_modes(
    hessian_matrix: np.ndarray,
    masses: np.ndarray,
    dipole_grad: Optional[np.ndarray] = None,
    reference_positions: Optional[np.ndarray] = None,
) -> NormalModes:
    """Diagonalize M^{-1/2} H M^{-1/2}; one mass per particle."""
    hess = np.asarray(hessian_matrix, dtype=float)
    n = hess.shape[0]
    if hess.shape != (n, n):
        raise ValueError("hessian must be square")
    scale = max(1.0, float(np.abs(hess).max()))
    if np.abs(hess - hess.T).max() > 1e-8 * scale:
        raise ValueError("hessian must be symmetric")
    m = np.asarray(masses, dtype=float)
    if m.size * 3 != n:
        raise ValueError("masses must have one entry per particle")
    m3 = np.repeat(m, 3)
    if not np.all(m3 > 0):
        raise ValueError("masses must be positive")
    inv_sqrt = 1.0 / np.sqrt(m3)
    mw = hess * np.outer(inv_sqrt, inv_sqrt)
    evals, vecs = np.linalg.eigh(mw)
    freqs = np.sign(evals) * np.sqrt(np.abs(evals)) * CM1_PER_HARTREE
    if dipole_grad is not None:
        mode_dip = (np.asarray(dipole_grad) @ (vecs * inv_sqrt[:, None])).T
    else:
        mode_dip = np.zeros((n, 3))
    ref = None
    if reference_positions is not None:
        ref = np.asarray(reference_positions, dtype=float)
    return NormalModes(
        frequencies_cm1=freqs,
        eigenvalues=evals,
        modes=vecs,
        mode_dipole=mode_dip,
        masses=m3,
        reference_positions=ref,
    )


def system_normal_modes(system: ModelSystem, positions: Optional[np.ndarray] = None) -> NormalModes:
    """Normal modes of a system at `positions` (default: its reference geometry), Si-C overlaps included."""
    positions = system.positions_or_reference(positions)
    hess = hessian(system, positions)
    modes = normal_modes(hess, system.masses, _model.dipole_gradient(system), reference_positions=positions)
    if system.reactive_bond_index is not None:
        modes.sic_projection = _bond_projection_signed(modes, (system.reactive_bond.i, system.reactive_bond.j))
    return modes


# --- spectra ----------------------------------------------------------------

@dataclass
class SpectrumLine:
    frequency_cm1: float
    strength: float  # 2 * omega * |eps . dmu/dQ|^2, atomic units
    si_c_weight: float = 0.0


def ir_spectrum(
    modes: NormalModes,
    polarization,
    broadening_cm1: float = 30.0,
    grid_cm1: Optional[np.ndarray] = None,
) -> Tuple[List[SpectrumLine], np.ndarray, np.ndarray]:
    """Stick spectrum along the polarization plus a Lorentzian-broadened curve.

    Line strengths are 2 * omega_j * |eps . d_j|^2, Si-C weights |sic_projection_j|
    (0.0 without one); zero-frequency modes are excluded. The broadening parameter is
    the Lorentzian FWHM and each line integrates to its strength over an unbounded axis.
    """
    eps = unit_polarization(polarization)
    if not broadening_cm1 > 0:
        raise ValueError("broadening must be positive")
    weights = np.zeros(modes.n_modes) if modes.sic_projection is None else np.abs(modes.sic_projection)
    lines = []
    for f, d, w in zip(modes.frequencies_cm1, modes.mode_dipole, weights):
        if f <= NEAR_ZERO_CM1:
            continue
        omega_au = f / CM1_PER_HARTREE
        strength = 2.0 * omega_au * float(eps @ d) ** 2
        lines.append(SpectrumLine(float(f), strength, float(w)))
    if grid_cm1 is None:
        fmax = max((ln.frequency_cm1 for ln in lines), default=1000.0)
        grid_cm1 = np.linspace(0.0, 1.15 * fmax + 10 * broadening_cm1, 4001)
    else:
        grid_cm1 = np.asarray(grid_cm1, dtype=float)
    curve = np.zeros_like(grid_cm1)
    gamma = 0.5 * broadening_cm1  # half width at half maximum
    for ln in lines:
        curve += ln.strength * (gamma / np.pi) / ((grid_cm1 - ln.frequency_cm1) ** 2 + gamma**2)
    return lines, grid_cm1, curve


def polariton_modes(modes: NormalModes, mode: CavityMode) -> NormalModes:
    """Hybrid matter-photon modes from the linearized coupled system.

    The extended stiffness matrix in (bare normal coordinates + photon) is

        K_vib   = diag(omega_j^2) + dt_j dt_k   (self-polarization)
        K_photon= omega_c^2
        K_cross = omega_c * dt_j                (bilinear)

    with dt_j = lambda (eps . d_j). A term switched off on the CavityMode
    has the zero coefficient that CavityRows gives it. For lambda = 0 the
    input modes plus the bare cavity line are recovered exactly. Mode-dipole
    rows and Si-C projections of the result are matter-part combinations of
    the bare ones, so `ir_spectrum` applies unchanged.
    """
    n = modes.n_modes
    rows = CavityRows.of([mode])
    d_eps = modes.mode_dipole @ mode.polarization
    sp = rows.self_polarization_lambda[0] * d_eps
    k = np.zeros((n + 1, n + 1))
    k[np.diag_indices(n)] = modes.eigenvalues
    k[:n, :n] += np.outer(sp, sp)
    k[n, n] = rows.omega2[0]
    k[:n, n] = k[n, :n] = rows.bilinear_omega[0] * (mode.lambda_mag * d_eps)
    evals, vecs = np.linalg.eigh(k)
    freqs = np.sign(evals) * np.sqrt(np.abs(evals)) * CM1_PER_HARTREE
    mode_dip = vecs[:n, :].T @ modes.mode_dipole
    return NormalModes(
        frequencies_cm1=freqs,
        eigenvalues=evals,
        modes=vecs,
        mode_dipole=mode_dip,
        sic_projection=None if modes.sic_projection is None else modes.sic_projection @ vecs[:n, :],
    )


def td_spectrum(trajectory: Trajectory, polarization) -> Tuple[np.ndarray, np.ndarray]:
    """Power spectrum of the Hann-windowed, mean-removed dipole projection.

    Returns (frequency axis in cm^-1, |FFT|^2). Frequency resolution is one
    bin = 2*pi / (record length).
    """
    eps = unit_polarization(polarization)
    n = trajectory.n_frames
    if n < 256:
        raise ValueError(f"need at least 256 frames, got {n}")
    s = trajectory.dipole @ eps
    s = s - s.mean()
    spec = np.fft.rfft(s * np.hanning(n))
    freqs_cm1 = np.fft.rfftfreq(n, d=trajectory.times[1] - trajectory.times[0]) * 2.0 * np.pi * CM1_PER_HARTREE
    return freqs_cm1, np.abs(spec) ** 2


def spectrum_bin_cm1(trajectory: Trajectory) -> float:
    """Frequency-bin width of td_spectrum for this record length."""
    span = (trajectory.times[1] - trajectory.times[0]) * (trajectory.n_frames - 1)
    return 2.0 * np.pi / span * CM1_PER_HARTREE


# --- mode occupations -------------------------------------------------------

@dataclass
class OccupationMap:
    """Per-mode harmonic energies along a trajectory, plus the photon trace."""

    times_fs: np.ndarray
    energies: np.ndarray  # (frames, n_modes), Hartree
    normalized: np.ndarray  # energies / total per frame
    photon_q: np.ndarray
    frequencies_cm1: np.ndarray


@dataclass
class OccupationDifference:
    times_fs: np.ndarray
    delta: np.ndarray  # (frames, n_modes) difference of normalized occupations
    accumulated: np.ndarray  # time integral per mode (fs)
    photon_delta: np.ndarray
    photon_accumulated: float
    frequencies_cm1: np.ndarray


def mode_occupation(
    trajectory: Trajectory, modes: NormalModes, reference_geometry
) -> OccupationMap:
    """Project a trajectory on a frozen mode basis and score E_j = (Qdot_j^2 + omega_j^2 Q_j^2)/2.

    The basis is taken at the reference minimum and kept fixed while the
    geometry evolves; negative (imaginary) eigenvalues contribute kinetic
    energy only.
    """
    if modes.masses is None:
        raise ValueError("modes must carry masses for occupation projection")
    ref = np.asarray(reference_geometry, dtype=float)
    if trajectory.positions.shape[1] != ref.size or ref.size != modes.modes.shape[0]:
        raise ValueError("trajectory, reference geometry and mode basis sizes differ")
    sqrt_m = np.sqrt(modes.masses)
    disp = (trajectory.positions - ref[None, :]) * sqrt_m[None, :]
    vel = trajectory.velocities * sqrt_m[None, :]
    q = disp @ modes.modes
    qdot = vel @ modes.modes
    omega2 = np.clip(modes.eigenvalues, 0.0, None)
    energies = 0.5 * (qdot**2 + omega2[None, :] * q**2)
    totals = energies.sum(axis=1)
    normalized = energies / np.where(totals > 0, totals, 1.0)[:, None]
    return OccupationMap(
        times_fs=trajectory.times_fs,
        energies=energies,
        normalized=normalized,
        photon_q=trajectory.photon_q.copy(),
        frequencies_cm1=modes.frequencies_cm1.copy(),
    )


def mean_occupation_map(maps: Iterable[OccupationMap]) -> OccupationMap:
    """Trajectory-averaged occupation map (identical grids required).

    The maps are added one at a time, in order, from 0.0 (so -0.0 sums to
    +0.0), then divided by their count: np.mean's arithmetic over the
    stacked maps, bit for bit, with one map held at a time.
    """
    maps = iter(maps)
    first = next(maps, None)
    if first is None:
        raise ValueError("no maps to average")
    energies, normalized, photon_q = (0.0 + a for a in (first.energies, first.normalized, first.photon_q))
    n = 1
    for m in maps:
        if m.energies.shape != first.energies.shape or not np.allclose(
            m.times_fs, first.times_fs, atol=TIME_TOL_FS
        ):
            raise ValueError("occupation maps have mismatched grids")
        energies += m.energies
        normalized += m.normalized
        photon_q += m.photon_q
        n += 1
    return OccupationMap(
        times_fs=first.times_fs.copy(),
        energies=energies / n,
        normalized=normalized / n,
        photon_q=photon_q / n,
        frequencies_cm1=first.frequencies_cm1.copy(),
    )


def occupation_difference(
    map_a: OccupationMap, map_b: OccupationMap
) -> OccupationDifference:
    """Pointwise difference of normalized occupations plus per-mode time integrals."""
    if map_a.normalized.shape != map_b.normalized.shape or not np.allclose(
        map_a.times_fs, map_b.times_fs, atol=TIME_TOL_FS
    ):
        raise ValueError("occupation maps have mismatched grids")
    delta = map_a.normalized - map_b.normalized
    acc = np.trapezoid(delta, map_a.times_fs, axis=0)
    photon_delta = map_a.photon_q - map_b.photon_q
    photon_acc = float(np.trapezoid(photon_delta, map_a.times_fs))
    return OccupationDifference(
        times_fs=map_a.times_fs.copy(),
        delta=delta,
        accumulated=acc,
        photon_delta=photon_delta,
        photon_accumulated=photon_acc,
        frequencies_cm1=map_a.frequencies_cm1.copy(),
    )


# --- bond force correlation ---------------------------------------------------

@dataclass
class BondCorrelation:
    times_fs: np.ndarray  # window-centre times
    values: np.ndarray
    integrated: float
    n_degenerate: int  # windows with vanishing variance, reported as 0


def windowed_correlation(fa: np.ndarray, fb: np.ndarray, window: int):
    """|<fa fb>_w| / sqrt(<fa^2>_w <fb^2>_w) over a sliding window.

    Windows with vanishing variance report 0; returns (values, n_degenerate).
    """
    if window < 2:
        raise ValueError("window must cover at least 2 frames")
    if fa.size != fb.size or window > fa.size:
        raise ValueError("series must match and be at least one window long")

    def windowed_sum(x):
        c = np.concatenate(([0.0], np.cumsum(x)))
        return c[window:] - c[:-window]

    s_ab = windowed_sum(fa * fb)
    s_aa = windowed_sum(fa * fa)
    s_bb = windowed_sum(fb * fb)
    denom = np.sqrt(s_aa * s_bb)
    degenerate = denom < 1e-300
    values = np.zeros_like(s_ab)
    good = ~degenerate
    values[good] = np.abs(s_ab[good]) / denom[good]
    return values, int(degenerate.sum())


def bond_force_correlation(
    trajectory: Trajectory,
    system: ModelSystem,
    bond_a: Tuple[int, int],
    bond_b: Tuple[int, int],
    window: int,
) -> BondCorrelation:
    """Sliding-window normalized inner product of two projected bond forces.

    Per frame, f(t) = (F_i - F_j) . u_ij(t) with the instantaneous bond axis
    and the bonded (matter) forces. The integrated value is the time
    average of the window statistic.
    """
    pts = trajectory.positions.reshape(trajectory.n_frames, -1, 3)
    forces = _model.forces(system, trajectory.positions).reshape(pts.shape)

    def projected(bond):
        i, j = bond
        d = pts[:, i] - pts[:, j]
        df = forces[:, i] - forces[:, j]
        return projection(df, d) / np.sqrt(projection(d, d))

    fa = projected(bond_a)
    fb = projected(bond_b) if tuple(bond_b) != tuple(bond_a) else fa.copy()
    values, n_degenerate = windowed_correlation(fa, fb, window)
    centre = trajectory.times_fs[window // 2 : window // 2 + values.size]
    return BondCorrelation(
        times_fs=centre,
        values=values,
        integrated=float(values.mean()),
        n_degenerate=n_degenerate,
    )


# --- transition state ---------------------------------------------------------

@dataclass
class TSResult:
    geometry: np.ndarray
    barrier_ev: float
    omega_b_cm1: float
    gradient_norm: float
    n_negative: int
    profile_r: np.ndarray
    profile_energy: np.ndarray


def barrier_frequency(curvature: float, reduced_mass: float) -> float:
    """omega_b = sqrt(|curvature| / M) in atomic units."""
    if not reduced_mass > 0:
        raise ValueError("reduced mass must be positive")
    return float(np.sqrt(abs(curvature) / reduced_mass))


def _bond_constraint(ends, ends2, u):
    """The constraint normal kron(ends, u) and kron(ends ends^T, I3 - u u^T), as kron's own products.

    `ends2` is np.outer(ends, ends)[:, None, :, None].
    """
    n = np.outer(ends, u).ravel()
    return n, (ends2 * (np.eye(3) - np.outer(u, u))[:, None, :]).reshape(n.size, n.size)


def _newton(system: ModelSystem, x, bond: Optional[Tuple[int, int]] = None, r: float = 0.0):
    """Stationary point of V by minimum-norm Newton steps; returns (x, max |gradient|).

    Steps solve H s = -g by least squares on `model.fd_hessian`, the force
    difference behind every normal mode, so rigid-body directions stay
    untouched, and are capped at 0.2 bohr per coordinate. With `bond` =
    (i, j) the distance |x_i - x_j| is held at `r`:
    each iteration first moves both ends half-way back onto it, then takes the
    step in the constraint's tangent plane, with the gradient projected off
    the normal n and the Hessian of the Lagrangian V - mu c, mu = n.g / n.n
    (Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 18).
    """
    x = np.array(x, dtype=float)
    if bond is not None:
        ends = np.zeros(x.size // 3)
        ends[list(bond)] = 1.0, -1.0
        ends2 = np.outer(ends, ends)[:, None, :, None]
        eye = np.eye(x.size)
    for iteration in range(61):
        if bond is not None:
            d = ends @ x.reshape(-1, 3)  # x_i - x_j
            u = d / np.linalg.norm(d)
            n, curvature = _bond_constraint(ends, ends2, u)
            x += 0.5 * (r - np.linalg.norm(d)) * n
        g = -_model.forces(system, x)
        if bond is not None:
            mu = 0.5 * (n @ g)
            g -= mu * n
        grad_norm = float(np.abs(g).max())
        if grad_norm < 1e-11 or iteration == 60:
            return x, grad_norm
        hess = _model.fd_hessian(system, x)
        if bond is not None:
            # mu times the Hessian of c = |x_i - x_j| - r, then project onto the tangent plane
            hess -= mu / r * curvature
            proj = eye - 0.5 * np.outer(n, n)
            hess = proj @ hess @ proj
        step, *_ = np.linalg.lstsq(hess, -g, rcond=1e-11)
        x = x + step / max(1.0, np.abs(step).max() / 0.2)


def find_transition_state(
    system: ModelSystem,
    r_min: float,
    r_max: float,
    n_points: int = 25,
    start_positions: Optional[np.ndarray] = None,
) -> TSResult:
    """Relaxed scan over the reactive bond length, then saddle refinement.

    Every stationary point comes from the one Newton solver `_newton`: all
    other coordinates are minimized at each scanned bond length, each solve
    from the previous relaxed geometry or, from the fourth point on, the
    quadratic extrapolation of the last three; the profile
    maximum is refined by quadratic interpolation and unconstrained Newton
    steps (minimum-norm steps, so rigid-body directions stay untouched). The
    barrier is measured from the relaxed reactant minimum; omega_b comes
    from the relaxed-profile curvature with the bond pair's reduced mass.
    A solve that ends with |grad| above 1e-8 raises SearchError. The one
    force-difference Hessian (`model.fd_hessian`) drives every Newton step,
    and its normal modes, built once, count the saddle's negative modes.
    """
    b = system.reactive_bond  # ValueError without one
    start_positions = system.positions_or_reference(start_positions)
    if not 0 < r_min < np.inf:
        raise ValueError(f"r_min must be a positive finite bond length, got {r_min!r}")
    if not r_min < r_max < np.inf:
        raise ValueError(f"r_max must be finite and above r_min = {r_min!r}, got {r_max!r}")
    if not isinstance(n_points, (int, np.integer)) or n_points < 3:
        raise ValueError(f"n_points must be an integer >= 3, got {n_points!r}")

    def solve(x0, r=None):
        """(E, x, |grad|) at the stationary point from x0, with the bond held at r if given."""
        x, grad_norm = _newton(system, x0) if r is None else _newton(system, x0, (b.i, b.j), r)
        if grad_norm > 1e-8:
            at = "saddle refinement" if r is None else f"relaxation at r = {r:.4f}"
            raise SearchError(f"{at} stalled, |grad| = {grad_norm:.3e}")
        return _model.potential_energy(system, x), x, grad_norm

    rs = np.linspace(r_min, r_max, n_points)
    energies = np.empty(n_points)
    geoms = []
    x = np.asarray(start_positions, dtype=float)
    for k, r in enumerate(rs):
        if k >= 3:
            # the rs are evenly spaced, so this is the quadratic through the last three relaxed
            # geometries, taken one step on (Allgower & Georg, Numerical Continuation Methods, ch. 2)
            x = 3.0 * (geoms[-1] - geoms[-2]) + geoms[-3]
        energies[k], x, _ = solve(x, r)
        geoms.append(x)
    k = int(np.argmax(energies))
    if k in (0, n_points - 1):
        raise SearchError(
            f"no interior maximum in scan [{r_min}, {r_max}] (max at endpoint r={rs[k]:.4f})"
        )
    # quadratic vertex through the bracketing triple
    r1, r2, r3 = rs[k - 1 : k + 2]
    e1, e2, e3 = energies[k - 1 : k + 2]
    denom = (r1 - r2) * (r1 - r3) * (r2 - r3)
    a = (r3 * (e2 - e1) + r2 * (e1 - e3) + r1 * (e3 - e2)) / denom
    bb = (r3**2 * (e1 - e2) + r2**2 * (e3 - e1) + r1**2 * (e2 - e3)) / denom
    r_star = float(np.clip(-bb / (2 * a), r1, r3)) if a < 0 else float(rs[k])
    _, x, _ = solve(geoms[k], r_star)
    e_ts, x, grad_norm = solve(x)

    e_min, _, _ = solve(start_positions)
    barrier_ev = (e_ts - e_min) * EV_PER_HARTREE

    # profile curvature around the saddle
    pts = x.reshape(-1, 3)
    r_ts_val = float(np.linalg.norm(pts[b.i] - pts[b.j]))
    delta = 0.01
    e_p, _, _ = solve(x, r_ts_val + delta)
    e_m, _, _ = solve(x, r_ts_val - delta)
    curv = (e_p - 2 * e_ts + e_m) / delta**2
    omega_b_cm1 = barrier_frequency(curv, system.reduced_mass(b.i, b.j)) * CM1_PER_HARTREE

    saddle_modes = normal_modes(hessian(system, x), system.masses)
    n_negative = int((saddle_modes.eigenvalues < -1e-9).sum())
    return TSResult(
        geometry=x,
        barrier_ev=float(barrier_ev),
        omega_b_cm1=float(omega_b_cm1),
        gradient_norm=grad_norm,
        n_negative=n_negative,
        profile_r=rs,
        profile_energy=energies,
    )


# --- bond-stretch weights ------------------------------------------------------

def _bond_projection_signed(modes: NormalModes, bond: Tuple[int, int]) -> np.ndarray:
    """Signed overlap of each mode with the normalized bond-stretch direction."""
    if modes.masses is None or modes.reference_positions is None:
        raise ValueError("modes must carry masses and a reference geometry")
    i, j = bond
    pts = modes.reference_positions.reshape(-1, 3)
    d = pts[i] - pts[j]
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        raise ValueError("bond particles coincide")
    u = d / norm
    m3 = modes.masses
    # stretch displacement (u/m_i on i, -u/m_j on j; the reduced-mass factor
    # cancels in the normalization) in mass-weighted coordinates
    s = np.zeros(modes.modes.shape[0])
    s[3 * i : 3 * i + 3] = u / m3[3 * i]
    s[3 * j : 3 * j + 3] = -u / m3[3 * j]
    s *= np.sqrt(m3)
    s /= np.linalg.norm(s)
    return modes.modes.T @ s


def sic_weighted_spectrum(modes: NormalModes, bond: Tuple[int, int]) -> np.ndarray:
    """Per-mode stretch weight |<mode_j | bond direction>|; squares sum to one."""
    return np.abs(_bond_projection_signed(modes, bond))


def polariton_sic_weights(
    polaritons: NormalModes, bare_modes: NormalModes, bond: Tuple[int, int]
) -> np.ndarray:
    """Bond-stretch weights of hybrid modes via their matter components."""
    w = _bond_projection_signed(bare_modes, bond)
    return np.abs(w @ polaritons.modes[: w.size, :])


# --- scans ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow(Aggregates):
    """One cavity condition of a scan and its window statistics."""

    kind: str  # "baseline" or "scan"
    omega_c_cm1: Optional[float]
    lambda_au: float
    ratio: float
    n: int  # trajectories that succeeded, the statistics' sample size


def resonance_scan(
    system: ModelSystem,
    specs: Sequence[SamplingSpec],
    conditions: Sequence[Tuple[float, float]],
    *,
    positions: np.ndarray,
    dt: float,
    n_steps: int,
    stride: int = 4,
    polarization=(1.0, 0.0, 0.0),
    bilinear: bool = True,
    self_polarization: bool = True,
    window_fs: Optional[Tuple[float, float]] = None,
) -> List[ScanRow]:
    """Ensemble statistics per cavity condition (omega_c_cm1, coupling ratio).

    Every table starts with the uncoupled baseline row; identical sampling
    specs are reused for every condition so differences are cavity-caused.
    A frequency scan holds the ratio fixed, a coupling scan the frequency.
    The baseline and every condition are propagated as one batch, up to
    the first frame past the window's end: the statistics read no later
    frame. `n` counts the trajectories the statistics average over (those
    that failed up to that frame are left out).
    """
    if len(conditions) < 1:
        raise ValueError("at least one cavity condition is required")
    n_steps = window_steps(dt, n_steps, stride, window_fs)
    rows = [("baseline", None, 0.0, 0.0)]
    modes: List[Optional[CavityMode]] = [None]
    for omega_cm1, ratio in conditions:
        omega = omega_cm1 / CM1_PER_HARTREE
        lam = lambda_for_ratio(ratio, omega)
        rows.append(("scan", float(omega_cm1), float(lam), float(ratio)))
        modes.append(
            CavityMode(
                omega_c=omega,
                lambda_mag=lam,
                polarization=np.asarray(polarization, dtype=float),
                self_polarization_on=self_polarization,
                bilinear_on=bilinear,
            )
        )
    results = run_conditions(
        system,
        [(mode, specs) for mode in modes],
        positions=positions,
        dt=dt,
        n_steps=n_steps,
        stride=stride,
        window_fs=window_fs,
    )
    return [
        ScanRow(r.reaction_fraction, r.mean_bond_bohr, r.stderr_bond_bohr, *row, len(r.series_index))
        for row, r in zip(rows, results)
    ]
