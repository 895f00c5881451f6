import numpy as np
import pytest

from cavimd import (
    CavityMode,
    FullState,
    PhotonState,
    hessian,
    ir_spectrum,
    mode_occupation,
    normal_modes,
    occupation_difference,
    polariton_modes,
    propagate,
    sic_weighted_spectrum,
    system_normal_modes,
    td_spectrum,
)
from cavimd import analysis, model
from cavimd.analysis import (
    NEAR_ZERO_CM1,
    NormalModes,
    OccupationMap,
    SearchError,
    _bond_constraint,
    barrier_frequency,
    find_transition_state,
    mean_occupation_map,
    spectrum_bin_cm1,
    windowed_correlation,
)
from cavimd.model import (
    HarmonicBond,
    ModelSystem,
    Particle,
    ReactiveBond,
    calibrate_reactive_bond,
    fd_hessian,
)
from cavimd.units import CM1_PER_HARTREE, EMASS_PER_AMU, EV_PER_HARTREE, fs_to_au

from conftest import random_rotation

EX = np.array([1.0, 0.0, 0.0])


def make_diatomic(k=0.1, m_amu=2.0 / EMASS_PER_AMU, q=0.3):
    particles = (Particle("A", m_amu, q), Particle("B", m_amu, -q))
    return ModelSystem(
        particles=particles,
        bonds=(HarmonicBond(0, 1, k, 2.0),),
        couplings=(),
        reference_positions=np.array([2.0, 0, 0, 0.0, 0, 0]),
    )


# --- hessian / normal modes --------------------------------------------------

def test_hessian_single_harmonic_block():
    sys_ = make_diatomic(k=0.1)
    h = hessian(sys_, sys_.reference_positions)
    xx = h[np.ix_([0, 3], [0, 3])]
    assert np.allclose(xx, [[0.1, -0.1], [-0.1, 0.1]], atol=1e-10)


def test_hessian_asymmetry_before_symmetrization(surrogate):
    rng = np.random.default_rng(12)
    x = surrogate.reference_positions + 0.05 * rng.standard_normal(18)
    raw = fd_hessian(surrogate, x, symmetrize=False)
    assert np.abs(raw - raw.T).max() < 1e-8


def test_hessian_step_independent_for_quadratic():
    sys_ = make_diatomic(k=0.1)
    x = sys_.reference_positions + 0.1
    h1 = hessian(sys_, x, h=1e-3)
    h2 = hessian(sys_, x, h=1e-2)
    # not exactly h-free (the bond energy is quadratic in r, not in x),
    # but at the aligned rest geometry the x-block is
    x0 = sys_.reference_positions
    a = hessian(sys_, x0, h=1e-3)[np.ix_([0, 3], [0, 3])]
    b = hessian(sys_, x0, h=1e-2)[np.ix_([0, 3], [0, 3])]
    assert np.abs(a - b).max() < 1e-10
    assert np.abs(h1 - h1.T).max() < 1e-12
    assert np.abs(h2 - h2.T).max() < 1e-12


def test_normal_modes_diatomic_frequency():
    sys_ = make_diatomic(k=0.1)
    nm = system_normal_modes(sys_)
    omega = np.sqrt(0.1 / 1.0)  # reduced mass of two 2-emass particles
    assert nm.frequencies_cm1.max() == pytest.approx(omega * CM1_PER_HARTREE, rel=1e-8)


def test_normal_modes_zero_hessian():
    nm = normal_modes(np.zeros((6, 6)), np.array([2.0, 2.0]) / EMASS_PER_AMU)
    assert np.allclose(nm.frequencies_cm1, 0.0, atol=1e-12)


def test_normal_modes_take_one_mass_per_particle():
    with pytest.raises(ValueError, match="one entry per particle"):
        normal_modes(np.zeros((6, 6)), np.full(6, 2.0 / EMASS_PER_AMU))


def test_normal_modes_requires_symmetric_matrix():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        normal_modes(bad, np.array([1.0, 1.0]))


def test_normal_modes_eigen_residuals(surrogate):
    nm = system_normal_modes(surrogate)
    m3 = surrogate.masses3
    hess = hessian(surrogate, surrogate.reference_positions)
    mw = hess / np.sqrt(np.outer(m3, m3))
    for j in range(nm.n_modes):
        res = mw @ nm.modes[:, j] - nm.eigenvalues[j] * nm.modes[:, j]
        assert np.abs(res).max() < 1e-8
    gram = nm.modes.T @ nm.modes - np.eye(nm.n_modes)
    assert np.abs(gram).max() < 1e-10


def test_surrogate_near_zero_block(surrogate):
    # translations (and soft transverse directions of the bonded chain) sit
    # below 1 cm^-1; every other mode is a genuine vibration
    nm = system_normal_modes(surrogate)
    near_zero = np.abs(nm.frequencies_cm1) < NEAR_ZERO_CM1
    assert near_zero.sum() >= 3
    vib = nm.frequencies_cm1[~near_zero]
    assert (vib > 1.0).all()
    assert nm.eigenvalues.min() > -1e-10


# --- spectra ------------------------------------------------------------------

def test_ir_strength_formula():
    modes = NormalModes(
        frequencies_cm1=np.array([0.004 * CM1_PER_HARTREE]),
        eigenvalues=np.array([0.004**2]),
        modes=np.eye(1),
        mode_dipole=np.array([[0.5, 0.0, 0.0]]),
    )
    lines, _, _ = ir_spectrum(modes, EX, broadening_cm1=30.0)
    assert len(lines) == 1
    assert lines[0].strength == pytest.approx(2 * 0.004 * 0.25, rel=1e-12)


def test_ir_rejects_non_unit_polarization(surrogate):
    nm = system_normal_modes(surrogate)
    with pytest.raises(ValueError):
        ir_spectrum(nm, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        ir_spectrum(nm, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ir_spectrum(nm, EX, broadening_cm1=0.0)


def test_ir_perpendicular_polarization_silent(surrogate):
    nm = system_normal_modes(surrogate)
    nm.mode_dipole[:, 1:] = 0.0  # keep only x activity
    lines, _, curve = ir_spectrum(nm, np.array([0.0, 1.0, 0.0]))
    assert all(ln.strength == 0.0 for ln in lines)
    assert np.all(curve == 0.0)


def test_ir_broadened_curve_integrates_to_total_strength(surrogate):
    nm = system_normal_modes(surrogate)
    grid = np.linspace(-60000.0, 70000.0, 130001)
    lines, g, curve = ir_spectrum(nm, EX, broadening_cm1=30.0, grid_cm1=grid)
    total = sum(ln.strength for ln in lines)
    integral = np.trapezoid(curve, g)
    assert integral == pytest.approx(total, rel=1e-3)


def test_ir_rotational_covariance():
    # rotate Hessian, dipole gradient and polarization together: the line
    # strengths are frame independent
    rng = np.random.default_rng(21)
    particles = (Particle("A", 12.0, 0.3), Particle("B", 14.0, -0.5), Particle("C", 16.0, 0.2))
    bonds = (HarmonicBond(0, 1, 0.3, 2.0), HarmonicBond(1, 2, 0.25, 2.2))
    ref = np.array([2.0, 0, 0, 0.0, 0, 0, 0.0, 0, 0])
    ref[6:9] = ref[3:6] + 2.2 * np.array([-0.5, np.sqrt(1 - 0.25), 0.0])
    sys_ = ModelSystem(
        particles=particles,
        bonds=bonds,
        couplings=(),
        reference_positions=ref,
    )
    from cavimd.model import dipole_gradient

    eps = rng.standard_normal(3)
    eps /= np.linalg.norm(eps)
    hess = hessian(sys_, ref)
    dgrad = dipole_gradient(sys_)
    masses = sys_.masses
    lines0, _, _ = ir_spectrum(normal_modes(hess, masses, dgrad), eps)
    rot = random_rotation(rng)
    big = np.kron(np.eye(3), rot)
    lines1, _, _ = ir_spectrum(
        normal_modes(big @ hess @ big.T, masses, rot @ dgrad @ big.T), rot @ eps
    )
    s0 = sorted((ln.frequency_cm1, ln.strength) for ln in lines0)
    s1 = sorted((ln.frequency_cm1, ln.strength) for ln in lines1)
    scale = max(a for _, a in s0)
    for (f0, a0), (f1, a1) in zip(s0, s1):
        assert f0 == pytest.approx(f1, abs=1e-6)
        assert abs(a0 - a1) < 1e-10 * max(1.0, scale)


def test_polariton_lambda_zero_reduction(surrogate):
    nm = system_normal_modes(surrogate)
    mode = CavityMode(omega_c=0.004, lambda_mag=0.0, polarization=EX)
    pol = polariton_modes(nm, mode)
    expected = np.sort(np.concatenate([nm.eigenvalues, [0.004**2]]))
    assert np.array_equal(np.sort(pol.eigenvalues), expected)


def test_polariton_closed_form_two_by_two():
    rng = np.random.default_rng(3)
    for _ in range(100):
        omega_v = rng.uniform(1e-3, 2e-2)
        omega_c = rng.uniform(1e-3, 2e-2)
        dt_ = rng.uniform(0.0, 5e-3)
        modes = NormalModes(
            frequencies_cm1=np.array([omega_v * CM1_PER_HARTREE]),
            eigenvalues=np.array([omega_v**2]),
            modes=np.eye(1),
            mode_dipole=np.array([[dt_, 0.0, 0.0]]),
        )
        mode = CavityMode(omega_c=omega_c, lambda_mag=1.0, polarization=EX)
        pol = polariton_modes(modes, mode)
        s = omega_v**2 + dt_**2 + omega_c**2
        d = np.sqrt((omega_v**2 + dt_**2 - omega_c**2) ** 2 + 4 * omega_c**2 * dt_**2)
        expected = np.sort([0.5 * (s - d), 0.5 * (s + d)])
        assert np.allclose(pol.eigenvalues, expected, rtol=1e-10)


def test_polariton_example_values():
    modes = NormalModes(
        frequencies_cm1=np.array([1.0 * CM1_PER_HARTREE]),
        eigenvalues=np.array([1.0]),
        modes=np.eye(1),
        mode_dipole=np.array([[0.2, 0.0, 0.0]]),
    )
    mode = CavityMode(omega_c=1.0, lambda_mag=1.0, polarization=EX)
    pol = polariton_modes(modes, mode)
    freqs = np.sqrt(pol.eigenvalues)
    assert freqs == pytest.approx([0.904988, 1.104988], abs=1e-6)


def test_self_polarization_only_blue_shift(surrogate):
    nm = system_normal_modes(surrogate)
    mode = CavityMode(
        omega_c=5.0, lambda_mag=0.1, polarization=EX, bilinear_on=False
    )
    pol = polariton_modes(nm, mode)
    evals = np.sort(pol.eigenvalues)
    photon_idx = int(np.argmin(np.abs(evals - 25.0)))
    coupled = np.delete(evals, photon_idx)
    bare = np.sort(nm.eigenvalues)
    assert np.all(coupled >= bare - 1e-12)
    dt_ = 0.1 * (nm.mode_dipole @ EX)
    strict = np.abs(dt_) > 1e-6
    # every strongly dipole-active mode is strictly shifted upward
    order = np.argsort(nm.eigenvalues)
    assert np.all(coupled[strict[order]] > bare[strict[order]])


def test_td_spectrum_constant_dipole_is_flat():
    n = 512
    from cavimd.dynamics import Trajectory

    zero = np.zeros(n)
    traj = Trajectory(
        times=np.arange(n) * 10.0,
        positions=np.zeros((n, 6)),
        velocities=np.zeros((n, 6)),
        photon_q=zero,
        photon_p=zero.copy(),
        epot=zero.copy(),
        ekin=zero.copy(),
        ecav=zero.copy(),
        etot=zero.copy(),
        dipole=np.full((n, 3), 1.7),
    )
    freqs, power = td_spectrum(traj, EX)
    assert np.abs(power).max() < 1e-20


def test_td_spectrum_needs_enough_frames(surrogate):
    state = FullState(surrogate.reference_positions.copy(), np.zeros(18), PhotonState(0, 0))
    traj, _ = propagate(surrogate, None, state, fs_to_au(0.5), 40, stride=1)
    with pytest.raises(ValueError):
        td_spectrum(traj, EX)


def test_td_spectrum_peak_matches_mode_frequency():
    sys_ = make_diatomic(k=0.1, m_amu=10.0, q=0.3)
    nm = system_normal_modes(sys_)
    f_mode = nm.frequencies_cm1.max()
    k = int(np.argmax(nm.frequencies_cm1))
    disp = 0.01 * nm.modes[:, k] / np.sqrt(sys_.masses3)
    state = FullState(sys_.reference_positions + disp, np.zeros(6), PhotonState(0, 0))
    dt = fs_to_au(0.25)
    traj, _ = propagate(sys_, None, state, dt, 12000, stride=4)
    freqs, power = td_spectrum(traj, EX)
    peak = freqs[np.argmax(power[1:]) + 1]
    assert abs(peak - f_mode) <= spectrum_bin_cm1(traj)


@pytest.mark.parametrize("stride", [1, 3, 4])
def test_td_spectrum_frame_spacing_is_the_step_times_the_stride(stride):
    # the frame spacing comes from the recorded times; it is bit for bit the run's dt * stride
    sys_ = make_diatomic(k=0.1, m_amu=10.0, q=0.3)
    state = FullState(sys_.reference_positions + [0.01, 0, 0, 0, 0, 0], np.zeros(6), PhotonState(0, 0))
    dt = fs_to_au(0.25)
    traj, _ = propagate(sys_, None, state, dt, 300 * stride, stride)
    n = traj.n_frames
    freqs, _ = td_spectrum(traj, EX)
    assert freqs.tobytes() == (np.fft.rfftfreq(n, d=dt * stride) * 2.0 * np.pi * CM1_PER_HARTREE).tobytes()
    assert spectrum_bin_cm1(traj) == 2.0 * np.pi / (dt * stride * (n - 1)) * CM1_PER_HARTREE


# --- occupations ---------------------------------------------------------------

def test_occupation_zero_at_rest(surrogate):
    nm = system_normal_modes(surrogate)
    state = FullState(surrogate.reference_positions.copy(), np.zeros(18), PhotonState(0, 0))
    traj, _ = propagate(surrogate, None, state, fs_to_au(0.5), 8, stride=1)
    occ = mode_occupation(traj, nm, surrogate.reference_positions)
    assert np.abs(occ.energies).max() < 1e-25


def test_occupation_single_mode_constant():
    # harmonic-only pair: displacement along one mode keeps its energy constant
    sys_ = make_diatomic(k=0.05, m_amu=5.0, q=0.0)
    nm = system_normal_modes(sys_)
    k = int(np.argmax(nm.frequencies_cm1))
    omega = nm.frequencies_cm1[k] / CM1_PER_HARTREE
    q0 = 0.05
    disp = q0 * nm.modes[:, k] / np.sqrt(sys_.masses3)
    state = FullState(sys_.reference_positions + disp, np.zeros(6), PhotonState(0, 0))
    traj, _ = propagate(sys_, None, state, fs_to_au(0.25), 2000, stride=4)
    occ = mode_occupation(traj, nm, sys_.reference_positions)
    target = 0.5 * omega**2 * q0**2
    # constant up to the integrator's bounded O(dt^2) energy oscillation
    assert np.abs(occ.energies[:, k] - target).max() < 2e-3 * target
    others = np.delete(occ.energies, k, axis=1)
    assert np.abs(others).max() < 1e-10


def test_occupation_completeness_harmonic_chain():
    particles = (Particle("A", 10.0, 0.0), Particle("B", 14.0, 0.0), Particle("C", 12.0, 0.0))
    bonds = (HarmonicBond(0, 1, 0.2, 2.0), HarmonicBond(1, 2, 0.15, 2.1))
    ref = np.array([2.0, 0, 0, 0.0, 0, 0, -2.1, 0, 0])
    sys_ = ModelSystem(
        particles=particles,
        bonds=bonds,
        couplings=(),
        reference_positions=ref,
    )
    nm = system_normal_modes(sys_)
    rng = np.random.default_rng(5)
    # purely longitudinal excitation: along the chain axis the potential is
    # exactly quadratic, so the mode basis is complete
    disp = np.zeros(9)
    vel = np.zeros(9)
    disp[0::3] = 1e-2 * rng.standard_normal(3)
    vel[0::3] = 1e-6 * rng.standard_normal(3)
    state = FullState(ref + disp, vel, PhotonState(0, 0))
    traj, _ = propagate(sys_, None, state, fs_to_au(0.25), 1000, stride=4)
    occ = mode_occupation(traj, nm, ref)
    total = occ.energies.sum(axis=1)
    matter = traj.epot + traj.ekin
    assert np.abs(total - matter).max() / matter.max() < 1e-8


def test_occupation_difference_zero_and_linearity(surrogate):
    nm = system_normal_modes(surrogate)
    state = FullState(surrogate.reference_positions.copy(), np.zeros(18), PhotonState(0, 0))
    traj, _ = propagate(surrogate, None, state, fs_to_au(0.5), 16, stride=2)
    occ = mode_occupation(traj, nm, surrogate.reference_positions)
    diff = occupation_difference(occ, occ)
    assert np.all(diff.delta == 0.0)
    assert np.all(diff.accumulated == 0.0)
    # synthetic one-mode offset integrates to offset * span
    import copy

    occ_b = mean_occupation_map([occ])
    occ_b.normalized = occ.normalized.copy()
    occ_b.normalized[:, 4] += 0.25
    diff2 = occupation_difference(occ_b, occ)
    span = occ.times_fs[-1] - occ.times_fs[0]
    assert diff2.accumulated[4] == pytest.approx(0.25 * span, rel=1e-12)
    assert np.abs(np.delete(diff2.accumulated, 4)).max() < 1e-15


@pytest.mark.parametrize("n", [1, 2, 16])
def test_mean_occupation_map_streams_bit_for_bit(n):
    rng = np.random.default_rng(n)

    def cells(*shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        x[rng.random(shape) < 0.1] = -0.0  # np.mean sums from +0.0, so -0.0 alone averages to +0.0
        return x

    times = np.arange(1001) * 1.0
    freqs = np.linspace(0.0, 1700.0, 18)
    maps = [
        OccupationMap(times, cells(1001, 18), cells(1001, 18), cells(1001), freqs) for _ in range(n)
    ]
    same = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()  # noqa: E731
    listed, streamed = mean_occupation_map(maps), mean_occupation_map(iter(maps))
    for name in ("times_fs", "energies", "normalized", "photon_q", "frequencies_cm1"):
        assert same(getattr(streamed, name), getattr(listed, name))
    for name in ("energies", "normalized", "photon_q"):
        assert same(listed.__dict__[name], np.mean([m.__dict__[name] for m in maps], axis=0))


def test_mean_occupation_map_rejects_no_maps_and_mismatched_grids(surrogate):
    nm = system_normal_modes(surrogate)
    state = FullState(surrogate.reference_positions.copy(), np.zeros(18), PhotonState(0, 0))
    t1, _ = propagate(surrogate, None, state, fs_to_au(0.5), 16, stride=2)
    t2, _ = propagate(surrogate, None, state, fs_to_au(0.5), 16, stride=4)
    with pytest.raises(ValueError, match="no maps"):
        mean_occupation_map(iter([]))
    maps = (mode_occupation(t, nm, surrogate.reference_positions) for t in (t1, t2))
    with pytest.raises(ValueError, match="mismatched grids"):
        mean_occupation_map(maps)


def test_occupation_difference_grid_mismatch(surrogate):
    nm = system_normal_modes(surrogate)
    state = FullState(surrogate.reference_positions.copy(), np.zeros(18), PhotonState(0, 0))
    t1, _ = propagate(surrogate, None, state, fs_to_au(0.5), 16, stride=2)
    t2, _ = propagate(surrogate, None, state, fs_to_au(0.5), 16, stride=4)
    with pytest.raises(ValueError):
        occupation_difference(
            mode_occupation(t1, nm, surrogate.reference_positions),
            mode_occupation(t2, nm, surrogate.reference_positions),
        )


# --- correlations ----------------------------------------------------------------

def test_windowed_correlation_self_and_mirror():
    rng = np.random.default_rng(9)
    f = rng.standard_normal(600)
    vals, ndeg = windowed_correlation(f, f, 64)
    assert np.allclose(vals, 1.0, atol=1e-12)
    vals2, _ = windowed_correlation(f, -f, 64)
    assert np.allclose(vals2, 1.0, atol=1e-12)
    assert ndeg == 0


def test_windowed_correlation_white_noise_bound():
    rng = np.random.default_rng(10)
    fa = rng.standard_normal(4096)
    fb = rng.standard_normal(4096)
    vals, _ = windowed_correlation(fa, fb, 256)
    assert vals.mean() < 0.2


def test_windowed_correlation_degenerate_flag():
    f = np.zeros(300)
    g = np.ones(300)
    vals, ndeg = windowed_correlation(f, g, 50)
    assert np.all(vals == 0.0)
    assert ndeg == vals.size


def test_bond_force_correlation_identical_bond(surrogate):
    from cavimd import SamplingSpec, sample_velocities
    from cavimd.model import pta_launch_positions

    launch = pta_launch_positions(surrogate)
    v = sample_velocities(surrogate, SamplingSpec(300.0, 4, aim=(0, 1)), launch)
    traj, _ = propagate(surrogate, None, FullState(launch, v, PhotonState(0, 0)), fs_to_au(0.5), 300, 2)
    corr = analysis_bond_corr(traj, surrogate, (1, 3), (1, 3), 32)
    assert np.allclose(corr.values, 1.0, atol=1e-12)
    assert corr.integrated == pytest.approx(1.0, abs=1e-12)


def analysis_bond_corr(traj, system, a, b, w):
    from cavimd import bond_force_correlation

    return bond_force_correlation(traj, system, a, b, w)


# --- transition state ----------------------------------------------------------

def test_barrier_frequency_quadratic_bump():
    assert barrier_frequency(-0.01, 1.0) == pytest.approx(0.1, rel=1e-12)


def make_reactive_pair():
    well = calibrate_reactive_bond(0.35 / EV_PER_HARTREE, 3.6, 4.55, 0.26, -2.351e-3)
    particles = (Particle("Si", 28.0, 0.0), Particle("C", 12.0, 0.0))
    return ModelSystem(
        particles=particles,
        bonds=(ReactiveBond(0, 1, well),),
        couplings=(),
        reference_positions=np.array([0.0, 0, 0, 3.6, 0, 0]),
    )


def test_find_transition_state_pure_double_well():
    sys_ = make_reactive_pair()
    ts = find_transition_state(sys_, 4.0, 5.0, 21)
    pts = ts.geometry.reshape(-1, 3)
    r = np.linalg.norm(pts[0] - pts[1])
    assert r == pytest.approx(4.55, abs=1e-8)
    assert ts.barrier_ev == pytest.approx(0.35, abs=1e-6)
    assert ts.gradient_norm < 1e-8
    assert ts.n_negative == 1
    mu = (28.0 * 12.0 / 40.0) * EMASS_PER_AMU
    assert ts.omega_b_cm1 == pytest.approx(86.0, rel=0.02)
    # two particles: the relaxed profile is the well itself, so the held distance is honoured
    well = sys_.bonds[0].well
    assert ts.profile_energy == pytest.approx(well.energy(ts.profile_r), abs=1e-12)


def test_find_transition_state_surrogate_barrier(surrogate):
    ts = find_transition_state(surrogate, 3.9, 5.1, 25)
    assert ts.barrier_ev == pytest.approx(0.35, abs=1e-4)
    assert ts.gradient_norm < 1e-8
    assert ts.n_negative == 1


def test_bond_constraint_equals_kron_bit_for_bit():
    rng = np.random.default_rng(19)
    units = [v / np.linalg.norm(v) for v in rng.standard_normal((20, 3))]
    units += [np.array([0.0, -1.0, 0.0]), np.array([-0.6, 0.0, 0.8]), np.array([0.0, 0.0, -1.0])]
    for bond in ((1, 4), (4, 1), (0, 5)):
        ends = np.zeros(6)
        ends[list(bond)] = 1.0, -1.0
        ends2 = np.outer(ends, ends)[:, None, :, None]
        for u in units:
            n, curvature = _bond_constraint(ends, ends2, u)
            want_n = np.kron(ends, u)
            want_c = np.kron(np.outer(ends, ends), np.eye(3) - np.outer(u, u))
            assert np.array_equal(n.view(np.uint64), want_n.view(np.uint64))
            assert np.array_equal(curvature.view(np.uint64), want_c.view(np.uint64))


def test_find_transition_state_requires_interior_maximum():
    sys_ = make_reactive_pair()
    with pytest.raises(SearchError):
        find_transition_state(sys_, 3.6, 4.2, 13)  # scan stops before the barrier


@pytest.mark.parametrize(
    "r_min, r_max, n_points, bad",
    [
        (0.0, 5.1, 25, "r_min .* got 0.0"),
        (-1.0, 5.1, 25, "r_min .* got -1.0"),
        (3.9, np.inf, 25, "r_max .* got inf"),
        (3.9, 5.1, 25.5, "n_points .* got 25.5"),
    ],
    ids=["r_min-zero", "r_min-negative", "r_max-inf", "n_points-fractional"],
)
def test_find_transition_state_rejects_bad_scan(surrogate, r_min, r_max, n_points, bad):
    with pytest.raises(ValueError, match=bad):
        find_transition_state(surrogate, r_min, r_max, n_points)


def test_find_transition_state_agrees_across_jittered_starts(surrogate):
    rng = np.random.default_rng(26)
    starts = [surrogate.reference_positions + 0.02 * rng.standard_normal(18) for _ in range(4)]
    results = [find_transition_state(surrogate, 3.9, 5.1, 25, start_positions=x) for x in starts]
    barriers = [ts.barrier_ev for ts in results]
    omegas = [ts.omega_b_cm1 for ts in results]
    assert max(barriers) - min(barriers) <= 1e-12
    assert max(omegas) - min(omegas) <= 1e-7
    assert all(ts.n_negative == 1 for ts in results)
    assert all(ts.gradient_norm < 1e-12 for ts in results)


def test_find_transition_state_hessian_budget(surrogate, monkeypatch):
    # each scan point from the fourth on starts from the quadratic extrapolation of the last three: 47
    # Hessians, where starting from the previous relaxed geometry took 91
    calls = []
    real = analysis._model.fd_hessian
    monkeypatch.setattr(analysis._model, "fd_hessian", lambda *a, **k: calls.append(1) or real(*a, **k))
    find_transition_state(surrogate, 3.9, 5.1, 25)
    assert len(calls) <= 55


def test_find_transition_state_profile_matches_relaxation_from_previous_point(surrogate):
    ts = find_transition_state(surrogate, 3.9, 5.1, 25)
    b = surrogate.reactive_bond
    x, want = surrogate.reference_positions, []
    for r in ts.profile_r:
        x, grad_norm = analysis._newton(surrogate, x, (b.i, b.j), r)
        assert grad_norm < 1e-8
        want.append(model.potential_energy(surrogate, x))
    assert np.abs(ts.profile_energy - want).max() <= 1e-12


def test_find_transition_state_builds_normal_modes_once(surrogate, monkeypatch):
    # every Newton step builds a Hessian; only the saddle's mode count diagonalizes one
    calls = []
    real = analysis.normal_modes
    monkeypatch.setattr(analysis, "normal_modes", lambda *a, **k: calls.append(1) or real(*a, **k))
    find_transition_state(surrogate, 3.9, 5.1, 25)
    assert len(calls) == 1


def test_surrogate_normal_mode_frequencies_are_pinned(surrogate):
    # the spectrum and occupation outputs read these modes, so a change of Hessian must show here. Values
    # from numpy 2.4.6 with OpenBLAS 0.3.31 (`SkylakeX` kernel). On its `Haswell` and `Prescott` kernels,
    # eigh moved the vibrational modes by at most 6.6e-15 relative and the near-zero rigid-body modes by
    # at most 2.3e-7 cm^-1; replacing the force-difference Hessian by the energy stencil moves the 856 mode
    # by 3.3e-4 cm^-1 and the near-zero modes by up to 0.65 cm^-1.
    want = np.array([
        -0.0015590205824845915, -0.0010622045990379592, -3.2740722160309655e-05, 0.004720509498048898,
        0.005117139524020286, 0.007735252153407687, 0.00859166156733524, 0.014842539671197311,
        0.016872345094583747, 0.018825845428204303, 0.019889839732422632, 0.06583111140342807,
        0.06583645334498794, 287.217345180666, 520.4832527578054, 679.9877142065922,
        856.0683921383171, 2175.322540196088,
    ])
    got = system_normal_modes(surrogate).frequencies_cm1
    vibrational = np.abs(want) > 1.0
    assert got.shape == want.shape and vibrational.sum() == 5
    np.testing.assert_allclose(got[vibrational], want[vibrational], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[~vibrational], want[~vibrational], rtol=0, atol=1e-5)


# --- bond weights ----------------------------------------------------------------

def test_sic_weights_diatomic_unity():
    sys_ = make_diatomic()
    nm = system_normal_modes(sys_)
    w = sic_weighted_spectrum(nm, (0, 1))
    k = int(np.argmax(nm.frequencies_cm1))
    assert w[k] == pytest.approx(1.0, abs=1e-10)


def test_sic_weights_complete(surrogate):
    nm = system_normal_modes(surrogate)
    w = sic_weighted_spectrum(nm, (1, 3))
    assert (w**2).sum() == pytest.approx(1.0, abs=1e-10)


def test_sic_weights_reject_coincident_particles(surrogate):
    nm = system_normal_modes(surrogate)
    ref = nm.reference_positions.copy()
    nm.reference_positions[3:6] = nm.reference_positions[9:12]
    with pytest.raises(ValueError):
        sic_weighted_spectrum(nm, (1, 3))
    nm.reference_positions[:] = ref


# --- scans -----------------------------------------------------------------------

def scan_setup(surrogate):
    from cavimd import make_specs
    from cavimd.model import pta_launch_positions

    return dict(
        specs=make_specs(42, 2, 300.0, aim=(0, 1)),
        positions=pta_launch_positions(surrogate),
        dt=fs_to_au(0.5),
        n_steps=120,
        stride=4,
    )


def test_resonance_scan_zero_ratio_equals_baseline(surrogate):
    from cavimd.analysis import resonance_scan

    s = scan_setup(surrogate)
    rows = resonance_scan(
        surrogate, s["specs"], [(300.0, 0.0), (856.0, 0.0)],
        positions=s["positions"], dt=s["dt"], n_steps=s["n_steps"], stride=s["stride"],
    )
    base = rows[0]
    for r in rows[1:]:
        assert r.mean_bond_bohr == base.mean_bond_bohr
        assert r.reaction_fraction == base.reaction_fraction


def test_resonance_scan_order_invariant(surrogate):
    from cavimd.analysis import resonance_scan

    s = scan_setup(surrogate)
    kw = dict(positions=s["positions"], dt=s["dt"], n_steps=s["n_steps"], stride=s["stride"])
    fwd = resonance_scan(surrogate, s["specs"], [(200.0, 0.8), (856.0, 0.8)], **kw)
    rev = resonance_scan(surrogate, s["specs"], [(856.0, 0.8), (200.0, 0.8)], **kw)
    by_omega_fwd = {r.omega_c_cm1: r for r in fwd}
    by_omega_rev = {r.omega_c_cm1: r for r in rev}
    assert by_omega_fwd.keys() == by_omega_rev.keys()
    for key in by_omega_fwd:
        assert by_omega_fwd[key].mean_bond_bohr == by_omega_rev[key].mean_bond_bohr
        assert by_omega_fwd[key].reaction_fraction == by_omega_rev[key].reaction_fraction


def test_coupling_scan_schema_matches_resonance_scan(surrogate):
    # a coupling scan is the same scan over conditions at one frequency
    from cavimd.analysis import resonance_scan

    s = scan_setup(surrogate)
    kw = dict(positions=s["positions"], dt=s["dt"], n_steps=s["n_steps"], stride=s["stride"])
    r1 = resonance_scan(surrogate, s["specs"], [(856.0, 0.5)], **kw)
    r2 = resonance_scan(surrogate, s["specs"], [(856.0, 0.0), (856.0, 0.5)], **kw)
    assert r1[0] == r2[0]
    assert r1[0].kind == "baseline"
    assert [r.ratio for r in r2] == [0.0, 0.0, 0.5]
    # ratio 0 row reproduces the baseline numbers
    assert r2[1].mean_bond_bohr == r2[0].mean_bond_bohr
    assert r2[2] == r1[1]


def test_scan_row_counts_only_succeeded_trajectories(surrogate):
    import dataclasses

    from cavimd import make_specs
    from cavimd.analysis import resonance_scan

    s = scan_setup(surrogate)
    specs = make_specs(42, 3, 300.0, aim=(0, 1))
    # an absurd temperature blows the first trajectory of every condition up
    specs[0] = dataclasses.replace(specs[0], temperature_K=1e30)
    rows = resonance_scan(
        surrogate, specs, [(856.0, 0.5)],
        positions=s["positions"], dt=s["dt"], n_steps=s["n_steps"], stride=s["stride"],
    )
    assert [r.n for r in rows] == [len(specs) - 1] * 2
    for r in rows:
        assert r.reaction_fraction * r.n == round(r.reaction_fraction * r.n)


def test_run_ensemble_order_independent(surrogate):
    from cavimd import SamplingSpec, run_ensemble
    from cavimd.model import pta_launch_positions

    launch = pta_launch_positions(surrogate)
    # streams keyed 5 XOR k
    specs = [SamplingSpec(300.0, 5 ^ k, aim=(0, 1)) for k in range(3)]
    kw = dict(positions=launch, dt=fs_to_au(0.5), n_steps=120, stride=4)
    fwd = run_ensemble(surrogate, None, specs, **kw)
    rev = run_ensemble(surrogate, None, list(reversed(specs)), **kw)
    assert fwd.reaction_fraction == rev.reaction_fraction
    assert fwd.mean_bond_bohr == rev.mean_bond_bohr
    by_seed_fwd = {r.seed: r.mean_bond_bohr for r in fwd.records}
    by_seed_rev = {r.seed: r.mean_bond_bohr for r in rev.records}
    assert by_seed_fwd == by_seed_rev


@pytest.mark.parametrize(
    "dt_fs, n_steps, window, steps",
    [
        (0.5, 120, (0.0, 30.0), 64),  # window ends on frame 15: stop at frame 16
        (0.5, 120, (0.0, 31.0), 64),  # between frames 15 and 16
        (0.5, 120, (0.0, 58.0), 120),  # the first frame past the window is the last one
        (0.5, 120, (0.0, 60.0), 120),  # at the last frame: no frame past the window
        (0.5, 120, None, 120),
        (0.25, 4000, (0.0, 700.0), 2804),  # configs/default.yaml: 701 frames x stride 4
        (0.25, 4 * 10**13, (0.0, 700.0), 2804),  # 1e13 frames, none of them held
    ],
)
def test_scan_stops_at_the_first_frame_past_the_window(dt_fs, n_steps, window, steps):
    from cavimd.dynamics import window_steps

    assert window_steps(fs_to_au(dt_fs), n_steps, 4, window) == steps


@pytest.mark.parametrize("window_end, steps", [(59.0, 120), (60.0, 124)])
def test_windowed_scan_matches_full_duration_statistics(surrogate, monkeypatch, window_end, steps):
    # frames are 2 fs apart; baseline crossings at 58.7 fs and 61.5 fs fall
    # between the last frame inside each window and the first frame past it
    from cavimd import SamplingSpec, analysis
    from cavimd.cavity import lambda_for_ratio
    from cavimd.ensemble import run_conditions
    from cavimd.model import pta_launch_positions

    # streams keyed 42 XOR k
    specs = [SamplingSpec(300.0, 42 ^ k, aim=(0, 1)) for k in range(6)]
    kw = dict(
        positions=pta_launch_positions(surrogate),
        dt=fs_to_au(0.5),
        n_steps=240,
        stride=4,
        window_fs=(0.0, window_end),
    )
    ran = []

    def spy(*args, **kwargs):
        ran.append(kwargs["n_steps"])
        return run_conditions(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_conditions", spy)
    rows = analysis.resonance_scan(surrogate, specs, [(856.0, 0.8)], **kw)
    assert ran == [steps]
    omega = 856.0 / CM1_PER_HARTREE
    mode = CavityMode(omega, lambda_for_ratio(0.8, omega), np.array([1.0, 0.0, 0.0]))
    full = run_conditions(surrogate, [(None, specs), (mode, specs)], **kw)
    assert all(rec.error is None for result in full for rec in result.records)
    assert full[0].reaction_fraction == 1 / 6
    for row, result in zip(rows, full):
        assert (row.n, row.reaction_fraction, row.mean_bond_bohr, row.stderr_bond_bohr) == (
            len(result.series_index),
            result.reaction_fraction,
            result.mean_bond_bohr,
            result.stderr_bond_bohr,
        )


def test_scan_counts_a_row_that_fails_only_after_the_window(surrogate):
    # at a 4 fs step trajectory 1 reacts at 133 fs, then blows up near 970 fs
    from cavimd import make_specs
    from cavimd.analysis import resonance_scan
    from cavimd.ensemble import run_conditions
    from cavimd.model import pta_launch_positions

    specs = make_specs(1, 3, 300.0, aim=(0, 1))
    kw = dict(
        positions=pta_launch_positions(surrogate),
        dt=fs_to_au(4.0),
        n_steps=250,
        stride=4,
        window_fs=(0.0, 700.0),
    )
    full = run_conditions(surrogate, [(None, specs)], **kw)[0]
    assert [rec.error is not None for rec in full.records] == [False, True, False]
    base = resonance_scan(surrogate, specs, [(856.0, 1.132)], **kw)[0]
    assert (base.n, base.reaction_fraction) == (3, 1 / 3)


def test_ir_spectrum_weighs_each_line_by_its_modes_sic_projection(surrogate):
    # a kept line's weight is its mode's Si-C stretch weight, for the bare modes and for their polaritons
    rb = surrogate.reactive_bond
    modes = system_normal_modes(surrogate)
    polaritons = polariton_modes(modes, CavityMode(856.0 / CM1_PER_HARTREE, 0.05, np.array([1.0, 0.0, 0.0])))
    for eff, weights in [
        (modes, sic_weighted_spectrum(modes, (rb.i, rb.j))),
        (polaritons, analysis.polariton_sic_weights(polaritons, modes, (rb.i, rb.j))),
    ]:
        lines, _, _ = ir_spectrum(eff, [1.0, 0.0, 0.0])
        kept = eff.frequencies_cm1 > NEAR_ZERO_CM1
        assert [ln.frequency_cm1 for ln in lines] == eff.frequencies_cm1[kept].tolist()
        assert [ln.si_c_weight for ln in lines] == weights[kept].tolist()
        assert max(ln.si_c_weight for ln in lines) > 0.5


def test_modes_without_a_reactive_bond_weigh_every_line_zero(diatomic):
    modes = system_normal_modes(diatomic)
    polaritons = polariton_modes(modes, CavityMode(856.0 / CM1_PER_HARTREE, 0.05, np.array([1.0, 0.0, 0.0])))
    for eff in (modes, polaritons):
        assert eff.sic_projection is None
        lines, _, _ = ir_spectrum(eff, [1.0, 0.0, 0.0])
        assert lines and all(ln.si_c_weight == 0.0 for ln in lines)
