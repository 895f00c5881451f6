import numpy as np
import pytest

from cavimd import (
    CavityMode,
    FullState,
    PhotonState,
    detect_reaction,
    propagate,
    velocity_verlet_step,
)
from cavimd.dynamics import IntegrationError, Trajectory
from cavimd.model import HarmonicBond, ModelSystem, Particle, pta_launch_positions
from cavimd.ensemble import SamplingSpec, sample_velocities
from cavimd.units import AUT_PER_FS, CM1_PER_HARTREE, EMASS_PER_AMU, fs_to_au

EX = np.array([1.0, 0.0, 0.0])


def sho_system(k=1.0, r0=2.0, m_au=1.0):
    """Effective 1D oscillator: a light particle bonded to a near-infinite mass."""
    particles = (Particle("light", m_au / EMASS_PER_AMU, 0.0), Particle("wall", 1e12, 0.0))
    return ModelSystem(
        particles=particles,
        bonds=(HarmonicBond(0, 1, k, r0),),
        couplings=(),
        reference_positions=np.array([r0, 0, 0, 0.0, 0, 0]),
    )


def soft_pair():
    particles = (Particle("A", 50.0, 0.0), Particle("B", 50.0, 0.0))
    return ModelSystem(
        particles=particles,
        bonds=(HarmonicBond(0, 1, 0.0015, 2.0),),
        couplings=(),
        reference_positions=np.array([2.0, 0, 0, 0.0, 0, 0]),
    )


def test_fixed_point_at_equilibrium(surrogate):
    state = FullState(
        surrogate.reference_positions.copy(), np.zeros(18), PhotonState(0.0, 0.0), 0.0
    )
    out = velocity_verlet_step(surrogate, None, state, 1.0)
    # residual forces at the reference are pure roundoff (~1e-16)
    assert np.abs(out.positions - state.positions).max() < 1e-15
    assert np.abs(out.velocities).max() < 1e-15
    assert out.time == 1.0


@pytest.mark.parametrize("bilinear, self_polarization", [(True, True), (False, True), (True, False)])
def test_propagator_accelerations_match_cavity_forces(surrogate, bilinear, self_polarization):
    # ties the integrator's forces to the finite-difference-checked cavity.py path
    from cavimd.cavity import CavityRows, nuclear_cavity_force, photon_force
    from cavimd.dynamics import _Propagator
    from cavimd.model import dipole, forces

    rng = np.random.default_rng(31)
    eps = rng.standard_normal(3)
    mode = CavityMode(
        omega_c=856.0 / CM1_PER_HARTREE,
        lambda_mag=0.08,
        polarization=eps / np.linalg.norm(eps),
        bilinear_on=bilinear,
        self_polarization_on=self_polarization,
    )
    prop = _Propagator(surrogate, CavityRows.of([mode]))
    for _ in range(25):
        x = surrogate.reference_positions + 0.15 * rng.standard_normal(18)
        photon = PhotonState(rng.normal(scale=20.0), rng.normal())
        a, a_q = prop.accelerations(x[None, :], np.array([photon.q]))
        a, a_q = a[0], a_q[0]
        f = forces(surrogate, x) + nuclear_cavity_force(mode, photon, surrogate, x)
        np.testing.assert_allclose(a, f / surrogate.masses3, rtol=1e-13, atol=0.0)
        assert a_q == pytest.approx(photon_force(mode, photon, dipole(surrogate, x)), rel=1e-13)


def test_harmonic_period():
    sys_ = sho_system()
    x0 = np.array([3.0, 0, 0, 0.0, 0, 0])  # stretched by 1
    state = FullState(x0, np.zeros(6), PhotonState(0.0, 0.0))
    dt = 1e-3
    n = int(round(2 * np.pi / dt))
    traj, _ = propagate(sys_, None, state, dt, n, stride=n)
    assert traj.positions[-1][0] == pytest.approx(3.0, abs=1e-5)


def test_single_step_reversibility(surrogate):
    rng = np.random.default_rng(0)
    mode = CavityMode(omega_c=0.004, lambda_mag=0.05, polarization=EX)
    x = surrogate.reference_positions + 0.05 * rng.standard_normal(18)
    v = 1e-4 * rng.standard_normal(18)
    state = FullState(x.copy(), v, PhotonState(1.3, -0.2))
    dt = fs_to_au(0.25)
    fwd = velocity_verlet_step(surrogate, mode, state, dt)
    back = velocity_verlet_step(
        surrogate,
        mode,
        FullState(fwd.positions, -fwd.velocities, PhotonState(fwd.photon.q, -fwd.photon.p)),
        dt,
    )
    assert np.abs(back.positions - x).max() < 1e-12


def test_many_step_reversibility(surrogate):
    rng = np.random.default_rng(1)
    mode = CavityMode(omega_c=0.004, lambda_mag=0.05, polarization=EX)
    x = surrogate.reference_positions + 0.05 * rng.standard_normal(18)
    state = FullState(x.copy(), 1e-4 * rng.standard_normal(18), PhotonState(0.5, 0.0))
    dt = fs_to_au(0.25)
    traj, _ = propagate(surrogate, mode, state, dt, 400, stride=400)
    turned = FullState(
        traj.positions[-1],
        -traj.velocities[-1],
        PhotonState(traj.photon_q[-1], -traj.photon_p[-1]),
    )
    traj2, _ = propagate(surrogate, mode, turned, dt, 400, stride=400)
    assert np.abs(traj2.positions[-1] - x).max() < 1e-9


def test_free_photon_discrete_cosine():
    # all charges zero: the photon is a free oscillator; velocity Verlet
    # samples q0*cos(n*theta) exactly, theta = arccos(1 - (omega*dt)^2/2)
    sys_ = sho_system()
    mode = CavityMode(omega_c=3.9e-3, lambda_mag=0.0, polarization=EX)
    q0 = -17.0
    state = FullState(
        sys_.reference_positions.copy(), np.zeros(6), PhotonState(q0, 0.0)
    )
    dt = fs_to_au(0.25)
    traj, _ = propagate(sys_, mode, state, dt, 4000, stride=1)
    theta = np.arccos(1.0 - 0.5 * (mode.omega_c * dt) ** 2)
    expected = q0 * np.cos(theta * np.arange(traj.n_frames))
    assert np.abs(traj.photon_q - expected).max() < 1e-11 * abs(q0)


def test_harmonic_energy_conservation_every_frame():
    sys_ = soft_pair()
    x0 = np.array([2.5, 0, 0, 0.0, 0, 0])
    state = FullState(x0, np.zeros(6), PhotonState(0.0, 0.0))
    dt = fs_to_au(0.25)
    n = int(round(1000.0 * AUT_PER_FS / dt))
    traj, _ = propagate(sys_, None, state, dt, n, stride=4)
    rel = np.abs(traj.etot - traj.etot[0]) / abs(traj.etot[0])
    assert rel.max() < 1e-6


def test_second_order_convergence_harmonic():
    sys_ = soft_pair()
    x0 = np.array([2.5, 0, 0, 0.0, 0, 0])

    def peak_err(dt):
        n = int(round(200.0 * AUT_PER_FS / dt))
        traj, _ = propagate(sys_, None, FullState(x0.copy(), np.zeros(6), PhotonState(0, 0)), dt, n, stride=4)
        return np.abs(traj.etot - traj.etot[0]).max()

    dt = fs_to_au(0.5)
    ratio = peak_err(dt) / peak_err(dt / 2)
    assert 3.5 < ratio < 4.5


def test_propagate_validations(surrogate):
    state = FullState(surrogate.reference_positions.copy(), np.zeros(18), PhotonState(0, 0))
    with pytest.raises(ValueError):
        propagate(surrogate, None, state, 1.0, 0)
    with pytest.raises(ValueError):
        propagate(surrogate, None, state, -1.0, 10)
    with pytest.raises(ValueError):
        propagate(surrogate, None, state, 1.0, 10, stride=0)


@pytest.mark.parametrize("n3", [15, 21])
def test_propagate_rejects_a_state_of_another_length(surrogate, n3):
    state = FullState(np.zeros(n3), np.zeros(n3), PhotonState(0, 0))
    with pytest.raises(ValueError, match=rf"state 0: .*\({n3},\).*expected 3N = 18"):
        propagate(surrogate, None, state, 1.0, 10)


def test_nonfinite_forces_raise_integration_error(surrogate):
    state = FullState(surrogate.reference_positions.copy(), np.zeros(18), PhotonState(0, 0))
    state.velocities[0] = 1e6  # absurd velocity blows coordinates up in a few steps
    with np.errstate(over="ignore"), pytest.raises(IntegrationError):
        propagate(surrogate, None, state, 100.0, 50, stride=50)


def test_lambda_zero_bit_identical_to_matter_only(surrogate):
    spec = SamplingSpec(300.0, 99, aim=(0, 1))
    launch = pta_launch_positions(surrogate)
    v = sample_velocities(surrogate, spec, launch)
    dt = fs_to_au(0.25)
    mode0 = CavityMode(omega_c=0.004, lambda_mag=0.0, polarization=EX)
    t_cav, _ = propagate(
        surrogate, mode0, FullState(launch.copy(), v.copy(), PhotonState(2.0, 0.1)), dt, 400, 4
    )
    t_mat, _ = propagate(
        surrogate, None, FullState(launch.copy(), v.copy(), PhotonState(2.0, 0.1)), dt, 400, 4
    )
    assert np.array_equal(t_cav.positions, t_mat.positions)
    assert np.array_equal(t_cav.velocities, t_mat.velocities)


def test_momentum_conserved_without_cavity(surrogate):
    spec = SamplingSpec(300.0, 5, aim=(0, 1))
    launch = pta_launch_positions(surrogate)
    v = sample_velocities(surrogate, spec, launch)
    dt = fs_to_au(0.25)
    traj, _ = propagate(surrogate, None, FullState(launch, v, PhotonState(0, 0)), dt, 400, 40)
    m = surrogate.masses
    for frame in traj.velocities:
        p = (m[:, None] * frame.reshape(-1, 3)).sum(axis=0)
        assert np.abs(p).max() < 1e-12


def test_trajectory_total_is_sum_of_components(surrogate):
    spec = SamplingSpec(300.0, 3, aim=(0, 1))
    launch = pta_launch_positions(surrogate)
    v = sample_velocities(surrogate, spec, launch)
    mode = CavityMode(omega_c=0.004, lambda_mag=0.08, polarization=EX)
    from cavimd import dipole, zero_field_init

    ph = zero_field_init(mode, dipole(surrogate, launch))
    traj, _ = propagate(surrogate, mode, FullState(launch, v, ph), fs_to_au(0.25), 200, 4)
    assert np.allclose(traj.etot, traj.epot + traj.ekin + traj.ecav, atol=1e-15)


def synthetic_linear_trajectory(r_start, rate, n_frames, dt_frame):
    times = np.arange(n_frames) * dt_frame
    positions = np.zeros((n_frames, 6))
    positions[:, 0] = r_start + rate * times
    zero = np.zeros(n_frames)
    return Trajectory(
        times=times,
        positions=positions,
        velocities=np.zeros((n_frames, 6)),
        photon_q=zero,
        photon_p=zero.copy(),
        epot=zero.copy(),
        ekin=zero.copy(),
        ecav=zero.copy(),
        etot=zero.copy(),
        dipole=np.zeros((n_frames, 3)),
    )


def test_detect_reaction_no_crossing():
    traj = synthetic_linear_trajectory(2.0, 0.0, 50, 10.0)
    ev = detect_reaction(traj, (0, 1), 3.0)
    assert not ev.occurred and ev.crossing_time_fs is None


def test_detect_reaction_linear_crossing_time():
    rate = 0.01  # bohr per a.u. time
    dt_frame = 10.0
    traj = synthetic_linear_trajectory(2.0, rate, 200, dt_frame)
    threshold = 3.0
    ev = detect_reaction(traj, (0, 1), threshold)
    t_star_au = (threshold - 2.0) / rate
    assert ev.occurred
    assert ev.crossing_time_fs == pytest.approx(t_star_au / AUT_PER_FS, abs=dt_frame / AUT_PER_FS)


def test_detect_reaction_zero_threshold_degenerate():
    traj = synthetic_linear_trajectory(2.0, 0.0, 10, 10.0)
    ev = detect_reaction(traj, (0, 1), 0.0)
    assert ev.occurred and ev.crossing_time_fs == pytest.approx(0.0)


def test_detect_reaction_invalid_indices():
    traj = synthetic_linear_trajectory(2.0, 0.0, 10, 10.0)
    with pytest.raises(ValueError):
        detect_reaction(traj, (0, 9), 1.0)
    with pytest.raises(ValueError):
        detect_reaction(traj, (0, 1), -1.0)
