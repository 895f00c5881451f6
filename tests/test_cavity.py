import numpy as np
import pytest

from cavimd import (
    CavityMode,
    FullState,
    PhotonState,
    cavity_energy,
    coupling_ratio,
    dipole,
    lambda_for_ratio,
    nuclear_cavity_force,
    photon_force,
    total_energy,
    zero_field_init,
)
from cavimd.model import ModelSystem, Particle
from cavimd.units import CM1_PER_HARTREE, EMASS_PER_AMU

EX = np.array([1.0, 0.0, 0.0])
W856 = 856.0 / CM1_PER_HARTREE


def test_coupling_ratio_anchor():
    assert coupling_ratio(0.1, W856) == pytest.approx(1.132, abs=1e-3)


def test_coupling_ratio_closed_form_case():
    w570 = 570.0 / CM1_PER_HARTREE
    assert w570 == pytest.approx(2.59711e-3, abs=1e-8)
    assert coupling_ratio(0.05, w570) == pytest.approx(0.6938, abs=1e-4)
    assert coupling_ratio(0.0, 0.123) == 0.0


def test_lambda_for_ratio_anchor_and_roundtrip():
    assert lambda_for_ratio(1.132, W856) == pytest.approx(0.1000, abs=1e-3)
    assert lambda_for_ratio(0.0, 0.5) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        ratio = rng.uniform(0.0, 3.0)
        omega = rng.uniform(1e-4, 1e-1)
        assert coupling_ratio(lambda_for_ratio(ratio, omega), omega) == pytest.approx(
            ratio, abs=1e-12
        )


def test_invalid_frequency_rejected():
    with pytest.raises(ValueError):
        coupling_ratio(0.1, 0.0)
    with pytest.raises(ValueError):
        lambda_for_ratio(0.1, -1.0)


def test_zero_field_init():
    mode = CavityMode(omega_c=W856, lambda_mag=0.1, polarization=EX)
    ph = zero_field_init(mode, np.array([2.0, 0.0, 0.0]))
    assert ph.q == pytest.approx(-51.28, abs=0.01)
    assert ph.p == 0.0
    assert photon_force(mode, ph, np.array([2.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # orthogonal dipole leaves the photon at the origin
    ph0 = zero_field_init(mode, np.array([0.0, 3.0, 0.0]))
    assert ph0.q == 0.0


def test_photon_force_cases():
    bare = CavityMode(omega_c=1.0, lambda_mag=0.0, polarization=EX)
    assert photon_force(bare, PhotonState(1.0, 0.0), np.zeros(3)) == pytest.approx(-1.0)
    mode = CavityMode(omega_c=3.90021e-3, lambda_mag=0.1, polarization=EX)
    f = photon_force(mode, PhotonState(0.0, 0.0), np.array([2.0, 0.0, 0.0]))
    assert f == pytest.approx(-7.80042e-4, abs=1e-9)


def test_cavity_energy_cases():
    mode0 = CavityMode(omega_c=1.0, lambda_mag=0.0, polarization=EX)
    assert cavity_energy(mode0, PhotonState(0.0, 0.0), np.zeros(3)) == 0.0
    assert cavity_energy(mode0, PhotonState(0.0, 1.0), np.zeros(3)) == pytest.approx(0.5)
    mode = CavityMode(omega_c=W856, lambda_mag=0.1, polarization=EX)
    mu = np.array([2.0, 0.0, 0.0])
    assert cavity_energy(mode, zero_field_init(mode, mu), mu) == pytest.approx(0.0, abs=1e-12)


def test_rows_carry_the_coefficients_of_their_modes(charged_pair):
    # each single-mode function is a one-row call, equal to that row of any batch
    from cavimd.cavity import CavityRows, coupling_energy, coupling_terms, dipole_direction, projection

    modes = [
        CavityMode(W856, 0.08, EX),
        CavityMode(W856, 0.08, EX, bilinear_on=False),
        CavityMode(W856, 0.08, EX, self_polarization_on=False),
        None,
    ]
    rows = CavityRows.of(modes)
    rng = np.random.default_rng(12)
    x = charged_pair.reference_positions + 0.1 * rng.standard_normal((4, 6))
    mu = np.array([dipole(charged_pair, xk) for xk in x])
    q, p = np.array([0.7, -1.3, 2.1, 0.4]), np.array([0.2, -0.5, 0.9, 0.3])
    mu_eps = projection(rows.polarization, mu)
    a_q, scale = coupling_terms(rows, q, mu_eps)
    force = -scale[:, None] * dipole_direction(charged_pair, rows.polarization)
    energy = coupling_energy(rows, q, p, mu_eps)
    for k, mode in enumerate(modes[:3]):
        photon = PhotonState(q[k], p[k])
        assert photon_force(mode, photon, mu[k]) == a_q[k]
        assert np.all(nuclear_cavity_force(mode, photon, charged_pair, x[k]) == force[k])
        assert cavity_energy(mode, photon, mu[k]) == energy[k]
    names = ("lambda_mag", "omega2", "bilinear_omega", "bilinear_omega_lambda", "self_polarization_lambda")
    assert [getattr(rows, name)[3] for name in names] == [0.0] * 5
    assert np.all(rows.polarization[3] == 0.0) and np.all(force[3] == 0.0) and a_q[3] == 0.0
    assert (rows.bilinear_omega[1], rows.self_polarization_lambda[2]) == (0.0, 0.0)


def test_cavity_energy_nonnegative_with_both_terms():
    rng = np.random.default_rng(2)
    for _ in range(200):
        omega = rng.uniform(1e-3, 1e-1)
        lam = rng.uniform(0.0, 0.3)
        mode = CavityMode(omega_c=omega, lambda_mag=lam, polarization=EX)
        ph = PhotonState(rng.normal(scale=50), rng.normal(scale=0.1))
        mu = rng.normal(scale=3, size=3)
        assert cavity_energy(mode, ph, mu) >= -1e-12


@pytest.fixture()
def charged_pair():
    particles = (Particle("A", 4.0, 0.4), Particle("B", 6.0, -0.9))
    from cavimd.model import HarmonicBond

    return ModelSystem(
        particles=particles,
        bonds=(HarmonicBond(0, 1, 0.2, 2.0),),
        couplings=(),
        reference_positions=np.array([1.0, 0.2, -0.1, -1.0, 0.0, 0.3]),
    )


def test_nuclear_cavity_force_switches(charged_pair):
    x = charged_pair.reference_positions
    off = CavityMode(omega_c=W856, lambda_mag=0.0, polarization=EX)
    assert np.all(nuclear_cavity_force(off, PhotonState(3.0, 0.0), charged_pair, x) == 0.0)
    both_off = CavityMode(
        omega_c=W856,
        lambda_mag=0.1,
        polarization=EX,
        bilinear_on=False,
        self_polarization_on=False,
    )
    assert np.all(nuclear_cavity_force(both_off, PhotonState(3.0, 0.0), charged_pair, x) == 0.0)


def test_zero_field_state_exerts_no_cavity_force(charged_pair):
    mode = CavityMode(omega_c=W856, lambda_mag=0.1, polarization=EX)
    x = charged_pair.reference_positions
    ph = zero_field_init(mode, dipole(charged_pair, x))
    f = nuclear_cavity_force(mode, ph, charged_pair, x)
    assert np.abs(f).max() < 1e-12


def test_nuclear_cavity_force_matches_energy_gradient(charged_pair):
    rng = np.random.default_rng(4)
    mode = CavityMode(omega_c=W856, lambda_mag=0.08, polarization=EX)
    ph = PhotonState(5.0, 0.1)
    x = charged_pair.reference_positions + rng.standard_normal(6)
    f = nuclear_cavity_force(mode, ph, charged_pair, x)
    h = 1e-5
    for k in range(6):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        fd = -(
            cavity_energy(mode, ph, dipole(charged_pair, xp))
            - cavity_energy(mode, ph, dipole(charged_pair, xm))
        ) / (2 * h)
        assert f[k] == pytest.approx(fd, rel=1e-8, abs=1e-12)


def test_total_energy_decomposition(charged_pair):
    rng = np.random.default_rng(9)
    mode = CavityMode(omega_c=W856, lambda_mag=0.05, polarization=EX)
    x = charged_pair.reference_positions + 0.1 * rng.standard_normal(6)
    v = 1e-4 * rng.standard_normal(6)
    state = FullState(x, v, PhotonState(1.0, 0.01))
    from cavimd.cavity import kinetic_energy
    from cavimd.model import potential_energy

    parts = (
        potential_energy(charged_pair, x)
        + kinetic_energy(charged_pair, v)
        + cavity_energy(mode, state.photon, dipole(charged_pair, x))
    )
    assert total_energy(charged_pair, mode, state) == pytest.approx(parts, abs=1e-15)


def test_total_energy_single_particle_kinetic():
    sys1 = ModelSystem(
        particles=(Particle("A", 1.0 / EMASS_PER_AMU, 0.0),),
        bonds=(),
        couplings=(),
    )
    mode = CavityMode(omega_c=1.0, lambda_mag=0.0, polarization=EX)
    state = FullState(np.zeros(3), np.array([0.1, 0.0, 0.0]), PhotonState(0.0, 0.0))
    assert total_energy(sys1, mode, state) == pytest.approx(5e-3, rel=1e-12)


def test_polarization_validation():
    with pytest.raises(ValueError):
        CavityMode(omega_c=1.0, lambda_mag=0.0, polarization=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        CavityMode(omega_c=-1.0, lambda_mag=0.0, polarization=EX)
    with pytest.raises(ValueError):
        CavityMode(1.0, 0.1, np.array([np.nan, 0.0, 0.0]))
