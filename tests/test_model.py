import numpy as np
import pytest

from cavimd import model
from cavimd.model import (
    CalibrationError,
    CouplingTerm,
    HarmonicBond,
    ModelSystem,
    Particle,
    build_pta_surrogate,
    calibrate_reactive_bond,
    dipole,
    dipole_gradient,
    forces,
    potential_energy,
    pta_launch_positions,
)
from cavimd.units import CM1_PER_HARTREE, EMASS_PER_AMU, EV_PER_HARTREE

from conftest import random_rotation

BARRIER_HA = 0.35 / EV_PER_HARTREE
MU_SIC = (28.0 * 12.0 / 40.0) * EMASS_PER_AMU
#: the surrogate's barrier-top curvature, which puts its Si-C barrier frequency at 86 cm^-1
CURVATURE_TS_86 = -MU_SIC * (86.0 / CM1_PER_HARTREE) ** 2


def fd_forces(system, x, h=1e-4):
    out = np.empty_like(x)
    for k in range(x.size):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        out[k] = -(potential_energy(system, xp) - potential_energy(system, xm)) / (2 * h)
    return out


def test_energy_zero_at_rest_lengths(surrogate):
    assert potential_energy(surrogate, surrogate.reference_positions) == pytest.approx(0.0, abs=1e-14)


def test_single_harmonic_bond_energy(diatomic):
    x = diatomic.reference_positions.copy()
    x[0] += 0.2  # stretch along x
    assert potential_energy(diatomic, x) == pytest.approx(0.5 * 0.1 * 0.04, rel=1e-12)


def test_calibrated_barrier_matches_requested():
    well = calibrate_reactive_bond(BARRIER_HA, 3.6, 4.55, 0.26, -2.35e-3)
    assert abs(well.barrier - BARRIER_HA) < 1e-9


def test_forces_zero_at_equilibrium(surrogate):
    f = forces(surrogate, surrogate.reference_positions)
    assert np.abs(f).max() < 1e-13


def test_harmonic_restoring_force(diatomic):
    x = diatomic.reference_positions.copy()
    x[0] += 0.2
    f = forces(diatomic, x).reshape(-1, 3)
    assert f[0, 0] == pytest.approx(-0.02, rel=1e-12)
    assert f[1, 0] == pytest.approx(+0.02, rel=1e-12)
    assert np.abs(f[:, 1:]).max() < 1e-15


def test_forces_match_finite_differences(surrogate):
    rng = np.random.default_rng(7)
    x0 = surrogate.reference_positions
    for _ in range(40):
        x = x0 + 0.15 * rng.standard_normal(x0.size)
        f = forces(surrogate, x)
        fd = fd_forces(surrogate, x)
        assert np.abs(f - fd).max() / np.abs(f).max() < 1e-6


def test_dimension_and_finiteness_errors(surrogate):
    with pytest.raises(ValueError):
        potential_energy(surrogate, np.zeros(5))
    bad = surrogate.reference_positions.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        forces(surrogate, bad)
    # the flat-geometry helpers share the same check and also reject batches
    batch = np.tile(surrogate.reference_positions, (2, 1))
    calls = {
        "dipole": lambda x: dipole(surrogate, x),
        "fd_hessian": lambda x: model.fd_hessian(surrogate, x),
        "stretch_bond": lambda x: model.stretch_bond(surrogate, x, 0, 0.1),
    }
    for name, call in calls.items():
        for x in (np.zeros(5), bad, batch):
            with pytest.raises(ValueError):
                call(x)


def inline_fd_hessian(system, x, h, symmetrize):
    """Central-difference Hessian of potential_energy from one batch of 4-point stencil rows."""
    n = x.size
    diag = np.arange(n)
    k, l = np.triu_indices(n, 1)
    m = k.size
    geoms = np.tile(x, (1 + 2 * n + 4 * m, 1))
    geoms[1 + diag, diag] += h
    geoms[1 + n + diag, diag] -= h
    base = 1 + 2 * n
    for q, (sk, sl) in enumerate(((h, h), (h, -h), (-h, h), (-h, -h))):
        rows = base + q * m + np.arange(m)
        geoms[rows, k] += sk
        geoms[rows, l] += sl
    e = potential_energy(system, geoms)
    e0 = e[0]
    epp, epm, emp, emm = e[base:].reshape(4, m)
    hess = np.empty((n, n))
    hess[diag, diag] = (e[1 : 1 + n] - 2 * e0 + e[1 + n : base]) / h**2
    hess[k, l] = (epp - epm - emp + emm) / (4 * h**2)
    hess[l, k] = (epp - emp - epm + emm) / (4 * h**2)
    return 0.5 * (hess + hess.T) if symmetrize else hess


def test_fd_hessian_matches_the_energy_stencil(surrogate):
    # the force difference against the 4-point energy stencil at the same step
    rng = np.random.default_rng(25)
    for _ in range(5):
        x = surrogate.reference_positions + 0.05 * rng.standard_normal(18)
        got = model.fd_hessian(surrogate, x)
        want = inline_fd_hessian(surrogate, x, 1e-4, True)
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


@pytest.mark.parametrize("h", [0.0, -1e-4, float("nan")])
def test_fd_hessian_rejects_a_step_that_is_not_positive(surrogate, h):
    with pytest.raises(ValueError, match="step must be positive"):
        model.fd_hessian(surrogate, surrogate.reference_positions, h=h)


def test_energy_invariant_under_rigid_motion(surrogate):
    rng = np.random.default_rng(3)
    x = surrogate.reference_positions + 0.1 * rng.standard_normal(18)
    e0 = potential_energy(surrogate, x)
    pts = x.reshape(-1, 3)
    for _ in range(20):
        rot = random_rotation(rng)
        shift = rng.standard_normal(3)
        moved = (pts @ rot.T + shift).reshape(-1)
        assert potential_energy(surrogate, moved) == pytest.approx(e0, abs=1e-12)


def test_dipole_values():
    particles = (Particle("A", 1.0, 0.5), Particle("B", 1.0, -0.5))
    sys2 = ModelSystem(
        particles=particles,
        bonds=(HarmonicBond(0, 1, 0.1, 2.0),),
        couplings=(),
    )
    x = np.array([1.0, 0, 0, -1.0, 0, 0])
    assert dipole(sys2, x) == pytest.approx([1.0, 0.0, 0.0])
    # zero charges give a zero dipole
    sys0 = ModelSystem(
        particles=(Particle("A", 1.0, 0.0), Particle("B", 1.0, 0.0)),
        bonds=(HarmonicBond(0, 1, 0.1, 2.0),),
        couplings=(),
    )
    assert np.all(dipole(sys0, x) == 0.0)


def test_dipole_translation_behaviour(surrogate, diatomic):
    rng = np.random.default_rng(11)
    x = surrogate.reference_positions
    t = rng.standard_normal(3)
    moved = (x.reshape(-1, 3) + t).reshape(-1)
    q_tot = surrogate.dipole.total_charge
    assert dipole(surrogate, moved) == pytest.approx(dipole(surrogate, x) + q_tot * t, abs=1e-12)
    # net-neutral system: exactly invariant
    xd = diatomic.reference_positions
    movedd = (xd.reshape(-1, 3) + t).reshape(-1)
    assert dipole(diatomic, movedd) == pytest.approx(dipole(diatomic, xd), abs=1e-12)


def test_dipole_gradient_blocks_and_linearity(surrogate):
    grad = dipole_gradient(surrogate)
    q = surrogate.dipole.charges
    for i in range(surrogate.n_particles):
        assert np.allclose(grad[:, 3 * i : 3 * i + 3], q[i] * np.eye(3))
    # exact linearity: finite differences reproduce the matrix to 1e-10
    rng = np.random.default_rng(5)
    x = surrogate.reference_positions + rng.standard_normal(18)
    h = 1e-3
    for k in range(6):  # spot-check a few columns
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        col = (dipole(surrogate, xp) - dipole(surrogate, xm)) / (2 * h)
        assert np.allclose(col, grad[:, k], atol=1e-10)


def test_calibration_reproduces_all_constraints():
    # neither set takes c6 = 0; the second is the surrogate's own targets with a stiffer well
    for curvature_min, curvature_ts, c6 in [(0.26, -2.351e-3, 0.01), (0.5, CURVATURE_TS_86, 0.14)]:
        targets = dict(barrier=BARRIER_HA, r0=3.6, r_ts=4.55, curvature_min=curvature_min, curvature_ts=curvature_ts)
        well = calibrate_reactive_bond(**targets)
        assert well.coeffs[4] == pytest.approx(c6, abs=1e-12)  # the smallest c6 of the search that works
        assert well.energy(targets["r0"]) == pytest.approx(0.0, abs=1e-12)
        assert well.d1(targets["r0"]) == pytest.approx(0.0, abs=1e-12)
        assert well.d2(targets["r0"]) == pytest.approx(targets["curvature_min"], abs=1e-9)
        assert well.energy(targets["r_ts"]) == pytest.approx(targets["barrier"], abs=1e-9)
        assert well.d1(targets["r_ts"]) == pytest.approx(0.0, abs=1e-9)
        assert well.d2(targets["r_ts"]) == pytest.approx(targets["curvature_ts"], abs=1e-9)


def test_calibration_ts_frequency_target():
    well = calibrate_reactive_bond(BARRIER_HA, 3.6, 4.55, 0.26, CURVATURE_TS_86)
    assert well.ts_frequency_cm1(MU_SIC) == pytest.approx(86.0, rel=1e-3)


def test_calibration_rejects_degenerate_targets():
    with pytest.raises(CalibrationError):
        calibrate_reactive_bond(BARRIER_HA, 3.6, 3.6, 0.26, -2e-3)
    with pytest.raises(CalibrationError):
        calibrate_reactive_bond(-0.01, 3.6, 4.55, 0.26, -2e-3)
    with pytest.raises(CalibrationError):
        calibrate_reactive_bond(BARRIER_HA, 3.6, 4.55, 0.26, +2e-3)
    # no c6 in the search gives this stiff a well a single barrier
    with pytest.raises(CalibrationError, match=r"no valid double-well shape .* \(last constraint residual [0-9.e-]+\)"):
        calibrate_reactive_bond(BARRIER_HA, 3.6, 4.55, 1.0, CURVATURE_TS_86)
    # a barrier so far out that its powers overflow a float
    with pytest.raises(CalibrationError, match=r"r_ts=1e\+300, .*residual out of floating-point range"):
        calibrate_reactive_bond(BARRIER_HA, 3.6, 1e300, 0.26, -2e-3)


def ulps(a, b):
    return abs(a - b) / np.spacing(abs(b)) if b else abs(a)


def test_stated_surrogate_well_is_the_calibration_at_its_targets(surrogate):
    assert surrogate.reactive_bond.well == model._PTA_WELL
    mu = surrogate.reduced_mass(model.PTA_SI, model.PTA_C1)
    well = calibrate_reactive_bond(
        model.PTA_BARRIER_EV / EV_PER_HARTREE,
        model._PTA_R0["sic"],
        model._PTA_R_TS,
        model._PTA_CURVATURE_MIN,
        -mu * (model.PTA_TS_CM1 / CM1_PER_HARTREE) ** 2,
    )
    stated = model._PTA_WELL
    assert (well.r0, well.r_ts) == (stated.r0, stated.r_ts)
    # 0 ulps on the AVX-512 OpenBLAS kernel the literals were taken on; the LAPACK solve and roots of the
    # generic kernels (Haswell, Prescott) put c4 1, c5 9 and x_tail 2 ulps away
    assert all(ulps(a, b) <= bound for a, b, bound in zip(well.coeffs, stated.coeffs, (0, 0, 4, 16, 0)))
    assert ulps(well.x_tail, stated.x_tail) <= 4
    # Horner form against the power sums the literal came from: 4 ulps; the slope is a sum with cancellation
    assert ulps(well.tail_value, stated.tail_value) <= 8
    assert well.tail_slope == pytest.approx(stated.tail_slope, rel=1e-9)


def test_reactive_well_is_c2_at_the_tail_join():
    well = calibrate_reactive_bond(BARRIER_HA, 3.6, 4.55, 0.26, -2.351e-3)
    r_join = well.r0 + well.x_tail
    eps = 1e-7
    assert well.energy(r_join + eps) == pytest.approx(well.energy(r_join - eps), abs=1e-10)
    assert well.d1(r_join + eps) == pytest.approx(well.d1(r_join - eps), abs=1e-6)
    assert abs(well.d2(r_join - eps)) < 1e-5  # curvature vanishes into the linear branch


def test_surrogate_mode_anchor(surrogate):
    from cavimd.analysis import NEAR_ZERO_CM1, sic_weighted_spectrum, system_normal_modes

    nm = system_normal_modes(surrogate)
    k = int(np.argmin(np.abs(nm.frequencies_cm1 - 856.0)))
    assert abs(nm.frequencies_cm1[k] - 856.0) < 5.0
    weights = sic_weighted_spectrum(nm, (model.PTA_SI, model.PTA_C1))
    assert weights[k] > 0.3
    # the condition _PTA_CURVATURE_MIN was tuned to: the genuine vibration with
    # the largest Si-C weight sits within 0.5 cm^-1 of PTA_MODE_CM1
    stretch = np.argmax(np.where(nm.frequencies_cm1 >= NEAR_ZERO_CM1, weights, 0.0))
    assert abs(nm.frequencies_cm1[stretch] - model.PTA_MODE_CM1) < 0.5


def test_surrogate_charge_and_ts_curvature(surrogate):
    assert surrogate.dipole.total_charge == pytest.approx(-1.0, abs=1e-12)
    assert surrogate.reactive_bond.well.ts_frequency_cm1(MU_SIC) == pytest.approx(86.0, abs=1.0)
    assert surrogate.reactive_bond.well.barrier == pytest.approx(BARRIER_HA, abs=1e-9)


def test_exactly_one_reactive_bond_enforced(surrogate):
    assert surrogate.reactive_bond_index == model.PTA_BOND_SIC
    assert np.array_equal(surrogate.dipole.charges, [p.charge for p in surrogate.particles])
    with pytest.raises(ValueError, match="only one reactive bond is supported"):
        ModelSystem(
            particles=surrogate.particles,
            bonds=surrogate.bonds + (surrogate.reactive_bond,),
            couplings=surrogate.couplings,
        )
    # the dipole and the reactive bond are derived, never passed
    for derived in ({"dipole": surrogate.dipole}, {"reactive_bond_index": model.PTA_BOND_SIC}):
        with pytest.raises(TypeError):
            ModelSystem(particles=surrogate.particles, bonds=surrogate.bonds, couplings=(), **derived)


def test_launch_geometry_loads_the_reactive_bond(surrogate):
    x = pta_launch_positions(surrogate)
    pts = x.reshape(-1, 3)
    r_sic = np.linalg.norm(pts[model.PTA_SI] - pts[model.PTA_C1])
    r_sif = np.linalg.norm(pts[model.PTA_SI] - pts[model.PTA_F])
    assert r_sic == pytest.approx(3.6 + model.PTA_LAUNCH_SIC_BOHR, abs=1e-12)
    assert r_sif == pytest.approx(3.1 + model.PTA_LAUNCH_SIF_BOHR, abs=1e-12)
    # other bonds stay relaxed, so the loaded energy sits in the two bonds
    # plus their cross coupling
    well = surrogate.reactive_bond.well
    a_sif = model.PTA_LAUNCH_SIF_BOHR
    a_sic = model.PTA_LAUNCH_SIC_BOHR
    g3 = model._PTA_G3[(model.PTA_BOND_SIF, model.PTA_BOND_SIC)]
    expected = (
        well.energy(r_sic)
        + 0.5 * model._PTA_K["sif"] * a_sif**2
        + g3 * (a_sif * a_sic**2 + a_sif**2 * a_sic)
    )
    assert potential_energy(surrogate, x) == pytest.approx(expected, abs=1e-12)
    # so far a displacement that the leaving group's beads round to one point
    with pytest.raises(model.GeometryError, match="particles 3 and 4 are coincident"):
        pta_launch_positions(surrogate, 1e30)


def test_coupling_term_energy_and_forces():
    # two bonds sharing a particle, one cubic coupling
    particles = (Particle("A", 12.0, 0.0), Particle("B", 12.0, 0.0), Particle("C", 12.0, 0.0))
    bonds = (HarmonicBond(0, 1, 0.3, 2.0), HarmonicBond(1, 2, 0.3, 2.0))
    sys3 = ModelSystem(
        particles=particles,
        bonds=bonds,
        couplings=(CouplingTerm(0, 1, 0.02),),
    )
    x = np.array([2.3, 0, 0, 0.0, 0, 0, -2.1, 0, 0])
    a, b = 0.3, 0.1
    expected = 0.5 * 0.3 * (a**2 + b**2) + 0.02 * (a * b**2 + a**2 * b)
    assert potential_energy(sys3, x) == pytest.approx(expected, rel=1e-12)
    fdv = fd_forces(sys3, x)
    assert np.abs(forces(sys3, x) - fdv).max() < 1e-8


def test_an_omitted_geometry_is_the_reference_geometry(surrogate):
    from cavimd.analysis import find_transition_state, system_normal_modes
    from cavimd.ensemble import SamplingSpec, sample_velocities

    x = surrogate.reference_positions + 0.1
    assert surrogate.positions_or_reference(x) is x
    assert surrogate.positions_or_reference() is surrogate.reference_positions
    assert surrogate.positions_or_reference(None) is surrogate.reference_positions
    bare = ModelSystem(surrogate.particles, surrogate.bonds, surrogate.couplings)
    # every caller that defaults to the reference geometry fails the same way without one
    for call in (
        bare.positions_or_reference,
        lambda: system_normal_modes(bare),
        lambda: find_transition_state(bare, 3.9, 5.1),
        lambda: sample_velocities(bare, SamplingSpec(300.0, 1, aim=(0, 1))),
    ):
        with pytest.raises(ValueError, match=r"^positions required \(system has no reference geometry\)$"):
            call()
    # given positions need no reference geometry
    assert bare.positions_or_reference(x) is x
