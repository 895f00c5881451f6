"""Acceptance suite: one test per headline criterion, printing a PASS line
each (run with `pytest tests/test_acceptance.py -v -s`).

Ensemble criteria are fixed-seed regressions: the direction claims are the
contract, and the exact values were frozen from the first verified run
(seed 1, 16 paired trajectories, 0-700 fs window).
"""

import json
from pathlib import Path

import numpy as np
import pytest

import cavimd as cm
from cavimd.analysis import (
    mean_occupation_map,
    mode_occupation,
    occupation_difference,
    polariton_modes,
    sic_weighted_spectrum,
    spectrum_bin_cm1,
    system_normal_modes,
    find_transition_state,
)
from cavimd.cavity import cavity_energy, nuclear_cavity_force
from cavimd.cli import main as cli_main
from cavimd.dynamics import window_steps
from cavimd.model import forces, potential_energy, dipole
from cavimd.units import CM1_PER_HARTREE, EMASS_PER_AMU, KB_HARTREE_PER_K, fs_to_au

EX = np.array([1.0, 0.0, 0.0])
W856 = 856.0 / CM1_PER_HARTREE
SEED = 1
WINDOW = (0.0, 700.0)

# frozen on the first verified run (16 trajectories, seed 1)
EXPECTED = {
    "free": (0.625, 7.058692597633912),
    "off43": (0.500, 6.430004136931234),
    "res856": (0.125, 3.913513506561553),
    "mid856": (0.4375, 5.798934411790626),
}


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def ensembles(surrogate):
    """The four paired-seed ensemble conditions shared by criteria 9-11."""
    launch = cm.pta_launch_positions(surrogate)
    dt = fs_to_au(0.25)
    specs = cm.make_specs(SEED, 16, 300.0, aim=(0, 1))

    def mode_for(omega_cm1, ratio):
        omega = omega_cm1 / CM1_PER_HARTREE
        return cm.CavityMode(omega, cm.lambda_for_ratio(ratio, omega), EX)

    conditions = {
        "free": None,
        "off43": mode_for(43.0, 1.132),
        "res856": mode_for(856.0, 1.132),
        "mid856": mode_for(856.0, 0.57),
    }
    out = {}
    for name, mode in conditions.items():
        out[name] = cm.run_ensemble(
            surrogate,
            mode,
            specs,
            positions=launch,
            dt=dt,
            n_steps=4000,
            stride=4,
            window_fs=WINDOW,
            keep_trajectories=name in ("free", "off43", "res856"),
        )
    return out


def test_criterion_01_coupling_convention_anchor():
    ratio = cm.coupling_ratio(0.1, W856)
    assert ratio == pytest.approx(1.132, abs=1e-3)
    report("criterion-1 coupling anchor", f"ratio(0.1 a.u., 856 cm^-1) = {ratio:.4f}")


def test_criterion_02_barrier_anchor(surrogate):
    from cavimd.units import EV_PER_HARTREE

    well = surrogate.reactive_bond.well
    barrier_ev = well.barrier * EV_PER_HARTREE
    assert barrier_ev == pytest.approx(0.35, abs=1e-4)
    mu = (28.0 * 12.0 / 40.0) * EMASS_PER_AMU
    ts_cm1 = well.ts_frequency_cm1(mu)
    assert ts_cm1 == pytest.approx(86.0, abs=1.0)
    ts = find_transition_state(surrogate, 3.9, 5.1, 25)
    assert ts.barrier_ev == pytest.approx(0.35, abs=1e-4)
    report(
        "criterion-2 barrier anchor",
        f"barrier {barrier_ev:.6f} eV (saddle {ts.barrier_ev:.6f}), ts frequency {ts_cm1:.2f} cm^-1",
    )


def test_criterion_03_polariton_oracle():
    from cavimd.analysis import NormalModes

    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        omega_v = rng.uniform(1e-3, 2e-2)
        omega_c = rng.uniform(1e-3, 2e-2)
        d = rng.uniform(0.0, 5e-3)
        modes = NormalModes(
            frequencies_cm1=np.array([omega_v * CM1_PER_HARTREE]),
            eigenvalues=np.array([omega_v**2]),
            modes=np.eye(1),
            mode_dipole=np.array([[d, 0.0, 0.0]]),
        )
        pol = polariton_modes(modes, cm.CavityMode(omega_c, 1.0, EX))
        s = omega_v**2 + d**2 + omega_c**2
        disc = np.sqrt((omega_v**2 + d**2 - omega_c**2) ** 2 + 4 * omega_c**2 * d**2)
        expected = np.sort([0.5 * (s - disc), 0.5 * (s + disc)])
        worst = max(worst, float(np.abs(pol.eigenvalues / expected - 1.0).max()))
    assert worst < 1e-10
    # lambda -> 0 reduction is exact
    modes = NormalModes(
        frequencies_cm1=np.array([500.0, 900.0]),
        eigenvalues=np.array([(500.0 / CM1_PER_HARTREE) ** 2, (900.0 / CM1_PER_HARTREE) ** 2]),
        modes=np.eye(2),
        mode_dipole=np.array([[1e-3, 0, 0], [2e-3, 0, 0]]),
    )
    pol0 = polariton_modes(modes, cm.CavityMode(0.005, 0.0, EX))
    assert np.array_equal(
        np.sort(pol0.eigenvalues), np.sort(np.concatenate([modes.eigenvalues, [0.005**2]]))
    )
    report("criterion-3 polariton oracle", f"max relative error {worst:.2e} over 100 draws")


def test_criterion_04_self_polarization_blue_shift(surrogate):
    nm = system_normal_modes(surrogate)
    mode = cm.CavityMode(W856, 0.1, EX, bilinear_on=False)
    pol = polariton_modes(nm, mode)
    evals = np.sort(pol.eigenvalues)
    photon_idx = int(np.argmin(np.abs(evals - W856**2)))
    coupled = np.delete(evals, photon_idx)
    bare = np.sort(nm.eigenvalues)
    assert np.all(coupled >= bare - 1e-12)
    # strict increase for the well-separated vibrations with dipole activity
    d = 0.1 * (nm.mode_dipole @ EX)
    order = np.argsort(nm.eigenvalues)
    strict = 0
    for pos, j in enumerate(order):
        if abs(nm.frequencies_cm1[j]) > 1.0 and abs(d[j]) > 1e-8:
            assert coupled[pos] > bare[pos]
            strict += 1
    assert strict >= 4
    report("criterion-4 self-polarization blue shift", f"{strict} dipole-active modes shifted up")


def test_criterion_05_energy_conservation(surrogate):
    spec = cm.SamplingSpec(300.0, SEED, aim=(0, 1))
    x0 = surrogate.reference_positions
    v0 = cm.sample_velocities(surrogate, spec, x0)
    mode = cm.CavityMode(W856, cm.lambda_for_ratio(1.132, W856), EX)
    photon = cm.zero_field_init(mode, dipole(surrogate, x0))

    def run(dt_fs, n_steps):
        state = cm.FullState(x0.copy(), v0.copy(), cm.PhotonState(photon.q, photon.p))
        traj, _ = cm.propagate(surrogate, mode, state, fs_to_au(dt_fs), n_steps, stride=4)
        return traj

    traj = run(0.25, 4000)
    e = traj.etot
    slope = np.polyfit(traj.times, e, 1)[0]
    drift = abs(slope * (traj.times[-1] - traj.times[0]) / e[0])
    assert drift < 1e-5
    peak_coarse = np.abs(e - e[0]).max()
    traj_fine = run(0.125, 8000)
    peak_fine = np.abs(traj_fine.etot - traj_fine.etot[0]).max()
    ratio = peak_coarse / peak_fine
    assert 3.5 < ratio < 4.5
    report(
        "criterion-5 energy conservation",
        f"secular drift {drift:.2e} over 1 ps, peak-error ratio {ratio:.2f} on dt halving",
    )


def test_criterion_06_force_correctness(surrogate):
    rng = np.random.default_rng(23)
    mode = cm.CavityMode(W856, 0.08, EX)
    x0 = surrogate.reference_positions
    h = 1e-4
    worst = 0.0
    for _ in range(1000):
        x = x0 + 0.15 * rng.standard_normal(x0.size)
        photon = cm.PhotonState(rng.normal(scale=20.0), 0.0)
        f = forces(surrogate, x) + nuclear_cavity_force(mode, photon, surrogate, x)

        def total_e(xx):
            return potential_energy(surrogate, xx) + cavity_energy(
                mode, photon, dipole(surrogate, xx)
            )

        fd = np.empty_like(f)
        for k in range(x.size):
            xp = x.copy()
            xp[k] += h
            xm = x.copy()
            xm[k] -= h
            fd[k] = -(total_e(xp) - total_e(xm)) / (2 * h)
        worst = max(worst, float(np.abs(f - fd).max() / np.abs(f).max()))
    assert worst < 1e-6
    report("criterion-6 force correctness", f"max relative error {worst:.2e} over 1000 geometries")


def test_criterion_07_sampling_statistics(surrogate):
    n_draws = 10_000
    m3 = surrogate.masses3
    total = 0.0
    worst_com = 0.0
    m = surrogate.masses
    for seed in range(n_draws):
        v = cm.sample_velocities(surrogate, cm.SamplingSpec(300.0, seed))
        total += 0.5 * float(m3 @ (v * v))
        worst_com = max(
            worst_com, float(np.abs((m[:, None] * v.reshape(-1, 3)).sum(axis=0)).max())
        )
    dof = 3 * surrogate.n_particles - 3  # COM momentum is projected out
    per_dof = total / (n_draws * dof)
    target = 0.5 * KB_HARTREE_PER_K * 300.0
    sigma = target * np.sqrt(2.0 / (n_draws * dof))
    assert abs(per_dof - target) < 3 * sigma
    assert worst_com < 1e-14
    a = cm.sample_velocities(surrogate, cm.SamplingSpec(300.0, 12345))
    b = cm.sample_velocities(surrogate, cm.SamplingSpec(300.0, 12345))
    assert np.array_equal(a, b)
    report(
        "criterion-7 sampling statistics",
        f"per-DOF energy {per_dof:.6e} vs kT/2 {target:.6e} "
        f"({abs(per_dof-target)/sigma:.2f} sigma), max COM momentum {worst_com:.1e}",
    )


def test_criterion_08_spectrum_cross_oracle(surrogate):
    nm = system_normal_modes(surrogate)
    mode = cm.CavityMode(W856, cm.lambda_for_ratio(1.132, W856), EX)
    pol = polariton_modes(nm, mode)
    photon_char = np.abs(pol.modes[-1, :])
    predicted = [
        float(f)
        for f, pc in zip(pol.frequencies_cm1, photon_char)
        if 400.0 < f < 1400.0 and pc > 0.1
    ]
    assert len(predicted) >= 2

    # weak excitation along the resonant mode, photon at zero field + offset
    k = int(np.argmin(np.abs(nm.frequencies_cm1 - 856.0)))
    omega = nm.frequencies_cm1[k] / CM1_PER_HARTREE
    amp = np.sqrt(2 * 2e-6) / omega
    x0 = surrogate.reference_positions + amp * nm.modes[:, k] / np.sqrt(surrogate.masses3)
    ph = cm.zero_field_init(mode, dipole(surrogate, x0))
    state = cm.FullState(x0, np.zeros(18), cm.PhotonState(ph.q + 0.2 * amp, 0.0))
    traj, _ = cm.propagate(surrogate, mode, state, fs_to_au(0.25), 12000, stride=4)
    freqs, power = cm.td_spectrum(traj, EX)
    binw = spectrum_bin_cm1(traj)
    peaks = [
        freqs[i]
        for i in range(1, freqs.size - 1)
        if power[i] > power[i - 1] and power[i] >= power[i + 1]
    ]
    offsets = []
    for f_pred in predicted:
        nearest = min(peaks, key=lambda f: abs(f - f_pred))
        offsets.append(abs(nearest - f_pred))
        assert abs(nearest - f_pred) <= 2 * binw
    report(
        "criterion-8 spectrum cross-oracle",
        f"polariton peaks at {[round(p,1) for p in predicted]} cm^-1 matched within "
        f"{max(offsets)/binw:.2f} bins (bin {binw:.2f} cm^-1)",
    )


def test_criterion_09_inhibition_direction(ensembles):
    free, off, res = ensembles["free"], ensembles["off43"], ensembles["res856"]
    assert res.reaction_fraction <= off.reaction_fraction <= free.reaction_fraction
    assert res.mean_bond_bohr <= off.mean_bond_bohr
    for name in ("free", "off43", "res856"):
        frac, mean = EXPECTED[name]
        assert ensembles[name].reaction_fraction == pytest.approx(frac, abs=1e-12)
        assert ensembles[name].mean_bond_bohr == pytest.approx(mean, rel=1e-9)
    report(
        "criterion-9 inhibition direction",
        "fractions free/off/res = "
        f"{free.reaction_fraction:.3f}/{off.reaction_fraction:.3f}/{res.reaction_fraction:.3f}, "
        f"<<R>> = {free.mean_bond_bohr:.3f}/{off.mean_bond_bohr:.3f}/{res.mean_bond_bohr:.3f} bohr",
    )


def test_criterion_10_coupling_monotonicity(ensembles):
    rr = [
        ensembles["free"].mean_bond_bohr,
        ensembles["mid856"].mean_bond_bohr,
        ensembles["res856"].mean_bond_bohr,
    ]
    assert rr[0] >= rr[1] >= rr[2]
    frac, mean = EXPECTED["mid856"]
    assert ensembles["mid856"].reaction_fraction == pytest.approx(frac, abs=1e-12)
    assert ensembles["mid856"].mean_bond_bohr == pytest.approx(mean, rel=1e-9)
    report(
        "criterion-10 coupling monotonicity",
        f"<<R>> at ratios 0/0.57/1.132 = {rr[0]:.3f}/{rr[1]:.3f}/{rr[2]:.3f} bohr (non-increasing)",
    )


def test_criterion_11_mode_redistribution_signature(surrogate, ensembles):
    nm = system_normal_modes(surrogate)
    weights = sic_weighted_spectrum(nm, (1, 3))
    reactive = [
        k for k, rec in enumerate(ensembles["free"].records) if rec.event and rec.event.occurred
    ]
    assert reactive, "frozen baseline has reactive free-space trajectories"
    ref = surrogate.reference_positions
    maps_res = [
        mode_occupation(t, nm, ref)
        for k, t in enumerate(ensembles["res856"].trajectories)
        if k in reactive
    ]
    maps_off = [
        mode_occupation(t, nm, ref)
        for k, t in enumerate(ensembles["off43"].trajectories)
        if k in reactive
    ]
    diff = occupation_difference(mean_occupation_map(maps_res), mean_occupation_map(maps_off))
    acc = np.abs(diff.accumulated)
    jmax = int(np.argmax(acc))
    assert weights[jmax] > np.median(weights)
    # frozen identity: the redistribution difference concentrates on the
    # resonantly coupled reactive-stretch mode
    assert nm.frequencies_cm1[jmax] == pytest.approx(856.07, abs=0.5)
    report(
        "criterion-11 mode redistribution",
        f"largest accumulated difference on the {nm.frequencies_cm1[jmax]:.1f} cm^-1 mode "
        f"(stretch weight {weights[jmax]:.3f} > median {np.median(weights):.3f})",
    )


def test_criterion_12_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "\n".join(
            [
                "system:",
                "  builtin: pta_surrogate",
                "cavity:",
                "  omega_c_cm1: 856.0",
                "  ratio: 1.132",
                "dynamics:",
                "  duration_fs: 50.0",
                "ensemble:",
                "  n_trajectories: 3",
                "  seed: 7",
                "  window_fs: [0.0, 50.0]",
            ]
        )
    )
    assert cli_main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    csvs_a = sorted((tmp_path / "a").glob("**/*.csv"))
    assert csvs_a
    for pa in csvs_a:
        pb = tmp_path / "b" / pa.relative_to(tmp_path / "a")
        assert pa.read_bytes() == pb.read_bytes()
    report(
        "criterion-12 reproducibility",
        f"{len(csvs_a)} CSV files byte-identical across repeated runs",
    )


# (free space, 43 cm^-1, 856 cm^-1) (fraction, window mean) at cavimd seed 16(n-1)+1, n = 1-20,
# frozen from the runs up to the window's end (16 paired trajectories per seed)
EXPECTED_20_SEEDS = {
    1: ((0.625, 7.058692597629959), (0.5, 6.430004136931284), (0.125, 3.913513506561566)),
    17: ((0.6875, 6.27824520216329), (0.5625, 5.87158982108465), (0.25, 4.440844058330294)),
    33: ((0.5625, 6.262701993273272), (0.5, 5.669198515769104), (0.3125, 4.99216006335089)),
    49: ((0.625, 7.615152579251735), (0.5625, 6.6519357990287515), (0.375, 5.493519015184095)),
    65: ((0.6875, 7.460222071855828), (0.6875, 6.790870195281313), (0.4375, 5.037613780596435)),
    81: ((0.75, 7.926407536623143), (0.6875, 7.0107696887250395), (0.5, 6.698253211286847)),
    97: ((0.5, 7.808480332310906), (0.625, 6.866709708019378), (0.25, 6.599544994912489)),
    113: ((0.5, 6.844737667463544), (0.5625, 6.585613853871197), (0.3125, 5.507617009487457)),
    129: ((0.4375, 5.424638604346088), (0.3125, 5.029646677217619), (0.1875, 4.306891229114793)),
    145: ((0.5, 7.783903952783257), (0.5, 6.889150226548647), (0.3125, 5.772092823824211)),
    161: ((0.5, 5.950106544217057), (0.5625, 5.740049696100288), (0.3125, 4.535164139209211)),
    177: ((0.4375, 8.393629408209158), (0.5, 7.20812586486553), (0.375, 7.020936553792275)),
    193: ((0.625, 7.520933422819841), (0.625, 6.760568224144536), (0.4375, 5.735199190776942)),
    209: ((0.4375, 6.281683099839631), (0.4375, 5.598296835352695), (0.3125, 4.559962394118943)),
    225: ((0.5, 5.34504306258279), (0.5, 5.088454225893018), (0.3125, 4.8025983204962)),
    241: ((0.75, 7.766556559708151), (0.6875, 7.225100059617661), (0.3125, 4.654830189974603)),
    257: ((0.5625, 7.4127164560760495), (0.5625, 6.755485557170097), (0.3125, 5.363246137450851)),
    273: ((0.5625, 5.8207598947021655), (0.4375, 5.2426842691158), (0.1875, 4.378029268716236)),
    289: ((0.625, 5.9357988548830125), (0.625, 5.6865502806633526), (0.0625, 3.8014274819879725)),
    305: ((0.3125, 6.5503334701814016), (0.3125, 6.038479394370441), (0.3125, 5.947385035175401)),
}


def test_headline_across_20_seeds(surrogate):
    """Free space, 43 and 856 cm^-1 at 20 seeds, all 60 conditions in one batch run as a scan runs."""
    dt = fs_to_au(0.25)
    modes = [None] + [
        cm.CavityMode(w, cm.lambda_for_ratio(1.132, w), EX) for w in (43.0 / CM1_PER_HARTREE, W856)
    ]
    conditions = [
        (mode, cm.make_specs(seed, 16, 300.0, aim=(0, 1))) for seed in EXPECTED_20_SEEDS for mode in modes
    ]
    results = cm.run_conditions(
        surrogate,
        conditions,
        positions=cm.pta_launch_positions(surrogate),
        dt=dt,
        # up to the first frame past the window's end
        n_steps=window_steps(dt, 4000, 4, WINDOW),
        stride=4,
        window_fs=WINDOW,
    )
    fractions = np.array([r.reaction_fraction for r in results]).reshape(20, 3)
    means = np.array([r.mean_bond_bohr for r in results]).reshape(20, 3)
    expected = np.array(list(EXPECTED_20_SEEDS.values()))
    assert fractions.tolist() == expected[:, :, 0].tolist()
    np.testing.assert_allclose(means, expected[:, :, 1], rtol=1e-9, atol=0)
    # the headline: resonance lowers the fraction below free space, far beyond the seed spread
    free, res = fractions[:, 0], fractions[:, 2]
    assert np.count_nonzero(res < free) == 19
    diff = free - res
    stderr = diff.std(ddof=1) / np.sqrt(len(diff))
    assert diff.mean() > 4 * stderr
    report(
        "headline across 20 seeds",
        f"fractions free/43/856 = {'/'.join(f'{f:.3f}' for f in fractions.mean(axis=0))}, "
        f"free - res = {diff.mean():.3f} +- {stderr:.3f}",
    )
