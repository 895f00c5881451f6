import numpy as np
import pytest

from cavimd import (
    EnsembleResult,
    SamplingSpec,
    make_specs,
    reaction_statistics,
    resample_around,
    run_ensemble,
    sample_velocities,
)
from cavimd import ensemble
from cavimd.dynamics import ReactionEvent
from cavimd.ensemble import Aggregates, TrajectoryRecord, aim_reflect
from cavimd.model import pta_launch_positions
from cavimd.units import KB_HARTREE_PER_K, fs_to_au


def com_momentum(system, v):
    m = system.masses
    return (m[:, None] * v.reshape(-1, 3)).sum(axis=0)


def test_zero_temperature_gives_zero_velocities(surrogate):
    v = sample_velocities(surrogate, SamplingSpec(0.0, 1))
    assert np.all(v == 0.0)


def test_com_momentum_removed_exactly(surrogate):
    for seed in range(20):
        v = sample_velocities(surrogate, SamplingSpec(300.0, seed, aim=(0, 1)))
        assert np.abs(com_momentum(surrogate, v)).max() < 1e-14


def test_determinism_per_seed(surrogate):
    a = sample_velocities(surrogate, SamplingSpec(300.0, 42))
    b = sample_velocities(surrogate, SamplingSpec(300.0, 42))
    c = sample_velocities(surrogate, SamplingSpec(300.0, 43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_equipartition_300K(surrogate):
    # COM removal leaves 3N-3 independent degrees of freedom
    n_draws = 10_000
    m3 = surrogate.masses3
    total = 0.0
    for seed in range(n_draws):
        v = sample_velocities(surrogate, SamplingSpec(300.0, seed))
        total += 0.5 * float(m3 @ (v * v))
    dof = 3 * surrogate.n_particles - 3
    per_dof = total / (n_draws * dof)
    target = 0.5 * KB_HARTREE_PER_K * 300.0
    sigma = target * np.sqrt(2.0 / (n_draws * dof))
    assert abs(per_dof - target) < 3 * sigma
    assert target == pytest.approx(4.750e-4, abs=1e-6)


def test_aim_reflect_preserves_speed_and_direction():
    rng = np.random.default_rng(8)
    for _ in range(300):
        v = rng.standard_normal(3)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        w = aim_reflect(v, u)
        assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), rel=1e-12)
        assert w @ u >= -1e-15


def test_aim_is_noop_when_already_toward_target():
    v = np.array([0.3, -0.1, 0.2])
    u = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(aim_reflect(v, u), v)


def test_resample_zero_relative_temperature_copies(surrogate):
    base = sample_velocities(surrogate, SamplingSpec(300.0, 7))
    spec = SamplingSpec(300.0, 11, resample=(0, 0.0))
    members = resample_around(surrogate, base, spec, 5)
    assert len(members) == 5
    for m in members:
        assert np.abs(m - base).max() < 1e-14


def test_resample_energy_scale(surrogate):
    base = sample_velocities(surrogate, SamplingSpec(300.0, 7))
    spec = SamplingSpec(300.0, 100, resample=(0, 20.0))
    members = resample_around(surrogate, base, spec, 400)
    m3 = surrogate.masses3
    # the spread around base carries ~ (3N-3)/2 * kT_rel of kinetic energy
    diffs = [m - base for m in members]
    mean_ke = np.mean([0.5 * float(m3 @ (d * d)) for d in diffs])
    dof = 3 * surrogate.n_particles - 3
    target = 0.5 * KB_HARTREE_PER_K * 20.0 * dof
    sigma = target * np.sqrt(2.0 / (len(members) * dof))
    assert abs(mean_ke - target) < 3 * sigma


def test_resample_determinism(surrogate):
    base = sample_velocities(surrogate, SamplingSpec(300.0, 7))
    s1 = resample_around(surrogate, base, SamplingSpec(300.0, 5, resample=(0, 20.0)), 3)
    s2 = resample_around(surrogate, base, SamplingSpec(300.0, 5, resample=(0, 20.0)), 3)
    s3 = resample_around(surrogate, base, SamplingSpec(300.0, 6, resample=(0, 20.0)), 3)
    for a, b in zip(s1, s2):
        assert np.array_equal(a, b)
    assert not np.array_equal(s1[0], s3[0])


def test_make_specs_seeds_are_xor_of_base(surrogate):
    specs = make_specs(1000, 4, 300.0, aim=(0, 1), resample_T_K=20.0)
    assert [s.seed for s in specs] == [1000 ^ k for k in range(4)]
    assert specs[0].resample is None
    assert all(s.resample == (0, 20.0) for s in specs[1:])


def run_small(surrogate, specs, **kw):
    launch = pta_launch_positions(surrogate)
    return run_ensemble(
        surrogate,
        None,
        specs,
        positions=launch,
        dt=fs_to_au(0.5),
        n_steps=kw.pop("n_steps", 200),
        stride=4,
        **kw,
    )


def test_single_spec_aggregates(surrogate):
    res = run_small(surrogate, [SamplingSpec(300.0, 1, aim=(0, 1))])
    assert res.n_trajectories == 1
    assert res.mean_bond_bohr == pytest.approx(res.records[0].mean_bond_bohr)
    assert np.isnan(res.stderr_bond_bohr)


def test_duplicate_specs_zero_variance(surrogate):
    specs = [SamplingSpec(300.0, 9, aim=(0, 1))] * 4
    res = run_small(surrogate, specs)
    assert res.stderr_bond_bohr == pytest.approx(0.0, abs=1e-15)
    assert len({rec.mean_bond_bohr for rec in res.records}) == 1


def test_empty_spec_list_rejected(surrogate):
    with pytest.raises(ValueError):
        run_small(surrogate, [])


def _write_chunk(job):
    out, items = job
    (out / f"chunk_{items[0]}").write_text(" ".join(map(str, items)))


def test_parallel_matches_serial(tmp_path):
    def chunks(n_items, n_workers):
        out = tmp_path / f"{n_items}_{n_workers}"
        out.mkdir()
        ensemble.map_chunks(_write_chunk, (out,), list(range(n_items)), n_workers, str)
        return {f.name: f.read_text() for f in out.iterdir()}

    # contiguous chunks that cover every item once, at most one per worker
    assert chunks(5, 1) == {"chunk_0": "0 1 2 3 4"}
    assert chunks(5, 2) == {"chunk_0": "0 1", "chunk_2": "2 3 4"}
    assert chunks(2, 3) == {"chunk_0": "0", "chunk_1": "1"}


def synthetic_result(times_fs, series, events=None):
    n = series.shape[0]
    if events is None:
        events = [ReactionEvent(False, None, 1.0)] * n
    records = [
        TrajectoryRecord(k, k, events[k], float(series[k].mean())) for k in range(n)
    ]
    return EnsembleResult(
        records=records,
        times_fs=times_fs,
        bond_series=series,
        series_index=list(range(n)),
        threshold_bohr=1.0,
        reaction_fraction=0.0,
        mean_bond_bohr=0.0,
        stderr_bond_bohr=float("nan"),
    )


def test_reaction_statistics_constant_series():
    times = np.linspace(0.0, 100.0, 11)
    series = np.full((1, 11), 3.25)
    agg = reaction_statistics(synthetic_result(times, series), (0.0, 100.0))
    assert agg.mean_bond_bohr == pytest.approx(3.25)
    assert np.isnan(agg.stderr_bond_bohr)


def test_reaction_statistics_two_trajectories():
    times = np.linspace(0.0, 100.0, 11)
    series = np.vstack([np.full(11, 3.0), np.full(11, 4.0)])
    agg = reaction_statistics(synthetic_result(times, series), (0.0, 100.0))
    assert agg.mean_bond_bohr == pytest.approx(3.5)
    assert agg.stderr_bond_bohr == pytest.approx(0.5)  # |L1-L2|/2


def test_reaction_statistics_window_validation():
    times = np.linspace(0.0, 100.0, 11)
    series = np.full((1, 11), 3.0)
    res = synthetic_result(times, series)
    with pytest.raises(ValueError):
        reaction_statistics(res, (0.0, 200.0))
    with pytest.raises(ValueError):
        reaction_statistics(res, (50.0, 50.0))


def test_reaction_fraction_counts_crossings_in_window():
    times = np.linspace(0.0, 100.0, 11)
    series = np.full((3, 11), 3.0)
    events = [
        ReactionEvent(True, 30.0, 1.0),
        ReactionEvent(True, 90.0, 1.0),
        ReactionEvent(False, None, 1.0),
    ]
    res = synthetic_result(times, series, events)
    agg = reaction_statistics(res, (0.0, 50.0))
    assert agg.reaction_fraction == pytest.approx(1 / 3)
    agg_full = reaction_statistics(res, (0.0, 100.0))
    assert agg_full.reaction_fraction == pytest.approx(2 / 3)


def test_resample_spec_resolution_in_batch(surrogate):
    # the two-stage protocol: member 1+ spread around member 0
    specs = make_specs(55, 3, 300.0, aim=(0, 1), resample_T_K=0.0)
    res = run_small(surrogate, specs)
    # zero relative temperature means identical trajectories
    assert np.allclose(res.bond_series[0], res.bond_series[1], atol=1e-12)
    assert np.allclose(res.bond_series[0], res.bond_series[2], atol=1e-12)
