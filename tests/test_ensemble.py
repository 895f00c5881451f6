import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_make_specs_seeds_are_two_word_stream_keys(surrogate):
    # 1000 = 8 (mod 16): the first word is 1000 XOR k, the second (8 XOR 1) while k < 16
    specs = make_specs(1000, 4, 300.0, aim=(0, 1), resample_T_K=20.0)
    assert [s.seed for s in specs] == [(1000 ^ k) | 9 << 64 for k in range(4)]
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


class _Unpicklable:
    """An item that fails if it is ever pickled."""

    def __init__(self, k):
        self.k = k

    def __reduce__(self):
        raise TypeError("a forked worker inherits its items")

    def __str__(self):
        return str(self.k)


def test_parallel_chunks_are_inherited_not_pickled(tmp_path):
    items = [_Unpicklable(k) for k in range(5)]
    written = {}
    for n_workers in (1, 2):
        out = tmp_path / str(n_workers)
        out.mkdir()
        ensemble.map_chunks(_write_chunk, (out,), items, n_workers, str)
        written[n_workers] = sorted(f.read_text() for f in out.iterdir())
    assert written[1] == ["0 1 2 3 4"]
    assert written[2] == ["0 1", "2 3 4"]


def statistics_conditions(surrogate):
    """A free-space and a resonant condition whose first spec blows up at once."""
    import dataclasses

    from cavimd.cavity import CavityMode, lambda_for_ratio
    from cavimd.units import CM1_PER_HARTREE

    # trajectory 2 reacts at 54.3 fs in free space; its streams are keyed 24 XOR k
    specs = [SamplingSpec(300.0, 24 ^ k, aim=(0, 1)) for k in range(3)]
    specs[0] = dataclasses.replace(specs[0], temperature_K=1e30)
    omega = 856.0 / CM1_PER_HARTREE
    mode = CavityMode(omega, lambda_for_ratio(1.132, omega), np.array([1.0, 0.0, 0.0]))
    kw = dict(positions=pta_launch_positions(surrogate), dt=fs_to_au(0.5), n_steps=200, stride=4)
    return [(None, specs), (mode, specs)], kw


def test_statistics_only_ensemble_stores_no_frames(surrogate, monkeypatch):
    from cavimd import dynamics

    def stored_frames(*args, **kwargs):
        raise AssertionError("a statistics-only ensemble built a frame record")

    monkeypatch.setattr(dynamics, "Trajectory", stored_frames)
    monkeypatch.setattr(dynamics, "_frame_energies", stored_frames)
    conditions, kw = statistics_conditions(surrogate)
    for result in ensemble.run_conditions(surrogate, conditions, **kw):
        assert result.trajectories is None
        assert [rec.error is None for rec in result.records] == [False, True, True]


def test_statistics_only_ensemble_matches_the_kept_trajectories_bit_for_bit(surrogate):
    conditions, kw = statistics_conditions(surrogate)
    window = (0.0, 60.0)
    lean = ensemble.run_conditions(surrogate, conditions, window_fs=window, **kw)
    full = ensemble.run_conditions(surrogate, conditions, window_fs=window, keep_trajectories=True, **kw)
    for a, b in zip(lean, full):
        # the failing row fails inside the window
        assert a.records[0].error is not None and a.records[0].error == b.records[0].error
        assert a.records == b.records
        assert a.series_index == b.series_index == [1, 2]
        assert a.bond_series.tobytes() == b.bond_series.tobytes()
        rb = surrogate.reactive_bond
        assert b.bond_series.tobytes() == np.vstack([t.bond_series(rb.i, rb.j) for t in b.trajectories]).tobytes()
        assert a.times_fs.tobytes() == b.times_fs.tobytes()
        assert (a.reaction_fraction, a.mean_bond_bohr, a.stderr_bond_bohr) == (
            b.reaction_fraction,
            b.mean_bond_bohr,
            b.stderr_bond_bohr,
        )
        for w in (window, (0.0, 50.0), (20.0, 100.0)):
            assert reaction_statistics(a, w) == reaction_statistics(b, w)
    assert any(rec.event.occurred for result in lean for rec in result.records[1:])


def test_default_scan_traces_under_4_mb(surrogate):
    # 48 rows x 701 frames of one bond length each; whole frames took 13.4 MB
    import tracemalloc

    from cavimd.analysis import resonance_scan

    specs = make_specs(1, 16, 300.0, aim=(0, 1))
    tracemalloc.start()
    try:
        resonance_scan(
            surrogate,
            specs,
            [(43.0, 1.132), (856.0, 1.132)],
            positions=pta_launch_positions(surrogate),
            dt=fs_to_au(0.25),
            n_steps=4000,
            stride=4,
            window_fs=(0.0, 700.0),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_stream_keys_of_seeds_one_mod_16_are_the_seed_xor_index():
    # the keying the acceptance pins, the 20-seed pins and the benchmark seeds were drawn with
    for seed in (1, 17, 305, 2**64 - 15):
        assert [ensemble.stream_key(seed, k) for k in range(16)] == [seed ^ k for k in range(16)]
    assert ensemble.stream_key(1, 16) >> 64 == 16
    assert ensemble.stream_key(-15, 3) == ensemble.stream_key(2**64 - 15, 3)  # seeds are taken mod 2**64


@pytest.mark.parametrize("word", [0, 1, 12345, 2**63 + 5, 2**64 - 1])
def test_a_key_of_one_word_draws_what_a_one_word_philox_key_draws(word):
    expected = np.random.Generator(np.random.Philox(key=np.uint64(word))).standard_normal(8)
    assert ensemble._rng(word).standard_normal(8).tolist() == expected.tolist()


def test_a_seed_draws_what_its_residue_mod_2_128_draws(surrogate):
    # a negative seed keys both words by its residue, so -1 is not the one-word key 2**64 - 1
    for seed in (-1, 5 - 2**64, 2**128 + 7):
        draw = sample_velocities(surrogate, SamplingSpec(300.0, seed))
        assert draw.tolist() == sample_velocities(surrogate, SamplingSpec(300.0, seed % 2**128)).tolist()
    assert ensemble._rng(-1).standard_normal(4).tolist() != ensemble._rng(2**64 - 1).standard_normal(4).tolist()


def test_stream_keys_are_distinct_where_xor_keys_collided():
    # seeds 0-63 share every XOR key among themselves, and so do the 64 seeds below 2**64; no key repeats here
    seeds = [*range(64), *range(2**64 - 64, 2**64)]
    keys = {ensemble.stream_key(seed, k) for seed in seeds for k in range(64)}
    assert len(keys) == 128 * 64


#: seeds near 0, at and above 2**63, and anywhere (taken mod 2**64); indices small or large
SEEDS = st.integers(0, 64) | st.integers(2**63, 2**64 + 64) | st.integers(-(2**65), 2**66)
INDICES = st.integers(0, 64) | st.integers(0, 2**20)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(SEEDS, INDICES), min_size=50, max_size=100))
def test_no_two_seed_index_pairs_share_a_stream_key(pairs):
    distinct = {(seed % 2**64, k) for seed, k in pairs}
    assert len({ensemble.stream_key(seed, k) for seed, k in distinct}) == len(distinct)
    assert {ensemble.stream_key(seed, k) for seed, k in pairs} == {ensemble.stream_key(s, k) for s, k in distinct}


@pytest.mark.parametrize("rows", [1, 4, 16])
def test_the_kept_run_size_check_counts_at_least_the_traced_peak(rows):
    # the default config's 1,001 frames per row, on a system whose cached index tables are not built yet
    import tracemalloc
    from pathlib import Path

    from cavimd.cli import _ensemble_inputs
    from cavimd.config import parse_config
    from cavimd.dynamics import frame_buffer_bytes

    config = parse_config((Path(__file__).parents[1] / "configs" / "default.yaml").read_text())
    system = config.build_system()
    kwargs, specs = _ensemble_inputs(config, system, rows)
    sample_velocities(system, SamplingSpec(300.0, 1))  # loads numpy.random's modules, which are not frame data
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_ensemble(system, config.cavity.mode(), specs, keep_trajectories=True, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert frame_buffer_bytes(system, rows, kwargs["n_steps"], kwargs["stride"], keep=True) >= peak
