"""The batch contract: a row's result does not depend on the batch it runs in.

Forces, energies and whole trajectories are computed for (B, 3N) batches;
each row must come out bit-identical however the batch is split, and a row
that fails must not disturb the others.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavimd import (
    CavityMode,
    FullState,
    PhotonState,
    cavity_energy,
    dipole,
    forces,
    potential_energy,
    pta_launch_positions,
)
from cavimd import model
from cavimd.cavity import kinetic_energy
from cavimd.cli import main
from cavimd.dynamics import IntegrationError, propagate, propagate_batch
from cavimd.ensemble import make_specs, resolve_velocities, run_conditions
from cavimd.model import _BondedTerms
from cavimd.units import CM1_PER_HARTREE, fs_to_au

EX = np.array([1.0, 0.0, 0.0])


def geometries(system, seed, n, scale=0.15):
    rng = np.random.default_rng(seed)
    return system.reference_positions + scale * rng.standard_normal((n, system.reference_positions.size))


def split(rows, sizes):
    """Cut `rows` into consecutive chunks of the given sizes (the last takes the rest)."""
    out, start = [], 0
    for size in sizes:
        if start >= len(rows):
            break
        out.append(rows[start : start + size])
        start += size
    if start < len(rows):
        out.append(rows[start:])
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
)
def test_kernel_rows_independent_of_batch(surrogate, seed, n, sizes):
    x = geometries(surrogate, seed, n)
    f = forces(surrogate, x)
    e = potential_energy(surrogate, x)
    assert f.shape == x.shape and e.shape == (n,)
    start = 0
    for part in split(x, sizes):
        assert np.array_equal(forces(surrogate, part), f[start : start + len(part)])
        assert np.array_equal(potential_energy(surrogate, part), e[start : start + len(part)])
        start += len(part)
    # a flat input is the one-row batch
    assert np.array_equal(forces(surrogate, x[-1]), f[-1])
    assert potential_energy(surrogate, x[-1]) == e[-1]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_forces_match_finite_differences_of_batched_energy(surrogate, seed):
    x = geometries(surrogate, seed, 1)[0]
    h = 1e-5
    step = h * np.eye(x.size)
    fd = -(potential_energy(surrogate, x + step) - potential_energy(surrogate, x - step)) / (2 * h)
    f = forces(surrogate, x)
    assert np.abs(f - fd).max() / np.abs(f).max() < 1e-6


def test_kernel_rejects_bad_rows_by_name(surrogate):
    x = geometries(surrogate, 3, 3)
    x[1, 3:6] = x[1, 0:3]  # particles 0 and 1 coincide
    with pytest.raises(ValueError, match="row 1: particles 0 and 1 are coincident"):
        forces(surrogate, x)
    with pytest.raises(ValueError, match="positions must be a flat array"):
        forces(surrogate, np.zeros((2, 5)))


def launch(system, seed, count):
    x0 = pta_launch_positions(system)
    specs = make_specs(seed, count, 300.0, aim=(0, 1))
    return [FullState(x0.copy(), v, PhotonState(0.0, 0.0)) for v in resolve_velocities(system, specs, x0)]


def mixed_modes():
    w = 856.0 / CM1_PER_HARTREE
    return [
        None,
        CavityMode(w, 0.0, EX),
        CavityMode(w, 0.08, EX),
        CavityMode(w, 0.08, EX, self_polarization_on=False),
        CavityMode(43.0 / CM1_PER_HARTREE, 0.02, EX, bilinear_on=False),
    ]


def assert_same_trajectory(a, b):
    for name in ("times", "positions", "velocities", "photon_q", "photon_p", "epot", "ekin", "ecav", "dipole"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_propagated_rows_independent_of_batch(surrogate):
    modes = mixed_modes()
    states = launch(surrogate, 12, len(modes))
    dt = fs_to_au(0.5)
    batch = propagate_batch(surrogate, modes, states, dt, 60, stride=3)
    for k, (mode, state) in enumerate(zip(modes, states)):
        traj, event = propagate(surrogate, mode, state, dt, 60, stride=3)
        assert_same_trajectory(batch[k][0], traj)
        assert batch[k][1] == event
    tail = propagate_batch(surrogate, modes[2:], states[2:], dt, 60, stride=3)
    for k, (traj, _) in enumerate(tail):
        assert_same_trajectory(batch[k + 2][0], traj)


def test_failing_row_leaves_the_others_untouched(surrogate):
    modes = mixed_modes()[:3]
    states = launch(surrogate, 5, 3)
    states[1].velocities[0] = 1e6  # absurd velocity blows this row up in a few steps
    dt = fs_to_au(0.5)
    batch = propagate_batch(surrogate, modes, states, dt, 200, stride=4)
    assert isinstance(batch[1], IntegrationError)
    assert "offending term" in str(batch[1])
    alone = propagate_batch(surrogate, modes[::2], states[::2], dt, 200, stride=4)
    assert_same_trajectory(batch[0][0], alone[0][0])
    assert_same_trajectory(batch[2][0], alone[1][0])


def test_row_launched_coincident_fails_alone(surrogate):
    modes = mixed_modes()[:3]
    states = launch(surrogate, 5, 3)
    states[1].positions[3:6] = states[1].positions[0:3]  # particles 0 and 1 coincide at step 0
    dt = fs_to_au(0.5)
    batch = propagate_batch(surrogate, modes, states, dt, 40, stride=4)
    assert isinstance(batch[1], IntegrationError)
    assert "particles 0 and 1 are coincident" in str(batch[1])
    assert "offending term" in str(batch[1])
    alone = propagate_batch(surrogate, modes[::2], states[::2], dt, 40, stride=4)
    assert_same_trajectory(batch[0][0], alone[0][0])
    assert_same_trajectory(batch[2][0], alone[1][0])


def test_rows_failing_at_different_steps_fail_as_they_do_alone(surrogate, monkeypatch):
    modes = mixed_modes()[:4]
    states = launch(surrogate, 5, 4)
    states[1].velocities[0] = 1e6  # fails at step 7
    states[3].velocities[0] = 30.0  # fails at step 54
    dt = fs_to_au(0.5)
    alone = [propagate_batch(surrogate, [modes[k]], [states[k]], dt, 200, stride=4)[0] for k in (1, 3)]
    asked = []
    reasons = model.failure_reasons
    monkeypatch.setattr(model, "failure_reasons", lambda system, x: asked.append(len(x)) or reasons(system, x))
    batch = propagate_batch(surrogate, modes, states, dt, 200, stride=4)
    assert asked == [1, 1]  # one row at each of two steps, each reason found once
    for outcome, single in zip((batch[1], batch[3]), alone):
        assert isinstance(outcome, IntegrationError) and isinstance(single, IntegrationError)
        assert str(outcome) == str(single)
    finished = propagate_batch(surrogate, modes[::2], states[::2], dt, 200, stride=4)
    assert_same_trajectory(batch[0][0], finished[0][0])
    assert_same_trajectory(batch[2][0], finished[1][0])


def count_force_calls(monkeypatch):
    calls = []
    method = _BondedTerms.forces
    monkeypatch.setattr(_BondedTerms, "forces", lambda self, *args: calls.append(1) or method(self, *args))
    return calls


def test_batch_where_every_row_fails_stops_early(surrogate, monkeypatch):
    calls = count_force_calls(monkeypatch)
    states = launch(surrogate, 5, 2)
    for state in states:
        state.velocities[0] = 1e6
    n = 200
    batch = propagate_batch(surrogate, [None, None], states, fs_to_au(0.5), n, stride=4)
    assert all(isinstance(outcome, IntegrationError) for outcome in batch)
    assert len(calls) < n + 1


def failing_mixed_batch(system):
    """No cavity, lambda = 0, self-polarization only, resonant, and a resonant row that blows up."""
    w = 856.0 / CM1_PER_HARTREE
    modes = [
        None,
        CavityMode(w, 0.0, EX),
        CavityMode(43.0 / CM1_PER_HARTREE, 0.02, EX, bilinear_on=False),
        CavityMode(w, 0.08, EX),
        CavityMode(w, 0.08, EX),
    ]
    states = launch(system, 21, len(modes))
    states[-1].velocities[0] = 1e6
    return modes, states


def test_recorded_energies_are_the_public_ones_frame_by_frame(surrogate):
    modes, states = failing_mixed_batch(surrogate)
    batch = propagate_batch(surrogate, modes, states, fs_to_au(0.5), 90, stride=3)
    assert isinstance(batch[-1], IntegrationError)
    for mode, (traj, _) in zip(modes[:-1], batch[:-1]):
        assert traj.n_frames == 31
        for f, x in enumerate(traj.positions):
            mu = dipole(surrogate, x)
            epot = potential_energy(surrogate, x)
            ekin = kinetic_energy(surrogate, traj.velocities[f])
            photon = PhotonState(traj.photon_q[f], traj.photon_p[f])
            ecav = 0.0 if mode is None else cavity_energy(mode, photon, mu)
            assert np.array_equal(traj.dipole[f], mu)
            assert (traj.epot[f], traj.ekin[f], traj.ecav[f]) == (epot, ekin, ecav)
            assert traj.etot[f] == epot + ekin + ecav


def test_step_evaluates_forces_once_and_energies_once_per_finished_row(surrogate, monkeypatch):
    modes, states = failing_mixed_batch(surrogate)
    calls = {"forces": 0, "energy": 0}
    for name in calls:

        def counted(self, *args, _name=name, _method=getattr(_BondedTerms, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(_BondedTerms, name, counted)
    n = 90
    batch = propagate_batch(surrogate, modes, states, fs_to_au(0.5), n, stride=3)
    finished = sum(not isinstance(outcome, IntegrationError) for outcome in batch)
    assert finished == len(modes) - 1
    assert calls == {"forces": n + 1, "energy": finished}


#: a batch the runner cannot propagate: what replaces the good arguments, and the error it raises
BAD_BATCHES = [
    (dict(dt=0.0), "timestep must be positive"),
    (dict(dt=-1.0), "timestep must be positive"),
    (dict(n_steps=0), "n_steps must be >= 1"),
    (dict(stride=0), "stride must be >= 1"),
]


@pytest.mark.parametrize(
    "bad, message",
    BAD_BATCHES
    + [
        (dict(modes=mixed_modes()[:-1]), "need one mode per state and at least one state"),
        (dict(modes=[], states=[]), "need one mode per state and at least one state"),
    ],
)
def test_propagate_batch_rejects_a_bad_batch_before_any_force_call(surrogate, monkeypatch, bad, message):
    calls = count_force_calls(monkeypatch)
    modes = mixed_modes()
    args = dict(modes=modes, states=launch(surrogate, 3, len(modes)), dt=fs_to_au(0.5), n_steps=10, stride=2)
    with pytest.raises(ValueError, match=message):
        propagate_batch(surrogate, **{**args, **bad})
    assert calls == []


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize(
    "bad, message",
    BAD_BATCHES
    + [
        # modes and states always pair up here, one condition's mode to each of its specs
        (dict(conditions=[]), "at least one condition is required"),
        (dict(conditions=[(None, make_specs(3, 2, 300.0)), (None, [])]), "at least one sampling spec is required"),
    ],
)
def test_run_conditions_rejects_a_bad_batch_before_any_force_call(surrogate, monkeypatch, keep, bad, message):
    calls = count_force_calls(monkeypatch)
    args = dict(conditions=[(None, make_specs(3, 2, 300.0, aim=(0, 1)))], dt=fs_to_au(0.5), n_steps=10, stride=2)
    args = {**args, **bad}
    conditions = args.pop("conditions")
    with pytest.raises(ValueError, match=message):
        run_conditions(surrogate, conditions, positions=pta_launch_positions(surrogate), keep_trajectories=keep, **args)
    assert calls == []


def _ensemble_config(path, scan=False):
    lines = [
        "system:",
        "  builtin: pta_surrogate",
        "cavity:",
        "  omega_c_cm1: 856.0",
        "  ratio: 1.132",
        "dynamics:",
        "  duration_fs: 20.0",
        "ensemble:",
        "  n_trajectories: 3",
        "  window_fs: [0.0, 20.0]",
    ]
    path.write_text("\n".join(lines + ["scan:", "  omega_list_cm1: [43.0, 856.0]"] * scan))
    return path


def test_pool_workers_are_joined(tmp_path):
    cfg = _ensemble_config(tmp_path / "ensemble.yaml")
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "a"), "--threads", "2"]) == 0
    assert multiprocessing.active_children() == []
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threads", "1"]) == 0
    for k in range(3):
        name = f"trajectories/trajectory_{k:06d}.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_propagation_starts_no_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = _ensemble_config(tmp_path / "scan.yaml", scan=True)
    # every row of a scan is one batch in this process, whatever the thread count
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "a"), "--threads", "2"]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threads", "1"]) == 0
    name = "resonance_scan.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def kernel_probe():
    """The surrogate's well and a short mixed-mode batch of its trajectories, as named arrays."""
    system = model.build_pta_surrogate()
    w = system.reactive_bond.well
    modes = mixed_modes()
    rows = propagate_batch(system, modes, launch(system, 5, len(modes)), fs_to_au(0.5), 300, stride=3)
    out = {"well": np.array([w.r0, w.r_ts, *w.coeffs, w.x_tail, w.tail_value, w.tail_slope])}
    for name in ("times", "positions", "velocities", "photon_q", "photon_p", "epot", "ekin", "ecav", "dipole"):
        out[name] = np.stack([getattr(traj, name) for traj, _ in rows])
    return out


def test_surrogate_and_its_dynamics_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel for the CPU at run time, and Prescott is a generic one any x86-64 CPU runs;
    # its LAPACK differs from the others in the last bits, so nothing on this path may go through it
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    code = f"import numpy as np, test_batch; np.savez({str(tmp_path / 'probe.npz')!r}, **test_batch.kernel_probe())"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Prescott"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    there = np.load(tmp_path / "probe.npz")
    for name, here in kernel_probe().items():
        assert np.array_equal(there[name], here), name
