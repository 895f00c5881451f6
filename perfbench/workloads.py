"""The three workloads: what each runs through cavimd's public functions,
and the checks on its outputs.

A workload's `run` times only the calls into cavimd; writing its input
configs and checking its outputs happen outside the timed region. Every
command goes through ``cavimd.cli.main`` looked up on the module at call
time, so the tracer's wrapper sees it.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import yaml

#: scan rows besides the lambda=0 baseline: off-resonant and resonant cavity
SCAN_OMEGAS_CM1 = [43.0, 856.0]
#: TS searches per analysis-static repetition, each from its own seeded start
TS_STARTS = 3
#: amplitude (bohr) of the seeded displacement of each TS start geometry
TS_START_JITTER_BOHR = 0.02
TS_SCAN = (3.9, 5.1, 25)  # r_min, r_max (bohr), points: the range criterion 2 uses


def base_seed(seed: int) -> int:
    """cavimd ensemble seed for benchmark seed `seed`.

    cavimd keys trajectory k of an ensemble by ``base_seed XOR k``, so two
    base seeds that differ only in the low four bits (the index bits of a
    16-member ensemble) give the same 16 trajectories in another order.
    Benchmark seed n therefore maps to ``16 * (n - 1) + 1`` (mod 2**32):
    seed 1 is cavimd seed 1, which the acceptance tests pin, and every other
    seed differs from it above the index bits.
    """
    return (16 * (seed - 1) + 1) % 2**32


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Rep:
    """One timed repetition of a workload."""

    wall_s: float
    out: Path
    exit_codes: Dict[str, int]
    traj_steps: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class Context:
    root: Path  # checkout root
    seed: int  # benchmark seed
    threads: int  # worker processes for a parallel workload

    @property
    def cavimd_seed(self) -> int:
        return base_seed(self.seed)

    def default_config(self) -> dict:
        return yaml.safe_load((self.root / "configs" / "default.yaml").read_text())

    def write_config(self, path: Path, **overrides) -> Path:
        cfg = self.default_config()
        for block, values in overrides.items():
            cfg.setdefault(block, {}).update(values)
        path.write_text(yaml.safe_dump(cfg))
        return path

    def pinned(self) -> Dict[str, Tuple[float, float]]:
        """The seed-1 ensemble values frozen in the acceptance tests."""
        source = (self.root / "tests" / "test_acceptance.py").read_text()
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXPECTED" for t in node.targets
            ):
                return ast.literal_eval(node.value)
        raise LookupError("EXPECTED not found in tests/test_acceptance.py")


def _cli(argv: List[str]) -> int:
    import cavimd.cli

    return cavimd.cli.main(argv)


def _bohr(angstrom: float) -> float:
    from cavimd.units import ANGSTROM_PER_BOHR

    return angstrom / ANGSTROM_PER_BOHR


def _pinned_checks(ctx: Context, label: str, name: str, frac: float, mean_a: float) -> List[Check]:
    if ctx.cavimd_seed != 1:
        return []
    want_frac, want_mean = ctx.pinned()[name]
    return [
        Check(f"{label}.pinned_fraction", abs(frac - want_frac) <= 1e-12, f"{frac} vs {want_frac}"),
        Check(
            f"{label}.pinned_mean",
            math.isclose(_bohr(mean_a), want_mean, rel_tol=1e-9, abs_tol=0.0),
            f"{_bohr(mean_a)!r} vs {want_mean!r} bohr",
        ),
    ]


def _exit_checks(rep: Rep) -> List[Check]:
    return [Check(f"exit.{name}", code == 0, f"exit code {code}") for name, code in rep.exit_codes.items()]


def _same_bytes(label: str, a: Path, b: Path) -> List[Check]:
    files = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    if not files:
        return [Check(label, False, f"no CSV files under {a}")]
    differ = [str(f) for f in files if (a / f).read_bytes() != (b / f).read_bytes()]
    return [Check(label, not differ, f"{len(files)} CSV files, differing: {differ[:3]}")]


# --- scan ---------------------------------------------------------------------------

class Scan:
    """`cavimd scan`: paired seeds, baseline + 43 + 856 cm^-1 rows, pool workers."""

    name = "scan"
    parallel = True  # runs at Context.threads workers; traced repetitions use one

    def run(self, ctx: Context, out: Path, threads: int) -> Rep:
        cfg = ctx.write_config(out / "scan.yaml", scan={"omega_list_cm1": SCAN_OMEGAS_CM1})
        argv = ["scan", "--config", str(cfg), "--seed", str(ctx.cavimd_seed),
                "--out", str(out / "scan"), "--threads", str(threads)]
        t0 = time.perf_counter()
        code = _cli(argv)
        wall = time.perf_counter() - t0
        conf = ctx.default_config()
        n_steps = round(conf["dynamics"]["duration_fs"] / conf["dynamics"]["dt_fs"])
        rows = 1 + len(SCAN_OMEGAS_CM1)
        steps = conf["ensemble"]["n_trajectories"] * n_steps * rows
        return Rep(wall, out, {"scan": code}, traj_steps=steps)

    def check(self, ctx: Context, rep: Rep) -> Tuple[List[Check], int, int]:
        checks = _exit_checks(rep)
        path = rep.out / "scan" / "resonance_scan.csv"
        if not path.exists():
            return checks + [Check("scan.table", False, "resonance_scan.csv missing")], 0, 0
        rows = list(csv.DictReader(path.open()))
        omegas = [r["omega_c_cm1"] for r in rows]
        expect = [""] + [repr(w) for w in SCAN_OMEGAS_CM1]
        checks.append(Check("scan.rows", omegas == expect, f"omega column {omegas}"))
        n_traj = ctx.default_config()["ensemble"]["n_trajectories"]
        sane = all(
            int(r["n"]) == n_traj
            and 0.0 <= float(r["reaction_fraction"]) <= 1.0
            and math.isfinite(float(r["mean_sic_A"]))
            for r in rows
        )
        checks.append(Check("scan.values", sane, "n, fraction in [0, 1], finite mean"))
        if omegas == expect:
            for row, name in zip(rows, ("free", "off43", "res856")):
                checks += _pinned_checks(
                    ctx, f"scan.{name}", name, float(row["reaction_fraction"]), float(row["mean_sic_A"])
                )
        # ScanRow.n counts every trajectory, failed or not, so failures are only
        # visible to the tracer, which stores them on the traced repetition
        attempted, failed = rep.extra.get("trajectories", (0, 0))
        return checks, attempted, failed

    def compare(self, a: Rep, b: Rep) -> List[Check]:
        return _same_bytes("scan.table_identical", a.out / "scan", b.out / "scan")


# --- ensemble-io ----------------------------------------------------------------------

class EnsembleIO:
    """Two `cavimd ensemble` runs (resonant, free space) then `cavimd analyze`."""

    name = "ensemble-io"
    parallel = False
    conditions = {"resonant": ("res856", None), "free": ("free", 0.0)}

    def _configs(self, ctx: Context, out: Path) -> Dict[str, Path]:
        cfgs = {}
        for cond, (_, ratio) in self.conditions.items():
            cavity = {} if ratio is None else {"ratio": ratio}
            cfgs[cond] = ctx.write_config(out / f"{cond}.yaml", cavity=cavity)
        runs = [str(out / cond) for cond in self.conditions]
        cfgs["analyze"] = ctx.write_config(out / "analyze.yaml", analyze={"runs": runs})
        return cfgs

    def run(self, ctx: Context, out: Path, threads: int) -> Rep:
        cfgs = self._configs(ctx, out)
        seed = ["--seed", str(ctx.cavimd_seed)]
        codes = {}
        t0 = time.perf_counter()
        for cond in self.conditions:
            codes[f"ensemble.{cond}"] = _cli(
                ["ensemble", "--config", str(cfgs[cond]), *seed,
                 "--out", str(out / cond), "--threads", str(threads)]
            )
        codes["analyze"] = _cli(["analyze", "--config", str(cfgs["analyze"]), "--out", str(out / "analysis")])
        wall = time.perf_counter() - t0
        conf = ctx.default_config()
        n_steps = round(conf["dynamics"]["duration_fs"] / conf["dynamics"]["dt_fs"])
        steps = conf["ensemble"]["n_trajectories"] * n_steps * len(self.conditions)
        return Rep(wall, out, codes, traj_steps=steps)

    def check(self, ctx: Context, rep: Rep) -> Tuple[List[Check], int, int]:
        checks = _exit_checks(rep)
        window_end = ctx.default_config()["ensemble"]["window_fs"][1]
        n_traj = ctx.default_config()["ensemble"]["n_trajectories"]
        attempted = failed = 0
        drift = 0.0
        for cond, (pinned_name, _) in self.conditions.items():
            run_dir = rep.out / cond
            try:
                summary = json.loads((run_dir / "summary.json").read_text())
                table = list(csv.DictReader((run_dir / "ensemble.csv").open()))
            except (OSError, ValueError) as exc:
                checks.append(Check(f"{cond}.outputs", False, str(exc)))
                continue
            attempted += len(table)
            failed += sum(1 for row in table if row["error"])
            frac = summary["reaction_fraction"]
            checks.append(
                Check(
                    f"{cond}.summary",
                    summary["n_trajectories"] == n_traj and 0.0 <= frac <= 1.0 and not summary["errors"],
                    f"n={summary['n_trajectories']} fraction={frac} errors={len(summary['errors'])}",
                )
            )
            checks += _pinned_checks(ctx, cond, pinned_name, frac, summary["mean_sic_A"])
            files = sorted((run_dir / "trajectories").glob("trajectory_*.csv"))
            checks.append(Check(f"{cond}.trajectory_files", len(files) == n_traj, f"{len(files)} files"))
            for f in files:
                data = np.loadtxt(f, delimiter=",", skiprows=1, usecols=(0, _column(f, "etot_eV")))
                inside = data[data[:, 0] <= window_end + 1e-9, 1]
                drift = max(drift, float(np.abs(inside - inside[0]).max()))
        rep.extra["energy_drift_ev"] = drift
        checks += self._analysis_checks(rep.out / "analysis")
        return checks, attempted, failed

    def _analysis_checks(self, adir: Path) -> List[Check]:
        names = [f"occupation_{c}.csv" for c in self.conditions]
        names += ["occupation_difference.csv", "occupation_accumulated.csv"]
        missing = [n for n in names if not (adir / n).exists()]
        checks = [Check("analyze.occupation_files", not missing, f"missing: {missing}")]
        for cond in self.conditions:
            path = adir / f"bond_correlation_{cond}.json"
            value = json.loads(path.read_text())["integrated"] if path.exists() else float("nan")
            checks.append(
                Check(f"analyze.bond_correlation_{cond}", 0.0 <= value <= 1.0, f"integrated {value}")
            )
        return checks

    def recheck(self, ctx: Context, rep: Rep) -> List[Check]:
        """Repeat trajectory 0 of each condition with `cavimd run` and compare bytes."""
        checks = []
        for cond in self.conditions:
            again = rep.out / f"rerun_{cond}"
            code = _cli(["run", "--config", str(rep.out / f"{cond}.yaml"),
                         "--seed", str(ctx.cavimd_seed), "--out", str(again)])
            name = "trajectory_000000.csv"
            first = rep.out / cond / "trajectories" / name
            second = again / "trajectories" / name
            same = code == 0 and second.exists() and first.read_bytes() == second.read_bytes()
            checks.append(Check(f"{cond}.repeat_identical", same, f"run exit {code}, {name}"))
        return checks

    def compare(self, a: Rep, b: Rep) -> List[Check]:
        checks = []
        for sub in (*self.conditions, "analysis"):
            checks += _same_bytes(f"{sub}.outputs_identical", a.out / sub, b.out / sub)
        return checks


def _column(path: Path, name: str) -> int:
    with path.open() as fh:
        return next(csv.reader(fh)).index(name)


# --- analysis-static -------------------------------------------------------------------

class AnalysisStatic:
    """`calibrate`, `spectrum`, `model-check` and transition-state searches: no dynamics."""

    name = "analysis-static"
    parallel = False

    def run(self, ctx: Context, out: Path, threads: int) -> Rep:
        import cavimd.analysis
        import cavimd.config

        cfg = ctx.write_config(out / "static.yaml")
        rng = np.random.default_rng(ctx.cavimd_seed)
        codes = {}
        t0 = time.perf_counter()
        for command in ("calibrate", "spectrum", "model-check"):
            codes[command] = _cli([command, "--config", str(cfg), "--out", str(out / command)])
        system = cavimd.config.parse_config(cfg.read_text()).build_system()
        ref = system.reference_positions
        results = []
        for _ in range(TS_STARTS):
            start = ref + TS_START_JITTER_BOHR * rng.standard_normal(ref.size)
            try:
                results.append(cavimd.analysis.find_transition_state(system, *TS_SCAN, start_positions=start))
            except cavimd.analysis.SearchError as exc:
                results.append(exc)
        wall = time.perf_counter() - t0
        return Rep(wall, out, codes, extra={"ts": results})

    def check(self, ctx: Context, rep: Rep) -> Tuple[List[Check], int, int]:
        checks = _exit_checks(rep)
        # tolerances of acceptance criteria 2 (barrier, barrier-top frequency) and 11 (mode)
        try:
            cal = json.loads((rep.out / "calibrate" / "calibration.json").read_text())
            mc = json.loads((rep.out / "model-check" / "model_check.json").read_text())
        except (OSError, ValueError) as exc:
            return checks + [Check("static.outputs", False, str(exc))], 0, 0
        checks += [
            Check("calibrate.barrier", abs(cal["barrier_eV"] - 0.35) <= 1e-4, f"{cal['barrier_eV']} eV"),
            Check(
                "calibrate.omega_b",
                abs(cal["ts_frequency_cm1"] - 86.0) <= 1.0,
                f"{cal['ts_frequency_cm1']} cm^-1",
            ),
            Check("model_check.passed", mc["passed"] is True, "force/stationarity self-checks"),
            Check("model_check.mode_856", abs(mc["mode_856_cm1"] - 856.07) <= 0.5, f"{mc['mode_856_cm1']} cm^-1"),
        ]
        lines = list((rep.out / "spectrum").glob("spectrum_lines_*.csv"))
        checks.append(Check("spectrum.files", len(lines) == 2, f"{len(lines)} line tables"))
        for k, ts in enumerate(rep.extra["ts"]):
            if isinstance(ts, Exception):
                checks.append(Check(f"ts{k}.barrier", False, f"search failed: {ts}"))
                continue
            checks.append(
                Check(
                    f"ts{k}.barrier",
                    abs(ts.barrier_ev - 0.35) <= 1e-4 and ts.n_negative == 1,
                    f"{ts.barrier_ev} eV, {ts.n_negative} negative mode(s), omega_b {ts.omega_b_cm1:.2f} cm^-1",
                )
            )
        return checks, 0, 0

    def compare(self, a: Rep, b: Rep) -> List[Check]:
        return _same_bytes("spectrum.identical", a.out / "spectrum", b.out / "spectrum")


WORKLOADS = {w.name: w for w in (Scan(), EnsembleIO(), AnalysisStatic())}
