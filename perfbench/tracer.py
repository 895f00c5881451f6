"""Tracer that lives outside the program.

It wraps cavimd's public functions at the names their callers resolve, so
nothing under ``src/`` changes:

* ``dynamics``, ``analysis`` and ``cli`` call ``cavimd.model.forces`` (and
  ``potential_energy`` / ``fd_hessian``) through the module, and
  ``model.fd_hessian`` calls ``potential_energy`` as a module global, so one
  wrapper on the ``cavimd.model`` attribute sees every call;
* ``cavimd.ensemble`` and ``cavimd.cli`` bind ``propagate`` and
  ``run_ensemble`` by name, so each of those bindings gets its own wrapper;
* ``cavimd.dynamics`` binds ``cavity_energy`` and ``kinetic_energy`` by name.

High-rate kernels (about 10^5 calls per run) are aggregated per (kernel,
enclosing span): call count, busy time and a log-spaced histogram. Commands,
ensembles, propagations, analysis functions and file I/O keep full spans
(name, start, end, parent, attributes). Spans inside pool workers are not
seen, which is why traced runs use one worker.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: histogram bins per factor of two (about 2.2 % resolution)
BINS_PER_OCTAVE = 32


class Histogram:
    """Log-spaced duration histogram with exact count and sum."""

    __slots__ = ("count", "busy", "bins")

    def __init__(self):
        self.count = 0
        self.busy = 0.0
        self.bins: Dict[int, int] = {}

    def add(self, seconds: float) -> None:
        self.count += 1
        self.busy += seconds
        k = math.floor(math.log2(max(seconds, 1e-12)) * BINS_PER_OCTAVE)
        self.bins[k] = self.bins.get(k, 0) + 1

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.busy += other.busy
        for k, n in other.bins.items():
            self.bins[k] = self.bins.get(k, 0) + n

    def quantile(self, q: float) -> float:
        """Geometric centre of the bin holding the q-quantile, in seconds."""
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        seen = 0
        for k in sorted(self.bins):
            seen += self.bins[k]
            if seen > rank:
                return 2.0 ** ((k + 0.5) / BINS_PER_OCTAVE)
        return 2.0 ** ((max(self.bins) + 0.5) / BINS_PER_OCTAVE)


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: a hook sees (span, args, kwargs, result) after a traced call returns
Hook = Callable[[Span, tuple, dict, object], None]


class Tracer:
    """Install wrappers with :meth:`install`, remove them with :meth:`uninstall`."""

    def __init__(self):
        self.spans: List[Span] = []
        self.kernels: Dict[Tuple[str, str], Histogram] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def kernel(self, name: str, fn):
        kernels, stack, spans = self.kernels, self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (name, spans[stack[-1]].name if stack else "")
                hist = kernels.get(key)
                if hist is None:
                    hist = kernels[key] = Histogram()
                hist.add(dt)

        return wrapper

    def span(self, name: str, fn, hook: Optional[Hook] = None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        import cavimd.analysis as analysis
        import cavimd.cli as cli
        import cavimd.config as config
        import cavimd.dynamics as dynamics
        import cavimd.ensemble as ensemble
        import cavimd.model as model

        for attr in ("forces", "potential_energy", "fd_hessian"):
            self.patch(model, attr, self.kernel(f"model.{attr}", getattr(model, attr)))
        for attr in ("cavity_energy", "kinetic_energy"):
            self.patch(dynamics, attr, self.kernel(f"cavity.{attr}", getattr(dynamics, attr)))

        for owner in (config, cli):
            self.patch(owner, "parse_config", self.span("config.parse_config", owner.parse_config))
        self.patch(
            config.RunConfig,
            "build_system",
            self.span("config.build_system", config.RunConfig.build_system),
        )
        for owner in (ensemble, cli):
            self.patch(
                owner, "propagate", self.span("dynamics.propagate", owner.propagate, _propagate_hook)
            )
        for owner in (analysis, cli):
            self.patch(
                owner,
                "run_ensemble",
                self.span("ensemble.run_ensemble", owner.run_ensemble, _ensemble_hook),
            )
        self.patch(
            ensemble,
            "resolve_velocities",
            self.span("ensemble.resolve_velocities", ensemble.resolve_velocities),
        )
        for attr in (
            "resonance_scan",
            "find_transition_state",
            "system_normal_modes",
            "polariton_modes",
            "ir_spectrum",
            "mode_occupation",
            "bond_force_correlation",
        ):
            self.patch(analysis, attr, self.span(f"analysis.{attr}", getattr(analysis, attr)))
        self.patch(cli, "main", self.span("cli.command", cli.main, _command_hook))
        for attr in ("write_trajectory_csv", "read_trajectory_csv"):
            self.patch(cli, attr, self.span(f"cli.{attr}", getattr(cli, attr), _file_hook))
        for attr in ("write_csv", "write_json"):
            self.patch(cli, attr, self.span(f"cli.{attr}", getattr(cli, attr)))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- queries ----------------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.named(name))

    def kernel_hist(self, name: str, parent: Optional[str] = None) -> Histogram:
        """Aggregate of a kernel, over every enclosing span or just `parent`."""
        out = Histogram()
        for (kname, kparent), hist in self.kernels.items():
            if kname == name and (parent is None or kparent == parent):
                out.merge(hist)
        return out

    def span_hist(self, name: str) -> Histogram:
        out = Histogram()
        for s in self.named(name):
            out.add(s.duration)
        return out

    def names(self) -> List[str]:
        return sorted({s.name for s in self.spans} | {k for k, _ in self.kernels})


def _propagate_hook(span: Span, args, kwargs, result) -> None:
    from cavimd.units import EV_PER_HARTREE

    traj, _event = result
    span.attrs["steps"] = int(args[4] if len(args) > 4 else kwargs["n_steps"])
    span.attrs["frames"] = int(traj.n_frames)
    span.attrs["drift_ev"] = float(abs(traj.etot - traj.etot[0]).max() * EV_PER_HARTREE)


def _ensemble_hook(span: Span, args, kwargs, result) -> None:
    span.attrs["trajectories"] = len(result.records)
    span.attrs["failed"] = sum(1 for rec in result.records if rec.error)


def _command_hook(span: Span, args, kwargs, result) -> None:
    argv = args[0] if args else kwargs.get("argv")
    span.attrs["command"] = argv[0] if argv else ""
    span.attrs["exit_code"] = result


def _file_hook(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = Path(args[0]).stat().st_size
