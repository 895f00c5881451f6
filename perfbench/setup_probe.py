"""Set-up cost every cavimd command pays, measured in a fresh process.

Times importing cavimd (and its CLI), parsing configs/default.yaml,
building the system (including the surrogate calibration), and building
the launch geometry and the sampling specs. Prints the seconds taken as
its last line.

    PYTHONPATH=src python3 perfbench/setup_probe.py <cavimd-seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import cavimd.cli  # noqa: E402,F401
from cavimd.config import parse_config  # noqa: E402
from cavimd.ensemble import make_specs  # noqa: E402

config = parse_config(Path("configs/default.yaml").read_text())
system = config.build_system()
positions = config.launch_positions(system)
ens = config.ensemble
specs = make_specs(
    int(sys.argv[1]), ens.n_trajectories, ens.temperature_K, aim=ens.aim, resample_T_K=ens.resample_T_K
)
print(time.perf_counter() - T0)
