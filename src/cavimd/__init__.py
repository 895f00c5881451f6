"""cavimd: desk-scale cavity molecular dynamics of a reactive surrogate.

A six-bead reactive complex (one breakable bond, anharmonic bond-bond
couplings, fixed partial charges) coupled to a single classical cavity
mode in the length gauge, with symplectic propagation, thermal trajectory
ensembles, vibro-polaritonic spectra and resonance scans.
"""

from .cavity import (
    CavityMode,
    FullState,
    PhotonState,
    cavity_energy,
    coupling_ratio,
    lambda_for_ratio,
    nuclear_cavity_force,
    photon_force,
    total_energy,
    zero_field_init,
)
from .dynamics import (
    IntegrationError,
    ReactionEvent,
    Trajectory,
    detect_reaction,
    propagate,
    propagate_batch,
    velocity_verlet_step,
)
from .ensemble import (
    EnsembleResult,
    SamplingSpec,
    launch_states,
    make_specs,
    reaction_statistics,
    resample_around,
    run_conditions,
    run_ensemble,
    sample_velocities,
)
from .model import (
    CalibrationError,
    CouplingTerm,
    DipoleModel,
    HarmonicBond,
    ModelSystem,
    Particle,
    ReactiveBond,
    ReactiveWell,
    build_pta_surrogate,
    calibrate_reactive_bond,
    dipole,
    dipole_gradient,
    forces,
    potential_energy,
    pta_launch_positions,
    stretch_bond,
)
from .analysis import (
    NormalModes,
    OccupationMap,
    SearchError,
    SpectrumLine,
    TSResult,
    bond_force_correlation,
    find_transition_state,
    hessian,
    ir_spectrum,
    mode_occupation,
    normal_modes,
    occupation_difference,
    polariton_modes,
    resonance_scan,
    sic_weighted_spectrum,
    system_normal_modes,
    td_spectrum,
)

__version__ = "0.1.0"
