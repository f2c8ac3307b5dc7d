"""Bistatic MIMO radar simulator and subspace parameter estimators.

Synthesizes one coherent processing interval of multi-target echo data for
a code-division MIMO radar with separated Tx/Rx arrays, then estimates
per-target range, Doppler, direction of arrival and direction of
departure.  Two estimators are provided: a virtual-spatiotemporal subspace
method operating on an extended (Tx antenna x Rx antenna x fast time)
observation space, and a geometric baseline that combines spatial MUSIC
with bistatic ellipse geometry.  A Monte Carlo harness compares the two by
RMSE over SNR.
"""

from .scenario import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    Scenario,
    ScenarioError,
    SystemConfig,
    TargetSpec,
    default_scenario,
    default_scenario_path,
    load_scenario,
    save_scenario,
    truth_from_geometry,
)
from .waveform import CodeMatrix, SymbolSequence, extend_codes, generate_pn_codes, generate_symbols, symbol_matrix
from .manifold import (
    direction_unit_vector,
    doppler_phase_vector,
    extended_manifold,
    spatial_manifold,
    temporal_signature,
    transformation_matrix,
)
from .channel import (
    DataCube,
    TargetTruth,
    draw_target_states,
    dump_cube,
    load_cube,
    path_gain,
    swerling_amplitude,
    synthesize_cube,
    synthesize_targets,
)
from .extender import BlockerSet, VirtualSnapshots, apply_virtual_extension, build_blockers
from .estimation import (
    GridSpec,
    SubspaceBasis,
    Xi2Context,
    default_grid,
    doa_dod_search,
    doppler_refine,
    estimate_signal_dim,
    prepare_xi2_context,
    range_doppler_search,
    subspace_split,
    temporal_covariance,
    xi1_cost,
    xi1_surface,
    xi2_surface,
)
from .baseline import baseline_estimate, dod_from_geometry, music_doa_spectrum, split_bistatic_range
from .harness import (
    EstimateReport,
    RmseReport,
    RunResult,
    TargetEstimate,
    emit_outputs,
    monte_carlo_rmse,
    run_scenario,
)

__version__ = "0.1.0"
