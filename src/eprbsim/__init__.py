"""Event-by-event simulation and analysis of two-station pair experiments
with time-tag coincidence post-selection."""

__version__ = "0.1.0"

from .coincidence import (
    CoincidenceCounts,
    CorrelationEstimate,
    estimate,
    estimate_block,
    match_streams,
    tally,
    tally_blocks,
)
from .errors import EprbError, FitError, QuadratureError, TtagFormatError, UsageError
from .inequalities import (
    GammaInfimum,
    SReport,
    ViolationFlags,
    check_violations,
    lg_bound,
    maximize_S,
    min_gamma,
    s_value,
)
from .model import Setting, SimParams, TrialBlock, run_pairs
from .oracles import gamma_limit, quantum_E, raw_sign_E, smax_quantum
from .pipeline import ThetaEngine
from .rng import uniform_block
from .scenarios import (
    FitResult,
    SweepResult,
    cosine_fit_max_z,
    fit_window,
    run_scenario,
    sweep_theta,
)
from .analyze import AnalysisReport, analyze_external, analyze_streams, synthetic_singlet_streams
from .ttag_io import (
    EventStream,
    RunManifest,
    export_station_streams,
    read_events,
    read_manifest,
    verify_manifest,
    write_events,
)

__all__ = [name for name in dir() if not name.startswith("_")]
