"""Inference of cooperative gating in ion-channel ensembles from noisy,
low-pass-filtered sum-conductance recordings."""

from .core import DiscreteTrace, LevelLadder, StepFunction
from .diagnostics import DwellFit, MarkovTestResult, dwell_times, markov_property_test
from .discretise import discretise_trace, equal_spacing_cluster
from .idealise import Idealisation, empirical_fdr, muscle_fit, sign_bounds
from .infer import (
    MdeResult,
    cooperativity_report,
    empirical_transition_matrix,
    grid_init,
    mde_fit,
    mde_objective,
)
from .model import (
    CooperativityReport,
    JointTrace,
    ParamVector,
    TransitionMatrix,
    Verdict,
    classify_cooperativity,
    simulate_vnd,
    sum_transition_matrix,
    sum_transition_matrix_bruteforce,
    validate_theta,
)
from .pipeline import PipelineResult, fit_ladder, run_pipeline
from .synth import (
    Kernel,
    NoiseSpec,
    Recording,
    convolve_sample,
    make_kernel,
    step_from_trace,
    synthesize_recording,
)

__version__ = "0.1.0"
