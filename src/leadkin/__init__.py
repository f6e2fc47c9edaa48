"""Lead-vehicle pre-crash kinematics modeling and synthesis.

Pipeline stages: ingest raw speed series, fit weighted piecewise-linear
speed models, combine weighted crash/near-crash sources, build per-pattern
multivariate distribution models, generate constrained synthetic events,
and validate them with weighted KS tests.
"""

from .events import (
    GRAVITY,
    PARAM_NAMES,
    EventParams,
    ParamTable,
    RawEvent,
    Severity,
    SourceGroup,
    SpeedProfile,
)
from .config import PipelineConfig
from .pwl import PwlFit, fit_candidates, fit_event, sample_weights
from .combine import (
    CombinePlan,
    GroupCounts,
    MergeResult,
    Stage,
    WeightedDataset,
    build_plan,
    merge_near_crashes,
    preprocess,
    reweight_combine,
    scale_weights,
    trim_weights,
)
from .mvdist import (
    SubdatasetLabel,
    SubmodelBundle,
    build_all,
    categorize,
    classify,
)
from .synth import SyntheticDataset, assemble_synthetic, params_to_profile, sample_submodel
from .validate import (
    BootstrapReport,
    KsResult,
    bootstrap_robustness,
    describe,
    weighted_ecdf,
    weighted_ks_test,
)

__version__ = "0.1.0"
