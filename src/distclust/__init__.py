"""Distributed density-based clustering via quality-ranked local representatives."""

from .clustering import (
    NOISE,
    GlobalParams,
    Labeling,
    global_dbscan,
    reference_dbscan,
)
from .datagen import CLUSTER_PARAMS, DatasetSpec, dataset_spec, generate
from .errors import ConsistencyError, DistClustError, InputError
from .evaluation import (
    QualityReport,
    TransmissionCost,
    evaluate,
    transmission_cost,
)
from .geometry import BallIndex, Dataset, Point, load_dataset_csv, save_dataset_csv
from .pipeline import (
    ExperimentConfig,
    PipelineResult,
    SweepRow,
    merge_streams,
    partition,
    run_pipeline,
    sweep,
)
from .relabel import LocalLabeling, relabel_site
from .representatives import RepresentativeRecord, SelectionState, StopCriterion

__version__ = "0.1.0"
