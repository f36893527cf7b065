"""Predicting the hospital level a patient will choose for an outpatient visit.

The package turns raw claims-style records into per-visit feature vectors
(continuity-of-care indices, provider votes, incident flags), trains small
feed-forward classifiers with an optional autoencoder representation,
scores them with one-vs-rest macro metrics, and explains predictions with
Shapley values. A synthetic cohort generator and a CLI tie the stages
together end to end.
"""

from .domain import (
    CalendarCoverageError,
    CodeSets,
    Dataset,
    EmptyDatasetError,
    ExclusionReason,
    HospitalLevel,
    LEVEL_NAMES,
    N_LEVELS,
    PatientProfile,
    ProviderProfile,
    VisitTable,
    WorkdayCalendar,
    apply_exclusions,
    exclusion_masks,
)
from .features import (
    FEATURE_NAMES,
    FeatureFileError,
    MissingRegionError,
    N_FEATURES,
    SCALED_FEATURES,
    ScalerParams,
    build_feature_vectors,
    continuity_indices,
    fit_scaler,
    provider_votes,
    read_feature_csv,
    write_feature_csv,
)
from .ingest import (
    DataPaths,
    IngestError,
    STANDARD_FILENAMES,
    load_dataset,
    read_visit_table,
    write_dataset,
    write_visit_table,
)
from .pipeline import (
    SamplingError,
    SplitSpec,
    kfold_indices,
    split_indices,
    undersample_indices,
)
from .neuralnet import (
    AeConfig,
    LayerParams,
    MissingDependencyError,
    MlpConfig,
    TrainConfig,
    TrainedModel,
    TrainingDivergedError,
    dataset_loss,
    encode,
    forward,
    forward_logits,
    gradient_check,
    load_model,
    model_from_dict,
    model_to_dict,
    n_parameters,
    predict_batch,
    train_autoencoder,
    train_classifier,
)
from .metrics import (
    ClassCounts,
    ClassMetrics,
    ConfusionCounts,
    MetricReport,
    TABLE_METRICS,
    auc_ovr,
    binary_auc,
    build_report,
    comparison_rows,
    confusion_counts,
    macro_metrics,
    per_class_metrics,
)
from .explain import (
    Attribution,
    BackgroundSet,
    ExactLimitError,
    GlobalImportance,
    LocalReport,
    classifier_model_fn,
    exact_shapley,
    global_importance,
    local_report,
    sampled_shapley,
    write_importance_csv,
)
from .synthgen import (
    CohortSpec,
    GeneratedCohort,
    cohort_spec_from_config,
    generate_cohort,
)

__version__ = "0.1.0"
