"""Ranked-range loss aggregation for robust learning.

Aggregate individual losses through the sum (or average) of a consecutive
range of their sorted values, trim-robust variants of the average / max /
median / top-k aggregates, plus difference-of-convex trainers for linear
models, a top-k multi-label loss, and the matching risk-measure view.
"""

from .core import (
    RankedRange,
    bilevel_corner_oracle,
    bottom_sum_variational,
    descending_order,
    ranked_range_average,
    ranked_range_sum,
    sort_descending,
    top_k_sum,
    topk_variational_objective,
)
from .data import (
    ConfigError,
    DataParseError,
    Dataset,
    LabelError,
    NoiseSpec,
    SyntheticSpec,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    inject_noise,
    load_dataset,
    monk_dataset,
    open_text,
    split_dataset,
    split_sizes,
    standardize,
    write_csv,
)
from .losses import (
    LabelSet,
    MarginLossKind,
    conventional_multilabel_loss,
    margin_loss,
    margin_loss_vec,
    per_label_hinges,
    softmax_loss_grad,
    tkml_aorr_objective,
    tkml_loss_subgrad,
    tkml_saddle_point,
)
from .metrics import (
    average_precision,
    error_rate,
    topk_accuracy,
    topk_multilabel_accuracy,
)
from .model import (
    LinearModel,
    ModelParseError,
    load_model,
    predict_matrix,
    save_model,
)
from .optim import (
    BinaryMarginLoss,
    LambdaPair,
    MultilabelLogisticLoss,
    SoftmaxLoss,
    TKMLSampleLoss,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    auto_train,
    dca_train,
    estimate_noise_count,
    lambda_pair_from_validation,
    make_loss_spec,
    phi_subgradient,
    sgd_average_train,
    sorr_objective,
    tkml_aorr_train,
)
from .riskmeasure import (
    RiskLevelPair,
    cvar_bound_check,
    empirical_cvar,
    empirical_icvar,
    deviation_bound_radii,
)

__version__ = "0.1.0"
