"""Probabilistic predictors trained by sampled dissimilarity minimization.

A generator network turns an input and a uniform noise draw into one
sample from the model's conditional output distribution. Training
minimizes a sampled dissimilarity between the data and the model: a
data-fit term minus gamma times a sample-diversity term, which at
gamma = 1/2 is the energy scoring rule. Training takes the objective and
its gradient in one hand-written numpy pass per minibatch; a small
reverse-mode autodiff graph over dense float64 arrays serves as the
independent gradient reference. No framework.
"""

from .autodiff import Graph, Tensor
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DisconetError,
    EstimatorError,
    NumericError,
    ParameterError,
    ParseError,
    SchemaError,
)
from .metrics import (
    base_candidates,
    ff,
    joint_count,
    majee,
    mejee,
    metrics_report,
    meu_predict,
    pearson_matrix,
    probloss,
    report_rows,
)
from .network import (
    NetConfig,
    NetworkParams,
    bind_params,
    forward_rows,
    grad_flat,
    init_params,
    predict_rows,
    sample_candidates,
    sample_outputs,
)
from .objective import (
    ObjectiveConfig,
    disco_objective,
    disco_objective_node,
    div_pq_hat,
    div_qq_hat,
    grad_check,
    objective_terms,
)
from .rng import derive_seed, substream
from .scoring import (
    SINGULARITY_EPS,
    DiscreteDistribution,
    LossSpec,
    delta,
    div_exact,
    divergence_discrete,
    energy_score_sample,
)
from .synth import (
    LOSS_DIM1,
    LOSS_DIM2,
    TOY_MIXTURE,
    fit_gaussian_grid,
    gen_conditional_bimodal,
    gen_gmm2d,
    load_csv,
    toy_cross_table,
)
from .training import (
    EpochStats,
    TrainConfig,
    sgd_momentum_step,
    train,
    train_val_split,
)

__version__ = "0.1.0"

__all__ = [
    "SINGULARITY_EPS",
    "Graph",
    "Tensor",
    "grad_check",
    "DisconetError",
    "ConfigError",
    "ContractError",
    "DimensionError",
    "EstimatorError",
    "NumericError",
    "ParameterError",
    "ParseError",
    "SchemaError",
    "base_candidates",
    "ff",
    "joint_count",
    "majee",
    "mejee",
    "metrics_report",
    "meu_predict",
    "pearson_matrix",
    "probloss",
    "report_rows",
    "NetConfig",
    "NetworkParams",
    "bind_params",
    "forward_rows",
    "grad_flat",
    "init_params",
    "predict_rows",
    "sample_candidates",
    "sample_outputs",
    "ObjectiveConfig",
    "disco_objective",
    "disco_objective_node",
    "div_pq_hat",
    "div_qq_hat",
    "objective_terms",
    "derive_seed",
    "substream",
    "LOSS_DIM1",
    "LOSS_DIM2",
    "DiscreteDistribution",
    "LossSpec",
    "delta",
    "div_exact",
    "divergence_discrete",
    "energy_score_sample",
    "TOY_MIXTURE",
    "fit_gaussian_grid",
    "gen_conditional_bimodal",
    "gen_gmm2d",
    "load_csv",
    "toy_cross_table",
    "EpochStats",
    "TrainConfig",
    "sgd_momentum_step",
    "train",
    "train_val_split",
]
