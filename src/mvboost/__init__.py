"""Joint multivariate probabilistic regression with natural-gradient boosting."""

from .boosting import (
    BoostConfig,
    BoostModel,
    IndependentModel,
    fit,
    fit_independent,
    line_search,
    predict_theta,
)
from .distributions import (
    MomentForm,
    ThetaVector,
    fit_theta_from_moments,
    marginal_mle,
    natural_gradient,
    nll,
    param_count,
    sample,
    score,
    to_moment_form,
)
from .metrics import MetricsReport, chi2_quantile, evaluate, pr_area, pr_covered
from .simulation import ExperimentPlan, generate, run_experiment, true_params
from .trees import RegressionTree, TreeParams, fit_stage, fit_tree

__version__ = "0.1.0"
