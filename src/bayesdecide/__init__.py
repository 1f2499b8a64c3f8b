"""Optimal Bayes decisions under rich loss families.

The toolkit minimizes expected posterior loss over parametric or
sample-based posteriors for a library of loss functions (squared error
and its metric generalizations, pinball, LINEX, potential, power
divergence, gamma ratio losses, and their compositions), with model
selection, Bayesian model averaging, multivariate eigenspace prediction,
loss calibration, tail-risk curves, and value-of-information / sample
size design on top.
"""

from .bma import EnsembleMember, ModelEnsemble, bma_predict, bma_predict_general
from .calibrate import (CalibrationTarget, calibrate_linex, calibrate_quantile,
                        linex_action_approx)
from .design import (CostFunction, JointModel, beta_bernoulli,
                     expected_joint_loss, gaussian_known_variance,
                     neg_posterior_variance, optimal_sample_size, voi)
from .eigen import (CorrelationMatrix, EigenDecomposition, VectorPosterior,
                    default_eigen_weights, eigenspace_decisions,
                    estimate_correlation, optimize_eigen, epl_multivariate, project,
                    spectral_decompose)
from .engine import (OptimalDecision, SolverPath, TailRiskCurve, epl, lower_envelope,
                     optimize, optimize_functional, tail_risk_curve)
from .errors import DivergentMgfError, NumericError, ValidationError
from .losses import GeneralizedGaussian, LossFunction, LossSpec, Weight, compose
from .model_choice import (DecisionTable, ModelEvidence, bayes_factor,
                           choose_baf, choose_epl, posterior_models)
from .posteriors import (BetaPosterior, DiscretePosterior, GammaPosterior,
                         GaussianPosterior, Posterior, SamplePosterior, load_samples)

__version__ = "0.1.0"
