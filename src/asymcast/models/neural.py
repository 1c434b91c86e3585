"""Single-hidden-layer feedforward network with pluggable training loss.

The network is

    f(x) = v0 + sum_e v_e * g1(w_e' x + b_e)

with a logistic hidden activation g1 and an identity output, so
regression targets stay unbounded. Besides the hidden weights of the
written form, input-layer and output-layer biases are included, which
is standard practice and materially improves trainability.

Training minimizes the full-batch objective

    mean(loss(y - f(x))) + lambda1*sum(W^2) + lambda2*sum(v^2)

of ``nn_objective_and_grad`` with scipy's L-BFGS-B quasi-Newton method,
as R's ``nnet`` trains the same model; biases are unpenalized and
``epochs`` caps the L-BFGS iterations, and ``hyperparams["iterations"]``
records how many ran. Supported loss modes: squared error, lin-lin
(``llc``, which at a = tau, b = 1 - tau is the quantile loss) and
quadratic-quadratic (``qqc``), at any weights. L-BFGS trains ``llc``
through the jump of its gradient at e = 0; the gradient 2 w e of ``qqc``
is continuous.

The objective holds the hidden layer units x rows, H' = g1(W1' X' + b1),
so its elementwise passes and its sums over rows run along all n rows;
prediction holds it rows x units. Both layouts share the clipped logistic
of ``kernels.logistic_inplace``, and a forecast is bit for bit the
rows x units composition.

Training starts from the seeded ``init_params``, or from a given
``start`` state, such as a network fitted on a neighbouring loss, whose
parameters then replace the seeded ones. Training is deterministic given
the config seed and the start state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .. import kernels
from ..errors import ConfigurationError, TrainingError
from ..losses import CostSpec, _eval_raw, _grad_raw
from .base import FAMILY_NN, Model, check_training_data, require_integer

_LOSSES = ("squared_error", "llc", "qqc")
_DIVERGED = "network training diverged (non-finite objective); check the scale of the targets"


@dataclass(frozen=True)
class NNConfig:
    hidden_nodes: int = 8
    lambda1: float = 1e-6
    lambda2: float = 1e-6
    epochs: int = 100  # L-BFGS iteration cap
    seed: int = 0

    def __post_init__(self):
        require_integer("hidden_nodes", self.hidden_nodes)
        require_integer("epochs", self.epochs)
        if self.hidden_nodes < 1:
            raise ConfigurationError(f"need at least one hidden node, got {self.hidden_nodes}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigurationError("weight penalties must be non-negative")
        if self.epochs < 1:
            raise ConfigurationError(
                f"epochs (the L-BFGS iteration cap) must be >= 1, got {self.epochs}"
            )


class NNState:
    def __init__(self, W1, b1, v, v0):
        self.W1 = W1
        self.b1 = b1
        self.v = v
        self.v0 = v0

    def predict(self, X: np.ndarray) -> np.ndarray:
        return kernels.nn_forward(X, self.W1, self.b1, self.v, self.v0)


def _check_loss_mode(loss_mode: CostSpec):
    """Reject losses a network cannot be trained on."""
    if loss_mode.family not in _LOSSES:
        raise ConfigurationError(
            f"{loss_mode.family!r} is not a trainable network loss; use one of {_LOSSES}"
        )


def init_params(n_features: int, y: np.ndarray, config: NNConfig):
    """Seeded initial weights; output bias starts at the target mean."""
    rng = np.random.default_rng(config.seed)
    k = config.hidden_nodes
    W1 = rng.normal(0.0, 1.0 / np.sqrt(max(1, n_features)), size=(n_features, k))
    b1 = np.zeros(k)
    v = rng.normal(0.0, 1.0 / np.sqrt(k), size=k)
    v0 = np.array([float(np.mean(y))])
    return W1, b1, v, v0


def fit_nn(
    X,
    y,
    config: NNConfig,
    loss_mode: CostSpec = CostSpec("squared_error"),
    start: NNState | None = None,
) -> Model:
    """Train on standardized features; deterministic given config.seed and ``start``.

    ``start``, a network of ``X``'s width and ``config.hidden_nodes``
    hidden units with finite parameters, replaces ``init_params``.
    """
    X, y = check_training_data(X, y)
    k = config.hidden_nodes
    if start is None:
        theta0 = flatten_params(*init_params(X.shape[1], y, config))
    else:
        theta0 = _start_params(start, X.shape[1], k)
    args = (X, y, config, loss_mode)
    # huge targets overflow the loss; a line search backs off from an
    # infinite objective, and one at the start or the end is raised
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(nn_objective_and_grad(theta0, *args)[0]):
            raise TrainingError(_DIVERGED)
        result = minimize(
            nn_objective_and_grad,
            theta0,
            args=args,
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": config.epochs},
        )
    if not np.isfinite(result.fun):
        raise TrainingError(_DIVERGED)
    W1, b1, v, v0 = unflatten_params(result.x, X.shape[1], k)
    state = NNState(W1, b1, v, v0)
    params = {
        "hidden_nodes": k,
        "lambda1": config.lambda1,
        "lambda2": config.lambda2,
        "epochs": config.epochs,
        "seed": config.seed,
        "loss": loss_mode.describe(),
        "iterations": int(result.nit),
    }
    return Model(FAMILY_NN, params, state, X.shape[1], loss_mode=loss_mode)


def _start_params(start: NNState, n_features: int, k: int) -> np.ndarray:
    """``start``'s flat parameters; ConfigurationError unless they fit this network and are finite."""
    expected = {"W1": (n_features, k), "b1": (k,), "v": (k,), "v0": (1,)}
    given = {name: np.shape(getattr(start, name)) for name in expected}
    if given != expected:
        raise ConfigurationError(
            f"start state shapes {given} do not fit this network, which needs {expected}"
        )
    theta = flatten_params(start.W1, start.b1, start.v, start.v0)
    if not np.isfinite(theta).all():
        raise ConfigurationError("start state has a non-finite parameter")
    return theta


# ------------------------------------------------------ training objective

def flatten_params(W1, b1, v, v0) -> np.ndarray:
    return np.concatenate([W1.ravel(), b1, v, v0])


def unflatten_params(theta, n_features, k):
    W1 = theta[: n_features * k].reshape(n_features, k)
    b1 = theta[n_features * k : n_features * k + k]
    v = theta[n_features * k + k : n_features * k + 2 * k]
    v0 = theta[n_features * k + 2 * k :]
    return W1, b1, v, v0


def nn_objective_and_grad(theta, X, y, config: NNConfig, loss_mode: CostSpec):
    """The training objective at flat parameters ``theta`` and its gradient.

    ``fit_nn`` minimizes exactly this function, so it is the one
    definition of the network's loss, penalties and gradient; the
    finite-difference tests check the gradient against it. A forecast
    that overflows gives an infinite objective.

    L-BFGS calls this thousands of times per fit, so the residuals are
    checked for finiteness once per evaluation and then go to the loss
    formulas unchecked, and the hidden layer is held units x rows
    (``X.T`` is a view), so each elementwise pass and each sum over rows
    runs along all n rows rather than along the k units. The result
    equals, bit for bit, the same units x rows composition of
    ``eval_loss`` and ``grad_loss``, and agrees with the rows x units one
    to rounding.
    """
    _check_loss_mode(loss_mode)
    n, m = X.shape
    k = config.hidden_nodes
    W1, b1, v, v0 = unflatten_params(np.asarray(theta, dtype=float), m, k)
    HT = np.dot(W1.T, X.T)
    HT += b1[:, None]
    kernels.logistic_inplace(HT)
    e = v @ HT
    e += v0[0]
    np.subtract(y, e, out=e)
    if not np.isfinite(e).all():
        return np.inf, np.zeros_like(theta)

    # np.mean's arithmetic: a pairwise sum, then one division by n
    mean_loss = float(_eval_raw(loss_mode, e).sum()) / n
    objective = mean_loss + config.lambda1 * float((W1 * W1).sum()) + config.lambda2 * float(
        (v * v).sum()
    )

    dyhat = _grad_raw(loss_mode, e)
    dyhat /= -n
    dv = HT @ dyhat + 2.0 * config.lambda2 * v
    dv0 = np.array([dyhat.sum()])
    # HT becomes dZ', the pre-activation gradient; dv has used HT itself
    HT *= 1.0 - HT
    HT *= v[:, None]
    HT *= dyhat
    dW1 = np.dot(HT, X).T + 2.0 * config.lambda1 * W1
    db1 = HT.sum(axis=1)
    return objective, flatten_params(dW1, db1, dv, dv0)
