"""Single-hidden-layer feedforward network with pluggable training loss.

The network is

    f(x) = v0 + sum_e v_e * g1(w_e' x + b_e)

with a nonlinear hidden activation g1 (logistic by default) and an
identity output, so regression targets stay unbounded. Besides the
hidden weights of the written form, input-layer and output-layer biases
are included, which is standard practice and materially improves
trainability.

Training minimizes

    mean(loss(y - f(x))) + lambda1*sum(W^2) + lambda2*sum(v^2)

by Adam; biases are unpenalized. Supported loss modes: squared error,
pinball (optionally with a quadratic band of half-width
``pinball_smooth_eps`` replacing the kink), and the smooth
quadratic-quadratic approximation. Training is deterministic given the
config seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import ConfigurationError, TrainingError
from ..losses import CostSpec
from .base import FAMILY_NN, Model

_ACT_CODES = {"logistic": kernels.ACT_LOGISTIC, "tanh": kernels.ACT_TANH}
_LOSS_CODES = {
    "squared_error": kernels.LOSS_SQUARED,
    "pinball": kernels.LOSS_PINBALL,
    "qqc_approx": kernels.LOSS_QQC_APPROX,
}


@dataclass(frozen=True)
class NNConfig:
    hidden_nodes: int = 8
    lambda1: float = 1e-6
    lambda2: float = 1e-6
    activation_hidden: str = "logistic"
    epochs: int = 600
    learning_rate: float = 0.02
    batch_size: int = 0  # 0 = full batch
    seed: int = 0
    pinball_smooth_eps: float = 0.0

    def __post_init__(self):
        if self.hidden_nodes < 1:
            raise ConfigurationError(f"need at least one hidden node, got {self.hidden_nodes}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigurationError("weight penalties must be non-negative")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {self.learning_rate}")
        if self.activation_hidden not in _ACT_CODES:
            raise ConfigurationError(
                f"unknown hidden activation {self.activation_hidden!r}"
            )
        if self.epochs < 1 or self.batch_size < 0:
            raise ConfigurationError("epochs must be >= 1 and batch_size >= 0")


class NNState:
    def __init__(self, W1, b1, v, v0, act_code):
        self.W1 = W1
        self.b1 = b1
        self.v = v
        self.v0 = v0
        self.act_code = act_code

    def predict(self, X: np.ndarray) -> np.ndarray:
        return kernels.nn_forward(X, self.W1, self.b1, self.v, self.v0, self.act_code)


def _check_loss_mode(loss_mode: CostSpec):
    if loss_mode.family not in _LOSS_CODES:
        raise ConfigurationError(
            f"{loss_mode.family!r} is not a trainable network loss; "
            f"use one of {tuple(_LOSS_CODES)}"
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


def fit_nn(X, y, config: NNConfig, loss_mode: CostSpec = CostSpec("squared_error")) -> Model:
    """Train on standardized features; deterministic given config.seed."""
    _check_loss_mode(loss_mode)
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    W1, b1, v, v0 = init_params(X.shape[1], y, config)
    # a diverging run overflows on its way to non-finite parameters; the
    # kernel's finite check reports that as status 1, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        status = kernels.nn_train(
            X,
            y,
            W1,
            b1,
            v,
            v0,
            _ACT_CODES[config.activation_hidden],
            _LOSS_CODES[loss_mode.family],
            loss_mode.a,
            loss_mode.b,
            loss_mode.tau,
            loss_mode.steepness,
            config.pinball_smooth_eps,
            config.lambda1,
            config.lambda2,
            config.learning_rate,
            config.epochs,
            config.batch_size,
            (config.seed * 2654435761 + 1) % 4294967296,
        )
    state = NNState(W1, b1, v, v0, _ACT_CODES[config.activation_hidden])
    if status != 0 or not np.isfinite(
        np.mean((y - state.predict(X)) ** 2)
    ):
        raise TrainingError(
            "network training diverged (non-finite loss); try a smaller learning rate"
        )
    params = {
        "hidden_nodes": config.hidden_nodes,
        "lambda1": config.lambda1,
        "lambda2": config.lambda2,
        "activation": config.activation_hidden,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "batch_size": config.batch_size,
        "seed": config.seed,
        "loss": loss_mode.describe(),
    }
    return Model(FAMILY_NN, params, state, X.shape[1], loss_mode=loss_mode)


# ------------------------------------------------- objective for checking

def flatten_params(W1, b1, v, v0) -> np.ndarray:
    return np.concatenate([W1.ravel(), b1, v, v0])


def unflatten_params(theta, n_features, k):
    W1 = theta[: n_features * k].reshape(n_features, k)
    b1 = theta[n_features * k : n_features * k + k]
    v = theta[n_features * k + k : n_features * k + 2 * k]
    v0 = theta[n_features * k + 2 * k :]
    return W1, b1, v, v0


def nn_objective_and_grad(theta, X, y, config: NNConfig, loss_mode: CostSpec):
    """Full training objective and its analytic gradient, in plain numpy.

    This mirrors the training kernel's math and is what the
    finite-difference gradient checks run against.
    """
    _check_loss_mode(loss_mode)
    n, m = X.shape
    k = config.hidden_nodes
    W1, b1, v, v0 = unflatten_params(np.asarray(theta, dtype=float), m, k)
    Z = X @ W1 + b1
    if config.activation_hidden == "tanh":
        H = np.tanh(Z)
        Hder = 1.0 - H * H
    else:
        H = 1.0 / (1.0 + np.exp(np.clip(-Z, -700.0, 700.0)))
        Hder = H * (1.0 - H)
    yhat = H @ v + v0[0]
    e = y - yhat

    eps = config.pinball_smooth_eps
    if loss_mode.family == "pinball" and eps > 0.0:
        tau = loss_mode.tau
        loss = np.where(e > 0, tau * e, (tau - 1.0) * e)
        band = e * e / (4.0 * eps) + (tau - 0.5) * e + eps / 4.0
        loss = np.where(np.abs(e) <= eps, band, loss)
        g = np.where(e > 0, tau, np.where(e < 0, tau - 1.0, tau))
        g = np.where(np.abs(e) <= eps, e / (2.0 * eps) + (tau - 0.5), g)
        mean_loss = float(np.mean(loss))
    else:
        from ..losses import eval_loss, grad_loss

        mean_loss = float(np.mean(eval_loss(loss_mode, e)))
        g = grad_loss(loss_mode, e)

    objective = mean_loss + config.lambda1 * float(np.sum(W1 * W1)) + config.lambda2 * float(
        np.sum(v * v)
    )

    dyhat = -g / n
    dv = H.T @ dyhat + 2.0 * config.lambda2 * v
    dv0 = np.array([np.sum(dyhat)])
    dZ = (dyhat[:, None] * v[None, :]) * Hder
    dW1 = X.T @ dZ + 2.0 * config.lambda1 * W1
    db1 = dZ.sum(axis=0)
    return objective, flatten_params(dW1, db1, dv, dv0)
