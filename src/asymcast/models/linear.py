"""Linear estimators: least squares, ridge, and quantile regression.

Quantile regression solves the weighted absolute-residual objective

    min_beta sum_i rho_tau(y_i - x_i' beta),
    rho_tau(d) = tau*d if d > 0 else (tau - 1)*d

through its rank-score dual (Koenker & Bassett, Econometrica 1978),

    max_d y'd  subject to  A'd = (1 - tau) A'1,  0 <= d <= 1,

with A the design matrix including the intercept column. The dual has
one equality row per coefficient instead of one per observation; scipy's
HiGHS solver returns beta as the negated multipliers of those rows. The
contract is objective-value optimality, checked in the tests against the
primal LP and grid/perturbation oracles.

HiGHS runs without presolve. The dual's p + 1 equality rows are dense
and every variable has the same box [0, 1], so presolve finds nothing to
remove, yet it took about a third of the solve time at n = 3,200 rows.
The solver then starts from the same model and returns the same beta.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize

from ..errors import ConfigurationError, ConvergenceError, InvalidInputError, SingularDesignError
from ..losses import CostSpec
from .base import FAMILY_OLS, FAMILY_QUANTILE, FAMILY_RIDGE, Model, check_training_data


class LinearState:
    """Coefficient vector, intercept first."""

    def __init__(self, beta: np.ndarray):
        self.beta = np.asarray(beta, dtype=float)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.beta[0] + X @ self.beta[1:]


def _design(X, y):
    X, y = check_training_data(X, y)
    return X, y, np.column_stack([np.ones(X.shape[0]), X])


def _check_rank(A, feature_names):
    """Raise SingularDesignError naming the dependent columns (QR pivoting)."""
    _, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag.max() * max(A.shape) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < A.shape[1]:
        bad = sorted(piv[rank:])
        if feature_names is not None:
            labels = ["intercept" if j == 0 else feature_names[j - 1] for j in bad]
        else:
            labels = ["intercept" if j == 0 else f"column {j - 1}" for j in bad]
        raise SingularDesignError(
            f"design matrix is rank deficient (rank {rank} of {A.shape[1]}); "
            f"offending columns: {labels}"
        )


def fit_ols(X, y, feature_names=None) -> Model:
    """Ordinary least squares with intercept."""
    X, y, A = _design(X, y)
    n, p = A.shape
    if n <= p:
        raise InvalidInputError(f"need n > m+1 rows, got n={n} for {p} coefficients")
    _check_rank(A, feature_names)
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    return Model(FAMILY_OLS, {}, LinearState(beta), X.shape[1])


def fit_ridge(X, y, lam: float, feature_names=None) -> Model:
    """Penalized normal equations; the intercept is not penalized."""
    if lam < 0:
        raise ConfigurationError(f"ridge penalty must be non-negative, got {lam}")
    X, y, A = _design(X, y)
    if lam == 0.0:
        _check_rank(A, feature_names)
    p = A.shape[1]
    D = np.eye(p)
    D[0, 0] = 0.0
    G = A.T @ A + lam * D
    beta = np.linalg.solve(G, A.T @ y)
    return Model(FAMILY_RIDGE, {"lambda": lam}, LinearState(beta), X.shape[1])


def quantile_objective(beta, X, y, tau: float) -> float:
    """Sum of pinball losses of the residuals y - (b0 + X b)."""
    beta = np.asarray(beta, dtype=float)
    d = y - (beta[0] + X @ beta[1:])
    return float(np.sum(np.where(d > 0, tau * d, (tau - 1.0) * d)))


def fit_quantile(X, y, tau: float) -> Model:
    """Linear quantile regression at level tau via the dual LP."""
    if not 0.0 < tau < 1.0:
        raise ConfigurationError(f"tau must lie in (0, 1), got {tau}")
    X, y, A = _design(X, y)
    n, p = A.shape
    if n <= p:
        raise InvalidInputError(f"need n > m+1 rows, got n={n} for {p} coefficients")

    result = scipy.optimize.linprog(
        -y,
        A_eq=A.T,
        b_eq=(1.0 - tau) * A.sum(axis=0),
        bounds=(0.0, 1.0),
        method="highs",
        options={"presolve": False},
    )
    if not result.success:
        marginals = getattr(result.get("eqlin"), "marginals", None)
        best = quantile_objective(-marginals, X, y, tau) if marginals is not None else None
        raise ConvergenceError(
            f"quantile LP did not converge: {result.message}", best_objective=best
        )
    beta = -result.eqlin.marginals
    return Model(
        FAMILY_QUANTILE,
        {"tau": tau},
        LinearState(beta),
        X.shape[1],
        loss_mode=CostSpec("pinball", tau=tau),
        provenance="asymmetric",
    )
