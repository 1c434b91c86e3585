"""Linear estimators: least squares, ridge, and quantile regression.

Quantile regression solves the weighted absolute-residual objective

    min_beta sum_i rho_tau(y_i - x_i' beta),
    rho_tau(d) = tau*d if d > 0 else (tau - 1)*d,  the cost llc(tau, 1 - tau),

through its rank-score dual (Koenker & Bassett, Econometrica 1978),

    max_d y'd  subject to  A'd = (1 - tau) A'1,  0 <= d <= 1,

with A the design matrix including the intercept column. The dual has
one equality row per coefficient instead of one per observation; scipy's
HiGHS solver returns beta as the negated multipliers of those rows. The
contract is objective-value optimality, checked in the tests against the
primal LP and grid/perturbation oracles.

The dual is solved over a working set of rows (Portnoy & Koenker,
Statistical Science 1997, section 4). The rows are ranked by their
least-squares residual. The working set is the 3 sqrt(n p) rows around
rank tau n, with p the number of coefficients, shifted to stay within
the n ranks. (At n = 3,200 rows and 16 coefficients, 11 of 80 fits
needed a second solve; with 2 sqrt(n p) rows, 56 of 80 did.) Rows
ranked below the set are fixed at d = 0, rows ranked above it at d = 1,
and the A-column sum of the rows at 1 moves to the right-hand side.

A row's reduced cost in the full dual is its residual r = y - A beta,
so the reduced solution plus the fixed values is optimal for the full
dual exactly when every row fixed at 1 has r >= 0 and every row fixed
at 0 has r <= 0 (complementary slackness). This is checked on all n
rows after every solve. Rows that fail the check join the working set
and the reduced dual is solved again. A reduced dual with no feasible
point (a rare 0/1 column whose ones all rank outside the set, say)
triples the band. Each round frees at least one row, and the full row
set is the full dual, which is always feasible at d = (1 - tau) 1, so
the loop ends with a checked optimum; designs with n <= 9 p start there
and take one solve. Where the optimal face is degenerate, the working
set can end at another optimal vertex than the full solve would: the
objective is the same, beta is not.

HiGHS runs without presolve. The dual's p + 1 equality rows are dense
and every variable has the same box [0, 1], so presolve finds nothing to
remove, yet it took about a third of the solve time of a 3,200-row dual.
The solver then starts from the same model and returns the same beta.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize

from ..errors import (
    ConfigurationError,
    ConvergenceError,
    InvalidInputError,
    SingularDesignError,
    require_nonnegative,
)
from ..losses import CostSpec, _eval_raw
from .base import (
    FAMILY_OLS,
    FAMILY_QUANTILE,
    FAMILY_RIDGE,
    Model,
    check_training_data,
)


class LinearState:
    """Coefficient vector, intercept first."""

    def __init__(self, beta: np.ndarray):
        self.beta = np.asarray(beta, dtype=float)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.beta[0] + X @ self.beta[1:]


def _design(X, y):
    X, y = check_training_data(X, y)
    return X, y, np.column_stack([np.ones(X.shape[0]), X])


def _check_rank(A):
    """Raise SingularDesignError naming the dependent columns of ``X`` (QR pivoting)."""
    _, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag.max() * max(A.shape) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < A.shape[1]:
        bad = sorted(piv[rank:])
        labels = ["intercept" if j == 0 else f"column {j - 1}" for j in bad]
        raise SingularDesignError(
            f"design matrix is rank deficient (rank {rank} of {A.shape[1]}); "
            f"offending columns: {labels}"
        )


def fit_ols(X, y) -> Model:
    """Ordinary least squares with intercept."""
    X, y, A = _design(X, y)
    n, p = A.shape
    if n <= p:
        raise InvalidInputError(f"need n > m+1 rows, got n={n} for {p} coefficients")
    _check_rank(A)
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    return Model(FAMILY_OLS, {}, LinearState(beta), X.shape[1])


def fit_ridge(X, y, lam: float) -> Model:
    """Penalized normal equations; the intercept is not penalized."""
    require_nonnegative("lam", lam)
    X, y, A = _design(X, y)
    if lam == 0.0:
        _check_rank(A)
    p = A.shape[1]
    D = np.eye(p)
    D[0, 0] = 0.0
    G = A.T @ A + lam * D
    beta = np.linalg.solve(G, A.T @ y)
    return Model(FAMILY_RIDGE, {"lambda": lam}, LinearState(beta), X.shape[1])


def quantile_objective(beta, X, y, tau: float) -> float:
    """Sum of pinball losses, llc(tau, 1 - tau), of the residuals y - (b0 + X b)."""
    beta = np.asarray(beta, dtype=float)
    d = y - (beta[0] + X @ beta[1:])
    return float(_eval_raw(CostSpec("llc", a=tau, b=1.0 - tau), d).sum())


def _band_start(n: int, size: int, tau: float) -> int:
    """First rank of the working-set band of ``size`` rows centred on rank tau n."""
    return min(max(round(tau * n - size / 2), 0), max(n - size, 0))


def fit_quantile(X, y, tau: float) -> Model:
    """Linear quantile regression at level tau by the dual LP; loss mode llc(tau, 1 - tau)."""
    if not 0.0 < tau < 1.0:
        raise ConfigurationError(f"tau must lie in (0, 1), got {tau}")
    X, y, A = _design(X, y)
    n, p = A.shape
    if n <= p:
        raise InvalidInputError(f"need n > m+1 rows, got n={n} for {p} coefficients")

    ols, *_ = np.linalg.lstsq(A, y, rcond=None)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(y - A @ ols, kind="stable")] = np.arange(n)
    size = int(np.ceil(3.0 * np.sqrt(n * p)))
    start = _band_start(n, size, tau)
    lower = rank < start  # fixed at d = 0
    upper = rank >= start + size  # fixed at d = 1
    target = (1.0 - tau) * A.sum(axis=0)
    beta = None
    while True:
        free = ~(lower | upper)
        result = scipy.optimize.linprog(
            -y[free],
            A_eq=A[free].T,
            b_eq=target - upper @ A,
            bounds=(0.0, 1.0),
            method="highs",
            options={"presolve": False},
        )
        if result.status == 2 and not free.all():
            size *= 3
            start = _band_start(n, size, tau)
            lower &= rank < start
            upper &= rank >= start + size
            continue
        if not result.success:
            marginals = getattr(result.get("eqlin"), "marginals", None)
            if marginals is not None:
                beta = -marginals
            best = quantile_objective(beta, X, y, tau) if beta is not None else None
            raise ConvergenceError(
                f"quantile LP did not converge: {result.message}", best_objective=best
            )
        beta = -result.eqlin.marginals
        resid = y - A @ beta
        wrong = (lower & (resid > 0)) | (upper & (resid < 0))
        if not wrong.any():
            break
        lower &= ~wrong
        upper &= ~wrong
    return Model(
        FAMILY_QUANTILE,
        {"tau": tau},
        LinearState(beta),
        X.shape[1],
        loss_mode=CostSpec("llc", a=tau, b=1.0 - tau),
    )
