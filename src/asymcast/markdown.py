"""Ex-post constant-percentage markdown of forecasts.

A fitted markdown ``md`` rescales every forecast to ``f * (1 - md)``;
the value is chosen to minimize the mean cost of ``y - f*(1 - md)``
under a given cost spec. The objective is convex in ``md`` for every
supported family (each residual is affine in ``md`` and the losses are
convex), so scipy's bounded Brent minimizer finds the optimum on the
search interval without a bracketing grid; a final guard keeps the
no-adjustment point dominant-or-equal, so the fitted markdown never
scores worse than ``md = 0``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ConvergenceError, InvalidInputError
from .losses import CostSpec, eval_mean

SEARCH_INTERVAL = (-0.5, 0.5)  # negative values act as a markup


def apply_markdown(forecasts, md: float) -> np.ndarray:
    """Elementwise rescale by (1 - md)."""
    lo, hi = SEARCH_INTERVAL
    if not lo <= md <= hi:
        raise InvalidInputError(f"markdown {md} outside the search interval [{lo}, {hi}]")
    return np.asarray(forecasts, dtype=float) * (1.0 - md)


def fit_markdown(forecasts_val, actuals_val, criterion: CostSpec) -> float:
    """Markdown minimizing the mean criterion loss on the validation pairs.

    Forecasts must be strictly positive (a percentage markdown is
    meaningless otherwise), so every residual moves with ``md`` and the
    objective is never flat on the search interval.
    """
    f = np.asarray(forecasts_val, dtype=float)
    y = np.asarray(actuals_val, dtype=float)
    if f.ndim != 1 or f.shape != y.shape or f.size == 0:
        raise InvalidInputError(
            f"forecasts and actuals must be equal-length non-empty vectors, "
            f"got {f.shape} vs {y.shape}"
        )
    if np.any(f <= 0):
        raise InvalidInputError("forecasts must be strictly positive to fit a markdown")

    def objective(md):
        return eval_mean(criterion, y, f * (1.0 - md))

    result = minimize_scalar(
        objective, bounds=SEARCH_INTERVAL, method="bounded", options={"xatol": 1e-7}
    )
    if not result.success:
        raise ConvergenceError(
            f"markdown search under {criterion.describe()} did not converge: {result.message}",
            best_objective=float(result.fun),
        )
    # dominance guard: never return a markdown that scores worse than none
    if result.fun > objective(0.0):
        return 0.0
    return float(result.x)
