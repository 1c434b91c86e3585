"""Cost-of-error functions, symmetric and asymmetric, with gradients.

Families
--------
``squared_error``   e^2
``llc``             linear-linear:     a*|e| if e > 0 else b*|e|; at
                    a = tau, b = 1 - tau it is the tau-quantile (pinball) loss
``qqc``             quadratic-quadratic: a*e^2 if e > 0 else b*e^2
``lec``             linear-exponential:  b*(exp(a*e) - a*e - 1)

Residuals follow the convention ``e = actual - forecast``: a positive
residual means the forecast underestimated the actual (weight ``a``), a
non-positive residual means overestimation (weight ``b``).

All loss objects are immutable; every function here is pure and safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .kernels import _EXP_CLIP

FAMILIES = ("squared_error", "llc", "qqc", "lec")

# eval_mean scores at most this many forecasts (64 KB of float64) at once
_BLOCK_FORECASTS = 8192


@dataclass(frozen=True)
class CostSpec:
    """Parameterized cost function: family plus asymmetry weights.

    ``a`` weighs positive residuals (underestimation), ``b`` non-positive
    ones (overestimation).
    """

    family: str
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown loss family {self.family!r}; expected one of {FAMILIES}"
            )
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigurationError(f"weights must be finite, got a={self.a!r}, b={self.b!r}")
        if self.a <= 0 or self.b <= 0:
            raise ConfigurationError(f"weights must be positive, got a={self.a}, b={self.b}")

    def describe(self) -> str:
        if self.family == "squared_error":
            return "squared_error"
        return f"{self.family}(a={self.a:g}, b={self.b:g})"


def is_symmetric(spec: CostSpec) -> bool:
    """Whether ``spec`` costs every residual e the same as -e.

    ``squared_error`` ignores its weights; ``llc`` and ``qqc`` are
    symmetric exactly when a == b; ``lec`` is asymmetric at every a.
    """
    if spec.family == "squared_error":
        return True
    return spec.family != "lec" and spec.a == spec.b


def _as_residual_array(e) -> np.ndarray:
    arr = np.asarray(e, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("residuals must be finite (no NaN/inf)")
    return arr


# _eval_raw and _grad_raw take a finite float residual array and check
# nothing: eval_loss and grad_loss check their input first, the network
# objective checks its residuals once per evaluation, and the tests'
# generalized-cost check probes deliberately corrupted specs here.

def _eval_raw(spec: CostSpec, e: np.ndarray) -> np.ndarray:
    """Cost of each residual, without branches on the residuals' signs.

    llc is ``max(a*e, -b*e)`` and qqc is ``max(a*s, -b*s)`` with
    ``s = e*|e|``: the term of the residual's own sign is the non-negative
    one, and it has the bits of ``a*|e|`` or ``b*|e|`` (``a*e*e`` or
    ``b*e*e``), since rounding is symmetric in sign. A zero residual may
    cost -0.0.
    """
    family = spec.family
    if family == "squared_error":
        return e * e
    if family == "llc":
        return np.maximum(spec.a * e, -spec.b * e)
    if family == "qqc":
        s = e * np.abs(e)
        return np.maximum(spec.a * s, -spec.b * s)
    if family == "lec":
        ae = spec.a * e
        return spec.b * (np.exp(np.clip(ae, -_EXP_CLIP, _EXP_CLIP)) - ae - 1.0)
    raise ConfigurationError(f"unknown loss family {family!r}")


def _grad_raw(spec: CostSpec, e: np.ndarray) -> np.ndarray:
    family = spec.family
    if family == "squared_error":
        return 2.0 * e
    if family == "llc":
        return np.where(e < 0, -spec.b, spec.a)
    if family == "qqc":
        return np.where(e > 0, 2.0 * spec.a * e, 2.0 * spec.b * e)
    if family == "lec":
        z = np.clip(spec.a * e, -_EXP_CLIP, _EXP_CLIP)
        return spec.a * spec.b * (np.exp(z) - 1.0)
    raise ConfigurationError(f"unknown loss family {family!r}")


def eval_loss(spec: CostSpec, e):
    """Cost of a residual (scalar or array). Non-negative for valid specs."""
    out = _eval_raw(spec, _as_residual_array(e))
    return float(out) if np.ndim(e) == 0 else out


def _check_forecasts(y: np.ndarray, f: np.ndarray, first_row: int = 0) -> None:
    """Raise unless ``f`` is a finite vector, or block of rows, of ``y``'s length.

    ``first_row`` is a block's first row in the whole input, for the message.
    """
    if f.shape[-1:] != y.shape or f.ndim > 2:
        where = f" in the rows from {first_row}" if f.ndim == 2 else ""
        raise InvalidInputError(
            f"forecasts must be vectors of the {y.shape[0]} values of actuals, "
            f"got shape {f.shape}{where}"
        )
    if not np.isfinite(f).all():
        raise InvalidInputError("actuals and forecasts must be finite")


def eval_mean(spec: CostSpec, actuals, forecasts):
    """Arithmetic mean of the cost over residuals ``actuals - forecasts``.

    ``forecasts`` is one forecast vector, which gives a float, or a matrix
    or a list or tuple of equal-length vectors (such as library entries'
    ``val_pred``), one forecast vector per row, which gives the mean of
    each row. Rows are scored in blocks of at most ``_BLOCK_FORECASTS``
    forecasts (one row if a row is longer), each checked for shape and
    finiteness as it comes, so no rows x length array is built and the
    memory used does not grow with the number of rows. Each row's mean
    is a pairwise sum and one division, the bits of ``np.mean`` of its
    costs.
    """
    y = np.asarray(actuals, dtype=float)
    if y.ndim != 1:
        raise InvalidInputError(f"actuals must be a vector, got shape {y.shape}")
    if y.size == 0:
        raise InvalidInputError("cannot average a loss over empty vectors")
    if not np.isfinite(y).all():
        raise InvalidInputError("actuals and forecasts must be finite")
    if isinstance(forecasts, (list, tuple)) and forecasts and np.ndim(forecasts[0]) == 1:
        rows = forecasts
    else:
        rows = np.asarray(forecasts, dtype=float)
        if rows.ndim < 2:
            _check_forecasts(y, rows)
            return float(_eval_raw(spec, y - rows).sum() / y.size)
    step = max(1, _BLOCK_FORECASTS // y.size)
    means = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        try:
            # a C-ordered copy of the block, overwritten by its residuals
            e = np.array(rows[lo:lo + step], dtype=float, order="C")
        except ValueError as exc:  # vectors of different lengths
            raise InvalidInputError(f"forecast rows from {lo}: {exc}") from exc
        _check_forecasts(y, e, lo)
        np.subtract(y, e, out=e)
        # each C-ordered row reduces by np.mean's pairwise sum, without its wrappers
        means[lo:lo + step] = _eval_raw(spec, e).sum(axis=-1)
    means /= y.size
    return means


def grad_loss(spec: CostSpec, e):
    """dC/de. At the kink of llc returns the right-derivative."""
    out = _grad_raw(spec, _as_residual_array(e))
    return float(out) if np.ndim(e) == 0 else out


def tau_from_weights(a: float, b: float = 1.0) -> float:
    """Quantile level replicating the weighting of llc(a, b): a / (a + b)."""
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or b <= 0:
        raise ConfigurationError(f"weights must be positive and finite, got a={a}, b={b}")
    return a / (a + b)


# Plain-text serialization: "key=value" lines, floats via repr so the
# round-trip is decimal-exact.

def loss_to_text(spec: CostSpec) -> str:
    return f"family={spec.family}\na={spec.a!r}\nb={spec.b!r}\n"


def loss_from_text(text: str) -> CostSpec:
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"malformed loss config line {lineno}: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "family":
            fields[key] = value
        elif key in ("a", "b"):
            try:
                fields[key] = float(value)
            except ValueError as exc:
                raise ConfigurationError(f"bad numeric value for {key}: {value!r}") from exc
        else:
            raise ConfigurationError(f"unknown loss config key {key!r}")
    if "family" not in fields:
        raise ConfigurationError("loss config is missing the family key")
    return CostSpec(**fields)
