"""Cost-of-error functions, symmetric and asymmetric, with gradients.

Families
--------
``squared_error``   e^2
``llc``             linear-linear:     a*|e| if e > 0 else b*|e|; at
                    a = tau, b = 1 - tau it is the tau-quantile (pinball) loss
``qqc``             quadratic-quadratic: a*e^2 if e > 0 else b*e^2
``lec``             linear-exponential:  b*(exp(a*e) - a*e - 1)
``qqc_approx``      smooth quadratic-quadratic, a logistic blend of the
                    two branch weights (slope ``QQC_STEEPNESS``) so the
                    function is differentiable everywhere (used for
                    gradient-based training); it is monotone in |e| only
                    while max(a, b) / min(a, b) is at most
                    ``QQC_APPROX_MAX_RATIO`` (about 48.47); network training
                    rejects weights beyond that ratio, while a spec beyond
                    it can still be built, described and evaluated

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

FAMILIES = ("squared_error", "llc", "qqc", "lec", "qqc_approx")

# logistic steepness of qqc_approx's blend, in 1 / residual units
QQC_STEEPNESS = 99.0

# exp() overflow guard: |argument| is clipped here before exponentiation,
# which saturates the logistic blend at exactly 0/1 in the tails.
_EXP_CLIP = 700.0

# Largest max(a, b) / min(a, b) at which qqc_approx is monotone in |e|.
# With u = QQC_STEEPNESS * e and p = 1 / (1 + exp(u)) the cost is
# (u / QQC_STEEPNESS)^2 (a + (b - a) p). For u > 0 and b = r a > a it grows
# with u iff 2 (a + (b - a) p) >= u (b - a) p (1 - p), that is iff
# 2 / (r - 1) >= u p (1 - p) - 2 p. The right side peaks at
# M = 0.04213124031710531... (u = 3.2436...), so r <= 1 + 2 / M. For
# u < 0 the same holds with a and b swapped. The bound does not depend on
# QQC_STEEPNESS, which cancels. The value is rounded down.
QQC_APPROX_MAX_RATIO = 48.4707125863559


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


def _as_residual_array(e) -> np.ndarray:
    arr = np.asarray(e, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("residuals must be finite (no NaN/inf)")
    return arr


def _logistic_blend(e: np.ndarray, spec: CostSpec):
    """Branch weight a + (b - a) * sig and sig = 1 / (1 + exp(QQC_STEEPNESS * e)).

    The weight tends to ``a`` as e -> +inf and to ``b`` as e -> -inf.
    """
    z = np.clip(QQC_STEEPNESS * e, -_EXP_CLIP, _EXP_CLIP)
    sig = 1.0 / (1.0 + np.exp(z))
    return spec.a + (spec.b - spec.a) * sig, sig


# _eval_raw and _grad_raw take a finite float residual array and check
# nothing: eval_loss and grad_loss check their input first, the network
# objective checks its residuals once per evaluation, and the tests'
# generalized-cost check probes deliberately corrupted specs here.

def _eval_raw(spec: CostSpec, e: np.ndarray) -> np.ndarray:
    family = spec.family
    if family == "squared_error":
        return e * e
    if family == "llc":
        return np.where(e > 0, spec.a, spec.b) * np.abs(e)
    if family == "qqc":
        return np.where(e > 0, spec.a, spec.b) * (e * e)
    if family == "lec":
        ae = spec.a * e
        return spec.b * (np.exp(np.clip(ae, -_EXP_CLIP, _EXP_CLIP)) - ae - 1.0)
    if family == "qqc_approx":
        return (e * e) * _logistic_blend(e, spec)[0]
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
    if family == "qqc_approx":
        weight, sig = _logistic_blend(e, spec)
        dsig = -QQC_STEEPNESS * sig * (1.0 - sig)
        return 2.0 * e * weight + (e * e) * (spec.b - spec.a) * dsig
    raise ConfigurationError(f"unknown loss family {family!r}")


def eval_loss(spec: CostSpec, e):
    """Cost of a residual (scalar or array). Non-negative for valid specs."""
    out = _eval_raw(spec, _as_residual_array(e))
    return float(out) if np.ndim(e) == 0 else out


def eval_mean(spec: CostSpec, actuals, forecasts):
    """Arithmetic mean of the cost over residuals ``actuals - forecasts``.

    ``forecasts`` is one forecast vector, which gives a float, or a matrix
    with one forecast vector per row, which gives the mean of each row.
    """
    y = np.asarray(actuals, dtype=float)
    f = np.asarray(forecasts, dtype=float)
    if y.ndim != 1 or f.ndim not in (1, 2) or f.shape[-1:] != y.shape:
        raise InvalidInputError(
            f"actuals must be a vector and forecasts a vector or matrix of its length, "
            f"got {y.shape} vs {f.shape}"
        )
    if y.size == 0:
        raise InvalidInputError("cannot average a loss over empty vectors")
    if not (np.isfinite(y).all() and np.isfinite(f).all()):
        raise InvalidInputError("actuals and forecasts must be finite")
    # np.mean's arithmetic, a pairwise sum and one division, without its wrappers
    means = _eval_raw(spec, y - f).sum(axis=-1) / y.size
    return float(means) if f.ndim == 1 else means


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
