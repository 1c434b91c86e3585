import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import asymcast.markdown as markdown
from asymcast.errors import ConvergenceError, InvalidInputError
from asymcast.losses import CostSpec, eval_mean
from asymcast.markdown import SEARCH_INTERVAL, apply_markdown, fit_markdown

positive = st.floats(0.01, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def criteria(draw):
    family = draw(st.sampled_from(["llc", "qqc", "lec", "pinball", "squared_error"]))
    a = draw(st.floats(0.05, 5.0))
    if family == "pinball":  # llc(tau, 1 - tau) at the quantile level of a : 1
        tau = a / (a + 1.0)
        return CostSpec("llc", a=tau, b=1.0 - tau)
    return CostSpec(family, a=a, b=1.0)


@st.composite
def validation_pairs(draw):
    n = draw(st.integers(1, 40))
    f = np.array(draw(st.lists(positive, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(positive, min_size=n, max_size=n)))
    return f, y


@settings(max_examples=200, deadline=None)
@given(validation_pairs(), criteria())
def test_fitted_markdown_never_scores_worse_than_none(pair, criterion):
    f, y = pair
    md = fit_markdown(f, y, criterion)
    assert SEARCH_INTERVAL[0] <= md <= SEARCH_INTERVAL[1]
    assert eval_mean(criterion, y, apply_markdown(f, md)) <= eval_mean(criterion, y, f)


def weighted_quantile(values, weights, level):
    """Smallest value whose cumulative weight reaches ``level`` of the total."""
    order = np.argsort(values)
    cumulative = np.cumsum(weights[order])
    return values[order][np.searchsorted(cumulative, level * cumulative[-1])]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("a", [0.2, 0.5, 2.0])
def test_llc_markdown_is_the_weighted_quantile_of_the_ratio_gaps(seed, a):
    # cost f * (a*(md - t) if md > t else b*(t - md)) with t = 1 - y/f, so the
    # optimum is the f-weighted quantile of t at level b/(a+b)
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.2, 1.0, size=400)
    f = y * np.exp(rng.normal(0.05, 0.1, size=400))
    criterion = CostSpec("llc", a=a, b=1.0)
    expected = weighted_quantile(1.0 - y / f, f, 1.0 / (a + 1.0))
    assert abs(fit_markdown(f, y, criterion) - expected) <= 1e-7


def test_markdown_input_errors():
    llc = CostSpec("llc", a=0.5)
    with pytest.raises(InvalidInputError, match="equal-length"):
        fit_markdown([0.5, 0.6], [0.5], llc)
    with pytest.raises(InvalidInputError, match="equal-length"):
        fit_markdown([], [], llc)
    with pytest.raises(InvalidInputError, match="equal-length"):
        fit_markdown([[0.5, 0.6]], [[0.5, 0.6]], llc)
    with pytest.raises(InvalidInputError, match="strictly positive"):
        fit_markdown([0.5, 0.0], [0.5, 0.6], llc)
    with pytest.raises(InvalidInputError, match="search interval"):
        apply_markdown([0.5], 0.75)


def test_unconverged_search_raises_convergence_error(monkeypatch):
    def exhausted(objective, bounds, method, options):
        return OptimizeResult(x=0.1, fun=objective(0.1), success=False, message="out of calls")

    monkeypatch.setattr(markdown, "minimize_scalar", exhausted)
    with pytest.raises(ConvergenceError, match="out of calls") as raised:
        fit_markdown([0.5, 0.6], [0.4, 0.7], CostSpec("llc", a=0.5))
    assert raised.value.best_objective is not None
