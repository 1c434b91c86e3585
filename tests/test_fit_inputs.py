import numpy as np
import pytest

from asymcast.errors import ConfigurationError, InvalidInputError
from asymcast.models import (
    fit_bagged_tree,
    fit_knn,
    fit_nn,
    fit_ols,
    fit_quantile,
    fit_random_forest,
    fit_ridge,
    fit_tree,
)

FITTERS = {
    "fit_ols": fit_ols,
    "fit_ridge": lambda X, y: fit_ridge(X, y, 0.1),
    "fit_quantile": lambda X, y: fit_quantile(X, y, 0.3),
    "fit_knn": lambda X, y: fit_knn(X, y, 3),
    "fit_tree": fit_tree,
    "fit_bagged_tree": lambda X, y: fit_bagged_tree(X, y, bags=2, seed=0),
    "fit_random_forest": lambda X, y: fit_random_forest(X, y, trees=2, mtry=2, seed=0),
    "fit_nn": lambda X, y: fit_nn(X, y, hidden_nodes=2, epochs=5, seed=0),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("fitter", sorted(FITTERS))
def test_non_finite_training_data_raises_naming_the_array(fitter, where, bad):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = 0.5 + X @ np.array([0.2, -0.1, 0.3]) + rng.normal(0, 0.05, 40)
    if where == "X":
        X[7, 1] = bad
    else:
        y[7] = bad
    with pytest.raises(InvalidInputError, match=f"training {where} must be finite"):
        FITTERS[fitter](X, y)


HYPERPARAMETERS = {
    "lam": lambda X, y, value: fit_ridge(X, y, value),
    "complexity": lambda X, y, value: fit_tree(X, y, complexity=value),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0], ids=["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("name", sorted(HYPERPARAMETERS))
def test_a_hyperparameter_that_is_not_finite_and_non_negative_raises_naming_it(name, bad):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    y = 0.5 + X @ np.array([0.2, -0.1, 0.3]) + rng.normal(0, 0.05, 40)
    with pytest.raises(ConfigurationError, match=rf"^{name} must be finite and >= 0, got {bad!r}$"):
        HYPERPARAMETERS[name](X, y, bad)


SEEDED = {
    "fit_bagged_tree": lambda X, y, seed: fit_bagged_tree(X, y, bags=2, seed=seed),
    "fit_random_forest": lambda X, y, seed: fit_random_forest(X, y, trees=2, mtry=2, seed=seed),
    "fit_nn": lambda X, y, seed: fit_nn(X, y, hidden_nodes=2, epochs=5, seed=seed),
}


@pytest.mark.parametrize(
    "seed, message",
    [
        (None, "seed must be an integer, got None"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
    ],
    ids=["None", "True", "1.5", "-1"],
)
@pytest.mark.parametrize("fitter", sorted(SEEDED))
def test_a_seed_that_is_not_an_integer_of_at_least_zero_raises_naming_it(fitter, seed, message):
    # None would draw fresh OS entropy, so two fits would differ
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = 0.5 + X @ np.array([0.2, -0.1, 0.3]) + rng.normal(0, 0.05, 40)
    with pytest.raises(ConfigurationError, match=rf"^{message}$"):
        SEEDED[fitter](X, y, seed)
