import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymcast.errors import ConfigurationError, TrainingError
from asymcast.losses import CostSpec, eval_loss, grad_loss
from asymcast.models import NNConfig, fit_nn, fit_ols, nn_objective_and_grad, predict
from asymcast.models.neural import NNState, flatten_params, init_params, unflatten_params
from reference_kernels import nn_forward_rows, nn_objective_and_grad_rows


def standardized_linear_problem(seed, n=500, m=3, noise=0.05, slope=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    beta = slope * np.array([0.8, -0.5, 0.3])[:m]
    y = 0.6 + X @ beta + rng.normal(0, noise, n)
    return X, y


def test_network_with_linear_target_approaches_ols():
    # gentle slopes keep the single sigmoid in its near-linear regime
    X, y = standardized_linear_problem(seed=1, n=600, noise=0.1, slope=0.3)
    Xv, yv = standardized_linear_problem(seed=2, n=600, noise=0.1, slope=0.3)
    config = NNConfig(hidden_nodes=1, epochs=3000, lambda1=0.0, lambda2=0.0, seed=0)
    net = fit_nn(X, y, config)
    ols = fit_ols(X, y)
    mse_net = np.mean((yv - predict(net, Xv)) ** 2)
    mse_ols = np.mean((yv - predict(ols, Xv)) ** 2)
    assert mse_net <= 1.10 * mse_ols


def test_pinball_network_with_zeroed_inputs_finds_the_median():
    rng = np.random.default_rng(3)
    y = rng.lognormal(mean=-0.7, sigma=0.4, size=1000)
    X = np.zeros((1000, 2))
    config = NNConfig(hidden_nodes=2, epochs=800, seed=1)
    net = fit_nn(X, y, config, CostSpec("llc", a=0.5, b=0.5))
    constant = predict(net, np.zeros((1, 2)))[0]
    assert abs(constant - np.median(y)) < 0.05


def test_asymmetric_training_shifts_predictions_down():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(600, 3))
    y = 0.5 + 0.2 * X[:, 0] + rng.normal(0, 0.1, 600)
    config = NNConfig(hidden_nodes=4, epochs=700, seed=5)
    symmetric = fit_nn(X, y, config)
    asymmetric = fit_nn(X, y, config, CostSpec("qqc", a=0.2, b=1.0))
    bias_sym = np.mean(y - predict(symmetric, X))
    bias_asym = np.mean(y - predict(asymmetric, X))
    assert bias_asym >= bias_sym  # cheap underestimation gets preferred


def test_qqc_at_unit_weights_trains_the_squared_error_network_bit_for_bit():
    X, y = standardized_linear_problem(seed=18, n=200)
    config = NNConfig(hidden_nodes=3, epochs=50, seed=2)
    squared = fit_nn(X, y, config)
    qqc = fit_nn(X, y, config, CostSpec("qqc", a=1.0, b=1.0))
    for name in ("W1", "b1", "v", "v0"):
        assert np.array_equal(getattr(squared.state, name), getattr(qqc.state, name))
    assert squared.provenance == qqc.provenance == "symmetric"


def test_zero_hidden_weights_give_constant_forward_pass():
    k = 4
    state = NNState(
        W1=np.zeros((3, k)),
        b1=np.zeros(k),
        v=np.ones(k),
        v0=np.array([2.0]),
    )
    X = np.random.default_rng(0).normal(size=(5, 3))
    expected = 2.0 + 0.5 * k  # logistic(0) = 0.5 per hidden unit
    np.testing.assert_allclose(state.predict(X), expected)


@pytest.mark.parametrize(
    "loss_mode",
    [CostSpec("squared_error"), CostSpec("llc", a=0.3, b=0.7), CostSpec("qqc", a=0.3, b=1.0)],
    ids=["squared_error", "pinball", "qqc"],
)
def test_training_is_deterministic_given_seed(loss_mode):
    X, y = standardized_linear_problem(seed=6)
    config = NNConfig(hidden_nodes=3, epochs=100, seed=11)
    a = fit_nn(X, y, config, loss_mode)
    b = fit_nn(X, y, config, loss_mode)
    np.testing.assert_array_equal(a.state.W1, b.state.W1)
    np.testing.assert_array_equal(a.state.v, b.state.v)
    start = flatten_params(*init_params(X.shape[1], y, config))
    trained = flatten_params(a.state.W1, a.state.b1, a.state.v, a.state.v0)
    objective = lambda theta: nn_objective_and_grad(theta, X, y, config, loss_mode)[0]
    assert objective(trained) < objective(start)


@pytest.mark.parametrize(
    "loss_mode",
    [CostSpec("squared_error"), CostSpec("qqc", a=0.3, b=1.0), CostSpec("llc", a=0.3, b=0.7)],
)
def test_objective_gradient_matches_finite_differences(loss_mode):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))
    y = rng.uniform(0.3, 0.9, size=40)
    config = NNConfig(hidden_nodes=3, lambda1=0.01, lambda2=0.02, seed=0)
    for point in range(10):
        theta = rng.normal(0, 0.7, size=3 * 3 + 3 + 3 + 1)
        obj, grad = nn_objective_and_grad(theta, X, y, config, loss_mode)
        h = 1e-6
        for j in rng.choice(len(theta), size=6, replace=False):
            up = theta.copy()
            up[j] += h
            down = theta.copy()
            down[j] -= h
            fd = (
                nn_objective_and_grad(up, X, y, config, loss_mode)[0]
                - nn_objective_and_grad(down, X, y, config, loss_mode)[0]
            ) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-4 * max(1.0, abs(fd))


def composed_objective_and_grad(theta, X, y, config, loss_mode):
    """The network objective composed from the public, input-checking loss calls.

    The hidden layer is units x rows, in the order of operations of
    ``nn_objective_and_grad``.
    """
    n, m = X.shape
    W1, b1, v, v0 = unflatten_params(theta, m, config.hidden_nodes)
    HT = 1.0 / (1.0 + np.exp(np.clip(-(np.dot(W1.T, X.T) + b1[:, None]), -700.0, 700.0)))
    e = y - (v @ HT + v0[0])
    mean_loss = float(np.mean(eval_loss(loss_mode, e)))
    g = grad_loss(loss_mode, e)
    objective = mean_loss + config.lambda1 * float(np.sum(W1 * W1)) + config.lambda2 * float(
        np.sum(v * v)
    )
    dyhat = -g / n
    dv = HT @ dyhat + 2.0 * config.lambda2 * v
    dv0 = np.array([np.sum(dyhat)])
    dZT = HT * (1.0 - HT) * v[:, None] * dyhat[None, :]
    dW1 = np.dot(dZT, X).T + 2.0 * config.lambda1 * W1
    db1 = dZT.sum(axis=1)
    return objective, flatten_params(dW1, db1, dv, dv0)


TRAINABLE_LOSSES = st.one_of(
    st.just(CostSpec("squared_error")),
    st.builds(lambda tau: CostSpec("llc", a=tau, b=1.0 - tau), st.floats(0.01, 0.99)),
    st.builds(
        lambda a, ratio, a_is_larger: CostSpec(
            "qqc", a=a * ratio if a_is_larger else a, b=a if a_is_larger else a * ratio
        ),
        st.floats(0.05, 5.0),
        st.floats(1.0, 1e3),
        st.booleans(),
    ),
)


def objective_case(seed, n, m, k, scale, lambdas):
    """Flat parameters, data and config of one drawn objective case."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = rng.uniform(-1.0, 2.0, size=n)
    config = NNConfig(hidden_nodes=k, lambda1=lambdas[0], lambda2=lambdas[1])
    theta = rng.normal(0.0, scale, size=m * k + 2 * k + 1)
    return theta, X, y, config


def assert_agrees_to_rounding(got, want):
    """Objective to 1e-12 relative, gradient to 1e-12 of its largest entry."""
    (objective, grad), (want_objective, want_grad) = got, want
    assert abs(objective - want_objective) <= 1e-12 * abs(want_objective)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())


objective_cases = given(
    loss_mode=TRAINABLE_LOSSES,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 80),
    m=st.integers(1, 5),
    k=st.integers(1, 6),
    scale=st.sampled_from([0.1, 1.0, 5.0]),
    lambdas=st.sampled_from([(0.0, 0.0), (1e-6, 1e-6), (0.01, 0.02)]),
)


@objective_cases
def test_objective_equals_the_composition_of_public_loss_calls(
    loss_mode, seed, n, m, k, scale, lambdas
):
    args = (*objective_case(seed, n, m, k, scale, lambdas), loss_mode)
    objective, grad = nn_objective_and_grad(*args)
    want_objective, want_grad = composed_objective_and_grad(*args)
    assert objective == want_objective
    assert np.array_equal(grad.view(np.int64), want_grad.view(np.int64))


@objective_cases
def test_objective_agrees_with_the_row_major_reference(loss_mode, seed, n, m, k, scale, lambdas):
    args = (*objective_case(seed, n, m, k, scale, lambdas), loss_mode)
    assert_agrees_to_rounding(nn_objective_and_grad(*args), nn_objective_and_grad_rows(*args))


def test_saturated_hidden_units_raise_no_warning():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(50, 3))
    y = rng.uniform(0.3, 0.9, size=50)
    config = NNConfig(hidden_nodes=4, lambda1=0.01, lambda2=0.02)
    # every pre-activation beyond the clip at |z| = 700
    state = NNState(np.zeros((3, 4)), np.array([800.0, -800.0, 701.0, -5000.0]),
                    rng.normal(size=4), np.array([0.5]))
    theta = flatten_params(state.W1, state.b1, state.v, state.v0)
    for loss_mode in (CostSpec("squared_error"), CostSpec("llc", a=0.3, b=0.7)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = nn_objective_and_grad(theta, X, y, config, loss_mode)
            want = nn_objective_and_grad_rows(theta, X, y, config, loss_mode)
            forecast = state.predict(X)
        assert np.isfinite(got[0]) and np.isfinite(got[1]).all() and np.isfinite(forecast).all()
        assert_agrees_to_rounding(got, want)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    m=st.integers(1, 5),
    k=st.integers(1, 6),
    scale=st.sampled_from([0.1, 1.0, 5.0, 500.0]),
)
def test_forecast_equals_the_row_major_reference_bit_for_bit(seed, n, m, k, scale):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    state = NNState(
        rng.normal(0.0, scale, size=(m, k)), rng.normal(0.0, scale, size=k),
        rng.normal(size=k), rng.normal(size=1),
    )
    want = nn_forward_rows(X, state.W1, state.b1, state.v, state.v0)
    assert np.array_equal(state.predict(X).view(np.int64), want.view(np.int64))


def test_stronger_penalties_shrink_weight_norms():
    X, y = standardized_linear_problem(seed=10, n=400)
    loose = NNConfig(hidden_nodes=4, lambda1=0.0, lambda2=0.0, epochs=800, seed=3)
    tight = NNConfig(hidden_nodes=4, lambda1=0.05, lambda2=0.05, epochs=800, seed=3)
    a = fit_nn(X, y, loose)
    b = fit_nn(X, y, tight)
    norm = lambda s: np.sum(s.W1**2) + np.sum(s.v**2)
    assert norm(b.state) <= norm(a.state) + 1e-9


def test_overflowing_objective_raises_training_error():
    X, y = standardized_linear_problem(seed=11, n=60)
    config = NNConfig(hidden_nodes=2, epochs=10, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingError, match="non-finite objective"):
            fit_nn(X, 1e200 * y, config)  # finite targets whose squared error overflows


@pytest.mark.parametrize("field", ["hidden_nodes", "epochs"])
@pytest.mark.parametrize("value", [2.5, 10.0, True, False])
def test_nn_config_rejects_a_non_integer_count(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        NNConfig(**{field: value})


def test_nn_config_validation():
    with pytest.raises(ConfigurationError):
        NNConfig(hidden_nodes=0)
    with pytest.raises(ConfigurationError):
        NNConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        NNConfig(lambda1=-1.0)
    for untrainable in (CostSpec("lec", a=0.5), CostSpec("qqc_approx", a=0.5)):
        with pytest.raises(ConfigurationError, match="not a trainable network loss"):
            fit_nn(np.zeros((20, 1)), np.full(20, 0.5), NNConfig(), untrainable)


def test_unflatten_round_trip():
    rng = np.random.default_rng(12)
    W1 = rng.normal(size=(3, 2))
    b1 = rng.normal(size=2)
    v = rng.normal(size=2)
    v0 = rng.normal(size=1)
    back = unflatten_params(flatten_params(W1, b1, v, v0), 3, 2)
    for original, rebuilt in zip((W1, b1, v, v0), back):
        np.testing.assert_array_equal(original, rebuilt)


def test_a_start_state_at_the_seeded_weights_trains_as_a_cold_start():
    X, y = standardized_linear_problem(seed=14, n=200)
    config = NNConfig(hidden_nodes=3, epochs=40, seed=9)
    loss_mode = CostSpec("llc", a=0.3, b=0.7)
    cold = fit_nn(X, y, config, loss_mode)
    warm = fit_nn(X, y, config, loss_mode, start=NNState(*init_params(X.shape[1], y, config)))
    for name in ("W1", "b1", "v", "v0"):
        assert np.array_equal(getattr(cold.state, name), getattr(warm.state, name))
    assert cold.hyperparams == warm.hyperparams
    assert 1 <= cold.hyperparams["iterations"] <= config.epochs


def test_a_start_state_continues_from_its_parameters():
    X, y = standardized_linear_problem(seed=15, n=200)
    loss_mode = CostSpec("qqc", a=0.3, b=1.0)
    first = fit_nn(X, y, NNConfig(hidden_nodes=2, epochs=30, seed=4), loss_mode)
    objective = lambda state: nn_objective_and_grad(
        flatten_params(state.W1, state.b1, state.v, state.v0), X, y, NNConfig(hidden_nodes=2),
        loss_mode,
    )[0]
    # seeded differently: only the start state sets where training begins
    more = fit_nn(X, y, NNConfig(hidden_nodes=2, epochs=30, seed=5), loss_mode, start=first.state)
    assert objective(more.state) <= objective(first.state)
    assert more.hyperparams["seed"] == 5 and more.hyperparams["iterations"] <= 30


def start_state(m=3, k=2, **replaced):
    arrays = {"W1": np.zeros((m, k)), "b1": np.zeros(k), "v": np.ones(k), "v0": np.zeros(1)}
    arrays.update(replaced)
    return NNState(**arrays)


@pytest.mark.parametrize(
    "start,message",
    [
        (start_state(m=4), r"'W1': \(4, 2\).*needs.*'W1': \(3, 2\)"),
        (start_state(k=3), r"'W1': \(3, 3\).*needs.*'W1': \(3, 2\)"),
        (start_state(b1=np.zeros(3)), r"'b1': \(3,\).*needs.*'b1': \(2,\)"),
        (start_state(v=np.ones((2, 1))), r"'v': \(2, 1\).*needs.*'v': \(2,\)"),
        (start_state(v0=np.zeros(2)), r"'v0': \(2,\).*needs.*'v0': \(1,\)"),
        (start_state(W1=np.array([[0.0, np.nan], [0.0, 0.0], [0.0, 0.0]])), "non-finite"),
        (start_state(v0=np.array([np.inf])), "non-finite"),
    ],
    ids=["W1-features", "W1-hidden", "b1", "v", "v0", "nan", "inf"],
)
def test_a_start_state_that_does_not_fit_the_network_is_rejected(start, message):
    X, y = standardized_linear_problem(seed=16, n=40)
    with pytest.raises(ConfigurationError, match=message):
        fit_nn(X, y, NNConfig(hidden_nodes=2, epochs=5), start=start)
