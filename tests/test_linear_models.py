import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcast.errors import (
    ConfigurationError,
    ConvergenceError,
    InvalidInputError,
    SingularDesignError,
)
from asymcast.models import fit_ols, fit_quantile, fit_ridge, predict, quantile_objective
from reference_kernels import quantile_primal


def make_linear_problem(seed, n=120, m=2, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    beta = rng.normal(size=m)
    y = 0.7 + X @ beta + rng.normal(0, noise, n)
    return X, y


# --------------------------------------------------------------------- ols

def test_ols_interpolates_noise_free_linear_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    y = 2.0 + X @ np.array([1.0, -2.0, 0.5])
    model = fit_ols(X, y)
    assert np.mean((y - predict(model, X)) ** 2) < 1e-10


def test_ols_intercept_only_returns_mean():
    y = np.array([1.0, 2.0, 4.0, 9.0])
    model = fit_ols(np.empty((4, 0)), y)
    assert model.state.beta[0] == pytest.approx(y.mean(), abs=1e-12)


def test_ols_matches_normal_equations():
    X, y = make_linear_problem(seed=3)
    model = fit_ols(X, y)
    A = np.column_stack([np.ones(len(y)), X])
    oracle = np.linalg.solve(A.T @ A, A.T @ y)
    np.testing.assert_allclose(model.state.beta, oracle, atol=1e-8)


def test_ols_training_residuals_orthogonal_to_design():
    X, y = make_linear_problem(seed=4)
    model = fit_ols(X, y)
    r = y - predict(model, X)
    assert abs(r.mean()) < 1e-10
    assert np.max(np.abs(X.T @ r)) < 1e-8


def test_ols_names_rank_deficient_columns():
    rng = np.random.default_rng(5)
    x = rng.normal(size=100)
    X = np.column_stack([x, 2.0 * x, rng.normal(size=100)])
    y = x + rng.normal(0, 0.1, 100)
    # either member of the collinear pair is a legitimate culprit
    with pytest.raises(SingularDesignError, match=r"offending columns: \['column [01]'\]"):
        fit_ols(X, y)


def test_ols_requires_enough_rows():
    with pytest.raises(InvalidInputError):
        fit_ols(np.eye(3), np.ones(3))


# ------------------------------------------------------------------- ridge

def test_ridge_zero_penalty_equals_ols():
    X, y = make_linear_problem(seed=6)
    ols = fit_ols(X, y)
    ridge = fit_ridge(X, y, 0.0)
    np.testing.assert_allclose(ridge.state.beta, ols.state.beta, atol=1e-8)


def test_ridge_shrinks_slopes_not_intercept():
    X, y = make_linear_problem(seed=7)
    small = fit_ridge(X, y, 0.01)
    large = fit_ridge(X, y, 1e6)
    assert np.sum(large.state.beta[1:] ** 2) < np.sum(small.state.beta[1:] ** 2)
    assert large.state.beta[0] == pytest.approx(y.mean(), rel=1e-3)


def test_ridge_rejects_negative_penalty():
    X, y = make_linear_problem(seed=8)
    with pytest.raises(ConfigurationError):
        fit_ridge(X, y, -1.0)


# ---------------------------------------------------------------- quantile

def pinball_interval(y, tau):
    """Minimizer set of the intercept-only pinball objective (grid oracle)."""
    candidates = np.sort(y)
    objs = np.array([quantile_objective([c], np.empty((len(y), 0)), y, tau) for c in candidates])
    best = objs.min()
    hits = candidates[objs <= best + 1e-12]
    return hits.min(), hits.max(), best


def test_quantile_intercept_only_median():
    rng = np.random.default_rng(9)
    y = rng.normal(size=101)  # odd n: unique median
    model = fit_quantile(np.empty((101, 0)), y, 0.5)
    assert model.state.beta[0] == pytest.approx(np.median(y), abs=1e-9)


def test_quantile_intercept_only_lower_quartile_vertex():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model = fit_quantile(np.empty((4, 0)), y, 0.25)
    beta0 = model.state.beta[0]
    lo, hi, best = pinball_interval(y, 0.25)
    assert (lo, hi) == (1.0, 2.0)  # any point of [1, 2] minimizes
    assert lo - 1e-9 <= beta0 <= hi + 1e-9
    assert quantile_objective([beta0], np.empty((4, 0)), y, 0.25) <= best + 1e-9


def test_quantile_beats_ols_under_its_own_loss():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(150, 1))
    y = 0.5 + 0.8 * X[:, 0] + rng.gamma(2.0, 0.2, 150)
    tau = 0.8
    qr = fit_quantile(X, y, tau)
    ols = fit_ols(X, y)
    assert quantile_objective(qr.state.beta, X, y, tau) <= quantile_objective(
        ols.state.beta, X, y, tau
    )


def test_quantile_optimal_against_perturbation_grid():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 1))
    y = 1.0 - 0.5 * X[:, 0] + rng.normal(0, 0.3, 60)
    for tau in (0.2, 0.5, 0.7):
        model = fit_quantile(X, y, tau)
        beta = model.state.beta
        base = quantile_objective(beta, X, y, tau)
        deltas = np.linspace(-0.4, 0.4, 21)
        for d0 in deltas:
            for d1 in deltas:
                perturbed = beta + np.array([d0, d1])
                assert base <= quantile_objective(perturbed, X, y, tau) + 1e-6


def test_quantile_median_agrees_with_lad_oracle():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(80, 2))
    y = 0.3 + X @ np.array([1.0, -0.4]) + rng.standard_t(3, 80) * 0.2
    model = fit_quantile(X, y, 0.5)
    ours = quantile_objective(model.state.beta, X, y, 0.5)

    A = np.column_stack([np.ones(80), X])
    lad = np.sum(np.abs(y - A @ quantile_primal(X, y, 0.5)))
    # LAD objective equals twice the tau=0.5 pinball objective
    assert ours == pytest.approx(lad / 2.0, abs=1e-6)


@pytest.mark.parametrize("tau", [0.09, 0.5, 0.9])
@pytest.mark.parametrize("seed", [15, 16])
def test_quantile_dual_objective_equals_primal(tau, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(400, 5))
    X[:, 4] = rng.integers(0, 2, 400)  # a 0/1 column, like a one-hot dummy
    y = 0.5 + X @ rng.normal(size=5) + rng.gamma(2.0, 0.3, 400)
    dual = quantile_objective(fit_quantile(X, y, tau).state.beta, X, y, tau)
    primal = quantile_objective(quantile_primal(X, y, tau), X, y, tau)
    assert dual == pytest.approx(primal, rel=1e-9)


def test_quantile_objective_sums_the_np_where_pinball_form_bit_for_bit():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(300, 3))
    beta = rng.normal(size=4)
    y = rng.normal(size=300)
    y[:20] = beta[0] + X[:20] @ beta[1:]  # residuals of exactly zero
    d = y - (beta[0] + X @ beta[1:])
    assert (d == 0.0).sum() == 20
    for tau in (1 / 11, 0.3, 0.5, 0.9):
        where = float(np.sum(np.where(d > 0, tau * d, (tau - 1.0) * d)))
        assert np.float64(quantile_objective(beta, X, y, tau)).view(np.int64) == np.float64(
            where
        ).view(np.int64)


def test_quantile_solver_failure_raises_convergence_error(monkeypatch):
    X, y = make_linear_problem(seed=17)
    linprog = scipy.optimize.linprog

    def one_iteration(*args, options=None, **kwargs):
        return linprog(*args, **kwargs, options={**(options or {}), "maxiter": 1})

    monkeypatch.setattr(scipy.optimize, "linprog", one_iteration)
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        fit_quantile(X, y, 0.3)
    assert info.value.best_objective is None  # HiGHS returns no iterate


def test_quantile_marks_asymmetric_provenance():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 1))
    y = 0.5 + X[:, 0] * 0.1 + rng.normal(0, 0.05, 40)
    assert fit_quantile(X, y, 0.3).provenance == "asymmetric"
    # the median regression's loss, llc(0.5, 0.5), is symmetric
    assert fit_quantile(X, y, 0.5).provenance == "symmetric"


def test_quantile_rejects_bad_tau():
    X, y = make_linear_problem(seed=14)
    with pytest.raises(ConfigurationError):
        fit_quantile(X, y, 1.5)


# ------------------------------------------------- quantile: the working set

def heteroscedastic_problem():
    """Noise whose spread grows with x: the least-squares ranking misses the
    0.7 quantile hyperplane by a few rows, so the first working set grows."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(3000, 2))
    y = 0.5 + X @ np.array([1.0, -0.5]) + (0.1 + X[:, 0] ** 2) * rng.normal(size=3000)
    return X, y, 0.7


def rare_dummy_problem():
    """A 0/1 column with six ones, three far above the line and three far
    below, so every one of them ranks outside the first working set."""
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(size=2000), np.zeros(2000)])
    y = 1.0 + X[:, 0] + rng.normal(size=2000)
    X[:6, 1] = 1.0
    y[:3] += 10.0
    y[3:6] -= 10.0
    return X, y, 0.3


@pytest.fixture
def solves(monkeypatch):
    """Every ``linprog`` call ``fit_quantile`` makes, with its result."""
    linprog = scipy.optimize.linprog
    calls = []

    def record(c, **kwargs):
        result = linprog(c, **kwargs)
        calls.append((c, kwargs, result))
        return result

    monkeypatch.setattr(scipy.optimize, "linprog", record)
    return calls


def assert_certified(X, y, tau, beta, last_solve):
    """The last solve's d on its rows plus the fixed rows' 0/1 is an optimal full dual.

    The rows of the working set are found by their (y, x) values, so the
    rows must be distinct. The rows at d = 1 are the fixed rows ranked
    highest by least-squares residual, as many as the intercept row of
    b_eq says.
    """
    c, kwargs, result = last_solve
    A = np.column_stack([np.ones(len(y)), X])
    key = {tuple(row): i for i, row in enumerate(np.column_stack([y, A]))}
    rows = [key[tuple(row)] for row in np.column_stack([-c, kwargs["A_eq"].T])]
    free = np.zeros(len(y), dtype=bool)
    free[rows] = True
    target = (1.0 - tau) * A.sum(axis=0)
    at_one = round(target[0] - kwargs["b_eq"][0])
    ols = np.linalg.lstsq(A, y, rcond=None)[0]
    fixed = np.flatnonzero(~free)
    fixed = fixed[np.argsort((y - A @ ols)[fixed], kind="stable")]
    lower, upper = fixed[: len(fixed) - at_one], fixed[len(fixed) - at_one :]

    d = np.zeros(len(y))
    d[rows] = result.x
    d[upper] = 1.0
    resid = y - A @ beta
    assert np.all(resid[upper] >= 0.0) and np.all(resid[lower] <= 0.0)
    assert np.all((d >= 0.0) & (d <= 1.0))
    np.testing.assert_allclose(A.T @ d, target, rtol=0, atol=1e-8 * len(y))
    # strong duality: the dual objective y'd - (1 - tau) sum(y) is beta's pinball loss
    dual = y @ d - (1.0 - tau) * y.sum()
    assert dual == pytest.approx(quantile_objective(beta, X, y, tau), rel=1e-9)


def test_quantile_working_set_grows_with_rows_that_fail_the_check(solves):
    X, y, tau = heteroscedastic_problem()
    beta = fit_quantile(X, y, tau).state.beta
    columns = [len(c) for c, _, _ in solves]
    assert len(columns) >= 2 and columns[0] < len(y)
    assert all(a < b for a, b in zip(columns, columns[1:]))
    assert all(result.status == 0 for _, _, result in solves)
    assert_certified(X, y, tau, beta, solves[-1])
    primal = quantile_objective(quantile_primal(X, y, tau), X, y, tau)
    assert quantile_objective(beta, X, y, tau) == pytest.approx(primal, rel=1e-9)


def test_quantile_infeasible_working_set_triples_the_band(solves):
    X, y, tau = rare_dummy_problem()
    beta = fit_quantile(X, y, tau).state.beta
    statuses = [result.status for _, _, result in solves]
    columns = [len(c) for c, _, _ in solves]
    assert statuses[0] == 2 and statuses[-1] == 0
    assert columns[1] >= 3 * columns[0] - 2  # the band triples, within rounding
    assert_certified(X, y, tau, beta, solves[-1])
    primal = quantile_objective(quantile_primal(X, y, tau), X, y, tau)
    assert quantile_objective(beta, X, y, tau) == pytest.approx(primal, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quantile_fixed_rows_have_residuals_of_the_right_sign(solves, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(1500, 3))
    y = X @ rng.normal(size=3) + rng.standard_t(3, 1500) * (1.0 + np.abs(X[:, 1]))
    for tau in (0.05, 0.4, 0.9):
        solves.clear()
        beta = fit_quantile(X, y, tau).state.beta
        assert len(solves[0][0]) < len(y)
        assert_certified(X, y, tau, beta, solves[-1])


def test_quantile_small_design_takes_all_rows_in_one_solve(solves):
    X, y = make_linear_problem(seed=18, n=27, m=2)  # n <= 9 p: the band holds every row
    beta = fit_quantile(X, y, 0.2).state.beta
    assert [len(c) for c, _, _ in solves] == [27]
    np.testing.assert_array_equal(solves[0][1]["b_eq"], 0.8 * np.column_stack([np.ones(27), X]).sum(axis=0))
    assert_certified(X, y, 0.2, beta, solves[-1])


def test_quantile_failure_after_a_solve_reports_the_last_multipliers(monkeypatch):
    X, y, tau = heteroscedastic_problem()
    linprog = scipy.optimize.linprog
    betas = []

    def fail_second(*args, options=None, **kwargs):
        if betas:
            return linprog(*args, **kwargs, options={**(options or {}), "maxiter": 1})
        result = linprog(*args, **kwargs, options=options)
        betas.append(-result.eqlin.marginals)
        return result

    monkeypatch.setattr(scipy.optimize, "linprog", fail_second)
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        fit_quantile(X, y, tau)
    assert len(betas) == 1
    assert info.value.best_objective == quantile_objective(betas[0], X, y, tau)


@st.composite
def quantile_designs(draw):
    """Designs with tied targets, duplicated rows, 0/1 columns and tau n integral."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(0, 4))
    n = draw(st.one_of(st.integers(m + 3, 40), st.integers(40, 400), st.integers(400, 2500)))
    dummy = draw(st.sampled_from([None, 0.003, 0.1, 0.5]))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    if dummy is not None:
        X = np.column_stack([X, rng.random(n) < dummy]).astype(float)
    spread = 1.0 + np.abs(X[:, 0]) if m else 1.0
    y = 0.3 + X @ rng.normal(size=X.shape[1]) + spread * rng.standard_t(3, n)
    if draw(st.booleans()):  # duplicated rows
        src, dst = rng.integers(0, n, size=(2, n // 4))
        X[dst], y[dst] = X[src], y[src]
    if draw(st.booleans()):  # tied targets
        y = np.round(y, 1)
    if draw(st.booleans()):  # tau n integral: degenerate optimal faces
        tau = draw(st.integers(1, n - 1)) / n
    else:
        tau = draw(st.floats(0.02, 0.98))
    return X, y, tau


@settings(max_examples=30, deadline=None)
@given(design=quantile_designs())
def test_quantile_working_set_objective_matches_primal(design):
    X, y, tau = design
    ours = quantile_objective(fit_quantile(X, y, tau).state.beta, X, y, tau)
    primal = quantile_objective(quantile_primal(X, y, tau), X, y, tau)
    assert abs(ours - primal) <= 1e-9 * primal + 1e-12
