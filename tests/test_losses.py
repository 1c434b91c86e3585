import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcast.errors import ConfigurationError, InvalidInputError
from asymcast.losses import (
    _BLOCK_FORECASTS,
    FAMILIES,
    _eval_raw,
    CostSpec,
    eval_loss,
    eval_mean,
    grad_loss,
    is_symmetric,
    loss_from_text,
    loss_to_text,
    tau_from_weights,
)
from reference_kernels import eval_raw_where, validate_generalized_cost

STANDARD_GRID = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])

# random loss parameters: weight ratios up to 400 either way
WEIGHTS = st.floats(0.05, 20.0)
TAUS = st.floats(0.01, 0.99)
# residuals at least 1e-3 from the kink at 0, where central differences fail
OFF_KINK = st.floats(1e-3, 5.0) | st.floats(-5.0, -1e-3)
# residual grids on a 0.01 lattice, so neighbouring points differ by more
# than rounding and any decrease between them is real
GRIDS = st.lists(st.integers(-500, 500), min_size=1, max_size=40).map(
    lambda points: np.array(points) / 100.0
)
# every family, and the tau-quantile (pinball) weighting of llc
SHAPES = FAMILIES + ("pinball",)


def cost(shape, a=1.0, b=1.0, tau=0.5):
    """CostSpec of a family at weights a, b, or for "pinball" llc(tau, 1 - tau)."""
    if shape == "pinball":
        return CostSpec("llc", a=tau, b=1.0 - tau)
    return CostSpec(shape, a=a, b=b)


def central_diff(spec, e, h=1e-6):
    return (eval_loss(spec, e + h) - eval_loss(spec, e - h)) / (2 * h)


# ---------------------------------------------------------------- eval_loss

def test_quadratic_asymmetry_reduces_to_squared_error():
    assert eval_loss(CostSpec("qqc", a=1.0, b=1.0), 3.0) == 9.0


def test_pinball_symmetric_case_weights_both_sides_equally():
    spec = cost("pinball", tau=0.5)
    assert eval_loss(spec, 4.0) == 2.0
    assert eval_loss(spec, -4.0) == 2.0


def test_linear_exponential_is_zero_at_zero():
    assert eval_loss(CostSpec("lec", a=0.22, b=17.0), 0.0) == 0.0


def test_quadratic_overestimation_branch():
    assert eval_loss(CostSpec("qqc", a=0.4, b=1.0), -2.0) == 4.0


def test_eval_loss_vectorized_matches_scalar():
    spec = CostSpec("llc", a=0.5, b=1.0)
    es = np.array([-1.5, 0.0, 2.5])
    vec = eval_loss(spec, es)
    assert vec.shape == (3,)
    for e, v in zip(es, vec):
        assert eval_loss(spec, float(e)) == v


def test_eval_loss_rejects_non_finite_input():
    spec = CostSpec("squared_error")
    with pytest.raises(InvalidInputError):
        eval_loss(spec, float("nan"))
    with pytest.raises(InvalidInputError):
        eval_loss(spec, np.array([1.0, np.inf]))


def test_cost_spec_validation():
    with pytest.raises(ConfigurationError):
        CostSpec("qqc", a=-1.0)
    with pytest.raises(ConfigurationError):
        CostSpec("llc", a=0.5, b=0.0)
    for weight in (float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="finite"):
            CostSpec("qqc", b=weight)
    with pytest.raises(ConfigurationError):
        CostSpec("huber")
    for gone in ("pinball", "qqc_approx"):
        with pytest.raises(ConfigurationError, match=f"unknown loss family '{gone}'"):
            CostSpec(gone)


# ---------------------------------------------------------------- eval_mean

def test_mean_squared_error_on_reference_forecasts():
    # Exact value from these inputs is 35.2795 (commonly quoted rounded
    # as 35.29, which is off by a hair more than half a cent).
    actuals = [53.66, 45.36, 67.07]
    forecasts = [61.26, 38.92, 64.50]
    assert eval_mean(CostSpec("squared_error"), actuals, forecasts) == pytest.approx(
        35.2795, abs=1e-10
    )


def test_mean_is_zero_for_perfect_forecasts():
    y = np.linspace(0.2, 0.9, 11)
    for shape in SHAPES:
        spec = cost(shape, a=0.4, b=1.0, tau=0.3)
        assert eval_mean(spec, y, y) == 0.0


def test_mean_quadratic_asymmetric_hand_computed():
    spec = CostSpec("qqc", a=0.5, b=1.0)
    assert eval_mean(spec, [1.0, 1.0], [0.0, 2.0]) == pytest.approx(0.75)


def test_mean_rejects_mismatched_or_empty_vectors():
    spec = CostSpec("squared_error")
    with pytest.raises(InvalidInputError):
        eval_mean(spec, [1.0, 2.0], [1.0])
    with pytest.raises(InvalidInputError):
        eval_mean(spec, [], [])


@settings(max_examples=60)
@given(
    family=st.sampled_from(SHAPES),
    a=WEIGHTS,
    tau=TAUS,
    n=st.integers(1, 300),
    rows=st.none() | st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_mean_has_the_bits_of_np_mean(family, a, tau, n, rows, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 2, n)
    f = y + rng.normal(size=n if rows is None else (rows, n))
    spec = cost(family, a=a, b=1.0, tau=tau)
    got = eval_mean(spec, y, f)
    expected = np.mean(_eval_raw(spec, y - f), axis=-1)
    if rows is None:
        assert isinstance(got, float)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(expected).view(np.int64))


@pytest.mark.parametrize("family", SHAPES)
def test_mean_over_a_forecast_matrix_equals_each_row(family):
    rng = np.random.default_rng(9)
    y = rng.uniform(0.3, 1.0, size=257)
    F = y + rng.normal(0, 0.1, size=(6, 257))
    spec = cost(family, a=0.3, b=1.0, tau=0.3)
    means = eval_mean(spec, y, F)
    assert means.shape == (6,)
    for row, mean in zip(F, means):
        single = eval_mean(spec, y, row)
        assert isinstance(single, float) and mean == single
    F[4, 100] = np.nan
    with pytest.raises(InvalidInputError, match="finite"):
        eval_mean(spec, y, F)
    with pytest.raises(InvalidInputError):
        eval_mean(spec, y, F[:, :-1])


# rows of 1,000 forecasts make blocks of B rows; rows longer than a block
# are scored one per block
B = _BLOCK_FORECASTS // 1000
ROW_COUNTS = [(1000, rows) for rows in (1, B - 1, B, B + 1, 2 * B + 1)] + [
    (_BLOCK_FORECASTS + 1, 3)
]


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
@pytest.mark.parametrize("n,rows", ROW_COUNTS)
def test_blocked_mean_has_the_bits_of_each_row_alone(n, rows, as_list):
    rng = np.random.default_rng(rows)
    y = rng.uniform(0.3, 1.0, size=n)
    F = y + rng.normal(0, 0.1, size=(rows, n))
    for shape in SHAPES:
        spec = cost(shape, a=0.3, b=1.0, tau=0.3)
        means = eval_mean(spec, y, list(F) if as_list else F)
        alone = np.array([eval_mean(spec, y, row) for row in F])
        assert means.shape == (rows,)
        assert np.array_equal(means.view(np.int64), alone.view(np.int64)), shape


@pytest.mark.parametrize("bad_row", [0, B + 1, 2 * B])
def test_blocked_mean_rejects_a_bad_row_in_any_block(bad_row):
    rng = np.random.default_rng(4)
    y = rng.uniform(0.3, 1.0, size=1000)
    F = y + rng.normal(0, 0.1, size=(2 * B + 1, 1000))
    spec = CostSpec("llc", a=0.3, b=1.0)
    F[bad_row, 500] = np.nan
    for forecasts in (F, list(F)):
        with pytest.raises(InvalidInputError, match="finite"):
            eval_mean(spec, y, forecasts)
    F[bad_row, 500] = 0.5
    short = list(F)
    short[bad_row] = short[bad_row][:-1]
    with pytest.raises(InvalidInputError, match=f"rows from {bad_row // B * B}"):
        eval_mean(spec, y, short)


# residuals of both zeros, subnormals and magnitudes up to 1e154, whose
# squares stay finite; weights in [1e-3, 1] give ratios up to 1e3 either
# way and keep every weighted square finite
KERNEL_RESIDUALS = st.lists(
    st.floats(-1e154, 1e154)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1030), 1e154, -1e154]),
    min_size=1,
    max_size=40,
).map(np.array)
KERNEL_WEIGHTS = st.floats(1e-3, 1.0)


@settings(max_examples=300)
@given(
    family=st.sampled_from(["llc", "qqc"]), a=KERNEL_WEIGHTS, b=KERNEL_WEIGHTS, e=KERNEL_RESIDUALS
)
def test_branch_free_kernels_equal_the_np_where_forms(family, a, b, e):
    spec = CostSpec(family, a=a, b=b)
    assert np.array_equal(_eval_raw(spec, e), eval_raw_where(spec, e))


@pytest.mark.parametrize("family", ["qqc", "llc"])
def test_mean_is_monotone_in_underestimation_weight(family):
    rng = np.random.default_rng(7)
    y = rng.uniform(0.3, 1.0, size=200)
    f = y + rng.normal(0, 0.05, size=200)
    values = [
        eval_mean(CostSpec(family, a=a, b=1.0), y, f) for a in np.arange(0.1, 1.01, 0.1)
    ]
    assert np.all(np.diff(values) >= 0)


# ---------------------------------------------------------------- grad_loss

def test_squared_error_gradient():
    assert grad_loss(CostSpec("squared_error"), 3.0) == 6.0


@pytest.mark.parametrize(
    "family,params",
    [
        ("squared_error", {}),
        ("qqc", {"a": 0.3, "b": 1.2}),
        ("lec", {"a": 0.22, "b": 17.0}),
        ("qqc", {"a": 40.0, "b": 0.5}),
        ("pinball", {"tau": 0.25}),
        ("llc", {"a": 0.5, "b": 1.0}),
    ],
)
def test_gradients_match_central_differences_off_kinks(family, params):
    spec = cost(family, **params)
    grid = np.array([-3.0, -1.7, -0.9, -0.3, 0.4, 0.8, 1.6, 2.9])
    for e in grid:
        fd = central_diff(spec, float(e))
        an = grad_loss(spec, float(e))
        assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd))


@pytest.mark.parametrize("family", SHAPES)
@given(a=WEIGHTS, b=WEIGHTS, tau=TAUS, e=OFF_KINK)
def test_gradient_matches_central_differences_for_random_parameters(family, a, b, tau, e):
    spec = cost(family, a=a, b=b, tau=tau)
    fd = central_diff(spec, e)
    assert abs(grad_loss(spec, e) - fd) <= 1e-4 * max(1.0, abs(fd))


def test_kink_subgradients_use_right_derivative():
    assert grad_loss(cost("pinball", tau=0.25), 0.0) == 0.25
    assert grad_loss(CostSpec("llc", a=0.5, b=1.0), 0.0) == 0.5


# ------------------------------------------------------------ tau mapping

@pytest.mark.parametrize(
    "a,b,expected", [(1.0, 1.0, 0.5), (0.5, 1.0, 1.0 / 3.0), (0.2, 1.0, 1.0 / 6.0)]
)
def test_tau_from_weights(a, b, expected):
    assert tau_from_weights(a, b) == pytest.approx(expected, rel=1e-15)


def test_tau_from_weights_rejects_non_positive():
    with pytest.raises(ConfigurationError):
        tau_from_weights(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        tau_from_weights(0.5, -2.0)


# ------------------------------------------------- generalized-cost checks

def test_all_families_are_generalized_cost_functions():
    specs = [
        CostSpec("squared_error"),
        CostSpec("llc", a=0.5, b=1.0),
        CostSpec("qqc", a=0.4, b=1.0),
        CostSpec("lec", a=0.22, b=17.0),
        cost("pinball", tau=0.3),
    ]
    for spec in specs:
        assert validate_generalized_cost(spec, STANDARD_GRID), spec.describe()


@pytest.mark.parametrize("family", SHAPES)
@given(a=WEIGHTS, b=WEIGHTS, tau=TAUS, grid=GRIDS)
def test_every_family_is_a_generalized_cost_for_random_parameters(family, a, b, tau, grid):
    assert validate_generalized_cost(cost(family, a=a, b=b, tau=tau), grid)


@pytest.mark.parametrize("family", FAMILIES)
@given(a=WEIGHTS, b=WEIGHTS, equal=st.booleans())
def test_a_loss_is_symmetric_exactly_when_it_costs_e_as_minus_e(family, a, b, equal):
    spec = CostSpec(family, a=a, b=a if equal else b)
    mirrored = np.array_equal(eval_loss(spec, STANDARD_GRID), eval_loss(spec, -STANDARD_GRID))
    assert is_symmetric(spec) == mirrored


def test_corrupted_spec_fails_generalized_cost_check():
    spec = CostSpec("qqc", a=0.4, b=1.0)
    object.__setattr__(spec, "a", -1.0)  # bypass constructor validation
    assert validate_generalized_cost(spec, STANDARD_GRID) is False


# ----------------------------------------------------- analytic identities

def test_equal_weights_collapse_to_symmetric_losses():
    es = np.linspace(-5, 5, 401)
    for c in (0.5, 1.0, 2.5):
        qqc = eval_loss(CostSpec("qqc", a=c, b=c), es)
        llc = eval_loss(CostSpec("llc", a=c, b=c), es)
        assert np.array_equal(qqc, c * (es * es))
        assert np.max(np.abs(llc - c * np.abs(es))) == 0.0


def test_llc_is_scaled_pinball():
    # llc(a, 1) = (1 + a) llc(tau, 1 - tau) at tau = a / (1 + a)
    es = np.linspace(-5, 5, 1000)
    for a in np.arange(0.1, 1.01, 0.1):
        tau = tau_from_weights(a, 1.0)
        llc = eval_loss(CostSpec("llc", a=a, b=1.0), es)
        pin = (1.0 + a) * eval_loss(CostSpec("llc", a=tau, b=1.0 - tau), es)
        assert np.max(np.abs(llc - pin)) < 1e-12


# ------------------------------------------------------------ serialization

def test_loss_config_round_trip_is_decimal_exact():
    specs = [
        CostSpec("qqc", a=0.1, b=1.0),
        CostSpec("llc", a=1.0 / 3.0, b=2.0 / 3.0),
        CostSpec("lec", a=0.22222222222221, b=1.7),
    ]
    for spec in specs:
        assert loss_from_text(loss_to_text(spec)) == spec
    assert loss_to_text(CostSpec("qqc", a=0.3, b=1.0)) == "family=qqc\na=0.3\nb=1.0\n"


def test_loss_config_rejects_garbage():
    with pytest.raises(ConfigurationError):
        loss_from_text("family=qqc\na=not_a_number\n")
    with pytest.raises(ConfigurationError):
        loss_from_text("a=1.0\n")
    with pytest.raises(ConfigurationError):
        loss_from_text("family=qqc\nwhatever=1\n")


# Loss text as written before the two-weight form: every spec carried tau
# and steepness, and the quantile networks named the pinball family.
@pytest.mark.parametrize(
    "text,message",
    [
        ("family=llc\na=0.2\nb=0.8\ntau=0.2\n", "unknown loss config key 'tau'"),
        ("family=qqc_approx\na=0.2\nb=1.0\nsteepness=99.0\n", "unknown loss config key 'steepness'"),
        ("family=pinball\na=0.2\nb=0.8\n", "unknown loss family 'pinball'"),
    ],
    ids=["tau", "steepness", "pinball"],
)
def test_older_loss_text_is_rejected(text, message):
    with pytest.raises(ConfigurationError, match=message):
        loss_from_text(text)
