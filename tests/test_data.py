import numpy as np
import pytest

import asymcast.data as data_module
from asymcast.data import (
    Dataset,
    SynthConfig,
    Standardizer,
    dataset_hash,
    decode_categories,
    encode_with_map,
    export_csv,
    load_csv,
    parse_schema,
    schema_to_text,
    split,
    standardize,
    synth_export,
    synth_generate,
    synth_raw_columns,
    synth_target_mean,
    SYNTH_SCHEMA,
)
from asymcast.errors import ConfigurationError, IngestionError, InvalidInputError

TOY_SCHEMA = "age:numeric\nfuel:categorical\nprice:target\n"


def write_toy_csv(path, rows):
    path.write_text("age,fuel,price\n" + "\n".join(rows) + "\n", encoding="utf-8")


# ----------------------------------------------------------------- loading

def test_load_csv_dummy_encodes_categoricals(tmp_path):
    p = tmp_path / "toy.csv"
    write_toy_csv(p, ["1.0,diesel,0.5", "2.0,petrol,0.6", "3.0,hybrid,0.7"])
    ds = load_csv(p, TOY_SCHEMA)
    # 3 levels -> 2 dummies (first level dropped) + 1 numeric column
    assert ds.feature_names == ("age", "fuel_hybrid", "fuel_petrol")
    assert ds.features.shape == (3, 3)
    np.testing.assert_array_equal(ds.features[:, 1], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(ds.features[:, 2], [0.0, 1.0, 0.0])
    assert ds.categorical_map == {"fuel": ["diesel", "hybrid", "petrol"]}


def test_load_csv_reports_bad_row(tmp_path):
    p = tmp_path / "toy.csv"
    write_toy_csv(p, ["1.0,diesel,0.5", "oops,petrol,0.6"])
    with pytest.raises(IngestionError, match="row 2"):
        load_csv(p, TOY_SCHEMA)


def test_load_csv_reads_numbers_as_float_does(tmp_path, monkeypatch):
    # chunks of 2 rows, so the 5 rows span three
    monkeypatch.setattr(data_module, "_CHUNK_ROWS", 2)
    p = tmp_path / "toy.csv"
    ages = [" 2 ", "1_000", "+3e-1", "\u00a04", "0.1"]
    fuels = ["diesel", "petrol ", "hybrid", "diesel", " petrol"]
    write_toy_csv(p, [f"{age},{fuel},0.5" for age, fuel in zip(ages, fuels)])
    ds = load_csv(p, TOY_SCHEMA)
    np.testing.assert_array_equal(ds.features[:, 0], [float(age) for age in ages])
    assert decode_categories(ds, "fuel") == [fuel.strip() for fuel in fuels]


@pytest.mark.parametrize("cell", ["0x10", "", "1.0.0", "1 0"])
def test_load_csv_names_the_row_and_column_float_rejects(tmp_path, monkeypatch, cell):
    monkeypatch.setattr(data_module, "_CHUNK_ROWS", 2)
    p = tmp_path / "toy.csv"
    write_toy_csv(p, ["1.0,diesel,0.5", "2.0,petrol,0.6", "3.0,diesel,0.7", f"4.0,diesel,{cell}"])
    with pytest.raises(IngestionError, match=f"row 4: non-numeric value '{cell}' in column 'price'"):
        load_csv(p, TOY_SCHEMA)


def test_load_csv_names_a_short_row(tmp_path, monkeypatch):
    monkeypatch.setattr(data_module, "_CHUNK_ROWS", 2)
    p = tmp_path / "toy.csv"
    write_toy_csv(p, ["1.0,diesel,0.5", "2.0,petrol,0.6", "3.0,diesel"])
    with pytest.raises(IngestionError, match="row 3 has 2 fields, expected 3"):
        load_csv(p, TOY_SCHEMA)


def test_load_csv_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_csv(p, TOY_SCHEMA)
    p.write_text("age,fuel,price\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_csv(p, TOY_SCHEMA)


def test_load_csv_rejects_header_mismatch(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("age,color,price\n1.0,red,0.5\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="header"):
        load_csv(p, TOY_SCHEMA)


def test_schema_validation():
    with pytest.raises(ConfigurationError):
        parse_schema("age numeric\n")
    with pytest.raises(ConfigurationError):
        parse_schema("age:blob\nprice:target\n")
    with pytest.raises(ConfigurationError):
        parse_schema("age:numeric\n")  # no target
    cols = parse_schema(TOY_SCHEMA)
    assert schema_to_text(cols) == TOY_SCHEMA


def test_encode_with_map_reuses_fitted_levels():
    schema = parse_schema(TOY_SCHEMA)
    names, cols, cat_map = encode_with_map({"age": [1.0, 2.0], "fuel": ["petrol", "diesel"]}, schema)
    assert names == ["age", "fuel_petrol"] and cat_map == {"fuel": ["diesel", "petrol"]}
    # a later batch holding only one level still gets the fitted dummies
    names2, cols2, map2 = encode_with_map({"age": [3.0], "fuel": ["petrol"]}, schema, cat_map)
    assert names2 == names and map2 == cat_map
    np.testing.assert_array_equal(cols2[1], [1.0])


def test_encode_with_map_rejects_unknown_category():
    raw = {"age": [1.0, 2.0], "fuel": ["diesel", "kerosene"]}
    schema = parse_schema(TOY_SCHEMA)
    with pytest.raises(IngestionError, match="row 2: unknown category 'kerosene'"):
        encode_with_map(raw, schema, {"fuel": ["diesel", "petrol"]})


def test_dataset_invariants():
    with pytest.raises(InvalidInputError):
        Dataset(np.array([[1.0]]), ("x",), np.array([np.nan]))
    with pytest.raises(InvalidInputError):
        Dataset(np.array([[1.0]]), ("x",), np.array([2.0]))  # target > 1.5
    with pytest.raises(InvalidInputError):
        Dataset(np.empty((0, 1)), ("x",), np.empty(0))


# ------------------------------------------------------------------ splits

def test_split_proportions_follow_protocol():
    ds = synth_generate(SynthConfig(n=1000, seed=3))
    sp = split(ds, seed=11)
    assert sp.test.n_rows == 300
    assert sp.ats.n_rows == 400
    assert sp.validation.n_rows == 300
    assert sp.full_train.n_rows == 700


def test_split_is_deterministic_and_seed_sensitive():
    ds = synth_generate(SynthConfig(n=1000, seed=3))
    a = split(ds, seed=5)
    b = split(ds, seed=5)
    c = split(ds, seed=6)
    np.testing.assert_array_equal(a.test.row_ids, b.test.row_ids)
    assert not np.array_equal(a.test.row_ids, c.test.row_ids)


def test_split_partition_is_disjoint_and_complete():
    ds = synth_generate(SynthConfig(n=233, seed=9))
    sp = split(ds, seed=1)
    pieces = [sp.ats.row_ids, sp.validation.row_ids, sp.test.row_ids]
    combined = np.concatenate(pieces)
    assert len(np.unique(combined)) == ds.n_rows
    # full_train is exactly ats followed by validation
    np.testing.assert_array_equal(
        sp.full_train.row_ids, np.concatenate([sp.ats.row_ids, sp.validation.row_ids])
    )
    # proportions within one row of 30% / 4:3
    assert abs(sp.test.n_rows - 0.3 * ds.n_rows) <= 1
    assert abs(sp.ats.n_rows * 3 - sp.validation.n_rows * 4) <= 4


def test_split_requires_ten_rows():
    ds = synth_generate(SynthConfig(n=12, seed=0))
    small = ds.take(np.arange(5))
    with pytest.raises(InvalidInputError):
        split(small, seed=0)


# --------------------------------------------------------- standardization

def test_standardize_uses_ats_statistics_only():
    ds = synth_generate(SynthConfig(n=800, seed=21))
    sp = split(ds, seed=2)
    std, scaler = standardize(sp)
    np.testing.assert_allclose(std.ats.features.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(std.ats.features.std(axis=0), 1.0, atol=1e-10)
    # validation means are not zero in general: proves no pooling happened
    assert np.max(np.abs(std.validation.features.mean(axis=0))) > 1e-3
    np.testing.assert_array_equal(scaler.means, sp.ats.features.mean(axis=0))


def test_standardize_flags_constant_columns():
    X = np.column_stack([np.arange(20.0), np.full(20, 7.0)])
    ds = Dataset(X, ("a", "const"), np.linspace(0.2, 0.8, 20))
    sp = split(ds, seed=0)
    std, scaler = standardize(sp)
    assert scaler.skipped == ("const",)
    j = ds.feature_names.index("const")
    np.testing.assert_array_equal(std.ats.features[:, j], sp.ats.features[:, j])


# ---------------------------------------------------------- synthetic data

def test_synth_is_deterministic():
    a = synth_generate(SynthConfig(n=100, seed=77))
    b = synth_generate(SynthConfig(n=100, seed=77))
    assert dataset_hash(a) == dataset_hash(b)
    assert a.features.shape == (100, 15)


def test_synth_near_zero_noise_recovers_exact_function():
    ds = synth_generate(SynthConfig(n=200, seed=5, noise_sd=1e-12))
    clean = synth_target_mean(ds.features, ds.feature_names)
    np.testing.assert_allclose(ds.target, np.clip(clean, 0.02, 1.0), atol=1e-9)


def test_synth_targets_stay_in_unit_interval():
    ds = synth_generate(SynthConfig(n=5000, seed=13))
    assert ds.target.min() > 0.0
    assert ds.target.max() <= 1.0


def test_synth_ground_truth_is_nonlinear():
    """A random forest must beat OLS on held-out data."""
    from asymcast.models.linear import fit_ols
    from asymcast.models.trees import fit_random_forest
    from asymcast.models.base import predict

    ds = synth_generate(SynthConfig(n=5000, seed=42))
    sp = split(ds, seed=7)
    std, _ = standardize(sp)
    ols = fit_ols(std.ats.features, std.ats.target)
    rf = fit_random_forest(std.ats.features, std.ats.target, trees=40, mtry=5, seed=3)
    yv = std.validation.target
    mse_ols = np.mean((yv - predict(ols, std.validation.features)) ** 2)
    mse_rf = np.mean((yv - predict(rf, std.validation.features)) ** 2)
    assert mse_ols > mse_rf


def test_synth_export_round_trips_through_load_csv(tmp_path):
    cfg = SynthConfig(n=60, seed=31)
    csv_path = tmp_path / "cars.csv"
    schema_path = tmp_path / "cars.schema"
    synth_export(csv_path, schema_path, cfg)
    loaded = load_csv(csv_path, schema_path.read_text(encoding="utf-8"))
    direct = synth_generate(cfg)
    assert loaded.feature_names == direct.feature_names
    np.testing.assert_array_equal(loaded.features, direct.features)
    np.testing.assert_array_equal(loaded.target, direct.target)


def test_category_decode_round_trip():
    ds = synth_generate(SynthConfig(n=50, seed=8))
    raw, _ = synth_raw_columns(SynthConfig(n=50, seed=8))
    assert decode_categories(ds, "fuel_type") == raw["fuel_type"]
    assert decode_categories(ds, "gear_shift") == raw["gear_shift"]


def test_synth_config_validation():
    with pytest.raises(ConfigurationError):
        SynthConfig(n=5)
    with pytest.raises(ConfigurationError):
        SynthConfig(n=100, noise_sd=0.0)
