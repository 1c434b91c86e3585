import csv
import re
import tracemalloc

import numpy as np
import pytest

import asymcast.data as data_module
from asymcast.data import (
    Dataset,
    SynthConfig,
    Standardizer,
    dataset_hash,
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
from asymcast.errors import ConfigurationError, IngestionError, InvalidInputError, SchemaError
from reference_kernels import decode_categories

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


def test_load_csv_with_training_map_aligns_dummy_columns(tmp_path):
    train_path, fresh_path = tmp_path / "train.csv", tmp_path / "fresh.csv"
    write_toy_csv(
        train_path, ["1.0,diesel,0.5", "2.0,electric,0.6", "3.0,hybrid,0.7", "4.0,petrol,0.8"]
    )
    write_toy_csv(fresh_path, ["1.0,hybrid,0.5", "2.0,petrol,0.6", "3.0,diesel,0.7"])
    train = load_csv(train_path, TOY_SCHEMA)
    fresh = load_csv(fresh_path, TOY_SCHEMA, train.categorical_map)
    # "electric" is missing from the fresh file but keeps its column
    assert fresh.feature_names == train.feature_names
    assert fresh.categorical_map == train.categorical_map
    np.testing.assert_array_equal(
        fresh.features[:, 1:], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    )
    assert decode_categories(fresh, "fuel") == ["hybrid", "petrol", "diesel"]
    # without the map the fresh file's levels shift under the training columns
    assert load_csv(fresh_path, TOY_SCHEMA).feature_names != train.feature_names


def test_load_csv_with_training_map_rejects_an_unknown_label(tmp_path):
    train_path, fresh_path = tmp_path / "train.csv", tmp_path / "fresh.csv"
    write_toy_csv(train_path, ["1.0,diesel,0.5", "2.0,hybrid,0.6", "3.0,petrol,0.7"])
    write_toy_csv(fresh_path, ["1.0,diesel,0.5", "2.0,hybrid,0.6", "3.0,lpg,0.7"])
    train = load_csv(train_path, TOY_SCHEMA)
    with pytest.raises(IngestionError, match="row 3: unknown category 'lpg'"):
        load_csv(fresh_path, TOY_SCHEMA, train.categorical_map)
    with pytest.raises(ConfigurationError, match="no levels for column 'fuel'"):
        load_csv(train_path, TOY_SCHEMA, {"gear": ["automatic", "manual"]})


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


# ---------------------------------------------------------------- exporting

EXPORT_SCHEMA = [("size", "numeric"), ("label", "categorical"), ("price", "target")]
# labels the csv module must quote: a comma, a double quote, a newline
LABELS = ["plain", "a,b", 'say "hi"', "two\nlines"]


def whole_table_csv(path, raw_columns, schema):
    """The CSV as written with every cell of the table turned into text at once."""
    cols = [
        raw_columns[name]
        if kind == "categorical"
        else [repr(v) for v in np.asarray(raw_columns[name], dtype=float).tolist()]
        for name, kind in schema
    ]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([name for name, _ in schema])
        writer.writerows(zip(*cols))


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2500])
def test_export_csv_writes_the_whole_table_bytes_across_chunks(tmp_path, n):
    rng = np.random.default_rng(n)
    raw = {
        "size": rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, n),
        "label": [LABELS[i] for i in rng.integers(0, len(LABELS), n)],
        "price": rng.uniform(0.05, 1.0, n),
    }
    chunked, whole = tmp_path / "chunked.csv", tmp_path / "whole.csv"
    export_csv(chunked, raw, EXPORT_SCHEMA)
    whole_table_csv(whole, raw, EXPORT_SCHEMA)
    assert chunked.read_bytes() == whole.read_bytes()
    ds = load_csv(chunked, EXPORT_SCHEMA)
    np.testing.assert_array_equal(ds.features[:, 0], raw["size"])
    np.testing.assert_array_equal(ds.target, raw["price"])
    assert decode_categories(ds, "label") == raw["label"]


def test_export_csv_of_no_rows_writes_the_header_alone(tmp_path):
    p = tmp_path / "empty.csv"
    export_csv(p, {"size": np.empty(0), "label": [], "price": []}, EXPORT_SCHEMA)
    assert p.read_bytes() == b"size,label,price\r\n"
    with pytest.raises(IngestionError, match="no data rows"):
        load_csv(p, EXPORT_SCHEMA)

def test_export_csv_names_a_missing_column_and_writes_nothing(tmp_path):
    p = tmp_path / "out.csv"
    with pytest.raises(InvalidInputError, match="column 'b' is missing"):
        export_csv(p, {"a": [1.0, 2.0]}, [("a", "numeric"), ("b", "target")])
    assert not p.exists()


def test_export_csv_names_a_column_of_another_length_and_writes_nothing(tmp_path):
    p = tmp_path / "out.csv"
    schema = [("a", "numeric"), ("c", "categorical"), ("b", "target")]
    with pytest.raises(InvalidInputError, match="column 'b' has 1 rows, but column 'a' has 3"):
        export_csv(p, {"a": [1.0, 2.0, 3.0], "c": ["x", "y", "z"], "b": [1.0]}, schema)
    with pytest.raises(InvalidInputError, match="column 'c' has 4 rows, but column 'a' has 3"):
        export_csv(p, {"a": [1.0, 2.0, 3.0], "c": ["x", "y", "z", "w"], "b": [1.0] * 3}, schema)
    assert not p.exists()


def test_export_csv_memory_does_not_grow_with_the_rows(tmp_path):
    schema = [(f"x{j}", "numeric") for j in range(8)] + [("y", "target")]

    def peak_bytes(n):
        rng = np.random.default_rng(n)
        raw = {name: rng.normal(size=n) for name, _ in schema}
        tracemalloc.start()
        try:
            export_csv(tmp_path / f"{n}.csv", raw, schema)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(32768) < 2 * peak_bytes(4096)


def test_schema_validation():
    with pytest.raises(ConfigurationError):
        parse_schema("age numeric\n")
    with pytest.raises(ConfigurationError):
        parse_schema("age:blob\nprice:target\n")
    with pytest.raises(ConfigurationError):
        parse_schema("age:numeric\n")  # no target
    repeated = "^schema line 3 repeats column 'a', first named on line 1$"
    with pytest.raises(ConfigurationError, match=repeated):
        parse_schema("a:numeric\n\na:numeric\ny:target\n")
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
    # proportions within one row of 30% / 4:3
    assert abs(sp.test.n_rows - 0.3 * ds.n_rows) <= 1
    assert abs(sp.ats.n_rows * 3 - sp.validation.n_rows * 4) <= 4


def test_split_requires_ten_rows():
    ds = synth_generate(SynthConfig(n=12, seed=0))
    small = ds.take(np.arange(5))
    with pytest.raises(InvalidInputError):
        split(small, seed=0)


@pytest.mark.parametrize(
    "seed, message",
    [(1.5, "must be an integer, got 1.5"), (True, "must be an integer, got True"),
     (-1, "must be >= 0, got -1")],
)
def test_split_names_a_seed_that_is_not_an_integer_at_least_0(seed, message):
    ds = synth_generate(SynthConfig(n=20, seed=0))
    with pytest.raises(ConfigurationError, match=f"^seed {message}$"):
        split(ds, seed=seed)


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


def test_standardizer_transform_has_the_bits_of_one_expression_and_keeps_its_input():
    rng = np.random.default_rng(12)
    X = rng.normal(3.0, 2.0, size=(50, 4))
    scaler = Standardizer(rng.normal(size=4), rng.uniform(0.5, 2.0, size=4), (), tuple("abcd"))
    before = X.copy()
    Z = scaler.transform(X)
    expected = (X - scaler.means) / scaler.sds
    assert np.array_equal(Z.view(np.int64), expected.view(np.int64))
    assert np.array_equal(X.view(np.int64), before.view(np.int64))
    assert not np.shares_memory(Z, X)


@pytest.mark.parametrize("shape", [(5, 3), (5, 5), (4,)])
def test_standardizer_transform_names_the_fitted_width_and_the_shape_it_got(shape):
    scaler = Standardizer(np.zeros(4), np.ones(4), (), tuple("abcd"))
    message = f"^standardizer was fitted on 4 columns, got input of shape {re.escape(str(shape))}$"
    with pytest.raises(SchemaError, match=message):
        scaler.transform(np.zeros(shape))


# ---------------------------------------------------------- synthetic data

def test_synth_is_deterministic():
    a = synth_generate(SynthConfig(n=100, seed=77))
    b = synth_generate(SynthConfig(n=100, seed=77))
    assert dataset_hash(a) == dataset_hash(b)
    assert a.features.shape == (100, 15)


def test_synth_labels_are_str_objects_that_share_the_level_strings():
    raw, _ = synth_raw_columns(SynthConfig(n=500, seed=77))
    for column, levels in (
        ("fuel_type", data_module._FUEL_LEVELS),
        ("gear_shift", data_module._GEAR_LEVELS),
    ):
        labels = raw[column]
        assert all(type(label) is str for label in labels)
        assert {id(label) for label in labels} == {id(level) for level in levels}


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
    for kwargs, message in [
        ({"n": 100.0}, "n must be an integer, got 100.0"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"seed": -3}, "seed must be >= 0, got -3"),
    ]:
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            SynthConfig(**kwargs)
