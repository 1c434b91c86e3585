"""Dataset ingestion, encoding, splitting, and the synthetic generator.

The synthetic generator emits a seeded car-resale dataset: the target is
the ratio of resale price to list price, in (0, 1], driven by an
exponential-decay curve in age and mileage plus step and interaction
terms, so the ground truth is genuinely nonlinear.

CSV conventions: UTF-8, header row, comma delimiter, "." decimals.
Schema files are plain text, one "name:type" line per column with type
numeric | categorical | target.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IngestionError, InvalidInputError

TARGET_RANGE = (0.0, 1.5)  # target is a price ratio; open at 0


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with named columns and a target vector.

    ``categorical_map`` records, per original categorical column, the
    sorted level list used for first-level-dropped dummy encoding.
    ``row_ids`` tracks provenance: indices into the source dataset, used
    to assert that splits stay disjoint and leak-free.
    """

    features: np.ndarray
    feature_names: tuple
    target: np.ndarray
    categorical_map: dict = field(default_factory=dict)
    row_ids: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.target, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise InvalidInputError(
                f"features {X.shape} and target {y.shape} are inconsistent"
            )
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise InvalidInputError("dataset needs at least one row and one column")
        if len(self.feature_names) != X.shape[1]:
            raise InvalidInputError("feature_names length must match the matrix width")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise InvalidInputError("dataset contains NaN or infinite entries")
        lo, hi = TARGET_RANGE
        if np.any(y <= lo) or np.any(y > hi):
            raise InvalidInputError(
                f"target values must lie in ({lo}, {hi}], got range "
                f"[{y.min():.6g}, {y.max():.6g}]"
            )
        object.__setattr__(self, "features", np.ascontiguousarray(X))
        object.__setattr__(self, "target", y.copy())

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        ids = np.asarray(indices, dtype=np.int64)
        row_ids = self.row_ids[ids] if self.row_ids is not None else ids
        return Dataset(
            self.features[ids],
            self.feature_names,
            self.target[ids],
            self.categorical_map,
            row_ids,
        )


@dataclass(frozen=True)
class DataSplits:
    """Hold-out partition: 30% test, training split 4:3 into ats/validation."""

    ats: Dataset
    validation: Dataset
    test: Dataset
    full_train: Dataset
    seed: int


@dataclass(frozen=True)
class SynthConfig:
    n: int = 10_000
    seed: int = 1234
    noise_sd: float = 0.025

    def __post_init__(self):
        if self.n < 10:
            raise ConfigurationError(f"synthetic dataset needs n >= 10, got {self.n}")
        if not self.noise_sd > 0:
            raise ConfigurationError(f"noise_sd must be positive, got {self.noise_sd}")


# ------------------------------------------------------------------ schema

def parse_schema(text: str) -> list[tuple[str, str]]:
    """Parse "name:type" lines; exactly one column must have type target."""
    columns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ConfigurationError(f"schema line {lineno} is not name:type -> {raw!r}")
        name, kind = (part.strip() for part in line.split(":", 1))
        if kind not in ("numeric", "categorical", "target"):
            raise ConfigurationError(f"schema line {lineno}: unknown column type {kind!r}")
        columns.append((name, kind))
    targets = [name for name, kind in columns if kind == "target"]
    if len(targets) != 1:
        raise ConfigurationError(f"schema must name exactly one target column, got {targets}")
    return columns


def schema_to_text(columns: list[tuple[str, str]]) -> str:
    return "\n".join(f"{name}:{kind}" for name, kind in columns) + "\n"


# --------------------------------------------------------------- ingestion

def encode_with_map(raw_columns, schema, categorical_map=None):
    """First-level-dropped dummy encoding of the categorical columns.

    Without ``categorical_map`` each column's levels are its sorted
    labels. With a previously fitted map, a label the map does not know
    is a policy violation and raises. Returns the feature names, the
    feature columns and the level map used.
    """
    names, matrix_cols, cat_map = [], [], {}
    for name, kind in schema:
        if kind == "target":
            continue
        values = raw_columns[name]
        if kind == "numeric":
            names.append(name)
            matrix_cols.append(np.asarray(values, dtype=float))
            continue
        if categorical_map is None:
            levels = sorted(set(values))
        else:
            levels = categorical_map[name]
            known = set(levels)
            for i, v in enumerate(values):
                if v not in known:
                    raise IngestionError(
                        f"row {i + 1}: unknown category {v!r} for column {name!r}"
                    )
        cat_map[name] = levels
        for level in levels[1:]:
            names.append(f"{name}_{level}")
            matrix_cols.append(np.array([1.0 if v == level else 0.0 for v in values]))
    return names, matrix_cols, cat_map


def decode_categories(dataset: Dataset, column: str) -> list:
    """Reconstruct original category labels of ``column`` from its dummies."""
    levels = dataset.categorical_map[column]
    n = dataset.n_rows
    labels = [levels[0]] * n
    for level in levels[1:]:
        dummy = f"{column}_{level}"
        j = dataset.feature_names.index(dummy)
        col = dataset.features[:, j]
        for i in range(n):
            if col[i] == 1.0:
                labels[i] = level
    return labels


# data rows parsed at a time: a column converts in one pass per chunk, and
# only one chunk's cell strings are held at once
_CHUNK_ROWS = 1024


def _parse_numeric(path, name: str, cells, first_row: int) -> np.ndarray:
    """The column's cells as floats, read by ``float()`` in one pass.

    A cell ``float()`` rejects raises IngestionError naming its data row
    (1-based; ``cells[0]`` is row ``first_row``) and the column.
    """
    try:
        return np.array(list(map(float, cells)))
    except ValueError:
        for rownum, cell in enumerate(cells, start=first_row):
            try:
                float(cell)
            except ValueError:
                raise IngestionError(
                    f"{path}: row {rownum}: non-numeric value {cell!r} in column {name!r}"
                ) from None
        raise


def _read_columns(path, reader, schema) -> dict:
    """The data rows as one float array (numeric) or label list (categorical) per column."""
    chunks = {name: [] for name, _ in schema}
    first_row = 1
    while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
        for rownum, row in enumerate(rows, start=first_row):
            if len(row) != len(schema):
                raise IngestionError(
                    f"{path}: row {rownum} has {len(row)} fields, expected {len(schema)}"
                )
        for (name, kind), cells in zip(schema, zip(*rows)):
            chunks[name].append(
                [cell.strip() for cell in cells]
                if kind == "categorical"
                else _parse_numeric(path, name, cells, first_row)
            )
        first_row += len(rows)
    if first_row == 1:
        raise IngestionError(f"{path} has a header but no data rows")
    return {
        name: list(itertools.chain.from_iterable(chunks[name]))
        if kind == "categorical"
        else np.concatenate(chunks[name])
        for name, kind in schema
    }


def load_csv(path, schema) -> Dataset:
    """Load a typed CSV into a Dataset.

    ``schema`` is a parsed column list or raw schema text. The header must
    match the schema names in order; numeric parse failures report the
    offending data row (1-based).
    """
    if isinstance(schema, str):
        schema = parse_schema(schema)
    expected = [name for name, _ in schema]
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path} is empty") from None
        if [h.strip() for h in header] != expected:
            raise IngestionError(
                f"{path}: header {header} does not match schema columns {expected}"
            )
        raw_columns = _read_columns(path, reader, schema)
    n = len(raw_columns[expected[0]])
    target_name = next(name for name, kind in schema if kind == "target")
    names, cols, cat_map = encode_with_map(raw_columns, schema)
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    y = np.asarray(raw_columns[target_name], dtype=float)
    return Dataset(X, tuple(names), y, cat_map, np.arange(n, dtype=np.int64))


def export_csv(path, raw_columns, schema) -> None:
    """Write raw (pre-encoding) columns to CSV; floats via repr (round-trip exact)."""
    expected = [name for name, _ in schema]
    cols = [
        raw_columns[name]
        if kind == "categorical"
        else [repr(v) for v in np.asarray(raw_columns[name], dtype=float).tolist()]
        for name, kind in schema
    ]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(expected)
        writer.writerows(zip(*cols))


# ----------------------------------------------------------------- splits

def split(dataset: Dataset, seed: int) -> DataSplits:
    """Seeded uniform shuffle, then 30% test and a 4:3 ats/validation cut.

    Test size is floored; the remainder goes to training.
    """
    n = dataset.n_rows
    if n < 10:
        raise InvalidInputError(f"need at least 10 rows to split, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(np.floor(0.30 * n))
    n_train = n - n_test
    n_ats = int(round(n_train * 4.0 / 7.0))
    train_idx = perm[:n_train]
    ats_idx = train_idx[:n_ats]
    val_idx = train_idx[n_ats:]
    test_idx = perm[n_train:]
    return DataSplits(
        ats=dataset.take(ats_idx),
        validation=dataset.take(val_idx),
        test=dataset.take(test_idx),
        full_train=dataset.take(train_idx),
        seed=seed,
    )


# ---------------------------------------------------------- standardization

@dataclass(frozen=True)
class Standardizer:
    """Per-column center/scale fitted on ATS rows only."""

    means: np.ndarray
    sds: np.ndarray
    skipped: tuple  # column names left unscaled (zero variance on ATS)
    feature_names: tuple

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.means) / self.sds


def standardize(splits: DataSplits) -> tuple[DataSplits, Standardizer]:
    """Center/scale every feature by ATS statistics; flag constant columns.

    The same transform is applied to validation, test, and full_train, so
    no statistic ever sees rows outside the ATS.
    """
    ats_X = splits.ats.features
    means = ats_X.mean(axis=0)
    sds = ats_X.std(axis=0)
    skipped = []
    for j, sd in enumerate(sds):
        if sd == 0.0:
            skipped.append(splits.ats.feature_names[j])
            means[j] = 0.0
            sds[j] = 1.0
    scaler = Standardizer(means, sds, tuple(skipped), splits.ats.feature_names)

    def rebuild(ds: Dataset) -> Dataset:
        return Dataset(
            scaler.transform(ds.features),
            ds.feature_names,
            ds.target,
            ds.categorical_map,
            ds.row_ids,
        )

    out = DataSplits(
        ats=rebuild(splits.ats),
        validation=rebuild(splits.validation),
        test=rebuild(splits.test),
        full_train=rebuild(splits.full_train),
        seed=splits.seed,
    )
    return out, scaler


# -------------------------------------------------------- synthetic data

SYNTH_SCHEMA: list[tuple[str, str]] = [
    ("age_years", "numeric"),
    ("duration_months", "numeric"),
    ("mileage_km", "numeric"),
    ("engine_cc", "numeric"),
    ("horsepower", "numeric"),
    ("custom_score", "numeric"),
    ("special_lacquer", "numeric"),
    ("four_wheel_drive", "numeric"),
    ("navigation", "numeric"),
    ("leather_seats", "numeric"),
    ("tow_hitch", "numeric"),
    ("fuel_type", "categorical"),
    ("gear_shift", "categorical"),
    ("resale_ratio", "target"),
]

_FUEL_LEVELS = ["diesel", "electric", "hybrid", "petrol"]
_GEAR_LEVELS = ["automatic", "manual"]


def synth_raw_columns(config: SynthConfig):
    """Draw the raw (pre-encoding) synthetic columns; fully seed-determined."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    age = rng.uniform(0.25, 5.5, n)
    duration = np.clip(np.round(age * 12 + rng.normal(0, 6, n)), 6, 66)
    mileage = np.clip(age * (9000 + rng.uniform(0, 14000, n)) + rng.normal(0, 2500, n), 1000, None)
    engine = rng.choice([1197, 1499, 1968, 2496, 2998, 3996], size=n, p=[0.2, 0.3, 0.25, 0.12, 0.09, 0.04])
    horsepower = np.round(engine * (0.055 + rng.uniform(0, 0.03, n)) + rng.normal(0, 6, n))
    custom = rng.binomial(10, 0.35, n).astype(float)
    lacquer = (rng.random(n) < 0.12).astype(float)
    fourwd = (rng.random(n) < 0.25).astype(float)
    navigation = (rng.random(n) < 0.5).astype(float)
    leather = (rng.random(n) < 0.3).astype(float)
    tow = (rng.random(n) < 0.1).astype(float)
    fuel = rng.choice(_FUEL_LEVELS, size=n, p=[0.35, 0.08, 0.12, 0.45])
    gear = rng.choice(_GEAR_LEVELS, size=n, p=[0.55, 0.45])
    noise = rng.normal(0, config.noise_sd, n)
    return {
        "age_years": age,
        "duration_months": duration,
        "mileage_km": mileage,
        "engine_cc": engine.astype(float),
        "horsepower": horsepower,
        "custom_score": custom,
        "special_lacquer": lacquer,
        "four_wheel_drive": fourwd,
        "navigation": navigation,
        "leather_seats": leather,
        "tow_hitch": tow,
        "fuel_type": list(fuel),
        "gear_shift": list(gear),
    }, noise


def synth_target_mean(features: np.ndarray, feature_names) -> np.ndarray:
    """Noise-free resale ratio as a function of the encoded features.

    Exponential depreciation in age and mileage, a redesign step at three
    years, a mileage-damped four-wheel-drive premium, and small linear
    equipment effects.
    """
    col = {name: features[:, j] for j, name in enumerate(feature_names)}
    ratio = 0.90 * np.exp(-0.16 * col["age_years"] - col["mileage_km"] / 250000.0)
    ratio = ratio + 0.004 * col["custom_score"] * np.exp(-0.25 * col["age_years"])
    ratio = ratio + 0.018 * col["four_wheel_drive"] * np.exp(-col["mileage_km"] / 80000.0)
    ratio = ratio - 0.035 * (col["age_years"] > 3.0)
    ratio = ratio + 0.0001 * (col["horsepower"] - 150.0)
    ratio = ratio + 0.008 * col["special_lacquer"] + 0.006 * col["navigation"]
    ratio = ratio + 0.007 * col["leather_seats"] - 0.004 * col["tow_hitch"]
    ratio = ratio - 0.025 * col["fuel_type_electric"] + 0.012 * col["fuel_type_hybrid"]
    ratio = ratio + 0.004 * col["fuel_type_petrol"] - 0.012 * col["gear_shift_manual"]
    return ratio


def _synth_draw(config: SynthConfig):
    """Raw synthetic columns and the encoded dataset with its noisy target."""
    raw, noise = synth_raw_columns(config)
    names, cols, cat_map = encode_with_map(raw, SYNTH_SCHEMA)
    X = np.column_stack(cols)
    y = np.clip(synth_target_mean(X, names) + noise, 0.02, 1.0)
    return raw, Dataset(X, tuple(names), y, cat_map, np.arange(config.n, dtype=np.int64))


def synth_generate(config: SynthConfig) -> Dataset:
    """Seeded synthetic car-resale dataset with 15 encoded features."""
    return _synth_draw(config)[1]


def synth_export(path_csv, path_schema, config: SynthConfig) -> None:
    """Write the raw synthetic table plus its schema file.

    Loading the pair back through load_csv reproduces synth_generate's
    encoded matrix exactly.
    """
    raw, dataset = _synth_draw(config)
    raw["resale_ratio"] = list(dataset.target)
    export_csv(path_csv, raw, SYNTH_SCHEMA)
    with open(path_schema, "w", encoding="utf-8") as handle:
        handle.write(schema_to_text(SYNTH_SCHEMA))


def dataset_hash(dataset: Dataset) -> str:
    """Stable content hash of the encoded matrix and target."""
    import hashlib

    buf = io.BytesIO()
    buf.write(",".join(dataset.feature_names).encode())
    buf.write(np.ascontiguousarray(dataset.features).tobytes())
    buf.write(np.ascontiguousarray(dataset.target).tobytes())
    return hashlib.sha256(buf.getvalue()).hexdigest()
