"""Tabular training data: schemas, typed tables, CSV and JSON loading.

Conventions used throughout the package:

* a table holds M training entries over N attribute columns plus one
  outcome column;
* categorical cells are plain strings compared for exact equality,
  continuous cells are finite floats;
* category lists and outcome labels keep first-seen order, and that
  order is part of the schema (ties and serialization depend on it).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

SCHEMA_FILE_VERSION = 1

#: Header used for the synthesized outcome column when a table is written
#: back to CSV (the original header name is not retained by Schema).
OUTCOME_HEADER = "outcome"


def _parse_finite(cell: str) -> float | None:
    """Parse a cell as a finite real number, or return None."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute column: its kind, weight, and kind-specific metadata.

    ``range_width`` is only meaningful for continuous columns and is
    recomputed from data whenever a table is built; a hand-written value
    is overwritten at that point.
    """

    name: str
    kind: str
    weight: float = 1.0
    categories: tuple[str, ...] | None = None
    range_width: float | None = None

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise DataError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if not _is_real(self.weight) or not math.isfinite(self.weight) or self.weight < 0:
            raise DataError(f"attribute {self.name!r} needs a finite weight >= 0")
        if self.categories is not None:
            if self.kind != CATEGORICAL:
                raise DataError(f"categories given for continuous attribute {self.name!r}")
            cats = tuple(self.categories)
            if len(set(cats)) != len(cats):
                raise DataError(f"duplicate categories for attribute {self.name!r}")
            object.__setattr__(self, "categories", cats)
        if self.range_width is not None:
            if self.kind != CONTINUOUS:
                raise DataError(f"range_width given for categorical attribute {self.name!r}")
            if not _is_real(self.range_width) or not math.isfinite(self.range_width) or self.range_width < 0:
                raise DataError(f"attribute {self.name!r} needs a finite range_width >= 0")


@dataclass(frozen=True)
class Schema:
    """Ordered attribute specs plus the ordered outcome label list."""

    attributes: tuple[AttributeSpec, ...]
    outcome_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "outcome_labels", tuple(self.outcome_labels))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise DataError("attribute names must be unique")
        if not self.outcome_labels:
            raise DataError("schema needs at least one outcome label")
        if len(set(self.outcome_labels)) != len(self.outcome_labels):
            raise DataError("outcome labels must be unique")
        if self.attributes and self.total_weight <= 0:
            raise DataError("total attribute weight must be positive")

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def total_weight(self) -> float:
        # Plain left-to-right accumulation, deliberately the same order a
        # per-entry score uses, so a full match lands at distance 0.0 exactly.
        total = 0.0
        for spec in self.attributes:
            total += spec.weight
        return total


@dataclass(frozen=True)
class Query:
    """One unlabeled row: typed cells aligned with the schema attributes."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


class TrainingTable:
    """Immutable typed table with the integer-coded views predictors use.

    ``values`` holds one tuple per entry (str for categorical cells,
    float for continuous); ``outcomes`` holds label indices into
    ``schema.outcome_labels``. Continuous range widths are recomputed
    here, so ``table.schema`` always reflects the data it carries.
    """

    def __init__(self, schema: Schema, values: Iterable[Sequence], outcomes: Iterable[int]):
        rows = [tuple(row) for row in values]
        outcome_list = [int(o) for o in outcomes]
        if not rows:
            raise DataError("empty table: at least one training entry is required")
        if len(rows) != len(outcome_list):
            raise DataError("values and outcomes disagree on entry count")
        n = schema.n_attributes
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DataError(f"entry {i} has {len(row)} cells, schema has {n} attributes")
        n_labels = len(schema.outcome_labels)
        for i, o in enumerate(outcome_list):
            if not 0 <= o < n_labels:
                raise DataError(f"entry {i} has outcome index {o} outside 0..{n_labels - 1}")

        self._validate_cells(schema, rows)
        self.schema = schema
        self.values = tuple(rows)
        self.outcomes = tuple(outcome_list)
        self._encode()
        attrs = tuple(
            replace(spec, range_width=float(column.max() - column.min())) if spec.kind == CONTINUOUS else spec
            for spec, column in zip(schema.attributes, self._col_data)
        )
        self.schema = Schema(attrs, schema.outcome_labels)
        self.total_weight = self.schema.total_weight

    @staticmethod
    def _validate_cells(schema: Schema, rows: list[tuple]) -> None:
        for j, spec in enumerate(schema.attributes):
            if spec.kind == CATEGORICAL:
                allowed = set(spec.categories) if spec.categories is not None else None
                for i, row in enumerate(rows):
                    cell = row[j]
                    if not isinstance(cell, str):
                        raise DataError(
                            f"entry {i}, attribute {spec.name!r}: expected a string, got {type(cell).__name__}"
                        )
                    if allowed is not None and cell not in allowed:
                        raise DataError(f"entry {i}, attribute {spec.name!r}: unknown category {cell!r}")
            else:
                for i, row in enumerate(rows):
                    cell = row[j]
                    if not _is_real(cell) or not math.isfinite(cell):
                        raise DataError(
                            f"entry {i}, attribute {spec.name!r}: expected a finite real, got {cell!r}"
                        )

    def _encode(self) -> None:
        """Code every cell as a float and collapse identical rows.

        ``_distinct_of[i]`` is entry i's distinct row, ``_distinct_entry[u]``
        an entry holding row u. Distinct rows are kept in lexicographic order
        of their coded cells, which does not depend on the order of entries.
        """
        m = len(self.values)
        self._col_vocab: list[dict | None] = []
        self._col_data: list[np.ndarray] = []
        self._distinct_of = np.zeros(m, dtype=np.intp)
        for j, spec in enumerate(self.schema.attributes):
            column = [row[j] for row in self.values]
            if spec.kind == CATEGORICAL:
                categories = spec.categories if spec.categories is not None else dict.fromkeys(column)
                vocab = {c: k for k, c in enumerate(categories)}
                data = np.fromiter((vocab[c] for c in column), dtype=np.float64, count=m)
            else:
                vocab, data = None, np.asarray(column, dtype=np.float64)
            self._col_vocab.append(vocab)
            self._col_data.append(data)
            # Renumber the rows by the columns so far; numbers stay below M.
            codes = np.unique(data, return_inverse=True)[1]
            self._distinct_of = np.unique(self._distinct_of * (codes.max() + 1) + codes, return_inverse=True)[1]
        u, k = int(self._distinct_of.max()) + 1, len(self.schema.outcome_labels)
        self._distinct_entry = np.empty(u, dtype=np.intp)
        self._distinct_entry[self._distinct_of] = np.arange(m)
        for j, data in enumerate(self._col_data):
            self._col_data[j] = data[self._distinct_entry]
        # Each entry's flat (distinct row, outcome) cell of the U x K count matrix.
        self._vote_cell = self._distinct_of * k + np.asarray(self.outcomes, dtype=np.intp)
        self._label_counts = np.bincount(self._vote_cell, minlength=u * k).reshape(u, k).astype(np.float64)

    @property
    def n_entries(self) -> int:
        return len(self.values)

    @property
    def n_attributes(self) -> int:
        return self.schema.n_attributes

    def encode_query(self, query: Query) -> list:
        """Typed query cells to per-column codes/floats; unseen categories map to -1."""
        cells = query.values
        if len(cells) != self.n_attributes:
            raise DataError(
                f"query has {len(cells)} cells, schema has {self.n_attributes} attributes"
            )
        encoded = []
        for j, spec in enumerate(self.schema.attributes):
            cell = cells[j]
            if spec.kind == CATEGORICAL:
                if not isinstance(cell, str):
                    raise DataError(f"query attribute {spec.name!r}: expected a string")
                encoded.append(self._col_vocab[j].get(cell, -1))
            else:
                if not _is_real(cell) or not math.isfinite(cell):
                    raise DataError(f"query attribute {spec.name!r}: expected a finite real")
                encoded.append(float(cell))
        return encoded


def column_ranges(table: TrainingTable) -> dict[str, float]:
    """Observed max-min width per continuous column (0.0 when constant)."""
    return {
        spec.name: spec.range_width
        for spec in table.schema.attributes
        if spec.kind == CONTINUOUS
    }


def infer_schema(raw_rows: Sequence[Sequence[str]], header: Sequence[str]) -> Schema:
    """Derive a schema from raw text rows; the last column is the outcome.

    A column is continuous when every cell parses as a finite real,
    otherwise it is categorical with categories in first-seen order.
    All weights default to 1.0. Deterministic: same rows, same schema.
    """
    if not raw_rows:
        raise DataError("empty input: cannot infer a schema from zero rows")
    if len(header) < 2:
        raise DataError("need at least one attribute column and one outcome column")
    attrs = []
    for j, name in enumerate(header[:-1]):
        column = [row[j] for row in raw_rows]
        if all(_parse_finite(cell) is not None for cell in column):
            attrs.append(AttributeSpec(name=name, kind=CONTINUOUS))
        else:
            seen: dict[str, None] = {}
            for cell in column:
                seen.setdefault(cell, None)
            attrs.append(AttributeSpec(name=name, kind=CATEGORICAL, categories=tuple(seen)))
    labels: dict[str, None] = {}
    for row in raw_rows:
        labels.setdefault(row[-1], None)
    return Schema(tuple(attrs), tuple(labels))


def _read_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def load_table(source, schema: Schema | None = None, outcome_column: str | None = None) -> TrainingTable:
    """Load a CSV (header row, outcome column last unless named) into a table.

    When ``schema`` is omitted it is inferred from the data. Rejected with
    line-numbered diagnostics: ragged rows, empty cells, unparseable
    continuous cells, categories or outcome labels outside an explicit
    schema.
    """
    text = _read_text(source)
    raw = list(csv.reader(io.StringIO(text)))
    if not raw:
        raise DataError("empty table: no header row")
    header, data = raw[0], raw[1:]
    if not data:
        raise DataError("empty table: no data rows")
    if len(header) < 2:
        raise DataError("need at least one attribute column and one outcome column")

    if outcome_column is None:
        out_idx = len(header) - 1
    else:
        try:
            out_idx = header.index(outcome_column)
        except ValueError:
            raise DataError(f"outcome column {outcome_column!r} not in header") from None

    width = len(header)
    for k, row in enumerate(data, start=2):
        if len(row) != width:
            raise DataError(f"ragged row at line {k}: expected {width} cells, got {len(row)}")
        for cell in row:
            if cell == "":
                raise DataError(f"empty cell at line {k}: missing values are not supported")

    attr_cols = [i for i in range(width) if i != out_idx]
    reordered = [[row[i] for i in attr_cols] + [row[out_idx]] for row in data]
    if schema is None:
        schema = infer_schema(reordered, [header[i] for i in attr_cols] + [header[out_idx]])
    elif schema.n_attributes != len(attr_cols):
        raise DataError(
            f"schema has {schema.n_attributes} attributes, file has {len(attr_cols)}"
        )

    label_index = {label: i for i, label in enumerate(schema.outcome_labels)}
    typed_rows = []
    outcome_idx = []
    for k, row in enumerate(reordered, start=2):
        typed = []
        for j, spec in enumerate(schema.attributes):
            cell = row[j]
            if spec.kind == CONTINUOUS:
                value = _parse_finite(cell)
                if value is None:
                    raise DataError(
                        f"cannot parse continuous cell {cell!r} at line {k}, column {spec.name!r}"
                    )
                typed.append(value)
            else:
                if spec.categories is not None and cell not in spec.categories:
                    raise DataError(
                        f"unknown category {cell!r} at line {k}, column {spec.name!r}"
                    )
                typed.append(cell)
        label = row[-1]
        if label not in label_index:
            raise DataError(f"unknown outcome label {label!r} at line {k}")
        typed_rows.append(typed)
        outcome_idx.append(label_index[label])

    return TrainingTable(schema, typed_rows, outcome_idx)


def validate_query(raw_cells: Sequence[str], schema: Schema) -> Query:
    """Turn raw text cells into a typed Query against the schema.

    Unseen categorical values are accepted (they simply match nothing);
    continuous cells must parse as finite reals; arity must match.
    """
    if len(raw_cells) != schema.n_attributes:
        raise DataError(
            f"query has {len(raw_cells)} cells, schema has {schema.n_attributes} attributes"
        )
    typed = []
    for cell, spec in zip(raw_cells, schema.attributes):
        if spec.kind == CONTINUOUS:
            value = _parse_finite(cell)
            if value is None:
                raise DataError(
                    f"cannot parse continuous cell {cell!r} for attribute {spec.name!r}"
                )
            typed.append(value)
        else:
            typed.append(cell)
    return Query(tuple(typed))


def serialize_table(table: TrainingTable) -> bytes:
    """Write the table back to CSV bytes; floats keep full round-trip precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([spec.name for spec in table.schema.attributes] + [OUTCOME_HEADER])
    for row, outcome in zip(table.values, table.outcomes):
        cells = [cell if isinstance(cell, str) else repr(cell) for cell in row]
        writer.writerow(cells + [table.schema.outcome_labels[outcome]])
    return buf.getvalue().encode("utf-8")


def schema_to_dict(schema: Schema) -> dict:
    attrs = []
    for spec in schema.attributes:
        entry: dict = {"name": spec.name, "kind": spec.kind, "weight": spec.weight}
        if spec.categories is not None:
            entry["categories"] = list(spec.categories)
        attrs.append(entry)
    return {
        "version": SCHEMA_FILE_VERSION,
        "attributes": attrs,
        "outcome_labels": list(schema.outcome_labels),
    }


def schema_from_dict(payload: dict) -> Schema:
    if not isinstance(payload, dict):
        raise DataError("schema document must be a JSON object")
    if payload.get("version") != SCHEMA_FILE_VERSION:
        raise DataError(f"unsupported schema file version {payload.get('version')!r}")
    attrs = []
    for entry in payload.get("attributes", []):
        cats = entry.get("categories")
        attrs.append(
            AttributeSpec(
                name=entry["name"],
                kind=entry["kind"],
                weight=float(entry.get("weight", 1.0)),
                categories=tuple(cats) if cats is not None else None,
            )
        )
    return Schema(tuple(attrs), tuple(payload.get("outcome_labels", [])))


def save_schema(schema: Schema, path) -> None:
    Path(path).write_text(json.dumps(schema_to_dict(schema), indent=2) + "\n", encoding="utf-8")


def load_schema(path) -> Schema:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid schema file: {exc}") from None
    return schema_from_dict(payload)
