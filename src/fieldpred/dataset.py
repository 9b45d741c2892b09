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
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

SCHEMA_FILE_VERSION = 1


def _parse_finite(cell: str) -> float | None:
    """Parse a cell as a finite real number, or return None."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """An int or float (not a bool) with a finite value; an int too large for a float is not."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


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
        if not _is_finite_real(self.weight) or self.weight < 0:
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
            if not _is_finite_real(self.range_width) or self.range_width < 0:
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

    Built once from coded columns by ``_from_columns``; this constructor
    takes row tuples (str for categorical cells, real for continuous),
    checks them, and transposes. ``values`` (one tuple per entry) and
    ``outcomes`` (label indices into ``schema.outcome_labels``) are views
    decoded on first access. Continuous range widths are recomputed here,
    so ``table.schema`` always reflects the data it carries.
    """

    def __init__(self, schema: Schema, values: Iterable[Sequence], outcomes: Iterable[int]):
        rows = [tuple(row) for row in values]
        outcome_list = list(outcomes)
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
            if not isinstance(o, (int, np.integer)) or isinstance(o, bool) or not 0 <= o < n_labels:
                raise DataError(f"entry {i} has outcome index {o!r} outside 0..{n_labels - 1}")

        vocabs, columns = [], []
        for spec, cells in zip(schema.attributes, zip(*rows)):
            where = f"attribute {spec.name!r}"
            if spec.kind == CATEGORICAL:
                for i, cell in enumerate(cells):
                    if not isinstance(cell, str):
                        raise DataError(f"entry {i}, {where}: expected a string, got {type(cell).__name__}")
                try:
                    vocab, data = _code_categorical(cells, spec.categories)
                except _BadCell as exc:
                    raise DataError(f"entry {exc.row}, {where}: unknown category {cells[exc.row]!r}") from None
            else:
                for i, cell in enumerate(cells):
                    if not _is_finite_real(cell):
                        raise DataError(f"entry {i}, {where}: expected a finite real, got {cell!r}")
                vocab, data = None, np.asarray(cells, dtype=np.float64)
            vocabs.append(vocab)
            columns.append(data)
        self._build(schema, columns, vocabs, np.asarray(outcome_list, dtype=np.intp))

    @classmethod
    def _from_columns(cls, schema: Schema, columns: list[np.ndarray], vocabs: list[dict | None],
                      outcomes: np.ndarray) -> TrainingTable:
        """Build from checked columns: per attribute, M category codes into
        ``vocabs[j]`` (category -> code) or M finite floats (vocab None)."""
        table = cls.__new__(cls)
        table._build(schema, columns, vocabs, outcomes)
        return table

    def _build(self, schema: Schema, columns: list[np.ndarray], vocabs: list[dict | None],
               outcomes: np.ndarray) -> None:
        """Collapse identical rows and derive the views predictors use.

        ``_distinct_of[i]`` is entry i's distinct row, ``_distinct_entry[u]``
        an entry holding row u, ``_col_data[j]`` column j over the U distinct
        rows (category codes as floats). Distinct rows are kept in
        lexicographic order of their coded cells, which does not depend on
        the order of entries.
        """
        m = outcomes.size
        self._col_vocab = vocabs
        self._col_data = [np.asarray(data, dtype=np.float64) for data in columns]
        self._outcomes = outcomes
        self._distinct_of = np.zeros(m, dtype=np.intp)
        for data in self._col_data:
            # Renumber the rows by the columns so far; numbers stay below M.
            codes = np.unique(data, return_inverse=True)[1]
            self._distinct_of = np.unique(self._distinct_of * (codes.max() + 1) + codes, return_inverse=True)[1]
        u, k = int(self._distinct_of.max()) + 1, len(schema.outcome_labels)
        self._distinct_entry = np.empty(u, dtype=np.intp)
        self._distinct_entry[self._distinct_of] = np.arange(m)
        self._col_data = [data[self._distinct_entry] for data in self._col_data]
        # Each entry's flat (distinct row, outcome) cell of the U x K count matrix.
        self._vote_cell = self._distinct_of * k + outcomes
        self._label_counts = np.bincount(self._vote_cell, minlength=u * k).reshape(u, k).astype(np.float64)
        attrs = tuple(
            replace(spec, range_width=float(column.max() - column.min())) if spec.kind == CONTINUOUS else spec
            for spec, column in zip(schema.attributes, self._col_data)
        )
        self.schema = Schema(attrs, schema.outcome_labels)
        self.total_weight = self.schema.total_weight

    @cached_property
    def _distinct_rows(self) -> list[tuple]:
        """Typed cells of each distinct row."""
        columns = []
        for vocab, data in zip(self._col_vocab, self._col_data):
            if vocab is None:
                columns.append(data.tolist())
            else:
                categories = list(vocab)
                columns.append([categories[c] for c in data.astype(np.intp).tolist()])
        return list(zip(*columns)) if columns else [()] * self._distinct_entry.size

    @cached_property
    def values(self) -> tuple[tuple, ...]:
        rows = self._distinct_rows
        return tuple(rows[u] for u in self._distinct_of.tolist())

    @cached_property
    def outcomes(self) -> tuple[int, ...]:
        return tuple(self._outcomes.tolist())

    @property
    def n_entries(self) -> int:
        return self._distinct_of.size

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
                if not _is_finite_real(cell):
                    raise DataError(f"query attribute {spec.name!r}: expected a finite real")
                encoded.append(float(cell))
        return encoded


class _BadCell(Exception):
    """A column pass rejected the cell at this row index."""

    def __init__(self, row: int):
        self.row = row


def _code_categorical(cells: Sequence[str], categories: Sequence[str] | None) -> tuple[dict, np.ndarray]:
    """Vocabulary (the given categories, else first-seen order) and the cells' codes."""
    vocab = {c: k for k, c in enumerate(dict.fromkeys(cells) if categories is None else categories)}
    try:
        codes = np.fromiter(map(vocab.__getitem__, cells), dtype=np.intp, count=len(cells))
    except KeyError:
        raise _BadCell(next(i for i, c in enumerate(cells) if c not in vocab)) from None
    return vocab, codes


def _parse_continuous(cells: Sequence[str]) -> np.ndarray:
    """The cells as finite floats; _BadCell names the first that is not one."""
    try:
        data = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except (TypeError, ValueError):
        data = None
    if data is None or not np.isfinite(data).all():
        raise _BadCell(next(i for i, c in enumerate(cells) if _parse_finite(c) is None))
    return data


def _infer_column(name: str, cells: Sequence[str]) -> tuple[AttributeSpec, np.ndarray | None]:
    """The column's spec, plus its floats when it is continuous."""
    try:
        return AttributeSpec(name=name, kind=CONTINUOUS), _parse_continuous(cells)
    except _BadCell:
        return AttributeSpec(name=name, kind=CATEGORICAL, categories=tuple(dict.fromkeys(cells))), None


def _read_text(source) -> str:
    """The UTF-8 text of a path, of bytes, or of a file object."""
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text(encoding="utf-8")
        data = source if isinstance(source, bytes) else source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        name = source if isinstance(source, (str, Path)) else getattr(source, "name", "input")
        raise DataError(f"{name} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _read_json(source, error_cls: type[Exception], what: str):
    """The JSON document in ``source``; malformed or too deeply nested text raises ``error_cls``."""
    try:
        return json.loads(_read_text(source))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error_cls(f"invalid {what} file: {exc}") from None


def load_table(source, schema: Schema | None = None, outcome_column: str | None = None) -> TrainingTable:
    """Load a CSV (header row, outcome column last unless named) into a table.

    When ``schema`` is omitted it is inferred from the data. Cells are
    typed and coded column by column. Rejected with line-numbered
    diagnostics that name the first bad cell in file order: ragged rows,
    empty cells, unparseable or non-finite continuous cells, categories or
    outcome labels outside an explicit schema.
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
    columns = list(zip(*data)) if set(map(len, data)) == {width} else None
    if columns is None or any("" in cells for cells in columns):
        for k, row in enumerate(data, start=2):
            if len(row) != width:
                raise DataError(f"ragged row at line {k}: expected {width} cells, got {len(row)}")
            if "" in row:
                raise DataError(f"empty cell at line {k}: missing values are not supported")

    attr_cols = [i for i in range(width) if i != out_idx]
    if schema is not None and schema.n_attributes != len(attr_cols):
        raise DataError(
            f"schema has {schema.n_attributes} attributes, file has {len(attr_cols)}"
        )
    specs, vocabs, coded = [], [], []
    # (row, column position, message) of each column's first bad cell.
    bad: list[tuple[int, int, str]] = []
    given = schema.attributes if schema is not None else [None] * len(attr_cols)
    for j, (i, spec) in enumerate(zip(attr_cols, given)):
        cells, vocab, data_j = columns[i], None, None
        if spec is None:
            spec, data_j = _infer_column(header[i], cells)
        try:
            if spec.kind == CATEGORICAL:
                vocab, data_j = _code_categorical(cells, spec.categories)
            elif data_j is None:
                data_j = _parse_continuous(cells)
        except _BadCell as exc:
            what = "unknown category" if spec.kind == CATEGORICAL else "cannot parse continuous cell"
            bad.append((exc.row, j, f"{what} {cells[exc.row]!r} at line {exc.row + 2}, column {spec.name!r}"))
        specs.append(spec)
        vocabs.append(vocab)
        coded.append(data_j)
    try:
        label_index, outcomes = _code_categorical(columns[out_idx], None if schema is None else schema.outcome_labels)
    except _BadCell as exc:
        bad.append((exc.row, len(attr_cols),
                    f"unknown outcome label {columns[out_idx][exc.row]!r} at line {exc.row + 2}"))
    if bad:
        raise DataError(min(bad)[2])
    if schema is None:
        schema = Schema(tuple(specs), tuple(label_index))
    return TrainingTable._from_columns(schema, coded, vocabs, outcomes)


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
    """Check a schema document in one pass and build the Schema."""
    if not isinstance(payload, dict):
        raise DataError("schema document must be a JSON object")
    if payload.get("version") != SCHEMA_FILE_VERSION:
        raise DataError(f"unsupported schema file version {payload.get('version')!r}")
    entries, labels = payload.get("attributes", []), payload.get("outcome_labels", [])
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise DataError("schema attributes must be a list of objects")
    if not _is_str_list(labels):
        raise DataError("schema outcome_labels must be a list of strings")
    attrs = []
    for j, entry in enumerate(entries):
        name, weight, cats = entry.get("name"), entry.get("weight", 1.0), entry.get("categories")
        if not isinstance(name, str):
            raise DataError(f"schema attribute {j} needs a string name")
        if not _is_finite_real(weight):
            raise DataError(f"attribute {name!r} needs a finite weight >= 0")
        if cats is not None and not _is_str_list(cats):
            raise DataError(f"attribute {name!r} needs its categories as a list of strings")
        attrs.append(AttributeSpec(name, entry.get("kind"), float(weight), None if cats is None else tuple(cats)))
    return Schema(tuple(attrs), tuple(labels))


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def load_schema(path) -> Schema:
    return schema_from_dict(_read_json(path, DataError, "schema"))
