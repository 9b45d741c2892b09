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
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

SCHEMA_FILE_VERSION = 1

#: Distinct lines ``load_table`` splits, types and codes at once.
_LOAD_CHUNK_LINES = 1 << 12


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


def _is_count(value) -> bool:  # an int or numpy integer, not a bool, of at least 1
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _is_strings(value) -> bool:  # a list or tuple of str
    return isinstance(value, (list, tuple)) and all(isinstance(item, str) for item in value)


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
        if not isinstance(self.name, str):
            raise DataError(f"attribute name {self.name!r} must be a string")
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise DataError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if not _is_finite_real(self.weight) or self.weight < 0:
            raise DataError(f"attribute {self.name!r} needs a finite weight >= 0")
        object.__setattr__(self, "weight", float(self.weight))
        if self.categories is not None:
            if self.kind != CATEGORICAL:
                raise DataError(f"categories given for continuous attribute {self.name!r}")
            if not _is_strings(self.categories):
                raise DataError(f"attribute {self.name!r} needs its categories as a list or tuple of strings")
            cats = tuple(self.categories)
            if len(set(cats)) != len(cats):
                raise DataError(f"duplicate categories for attribute {self.name!r}")
            object.__setattr__(self, "categories", cats)
        if self.range_width is not None:
            if self.kind != CONTINUOUS:
                raise DataError(f"range_width given for categorical attribute {self.name!r}")
            if not _is_finite_real(self.range_width) or self.range_width < 0:
                raise DataError(f"attribute {self.name!r} needs a finite range_width >= 0 (max - min of its values)")


@dataclass(frozen=True)
class Schema:
    """Ordered attribute specs plus the ordered outcome label list."""

    attributes: tuple[AttributeSpec, ...]
    outcome_labels: tuple[str, ...]

    def __post_init__(self):
        # Sequences and iterators give the attributes in order; a set or a mapping is refused.
        attrs = tuple(self.attributes) if isinstance(self.attributes, (list, tuple, Iterator)) else None
        if attrs is None or not all(isinstance(spec, AttributeSpec) for spec in attrs):
            raise DataError("schema attributes must be a list, tuple or iterator of AttributeSpec")
        if not _is_strings(self.outcome_labels):
            raise DataError("schema outcome_labels must be a list or tuple of strings")
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "outcome_labels", tuple(self.outcome_labels))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise DataError("attribute names must be unique")
        if not self.outcome_labels:
            raise DataError("schema needs at least one outcome label")
        if len(set(self.outcome_labels)) != len(self.outcome_labels):
            raise DataError("outcome labels must be unique")
        if self.attributes and not 0 < self.total_weight < math.inf:
            raise DataError("total attribute weight must be finite and positive")

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
        if not isinstance(self.values, (list, tuple)):
            raise DataError(f"query values must be a list or tuple of cells, got {type(self.values).__name__}")
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
        if not isinstance(schema, Schema):
            raise DataError(f"a table needs a Schema, got {type(schema).__name__}")
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
                vocab = {c: k for k, c in enumerate(spec.categories or ())}
                try:
                    data = _code_categorical(cells, vocab, spec.categories is None)
                except _BadCell as exc:
                    raise DataError(f"entry {exc.row}, {where}: unknown category {cells[exc.row]!r}") from None
            else:
                for i, cell in enumerate(cells):
                    if not _is_finite_real(cell):
                        raise DataError(f"entry {i}, {where}: expected a finite real, got {cell!r}")
                vocab, data = None, np.asarray(cells, dtype=np.float64)
            vocabs.append(vocab)
            columns.append(data)
        self._build(schema, columns, vocabs, np.arange(len(rows)), np.asarray(outcome_list, dtype=np.intp))

    @classmethod
    def _from_columns(cls, schema: Schema, columns: list[np.ndarray], vocabs: list[dict | None],
                      entry_row: np.ndarray, outcomes: np.ndarray) -> TrainingTable:
        """Build from checked columns over R rows, each held by some entry i
        (``entry_row[i]``): per attribute, R category codes into ``vocabs[j]``
        (category -> code) or R finite floats (vocab None)."""
        table = cls.__new__(cls)
        table._build(schema, columns, vocabs, entry_row, outcomes)
        return table

    def _build(self, schema: Schema, columns: list[np.ndarray], vocabs: list[dict | None],
               entry_row: np.ndarray, outcomes: np.ndarray) -> None:
        """Collapse identical rows and derive the views predictors use.

        ``_distinct_of[i]`` is entry i's distinct row, ``_distinct_entry[u]``
        an entry holding row u, ``_col_data[j]`` column j over the U distinct
        rows (floats, or codes in the least signed dtype that holds -1). Rows
        are in lexicographic order of their coded cells, which does not depend
        on the order of entries or rows.
        """
        m = outcomes.size
        self._col_vocab = vocabs
        self._outcomes = outcomes
        distinct_of_row = np.zeros(int(entry_row.max()) + 1, dtype=np.intp)
        for data in columns:
            # Renumber the rows by the columns so far; numbers stay below R.
            codes = np.unique(data, return_inverse=True)[1]
            distinct_of_row = np.unique(distinct_of_row * (codes.max() + 1) + codes, return_inverse=True)[1]
        self._distinct_of = distinct_of_row[entry_row]
        u, k = int(self._distinct_of.max()) + 1, len(schema.outcome_labels)
        self._distinct_entry = np.empty(u, dtype=np.intp)
        self._distinct_entry[self._distinct_of] = np.arange(m)
        picked = entry_row[self._distinct_entry]
        # Adding +0.0 stores -0.0 as +0.0, so a row's cells do not depend on which of its entries came last.
        self._col_data = [np.asarray(data, dtype=np.float64)[picked] + 0.0 if vocab is None
                          else data[picked].astype(np.min_scalar_type(-len(vocab)))
                          for data, vocab in zip(columns, vocabs)]
        # Each entry's flat (distinct row, outcome) cell of the U x K count matrix.
        self._vote_cell = self._distinct_of * k + outcomes
        self._label_counts = np.bincount(self._vote_cell, minlength=u * k).reshape(u, k).astype(np.float64)
        # Each continuous column's (min, max), as Python floats, which tell where match scores need their clamp.
        self._col_bounds = [(float(column.min()), float(column.max())) if spec.kind == CONTINUOUS else None
                            for spec, column in zip(schema.attributes, self._col_data)]
        attrs = tuple(
            replace(spec, range_width=bounds[1] - bounds[0]) if bounds else spec
            for spec, bounds in zip(schema.attributes, self._col_bounds)
        )
        self.schema = Schema(attrs, schema.outcome_labels)
        self.total_weight = self.schema.total_weight

    @cached_property
    def _equality_groups(self) -> tuple[list, np.ndarray, np.ndarray] | None:
        """The distinct rows grouped by their cells in the equality columns
        (categorical, or continuous of zero width): each group's cell per such
        column (None for others), the rows in group order (then row order), and
        each group's offset into them; None with one group or one kind of column."""
        equal = [spec.kind == CATEGORICAL or spec.range_width == 0.0 for spec in self.schema.attributes]
        if all(equal):
            return None
        group_of = np.zeros(self._distinct_entry.size, dtype=np.intp)
        for vocab, data in zip(self._col_vocab, self._col_data):
            if vocab is not None:  # a zero-width column holds one value
                group_of = np.unique(group_of * len(vocab) + data.astype(np.intp), return_inverse=True)[1]
        order = np.argsort(group_of, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(group_of))))
        if offsets.size < 3:
            return None
        first = order[offsets[:-1]]
        return [data[first] if eq else None for eq, data in zip(equal, self._col_data)], order, offsets

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
            raise DataError(f"query has {len(cells)} cells, schema has {self.n_attributes} attributes")
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


def _code_categorical(cells: Sequence[str], vocab: dict, grow: bool) -> np.ndarray:
    """The cells' codes in ``vocab`` (category -> code), which first takes
    in the cells it lacks, in first-seen order, if ``grow``."""
    if grow:
        for cell in dict.fromkeys(cells):
            vocab.setdefault(cell, len(vocab))
    try:
        return np.fromiter(map(vocab.__getitem__, cells), dtype=np.intp, count=len(cells))
    except KeyError:
        raise _BadCell(next(i for i, c in enumerate(cells) if c not in vocab)) from None


def _parse_continuous(cells: Sequence[str]) -> np.ndarray:
    """The cells as finite floats; _BadCell names the first that is not one."""
    try:
        data = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except (TypeError, ValueError):
        data = None
    if data is None or not np.isfinite(data).all():
        raise _BadCell(next(i for i, c in enumerate(cells) if _parse_finite(c) is None))
    return data


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
    """The JSON document in ``source``; malformed or too deeply nested text,
    or an integer too long to convert, raises ``error_cls``."""
    try:
        return json.loads(_read_text(source))
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise error_cls(f"invalid {what} file: {exc}") from None


def _dedupe(items: Iterable) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct items in first-seen order, each item's index among them,
    and the position where each distinct item first appears."""
    index: dict = {}
    line_of = np.fromiter((index.setdefault(item, len(index)) for item in items), dtype=np.intp)
    # Indices are handed out in first-seen order, so an item first appears
    # exactly where the running maximum index grows.
    return list(index), line_of, np.flatnonzero(np.diff(np.maximum.accumulate(line_of), prepend=-1))


def _split_csv(text: str) -> tuple[list[str], list, np.ndarray, np.ndarray]:
    """The header, the distinct data lines in first-seen order, each data
    line's distinct index (``line_of``), and the data row where each
    distinct line first appears (``first_row``).

    Text with no quote and no CR, whose data lines each hold as many
    non-empty cells as the header, is split on newlines: its distinct lines
    are strings, which ``load_table`` splits on commas. Any other text is
    read by csv.reader one row at a time: its distinct lines are tuples of
    cells, perhaps ragged or empty, for ``load_table`` to diagnose. NUL is
    refused on either path, as csv.reader does before Python 3.11.
    """
    if "\x00" in text:
        line = text.count("\n", 0, text.index("\x00")) + 1
        raise DataError(f"malformed CSV at line {line}: line contains NUL")
    if '"' not in text and "\r" not in text:
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        # After the header, an empty cell is ",," or a comma at a line's end or start.
        if len(lines) > 1 and not text.endswith(",") and all(
                text.find(edge, len(lines[0])) < 0 for edge in (",,", ",\n", "\n,")):
            header = lines[0].split(",")
            distinct, line_of, first_row = _dedupe(islice(lines, 1, None))
            if all(line.count(",") == len(header) - 1 for line in distinct):
                return header, distinct, line_of, first_row
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError("empty table: no header row")
        distinct, line_of, first_row = _dedupe(map(tuple, reader))
    except csv.Error as exc:
        raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    if not distinct:
        raise DataError("empty table: no data rows")
    return header, distinct, line_of, first_row


def _chunk_columns(lines: list, width: int, picked: list[int]) -> list[list[str]]:
    """The cells of distinct lines from ``_split_csv`` in each column ``picked``."""
    cells = ",".join(lines).split(",") if isinstance(lines[0], str) else list(chain.from_iterable(lines))
    return [cells[i::width] for i in picked]


def load_table(source, schema: Schema | None = None, outcome_column: str | None = None, *,
               extend_labels: bool = False) -> TrainingTable:
    """Load a CSV (header row, outcome column last unless named) into a table.

    When ``schema`` is omitted it is inferred: a column is continuous if
    every cell is a finite float, else categorical in first-seen order.
    Distinct lines are typed and coded once, ``_LOAD_CHUNK_LINES`` at a
    time, straight into one array per column, so the cell strings alive at
    once grow with the chunk, not the table. Rejected with line-numbered
    diagnostics that name the first bad cell in file order (ragged rows and
    empty cells before all others): unparseable or non-finite continuous
    cells, categories or outcome labels outside an explicit schema (with
    ``extend_labels``, such labels follow the schema's in first-seen order).
    """
    header, distinct, line_of, first_row = _split_csv(_read_text(source))
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
    if not isinstance(distinct[0], str):  # rows from csv.reader
        for row, first in zip(distinct, first_row.tolist()):
            if len(row) != width:
                raise DataError(f"ragged row at line {first + 2}: expected {width} cells, got {len(row)}")
            if "" in row:
                raise DataError(f"empty cell at line {first + 2}: missing values are not supported")

    attr_cols = [i for i in range(width) if i != out_idx]
    if schema is not None and schema.n_attributes != len(attr_cols):
        raise DataError(f"schema has {schema.n_attributes} attributes, file has {len(attr_cols)}")
    # The coded columns: the attributes, then the outcome as a categorical
    # column. A spec of None is inferred. A column has a vocabulary
    # (category -> code) unless it is continuous, or taken to be so far.
    cols = attr_cols + [out_idx]
    given = list(schema.attributes) if schema is not None else [None] * len(attr_cols)
    given.append(AttributeSpec(header[out_idx], CATEGORICAL,
                               categories=None if schema is None else schema.outcome_labels))
    vocabs = [None if spec is None or spec.kind == CONTINUOUS else {c: k for k, c in enumerate(spec.categories or ())}
              for spec in given]
    n, step = len(distinct), _LOAD_CHUNK_LINES
    data = [np.empty(n, dtype=np.float64 if vocab is None else np.intp) for vocab in vocabs]
    # (distinct line, coded column, cell) of each bad cell in the first chunk
    # that has one; distinct lines are in first-seen order, so the least is
    # the first in file order.
    bad: list[tuple[int, int, str]] = []
    for start in range(0, n, step):
        columns = _chunk_columns(distinct[start:start + step], width, cols)
        demoted = []
        for j, column in enumerate(columns):
            if vocabs[j] is None:
                try:
                    data[j][start:start + step] = _parse_continuous(column)
                except _BadCell as exc:
                    if given[j] is not None:
                        bad.append((start + exc.row, j, column[exc.row]))
                    else:  # to be coded as categories, from the first chunk on
                        demoted.append(j)
                        vocabs[j], data[j] = {}, np.empty(n, dtype=np.intp)
        if demoted:
            for before in range(0, start, step):
                earlier = _chunk_columns(distinct[before:before + step], width, [cols[j] for j in demoted])
                for j, column in zip(demoted, earlier):
                    data[j][before:before + step] = _code_categorical(column, vocabs[j], True)
        for j, column in enumerate(columns):
            if vocabs[j] is not None:
                try:
                    grow = given[j] is None or given[j].categories is None or (extend_labels and j == len(attr_cols))
                    data[j][start:start + step] = _code_categorical(column, vocabs[j], grow)
                except _BadCell as exc:
                    bad.append((start + exc.row, j, column[exc.row]))
        if bad:
            u, j, cell = min(bad)
            line = first_row[u] + 2
            if j == len(attr_cols):
                raise DataError(f"unknown outcome label {cell!r} at line {line}")
            what = "cannot parse continuous cell" if vocabs[j] is None else "unknown category"
            raise DataError(f"{what} {cell!r} at line {line}, column {given[j].name!r}")
    del distinct, columns  # every line is coded; free the strings before the table is built
    if schema is None:
        specs = (AttributeSpec(header[i], CONTINUOUS) if vocab is None
                 else AttributeSpec(header[i], CATEGORICAL, categories=tuple(vocab))
                 for i, vocab in zip(attr_cols, vocabs))
        schema = Schema(tuple(specs), tuple(vocabs[-1]))
    elif extend_labels:
        schema = Schema(schema.attributes, tuple(vocabs[-1]))
    return TrainingTable._from_columns(schema, data[:-1], vocabs[:-1], line_of, data[-1][line_of])


def validate_query(raw_cells: Sequence[str], schema: Schema) -> Query:
    """Turn raw text cells into a typed Query against the schema.

    Unseen categorical values are accepted (they simply match nothing);
    continuous cells must parse as finite reals; arity must match.
    """
    if len(raw_cells) != schema.n_attributes:
        raise DataError(f"query has {len(raw_cells)} cells, schema has {schema.n_attributes} attributes")
    typed = []
    for cell, spec in zip(raw_cells, schema.attributes):
        if spec.kind == CONTINUOUS:
            value = _parse_finite(cell)
            if value is None:
                raise DataError(f"cannot parse continuous cell {cell!r} for attribute {spec.name!r}")
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
    """Build the Schema a schema document describes; AttributeSpec and Schema check its values."""
    if not isinstance(payload, dict):
        raise DataError("schema document must be a JSON object")
    if payload.get("version") != SCHEMA_FILE_VERSION:
        raise DataError(f"unsupported schema file version {payload.get('version')!r}")
    entries = payload.get("attributes", [])
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise DataError("schema attributes must be a list of objects")
    attrs = [AttributeSpec(entry.get("name"), entry.get("kind"), entry.get("weight", 1.0), entry.get("categories"))
             for entry in entries]
    return Schema(attrs, payload.get("outcome_labels", []))


def load_schema(path) -> Schema:
    return schema_from_dict(_read_json(path, DataError, "schema"))
