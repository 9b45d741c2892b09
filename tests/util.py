"""Shared test helpers: random instance families and brute-force oracles.

The oracles here are deliberately independent re-implementations (plain
loops, no numpy vector paths) so the production code is checked against
something that cannot share its bugs.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fieldpred import (
    AttributeSpec,
    DataError,
    DensityModel,
    HarnessError,
    Kernel,
    Prediction,
    PredictorError,
    Query,
    Schema,
    SyntheticSpec,
    TrainingTable,
    backtrack_tie_break,
    predict,
)
from fieldpred.dataset import CATEGORICAL, CONTINUOUS, _is_real
from fieldpred.predictors import REL_TIE_TOL, _level_table
from fieldpred.similarity import match_encoded, match_vectors

LABEL_POOL = ("A", "B", "C")


def random_categorical_instance(rng: np.random.Generator, max_entries: int = 30):
    """A random categorical table plus a query drawn from the same alphabets."""
    n_attrs = int(rng.integers(1, 6))
    n_labels = int(rng.integers(1, 4))
    m = int(rng.integers(2, max_entries + 1))
    alphabet_sizes = [int(rng.integers(1, 4)) for _ in range(n_attrs)]
    attrs = tuple(
        AttributeSpec(name=f"x{j}", kind="categorical") for j in range(n_attrs)
    )
    schema = Schema(attrs, LABEL_POOL[:n_labels])
    rows = [
        tuple(str(rng.integers(0, alphabet_sizes[j])) for j in range(n_attrs))
        for _ in range(m)
    ]
    outcomes = [int(rng.integers(0, n_labels)) for _ in range(m)]
    query = Query(tuple(str(rng.integers(0, alphabet_sizes[j])) for j in range(n_attrs)))
    return TrainingTable(schema, rows, outcomes), query


def random_continuous_instance(rng: np.random.Generator, max_entries: int = 30):
    """A random all-continuous table plus a query; resamples until the
    query's distances to the entries are pairwise distinct."""
    n_attrs = int(rng.integers(1, 5))
    n_labels = int(rng.integers(2, 4))
    m = int(rng.integers(2, max_entries + 1))
    attrs = tuple(AttributeSpec(name=f"x{j}", kind="continuous") for j in range(n_attrs))
    schema = Schema(attrs, LABEL_POOL[:n_labels])
    while True:
        rows = [tuple(float(v) for v in rng.uniform(0, 10, n_attrs)) for _ in range(m)]
        outcomes = [int(rng.integers(0, n_labels)) for _ in range(m)]
        table = TrainingTable(schema, rows, outcomes)
        query = Query(tuple(float(v) for v in rng.uniform(0, 10, n_attrs)))
        dists = [brute_distance(query, table, i) for i in range(m)]
        if len(set(dists)) == m:
            return table, query


def random_mixed_instance(rng: np.random.Generator, max_entries: int = 30):
    """A random table of categorical and continuous columns with repeated
    rows, plus queries that include unseen categories and off-grid reals."""
    kinds = [str(rng.choice(["categorical", "continuous"])) for _ in range(int(rng.integers(1, 5)))]
    n_labels = int(rng.integers(1, 4))
    m = int(rng.integers(2, max_entries + 1))
    schema = Schema(tuple(AttributeSpec(f"x{j}", kind) for j, kind in enumerate(kinds)), LABEL_POOL[:n_labels])
    grid = [0.0, 0.5, 1.0 / 3.0, 2.0, -1.25]

    def row(n_cats: int, shift: float):
        return tuple(
            str(rng.integers(0, n_cats)) if kind == "categorical" else grid[int(rng.integers(0, len(grid)))] + shift
            for kind in kinds
        )

    distinct = [row(3, 0.0) for _ in range(int(rng.integers(1, m + 1)))]
    rows = [distinct[int(rng.integers(0, len(distinct)))] for _ in range(m)]
    outcomes = [int(rng.integers(0, n_labels)) for _ in range(m)]
    queries = [Query(row(4, 0.1)) for _ in range(3)] + [Query(r) for r in distinct[:2]]
    return TrainingTable(schema, rows, outcomes), queries


def brute_distance(query: Query, table: TrainingTable, row: int) -> float:
    """Matching distance via a plain per-column loop."""
    score = 0.0
    for j, spec in enumerate(table.schema.attributes):
        q, t = query.values[j], table.values[row][j]
        if spec.kind == "categorical":
            cms = 1.0 if q == t else 0.0
        else:
            width = spec.range_width
            if width == 0.0:
                cms = 1.0 if q == t else 0.0
            else:
                cms = 1.0 - abs(q - t) / width
                cms = min(1.0, max(0.0, cms))
        score += spec.weight * cms
    return max(table.total_weight - score, 0.0)


def brute_delanga(table: TrainingTable, query: Query) -> str:
    """Exhaustive level construction: majority at the champion level,
    count ties resolved by walking outward, then by label order."""
    labels = table.schema.outcome_labels
    dists = [brute_distance(query, table, i) for i in range(table.n_entries)]
    levels = sorted(set(dists))
    per_level = []
    for level in levels:
        counter = Counter(
            table.outcomes[i] for i, d in enumerate(dists) if d == level
        )
        per_level.append([counter.get(k, 0) for k in range(len(labels))])
    champion = per_level[0]
    best = max(champion)
    tied = [k for k, c in enumerate(champion) if c == best]
    for level_counts in per_level[1:]:
        if len(tied) == 1:
            break
        sub_best = max(level_counts[k] for k in tied)
        tied = [k for k in tied if level_counts[k] == sub_best]
    return labels[tied[0]]


def brute_one_nn(table: TrainingTable, query: Query) -> str:
    """1-nearest-neighbour by matching distance; caller guarantees a
    unique minimum."""
    dists = [brute_distance(query, table, i) for i in range(table.n_entries)]
    best = min(range(table.n_entries), key=lambda i: dists[i])
    return table.schema.outcome_labels[table.outcomes[best]]


def per_row_accuracy(model, test_table: TrainingTable) -> float:
    """Accuracy with one prediction per test entry, in row order."""
    labels = test_table.schema.outcome_labels
    correct = sum(
        predict(model, Query(row)).winner == labels[outcome]
        for row, outcome in zip(test_table.values, test_table.outcomes)
    )
    return correct / test_table.n_entries


@dataclass(frozen=True)
class MatchScores:
    """Entry match score, matching distance, optional per-column scores."""

    ems: float
    dm: float
    per_column: tuple[float, ...] | None = None


def column_match_score(query_cell, entry_cell, spec: AttributeSpec) -> float:
    if spec.kind == CATEGORICAL:
        if not isinstance(query_cell, str) or not isinstance(entry_cell, str):
            raise DataError(f"attribute {spec.name!r} is categorical, cells must be strings")
        return 1.0 if query_cell == entry_cell else 0.0
    if not _is_real(query_cell) or not _is_real(entry_cell):
        raise DataError(f"attribute {spec.name!r} is continuous, cells must be reals")
    width = spec.range_width
    if width is None:
        raise DataError(f"attribute {spec.name!r} has no range_width; build a table first")
    if width == 0.0:
        return 1.0 if query_cell == entry_cell else 0.0
    raw = 1.0 - abs(query_cell - entry_cell) / width
    if raw < 0.0:
        return 0.0
    if raw > 1.0:
        return 1.0
    return raw


def entry_match_score(query: Query, table: TrainingTable, row: int, trace: bool = False) -> MatchScores:
    """Score one training entry against the query."""
    entry = table.values[row]  # IndexError on bad row is intentional
    score = 0.0
    per_column = [] if trace else None
    for j, spec in enumerate(table.schema.attributes):
        cms = column_match_score(query.values[j], entry[j], spec)
        if per_column is not None:
            per_column.append(cms)
        score += spec.weight * cms
    dm = max(table.total_weight - score, 0.0)
    return MatchScores(ems=score, dm=dm, per_column=tuple(per_column) if trace else None)


def all_match_scores(query: Query, table: TrainingTable, trace: bool = False) -> list[MatchScores]:
    """MatchScores for every entry, in row order."""
    ems, dm = match_vectors(query, table)
    if not trace:
        rows = table._distinct_of
        return [MatchScores(ems=float(e), dm=float(d)) for e, d in zip(ems[rows], dm[rows])]
    return [entry_match_score(query, table, i, trace=True) for i in range(table.n_entries)]


def naive_reference_predict(
    table: TrainingTable,
    query: Query,
    kernel: Kernel,
    density: DensityModel | None = None,
) -> Prediction:
    """Field-superposition prediction as the most literal possible loop.

    Independent of the production path on purpose: per-cell match scores,
    per-entry sums, scalar kernel formulas, and a dict accumulator, all in
    plain Python. Used as the oracle the vectorized rasturnat is checked
    against.
    """
    labels = table.schema.outcome_labels
    tos = {label: 0.0 for label in labels}
    total_weight = table.total_weight
    for i in range(table.n_entries):
        score = 0.0
        for j, spec in enumerate(table.schema.attributes):
            q, t = query.values[j], table.values[i][j]
            if spec.kind == CATEGORICAL:
                cms = 1.0 if q == t else 0.0
            else:
                width = spec.range_width
                if width == 0.0:
                    cms = 1.0 if q == t else 0.0
                else:
                    cms = 1.0 - abs(q - t) / width
                    if cms < 0.0:
                        cms = 0.0
                    elif cms > 1.0:
                        cms = 1.0
            score += spec.weight * cms
        d = max(total_weight - score, 0.0)
        ets = _naive_kernel_value(kernel, d)
        if density is not None:
            ets = float(density.dcf[i]) * ets
        tos[labels[table.outcomes[i]]] += ets

    total = math.fsum(tos.values())
    best = max(tos.values())
    tied = [label for label in labels if tos[label] >= best - best * REL_TIE_TOL]
    winner = tied[0]
    likelihoods = {label: tos[label] / total for label in labels}
    return Prediction(dict(tos), likelihoods, winner, 1 if len(tied) > 1 else 0)


def reference_winner(tos: np.ndarray, tol: float) -> tuple[int, int]:
    """The numpy band check on float64 scalars: the first label within ``tol``
    (relative) of the best score, and a 0/1 tie flag. A non-finite best
    raises ``PredictorError`` as ``predict`` does."""
    best = float(tos.max())
    if not math.isfinite(best):
        raise PredictorError(f"outcome score overflows to {best}: the kernel's mld is too large for this table")
    tied = np.flatnonzero(tos >= best - best * tol)
    return int(tied[0]), int(tied.size > 1)


def reference_prediction(labels: Sequence[str], tos: np.ndarray, winner: str, tie_depth: int) -> Prediction:
    """Scores and likelihoods as numpy's float64 scalars make them, total
    included; a non-finite total raises ``PredictorError`` as ``predict`` does."""
    total = tos.sum()
    if not math.isfinite(total):
        raise PredictorError(f"outcome scores sum to {total}: the kernel's mld is too large for this table")
    return Prediction({label: float(tos[k]) for k, label in enumerate(labels)},
                      {label: float(tos[k] / total) for k, label in enumerate(labels)}, winner, tie_depth)


def reference_predict(model, query: Query) -> Prediction:
    """``predict`` by a full scan of the U rows and the numpy reduction:
    rasturnat re-scores a band tie per distance level, delanga walks a count
    tie through the levels, and nearest gives it to label order."""
    dm = match_vectors(query, model.table)[1]
    labels = model.table.schema.outcome_labels
    if model.predictor_kind == "rasturnat":
        tos = model.kernel.evaluate(dm) @ model.votes
        winner, tie = reference_winner(tos, REL_TIE_TOL)
        if tie:
            levels, per_level = _level_table(dm, model.votes)
            tos = (model.kernel.evaluate(levels)[:, None] * per_level).sum(axis=0)
            winner, tie = reference_winner(tos, REL_TIE_TOL)
        return reference_prediction(labels, tos, labels[winner], tie)
    counts = model.votes[dm == dm.min()].sum(axis=0)
    winner, tie = reference_winner(counts, 0.0)
    if tie and model.predictor_kind == "delanga":
        return reference_prediction(labels, counts, *backtrack_tie_break(_level_table(dm, model.votes)[1], labels))
    return reference_prediction(labels, counts, labels[winner], tie)


@dataclass(frozen=True)
class ScaledKernel:
    """A kernel with every value multiplied by ``factor``: the field of each
    label scales alike, so no winner or likelihood may move."""

    kernel: Kernel
    factor: float

    def evaluate(self, d):
        return self.kernel.evaluate(d) * self.factor


def _naive_kernel_value(kernel: Kernel, d: float) -> float:
    """Scalar kernel formulas written out independently of Kernel.evaluate."""
    kind = kernel.kind
    if kind == "pow_2":
        value = 2.0 ** (-d)
    elif kind == "pow_e":
        value = math.exp(-d)
    elif kind == "gauss":
        value = math.exp(-(d * d))
    elif kind == "bridge":
        value = kernel.mld ** (-d)
    elif kind == "spliced":
        if d == 0.0:
            value = kernel.mld * _naive_kernel_value(kernel.base, 1.0)
        else:
            value = _naive_kernel_value(kernel.base, d)
    elif kind == "adj_pow_2":
        value = 1.0 / (2.0**d + kernel.adrez)
    elif kind == "inv_additive_residue":
        if kernel.grow_kind == "pow_2":
            g = 2.0**d
        elif kernel.grow_kind == "pow_e":
            g = math.exp(d)
        elif kernel.grow_kind == "square":
            g = d * d
        else:
            g = d
        value = 1.0 / (kernel.adrez + g)
    elif kind == "newton":
        value = 1.0 / (1.0 / kernel.mld + d * d)
    elif kind in ("decay_a", "decay_b"):
        power = 1 if kind == "decay_a" else 2
        whole = int(math.floor(d))
        h = 0.0
        for i in range(1, whole + 1):
            h += 1.0 / i**power
        h += (d - whole) / (whole + 1) ** power
        value = kernel.mld ** (-h)
    else:  # pragma: no cover
        raise HarnessError(f"unknown kernel kind {kind!r}")
    return value


def reference_density_model(table: TrainingTable, kernel: Kernel) -> DensityModel:
    """The density fit one distinct row at a time, each row's U terms summed
    by ``math.fsum``: the plain loop the blocked fit must reproduce bit for bit."""
    m = table.n_entries
    multiplicity = table._label_counts.sum(axis=1)
    row_tss = np.empty(multiplicity.size, dtype=np.float64)
    coded_rows = zip(*(column.tolist() for column in table._col_data))
    for u, row in enumerate(coded_rows):
        _, dm = match_encoded(row, table)
        row_tss[u] = math.fsum(kernel.evaluate(dm) * multiplicity)
    tss = row_tss[table._distinct_of]
    sts = math.fsum(tss)
    return DensityModel(tss=tss, sts=sts, stavg=sts / m, dcf=sts / (m * tss))


#: Header used for the synthesized outcome column when a table is written
#: back to CSV (the original header name is not retained by Schema).
OUTCOME_HEADER = "outcome"


def serialize_table(table: TrainingTable) -> bytes:
    """Write the table back to CSV bytes; floats keep full round-trip precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([spec.name for spec in table.schema.attributes] + [OUTCOME_HEADER])
    for row, outcome in zip(table.values, table.outcomes):
        cells = [cell if isinstance(cell, str) else repr(cell) for cell in row]
        writer.writerow(cells + [table.schema.outcome_labels[outcome]])
    return buf.getvalue().encode("utf-8")


def _finite_float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _reference_codes(cells: Sequence[str], categories: Sequence[str] | None) -> tuple[dict, list[int]]:
    """The vocabulary (the given categories, else first-seen order) and each cell's code, -1 outside it."""
    vocab: dict = {}
    for cell in (cells if categories is None else categories):
        if cell not in vocab:
            vocab[cell] = len(vocab)
    return vocab, [vocab.get(cell, -1) for cell in cells]


def csv_reference_load_table(text: str, schema: Schema | None = None,
                             outcome_column: str | None = None) -> TrainingTable:
    """``load_table`` as a csv.reader pass that types every row, not each
    distinct line once: the reference its split-based loader is checked
    against."""
    reader = csv.reader(io.StringIO(text))
    try:
        raw = list(reader)
    except csv.Error as exc:
        raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from None
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
        if "" in row:
            raise DataError(f"empty cell at line {k}: missing values are not supported")
    columns = list(zip(*data))
    attr_cols = [i for i in range(width) if i != out_idx]
    if schema is not None and schema.n_attributes != len(attr_cols):
        raise DataError(f"schema has {schema.n_attributes} attributes, file has {len(attr_cols)}")
    specs, vocabs, coded, bad = [], [], [], []
    given = schema.attributes if schema is not None else [None] * len(attr_cols)
    for j, (i, spec) in enumerate(zip(attr_cols, given)):
        cells = columns[i]
        floats = [_finite_float(cell) for cell in cells]
        if spec is None:
            spec = (AttributeSpec(header[i], CONTINUOUS) if None not in floats
                    else AttributeSpec(header[i], CATEGORICAL, categories=tuple(dict.fromkeys(cells))))
        if spec.kind == CATEGORICAL:
            vocab, codes = _reference_codes(cells, spec.categories)
            if -1 in codes:
                row = codes.index(-1)
                bad.append((row, j, f"unknown category {cells[row]!r} at line {row + 2}, column {spec.name!r}"))
            vocabs.append(vocab)
            coded.append(np.array(codes, dtype=np.intp))
        else:
            if None in floats:
                row = floats.index(None)
                bad.append((row, j, f"cannot parse continuous cell {cells[row]!r} at line {row + 2}, column {spec.name!r}"))
            vocabs.append(None)
            coded.append(np.array([0.0 if v is None else v for v in floats], dtype=np.float64))
        specs.append(spec)
    label_index, outcomes = _reference_codes(columns[out_idx], None if schema is None else schema.outcome_labels)
    if -1 in outcomes:
        row = outcomes.index(-1)
        bad.append((row, len(attr_cols), f"unknown outcome label {columns[out_idx][row]!r} at line {row + 2}"))
    if bad:
        raise DataError(min(bad)[2])
    if schema is None:
        schema = Schema(tuple(specs), tuple(label_index))
    outcomes = np.array(outcomes, dtype=np.intp)
    return TrainingTable._from_columns(schema, coded, vocabs, np.arange(len(outcomes)), outcomes)


def expected_tos_rates(
    spec: SyntheticSpec, query_tuple: Sequence[str], weight_by_distance: Sequence[float]
) -> np.ndarray:
    """Per-label expected per-row vote at a query point.

    Entry i contributes weight w(d) in expectation, where d is the Hamming
    distance from the query tuple; the expected tos after m rows is m times
    this rate. Used to reason about asymptotic winners analytically.
    """
    q = tuple(str(v) for v in query_tuple)
    spec.tuple_index(q)
    rates = np.zeros(len(spec.labels), dtype=np.float64)
    for i, t in enumerate(spec.tuples):
        if spec.probs[i] == 0.0:
            continue
        d = sum(1 for a, b in zip(q, t) if a != b)
        rates += spec.probs[i] * spec.conditionals[i] * weight_by_distance[d]
    return rates


def as_version_2(payload: dict) -> dict:
    """A version 3 model document with ``counts``, rewritten in place as
    version 2: one ``entry_row`` and ``outcomes`` item per entry, listed in
    canonical order (distinct row, then label)."""
    counts = payload.pop("counts")
    cells = [(u, k) for u in range(payload["n_rows"]) for k, row in enumerate(counts) for _ in range(row[u])]
    payload.update(version=2, entry_row=[u for u, _ in cells], outcomes=[k for _, k in cells])
    return payload
