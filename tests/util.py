"""Shared test helpers: random instance families and brute-force oracles.

The oracles here are deliberately independent re-implementations (plain
loops, no numpy vector paths) so the production code is checked against
something that cannot share its bugs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from fieldpred import AttributeSpec, Query, Schema, TrainingTable, predict

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
