"""Correcting for uneven sampling density with per-entry compensation.

A field predictor counts votes, so a region that was simply sampled more
often shouts louder than a sparse one. The density model measures how
crowded each entry is (its similarity score against the whole table) and
rescales votes by average_crowding / own_crowding.
"""

from fieldpred import (
    AttributeSpec,
    Query,
    Schema,
    TrainingTable,
    compute_density_model,
    fit,
    make_kernel,
    predict,
)

# Five copies of one point, label A, against a single far row labelled B.
schema = Schema(
    tuple(AttributeSpec(f"x{j}", "categorical") for j in range(4)),
    ("A", "B"),
)
rows = [("0", "0", "0", "0")] * 5 + [("1", "1", "1", "1")]
table = TrainingTable(schema, rows, [0] * 5 + [1])

kernel = make_kernel("newton", table.n_entries)
density = compute_density_model(table, kernel)
print("per-entry crowding (tss) and compensation (dcf):")
for i, row in enumerate(table.values):
    label = schema.outcome_labels[table.outcomes[i]]
    print(f"  row {i} {row} -> {label}: tss={density.tss[i]:.4f} dcf={density.dcf[i]:.4f}")
print(f"table average crowding: {density.stavg:.4f}")
print()

# A query halfway between the cluster and the isolated row.
query = Query(("0", "0", "1", "1"))
plain = predict(fit(table, "rasturnat", "newton"), query)
compensated = predict(fit(table, "rasturnat", "newton", density=True), query)
print(f"query {query.values} sits two steps from both groups")
print(f"  raw votes:         {'  '.join(f'{k}={v:.4f}' for k, v in plain.scores.items())}"
      f"  -> {plain.winner}")
print(f"  density-weighted:  {'  '.join(f'{k}={v:.4f}' for k, v in compensated.scores.items())}"
      f"  -> {compensated.winner}")
print()
print("the cluster's five votes are each marked down, the lone row's vote is")
print("marked up: a 5:1 score margin collapses to nearly even, reflecting the")
print("two regions rather than their row counts")
