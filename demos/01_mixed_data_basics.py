"""Load a mixed categorical/continuous table and query both predictor families.

Everything downstream works on one similarity notion: each attribute
contributes a match score in [0,1] (exact equality for categories, range
overlap for numbers), and an entry's distance is the weight it failed to
match. This script walks that pipeline end to end.
"""

from fieldpred import Query, explain, fit, load_table, predict

CSV = b"""color,size,label
red,1.0,yes
red,2.0,yes
blue,3.0,no
blue,4.0,no
green,2.5,yes
"""

table = load_table(CSV)
print(f"loaded {table.n_entries} entries, {table.n_attributes} attributes")
for spec in table.schema.attributes:
    extra = f"categories={spec.categories}" if spec.kind == "categorical" else f"range_width={spec.range_width}"
    print(f"  {spec.name}: {spec.kind} ({extra})")
print(f"outcomes: {table.schema.outcome_labels}")
print()

# The proximity predictor answers from the closest entries only.
proximity = fit(table, "delanga")
query = Query(("red", 1.5))
p = predict(proximity, query)
print(f"delanga on {query.values}:")
print(f"  winner={p.winner} likelihoods={p.likelihoods}")
why = explain(proximity, query)
print(f"  champion rows {why.champion_rows} at distance {why.champion_distance}")
print()

# The field predictor lets every entry vote, discounted by distance.
field = fit(table, "rasturnat", "newton")
p = predict(field, query)
print(f"rasturnat/newton on {query.values}:")
print(f"  winner={p.winner}")
for label, score in p.scores.items():
    print(f"  tos[{label}] = {score:.6f} (likelihood {p.likelihoods[label]:.4f})")
# explain gives the level table: each distinct distance, the label votes there, and the kernel value.
why = explain(field, query)
for level, votes, value in zip(why.levels, why.votes, why.kernel_values):
    print(f"  d={level:.4f}: votes {dict(zip(field.table.schema.outcome_labels, votes.tolist()))} x kernel {value:.4f}")
print()

# Unseen category values are legal queries; they simply match nothing
# in that column, so the numeric column decides.
novel = Query(("purple", 3.2))
print(f"novel-category query {novel.values}:")
print(f"  delanga -> {predict(proximity, novel).winner}")
print(f"  rasturnat -> {predict(field, novel).winner}")
