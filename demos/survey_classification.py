"""Presence/absence classification on the bundled survey file.

Loads the 495-station synthetic survey (lon/lat sites, four covariates,
binary presence label), makes an 80/20 stratified split, tunes the
neighbour counts for a few kernel pairs by leave-one-out correct
classification rate, and scores the held-out stations.

Run: python3 demos/survey_classification.py
"""

from spatialknn import (
    ParamGrid,
    ccr,
    cv_select_classification,
    default_grid,
    holdout_labels,
    load_survey,
    stratified_split,
)

data = load_survey()
# the file codes presence 0/1; read_dataset makes its codes, ascending,
# the classes 1..M and keeps them in label_values
present_class = data.label_values.index(1) + 1
absent_class = data.label_values.index(0) + 1
present = int((data.labels == present_class).sum())
print(f"{len(data)} stations, {present} with the species present "
      f"({present / len(data):.1%})")

train_idx, test_idx = stratified_split(data, 0.8, seed=0)
train, test = data.subset(train_idx), data.subset(test_idx)
print(f"split: {len(train)} training stations, {len(test)} held out")

base = default_grid(train, "knn")
print(f"neighbour-count grid: k in {base.k_values}, k' in {base.k_prime_values}")

print()
print(f"{'kernel pair':28s} {'tuned (k, k_prime)':>20s} {'test CCR':>9s} "
      f"{'present':>8s} {'absent':>7s}")
for k1, k2 in [
    ("biweight", "epanechnikov"),
    ("gaussian", "gaussian"),
    ("indicator", "indicator"),
    ("epanechnikov", "parzen"),
]:
    grid = ParamGrid(
        k_values=base.k_values,
        k_prime_values=base.k_prime_values,
        k1_specs=(k1,),
        k2_specs=(k2,),
    )
    params, _ = cv_select_classification(train, grid, "knn")
    report = ccr(test.labels, holdout_labels(train, test, params), 2)
    print(f"{k1 + ' * ' + k2:28s} {f'({params.k}, {params.k_prime})':>20s} "
          f"{report.overall:9.3f} {report.per_class[present_class - 1]:8.3f} "
          f"{report.per_class[absent_class - 1]:7.3f}")

print()
print("the CLI runs the full 6x6 kernel catalog plus the fixed-bandwidth")
print("comparator; see the classify command in the README.")
