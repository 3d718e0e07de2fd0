"""Walkthrough: measurement CSVs -> validated tree -> physiological ages.

Uses the small committed fixture tree (three axes, age 3). Run from the
repository root:

    python3 demos/01_ingest_and_classify.py
"""
from pathlib import Path

from fspm import (
    build_target_series,
    classify_axes,
    organ_census,
    parse_measurements,
    samples_by_gu,
    with_physio_ages,
)

data = Path(__file__).resolve().parent.parent / "tests" / "data" / "single"

ms = parse_measurements(
    data / "axes.csv", data / "gus.csv", data / "internodes.csv", data / "leaves.csv"
)
topology = ms.topology()
print(f"tree {topology.tree_id}: {len(topology.axes)} axes, age {topology.age}")
for axis in topology.axes_sorted():
    cas = f"{axis.first_ca}..{axis.last_ca}"
    print(f"  axis {axis.id}: parent={axis.parent_id}, GUs at cycles {cas}")

# Measurement rows are attached to their GUs once; clustering and targets
# both read that per-GU table.
samples = samples_by_gu(topology, ms.internodes, ms.leaves)

# Physiological ages come from clustering the terminal internode weights:
# the heaviest new growth is the main stem (PA 1).
pa_map, partition = classify_axes(topology, samples, k=3)
print("\ncluster means (g):", [round(m, 2) for m in partition.means])
print("assignments:", pa_map)

classified = with_physio_ages(topology, pa_map)
print("\norgan census per cycle:")
for cycle in range(1, classified.age + 1):
    print(f"  cycle {cycle}:", dict(sorted(organ_census(classified, cycle).items())))

# Later stages read each axis's PA off the classified topology.
targets = build_target_series(samples, classified)
print("\nper-(PA, CA) mean internode weight (g):")
for (pa, ca), entry in sorted(targets.entries.items()):
    print(f"  PA{pa} CA{ca}: {entry.mean_internode_weight:.3g} g "
          f"(n={entry.n_internodes})")
print("\ncumulated internode mass (g):",
      [round(targets.cumulated[c].cum_internode_mass, 1)
       for c in sorted(targets.cumulated)])
