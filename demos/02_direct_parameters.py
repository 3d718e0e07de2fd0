"""Walkthrough: estimating the directly measurable parameters.

Internode sinks are slopes through the origin of internode mass against
blade mass; shape coefficients come from a log-log fit of length against
mass; specific leaf weight pools every sampled blade into one ratio.

    python3 demos/02_direct_parameters.py
"""
from pathlib import Path

from fspm import (
    classify_axes,
    estimate_direct_params,
    parse_measurements,
    samples_by_gu,
    with_physio_ages,
)

data = Path(__file__).resolve().parent.parent / "tests" / "data" / "grove"

ms = parse_measurements(
    data / "axes.csv", data / "gus.csv", data / "internodes.csv", data / "leaves.csv"
)
print("trees in files:", ms.tree_ids())

# Pool the four trees: a single tree has only one main stem, so PA 1 needs
# several trees before its sink ratio can be regressed.  Each classified
# tree travels with its own measurements.
trees = []
for tid in ms.tree_ids():
    sub = ms.for_tree(tid)
    topology = sub.topology()
    samples = samples_by_gu(topology, sub.internodes, sub.leaves)
    pa_map, _ = classify_axes(topology, samples, k=3)
    trees.append((with_physio_ages(topology, pa_map), sub))

dp, diagnostics = estimate_direct_params(trees)

print(f"\nspecific leaf weight: {dp.slw:.4f} g/cm^2")
print("per-PA estimates (blade sink is the reference, 1):")
for pa in sorted(dp.p_int):
    b, beta = dp.allometry[pa]
    d = diagnostics[pa]
    print(
        f"  PA{pa}: sink p={dp.p_int[pa]:.3f} (r2={d['sink_r2']:.4f}, "
        f"n={int(d['sink_n'])}), length = {b:.2f} * mass^{beta:.3f} "
        f"(r2={d['allometry_r2']:.4f})"
    )
