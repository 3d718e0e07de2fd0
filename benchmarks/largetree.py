"""Seeded generator of the large-tree measurement CSVs.

This module never imports fspm: the benchmark inputs depend on the seed
alone, so no change to the program under test can alter them.  The trees
follow one deterministic branching rule (every GU of a PA-p axis bears
``BRANCHES_PER_GU`` PA-(p+1) children whose first GU appears the next cycle,
up to ``P_MAX``); only the measured weights, lengths, diameters and leaf
samples carry seeded noise.  Top-GU internode weights are graded by PA and
far apart relative to the noise, so ``classify-pa --k 4`` recovers the
generating PAs and the root sits alone in PA 1.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

P_MAX = 4
INTERNODES_PER_GU = 2
BRANCHES_PER_GU = 2
TREES = (("L1", 10), ("L2", 8))  # (tree_id, age): 835 and 379 axes

TOP_WEIGHT = {1: 9.0, 2: 5.0, 3: 2.6, 4: 1.3}  # g, internode in a top GU
SINK_RATIO = {1: 0.56, 2: 0.73, 3: 0.86, 4: 0.95}  # internode / blade mass
ALLOMETRY = {1: (5.0, 0.30), 2: (7.0, 0.35), 3: (9.0, 0.40), 4: (11.0, 0.45)}
SLW = 0.0287  # g/cm^2
RING_GAIN = 0.15  # relative internode weight gained per year below the top
NOISE = 0.04  # half-width of the multiplicative uniform noise
LEAF_SAMPLES = 2  # sampled blades per GU

FILES = ("axes.csv", "gus.csv", "internodes.csv", "leaves.csv")


def axes_of(age: int, p_max: int = P_MAX, branches: int = BRANCHES_PER_GU):
    """Axes in creation order as (axis_id, parent_id, insertion_ca, pa, first_ca)."""
    queue = [("a000001", None, None, 1, 1)]
    head = 0
    while head < len(queue):
        axis_id, _, _, pa, first_ca = queue[head]
        head += 1
        if pa < p_max:
            for ca in range(first_ca, age):
                for _ in range(branches):
                    queue.append((f"a{len(queue) + 1:06d}", axis_id, ca, pa + 1, ca + 1))
    return queue


def internode_count(age: int, p_max: int = P_MAX, internodes_per_gu: int = INTERNODES_PER_GU,
                    branches: int = BRANCHES_PER_GU) -> int:
    """Internodes the branching rule lays down by ``age``, counted per cohort.

    Counts axes per (PA, first cycle) instead of enumerating them, so it is
    cheap at ages where the tree holds millions of organs.
    """
    starts = {(1, 1): 1}
    total = 0
    for s in range(1, age + 1):
        for pa in range(1, p_max + 1):
            n = starts.get((pa, s), 0)
            if not n:
                continue
            total += n * internodes_per_gu * (age - s + 1)
            if pa < p_max:
                for ca in range(s, age):
                    key = (pa + 1, ca + 1)
                    starts[key] = starts.get(key, 0) + n * branches
    return total


def generate(seed: int, trees=TREES) -> dict[str, str]:
    """The four measurement CSV texts, keyed by file name."""
    rng = random.Random(seed)

    def noisy(value: float, half_width: float = NOISE) -> float:
        return value * (1.0 + half_width * (2.0 * rng.random() - 1.0))

    axes = ["tree_id,axis_id,parent_axis_id,insertion_ca"]
    gus = ["tree_id,axis_id,gu_ca,internode_count,leaf_scar_count"]
    internodes = ["tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm"]
    leaves = ["tree_id,axis_id,gu_ca,sample_index,fresh_weight_g,area_cm2"]
    for tree_id, age in trees:
        for axis_id, parent, ins_ca, pa, first_ca in axes_of(age):
            axes.append(f"{tree_id},{axis_id},{parent or ''},{'' if ins_ca is None else ins_ca}")
            b, beta = ALLOMETRY[pa]
            for ca in range(first_ca, age + 1):
                n = INTERNODES_PER_GU
                gus.append(f"{tree_id},{axis_id},{ca},{n},{n}")
                for rank in range(1, n + 1):
                    w = noisy(TOP_WEIGHT[pa] * (1.0 + RING_GAIN * (age - ca)))
                    length = noisy(b * w**beta, 0.02)
                    diameter = noisy(4.0 * w**0.4, 0.02)
                    internodes.append(
                        f"{tree_id},{axis_id},{ca},{rank},{w:.4f},{length:.4f},{diameter:.4f}"
                    )
                for sample in range(1, LEAF_SAMPLES + 1):
                    blade = noisy(TOP_WEIGHT[pa] / SINK_RATIO[pa])
                    area = noisy(blade / SLW, 0.01)
                    leaves.append(f"{tree_id},{axis_id},{ca},{sample},{blade:.4f},{area:.2f}")
    tables = (axes, gus, internodes, leaves)
    return {name: "\n".join(rows) + "\n" for name, rows in zip(FILES, tables)}


def write(out_dir: Path, seed: int, trees=TREES) -> str:
    """Write the four CSVs into ``out_dir``; return the sha256 of their bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name, text in generate(seed, trees).items():
        data = text.encode("utf-8")
        (out_dir / name).write_bytes(data)
        digest.update(data)
    return digest.hexdigest()
