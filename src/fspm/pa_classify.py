"""Physiological age assignment by exact 1-D clustering of new-growth weight.

Axes are characterized by the mean fresh weight of the internodes in their
topmost growth unit.  Those weights are split into k contiguous clusters by
a dynamic program that is globally optimal in within-cluster sum of squares
(unlike iterative k-means there is no seed sensitivity), and clusters are
relabeled 1..k by descending mean weight: the heaviest new growth defines
PA 1, the main stem.
"""
from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    KTooLarge,
    MainAxisNotHeaviest,
    NoTerminalData,
    SchemaError,
    ValidationError,
    _json_loads,
    schema_errors,
)
from .ingest import GUSamples
from .topology import TreeTopology

logger = logging.getLogger(__name__)

# Starts per block of a DP row: a block's temporaries hold _BLOCK * n floats.
_BLOCK = 64
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class ClusterPartition:
    """Optimal contiguous k-partition of 1-D weights.

    Cluster indices run 0..k-1 in ascending weight order; ``boundaries``
    holds the k-1 midpoint thresholds between adjacent clusters.
    """

    k: int
    boundaries: tuple[float, ...]
    assignments: dict[object, int]
    means: tuple[float, ...]
    wcss: float


def top_internode_weight(t: TreeTopology, samples: GUSamples) -> dict[str, float]:
    """Mean internode fresh weight in the topmost GU of every axis.

    ``samples`` is the tree's per-GU table from
    :func:`~fspm.ingest.samples_by_gu`, built on ``t`` or on the topology
    it classifies.
    """
    weights = samples.internodes["fresh_weight"]
    out: dict[str, float] = {}
    for axis, rows, _ in samples.top_gus(t):
        if rows.start == rows.stop:
            raise NoTerminalData(
                f"axis {axis.id!r} has no internode records in its top GU "
                f"(ca {axis.gus[-1].ca})"
            )
        out[axis.id] = sum(weights[rows]) / (rows.stop - rows.start)
    return out


def _segment_cost(xs: Sequence[float]) -> float:
    """Sum of squared deviations from the segment mean."""
    mean = sum(xs) / len(xs)
    # d * d is correctly rounded; d ** 2 calls libm pow, which need not be.
    return sum(d * d for d in (x - mean for x in xs))


def cluster_1d(
    values: Mapping[object, float] | Sequence[float], k: int
) -> ClusterPartition:
    """Globally optimal contiguous k-clustering of scalar weights.

    Accepts a mapping id -> weight or a plain sequence (ids are positions).
    Ties between equally optimal partitions break toward the smallest
    leading cluster.  Requires finite values, n * max|value| below
    sqrt(float max) (about 1.34e154) so that no sum of squares overflows,
    and k <= number of distinct values.

    The exact O(k * n^2) dynamic program of Ckmeans.1d.dp (Wang & Song
    2011) over suffixes of the sorted values: each (clusters, start) cell
    takes the minimum over every end of its leading cluster.  Each row of
    the table is filled a block of starts at a time, one array expression
    covering every end of every start in the block, with the float
    operations of a scalar loop in the same order; ``min`` is exact, so ties
    resolve as they would cell by cell.  Two rows need no search: one
    cluster has one end, the last value, and of k clusters only the start
    at the first value is read.
    """
    if isinstance(values, Mapping):
        items = sorted(values.items(), key=lambda kv: (kv[1], str(kv[0])))
    else:
        items = sorted(enumerate(values), key=lambda kv: (kv[1], kv[0]))
    n = len(items)
    if n == 0:
        raise ValidationError("no values to cluster")
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {k}")
    xs = [w for _, w in items]
    x = np.asarray(xs, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError("values to cluster must be finite")
    # Bounds every prefix sum by n * max|x| and its square by float max.
    top = float(np.abs(x).max())
    if n * top >= _SQRT_FLOAT_MAX:
        raise ValidationError(f"{n} values to cluster must stay below "
                              f"{_SQRT_FLOAT_MAX / n:.4g} in magnitude, got {top!r}")
    if k > len(set(xs)):
        raise KTooLarge(f"k={k} exceeds {len(set(xs))} distinct values")

    # Prefix sums make interval costs O(1); cumsum adds in sequence from 0.0.
    ps = np.cumsum(np.concatenate(([0.0], x)))
    pq = np.cumsum(np.concatenate(([0.0], x * x)))
    # Row r, column c of a block pairs start i0 + r with end i0 + c: its
    # leading cluster holds c - r + 1 values.  Left of the diagonal the end
    # precedes the start; those sizes are clipped to 1 and the cells masked.
    rows = min(_BLOCK, n)
    offsets = np.arange(n) - np.arange(rows)[:, None]
    sizes = np.maximum(offsets + 1, 1)
    feasible = offsets >= 0
    # suffix[j, i]: optimal cost of splitting xs[i:] into j clusters.
    suffix = np.full((k + 1, n + 1), np.inf)
    suffix[0, n] = 0.0
    # One cluster ends at the last value: its cost by split_costs' operations.
    s = ps[n] - ps[:n]
    suffix[1, :n] = pq[n] - pq[:n] - s * s / np.arange(n, 0, -1) + suffix[0, n]

    def split_costs(j: int, i0: int, i1: int) -> np.ndarray:
        """Row r, column c: the cost of xs[i0 + r : i0 + c + 1] plus the best
        j - 1 clusters after it, for starts i0..i1-1 and ends i0..n-j."""
        stop = n - j + 2
        s = ps[i0 + 1 : stop] - ps[i0:i1, None]
        cost = pq[i0 + 1 : stop] - pq[i0:i1, None]
        s *= s
        s /= sizes[: i1 - i0, : stop - i0 - 1]
        cost -= s
        cost += suffix[j - 1, i0 + 1 : stop]
        return cost

    for j in range(2, k + 1):
        stop = n - j + 2
        starts = 1 if j == k else stop - 1  # of the last row, only start 0 is read
        for i0 in range(0, starts, rows):
            i1 = min(i0 + rows, starts)
            block = split_costs(j, i0, i1)
            suffix[j, i0:i1] = block.min(axis=1, initial=np.inf,
                                         where=feasible[: i1 - i0, : block.shape[1]])

    # Walk forward taking the shortest leading cluster that stays optimal.
    segments: list[tuple[int, int]] = []
    i = 0
    for j in range(k, 0, -1):
        end = i + int(np.argmax(split_costs(j, i, i + 1)[0] == suffix[j, i]))
        segments.append((i, end))
        i = end + 1

    assignments = {}
    means = []
    boundaries = []
    wcss = 0.0
    for c, (lo, hi) in enumerate(segments):
        for key, _ in items[lo : hi + 1]:
            assignments[key] = c
        means.append(sum(xs[lo : hi + 1]) / (hi - lo + 1))
        wcss += _segment_cost(xs[lo : hi + 1])
        if c + 1 < len(segments):
            boundaries.append((xs[hi] + xs[hi + 1]) / 2.0)

    return ClusterPartition(
        k=k,
        boundaries=tuple(boundaries),
        assignments=assignments,
        means=tuple(means),
        wcss=wcss,
    )


def assign_pa(p: ClusterPartition, main_axis_id: object) -> dict[object, int]:
    """Relabel clusters as physiological ages 1..k by descending mean weight.

    The main stem must already sit in the heaviest cluster; anything else
    indicates inconsistent data and is reported, never silently overridden.
    """
    if main_axis_id not in p.assignments:
        raise ValidationError(f"main axis {main_axis_id!r} not in partition")
    order = sorted(range(p.k), key=lambda c: -p.means[c])
    pa_of_cluster = {cluster: rank + 1 for rank, cluster in enumerate(order)}
    if pa_of_cluster[p.assignments[main_axis_id]] != 1:
        raise MainAxisNotHeaviest(
            f"main axis {main_axis_id!r} fell in a cluster with mean "
            f"{p.means[p.assignments[main_axis_id]]:.4g}, below the heaviest "
            f"{max(p.means):.4g}"
        )
    return {key: pa_of_cluster[c] for key, c in p.assignments.items()}


def classify_axes(
    t: TreeTopology, samples: GUSamples, k: int
) -> tuple[dict[str, int], ClusterPartition]:
    """Terminal weights -> clustering -> PA labels, in one call.

    ``samples`` is as :func:`top_internode_weight` takes it.

    If fewer distinct terminal weights than k exist, k is reduced to match
    (small trees simply have fewer vigor classes); the effective partition is
    returned alongside the PA map.
    """
    weights = top_internode_weight(t, samples)
    k_eff = min(k, len(set(weights.values())))
    if k_eff < k:
        logger.info(
            "tree %s: only %d distinct terminal weights, using k=%d",
            t.tree_id, k_eff, k_eff,
        )
    partition = cluster_1d(weights, k_eff)
    pa_map = assign_pa(partition, t.root.id)
    means = ", ".join(
        f"PA{rank + 1}={m:.3g}g"
        for rank, m in enumerate(sorted(partition.means, reverse=True))
    )
    logger.info("tree %s: cluster means by PA: %s", t.tree_id, means)
    return pa_map, partition


def pa_map_to_json(pa_map: Mapping[str, int]) -> str:
    return json.dumps(dict(sorted(pa_map.items())), indent=2) + "\n"


def pa_map_from_json(text: str, source: str = "PA map") -> dict[str, int]:
    """Parse :func:`pa_map_to_json` output; SchemaError names ``source``.

    Each PA must be a JSON integer: ``2.7`` is not read as 2, nor ``true`` as
    1, and ``"main"``, ``Infinity`` or ``1e400`` fail the same way.
    """
    with schema_errors(source):
        pa_map = dict(_json_loads(text).items())  # a document that is no object fails here
    for axis_id, pa in pa_map.items():
        if type(pa) is not int:
            raise SchemaError(f"{source}: axis {axis_id!r}: PA must be an integer, got {pa!r}")
    return pa_map
