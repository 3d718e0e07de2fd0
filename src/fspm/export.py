"""Plot-ready comparison tables and 3-D skeleton geometry.

Branch positions were never part of the measurements, so skeleton azimuths
are arbitrary by design: successive insertions rotate by the golden angle
with a little seeded jitter, which keeps output files byte-identical for a
given seed while avoiding planar trees.  Skeleton segments are numbered in
the order of a breadth-first walk of the axes from the root, and each axis
runs from base to tip.

Every table is written column by column through one CSV writer: a header,
then one row per observation, organ or segment, floats as their ``repr``
(so they read back exactly), lines ending in ``"\\n"``.
"""
from __future__ import annotations

import csv
import io
import math
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .calibrate import _Observed
from .engine import SimulationTrace
from .errors import TreeMismatch, ValidationError
from .ingest import TargetSeries
from .topology import TreeTopology

GOLDEN_ANGLE_DEG = 137.5
BRANCH_TILT_DEG = 40.0


def _csv(header: Sequence[str], *columns: Iterable) -> str:
    """CSV text: ``header``, then one row per position of the columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


def export_fit_csv(trace: SimulationTrace, targets: TargetSeries) -> dict[str, str]:
    """Measured-versus-simulated tables for the four observable families.

    Returns CSV texts keyed by family name: ``diameter_per_gu`` (mm),
    ``mass_per_gu`` (g), ``cum_internode`` (g), ``cum_blade`` (g); one row
    per observation, columns key,measured,simulated, in the fit's row order.
    The targets are checked against the trace as a fit checks them.
    """
    obs = _Observed.of(targets, trace.tree_id, trace.cohorts, trace.cycles)
    groups = [f"{pa},{ca}" for pa, ca in obs.keys]
    cycles = [i + 1 for i in obs.cycles.tolist()]
    keys = [*groups, *groups, *cycles, *cycles]
    measured, simulated = obs.measured.tolist(), obs.simulated(trace).tolist()
    tables = {}
    at = 0
    for name, size in (("diameter_per_gu", len(groups)), ("mass_per_gu", len(groups)),
                       ("cum_internode", len(cycles)), ("cum_blade", len(cycles))):
        rows = slice(at, at + size)
        tables[name] = _csv(("key", "measured", "simulated"),
                            keys[rows], measured[rows], simulated[rows])
        at += size
    return tables


class Skeleton(NamedTuple):
    """Skeleton columns, one row per segment; segment ``i`` has id ``i + 1``.

    ``parent`` holds parent ids (0 at the root's base); ``start`` and
    ``end`` are (n, 3) points in cm.
    """

    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    radius_cm: np.ndarray


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors, term for term as ``np.cross`` forms it."""
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def _basis(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors orthogonal to ``direction``."""
    ref = np.array([0.0, 0.0, 1.0])
    if abs(float(direction @ ref)) > 0.99:
        ref = np.array([1.0, 0.0, 0.0])
    u = _cross(direction, ref)
    u /= np.linalg.norm(u)
    v = _cross(direction, u)
    return u, v


def build_skeleton(trace: SimulationTrace, topology: TreeTopology, seed: int) -> Skeleton:
    """One straight segment per internode, cylinder radius attached.

    The root axis grows vertically from the origin; each branch tilts a
    fixed angle off its parent's direction at an azimuth that advances by
    the golden angle per insertion, plus seeded jitter, and starts at the
    top of its bearing GU.  An axis's segment ends are one running sum of
    its internode vectors from its start.  The organ table lists the
    internodes born by ``trace.cycles`` in census order (axes by id, GUs by
    cycle, then rank), so each axis's internodes are one slice of it.
    Raises TreeMismatch for a trace of another tree and ValidationError for
    an organ table of another length.
    """
    organs = trace.organs
    if organs is None:
        raise ValidationError("skeleton export needs an explicit-mode trace")
    if trace.tree_id != topology.tree_id:
        raise TreeMismatch(
            f"tree {topology.tree_id!r}: skeleton of a trace of tree {trace.tree_id!r}"
        )
    through: dict[str, list[int]] = {}  # an axis's born internodes through each GU
    first: dict[str, int] = {}  # where an axis's slice begins
    size = 0
    for axis in topology.axes_sorted():
        born = (gu.internode_count for gu in axis.gus if gu.ca <= trace.cycles)
        through[axis.id] = list(accumulate(born, initial=0))
        first[axis.id] = size
        size += through[axis.id][-1]
    if size != len(organs):
        raise ValidationError(
            f"tree {topology.tree_id!r}: organ table holds {len(organs)} internodes, "
            f"the topology {size} born by cycle {trace.cycles}"
        )

    rng = np.random.default_rng(seed)
    parent = np.arange(size)  # a segment's parent is the one below it, but for an axis base
    start = np.empty((size, 3))
    end = np.empty((size, 3))
    rows = np.empty(size, dtype=np.intp)  # each segment's organ table row
    axis_dir: dict[str, np.ndarray] = {}
    base: dict[str, int] = {}  # each walked axis's first segment
    done = branch_counter = 0

    # Parents before children: walk from the root in insertion order.
    order = [topology.root]
    for axis in order:
        order.extend(topology.children_of(axis.id))
        n = through[axis.id][-1]
        if not n:
            continue  # beyond the simulated horizon, and so are its children
        if axis.is_root:
            direction = np.array([0.0, 0.0, 1.0])
            origin = np.zeros(3)
        else:
            parent_dir = axis_dir[axis.parent_id]
            azimuth = math.radians(
                GOLDEN_ANGLE_DEG * branch_counter + rng.normal(0.0, 5.0)
            )
            tilt = math.radians(BRANCH_TILT_DEG + rng.normal(0.0, 3.0))
            branch_counter += 1
            u, v = _basis(parent_dir)
            direction = (
                math.cos(tilt) * parent_dir
                + math.sin(tilt) * (math.cos(azimuth) * u + math.sin(azimuth) * v)
            )
            direction = direction / np.linalg.norm(direction)
            bearing = topology.axes[axis.parent_id]
            top = base[bearing.id] + through[bearing.id][axis.insertion_ca - bearing.first_ca + 1]
            parent[done] = top
            origin = end[top - 1]
        axis_dir[axis.id] = direction
        base[axis.id] = done
        lo = first[axis.id]
        ends = np.cumsum(np.vstack([origin, organs.length_cm[lo : lo + n, None] * direction]),
                         axis=0)
        start[done : done + n] = ends[:-1]
        end[done : done + n] = ends[1:]
        rows[done : done + n] = range(lo, lo + n)
        done += n

    return Skeleton(parent, start, end, organs.diameter_cm[rows] / 2.0)


def export_skeleton(trace: SimulationTrace, topology: TreeTopology, seed: int) -> str:
    """Skeleton CSV: segment_id,parent_id,x0,y0,z0,x1,y1,z1,radius_cm.

    Segments are numbered in the order of :func:`build_skeleton`'s walk,
    each axis from base to tip; the root axis's base has no parent id.
    """
    skeleton = build_skeleton(trace, topology, seed)
    return _csv(
        ("segment_id", "parent_id", "x0", "y0", "z0", "x1", "y1", "z1", "radius_cm"),
        range(1, len(skeleton.parent) + 1),
        [p or "" for p in skeleton.parent.tolist()],
        *skeleton.start.T.tolist(), *skeleton.end.T.tolist(),
        skeleton.radius_cm.tolist(),
    )


def export_trace_csv(trace: SimulationTrace) -> str:
    """Per-cycle series: cycle,q_prod,demand,leaf_surface,cum_internode_mass,cum_blade_mass."""
    names = ("q_prod", "demand", "leaf_surface", "cum_internode_mass", "cum_blade_mass")
    return _csv(("cycle", *names), range(1, trace.cycles + 1),
                *(getattr(trace, name).tolist() for name in names))


def export_organs_csv(trace: SimulationTrace) -> str:
    """Per-organ table: pa,birth_cycle,kind,mass_g,length_cm,diameter_mm.

    Explicit traces list every internode individually; blades are expanded
    from their cohorts (all blades of a cohort weigh the same).  Factored
    traces list one aggregate row per cohort and kind instead.
    """
    cohorts = [c for _, c in sorted(trace.cohorts.items())]
    blades = [(c.pa, c.birth, "blade", c.blade_mass, "", "") for c in cohorts]
    org = trace.organs
    if org is None:  # an internode row, then a blade row, per cohort
        internodes = [(c.pa, c.birth, "internode", c.internode_mass, c.length_cm,
                       c.diameter_cm * 10.0) for c in cohorts]
        columns = zip(*chain.from_iterable(zip(internodes, blades)))
    else:
        internodes = (org.pa.tolist(), org.birth.tolist(), ["internode"] * len(org),
                      (org.primary + org.ring).tolist(), org.length_cm.tolist(),
                      (org.diameter_cm * 10.0).tolist())
        expanded = zip(*(row for row, c in zip(blades, cohorts) for _ in range(c.n_blades)))
        columns = (column + list(more) for column, more in zip(internodes, expanded))
    return _csv(("pa", "birth_cycle", "kind", "mass_g", "length_cm", "diameter_mm"), *columns)
