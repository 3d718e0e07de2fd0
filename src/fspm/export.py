"""Plot-ready comparison tables and 3-D skeleton geometry.

Branch positions were never part of the measurements, so skeleton azimuths
are arbitrary by design: successive insertions rotate by the golden angle
with a little seeded jitter, which keeps output files byte-identical for a
given seed while avoiding planar trees.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .calibrate import _Observed
from .engine import SimulationTrace
from .errors import ValidationError
from .ingest import TargetSeries
from .topology import TreeTopology

GOLDEN_ANGLE_DEG = 137.5
BRANCH_TILT_DEG = 40.0


def export_fit_csv(trace: SimulationTrace, targets: TargetSeries) -> dict[str, str]:
    """Measured-versus-simulated tables for the four observable families.

    Returns CSV texts keyed by family name: ``diameter_per_gu`` (mm),
    ``mass_per_gu`` (g), ``cum_internode`` (g), ``cum_blade`` (g); one row
    per observation, columns key,measured,simulated, in the fit's row order.
    The targets are checked against the trace as a fit checks them.
    """
    obs = _Observed.of(targets, trace.tree_id, trace.cohorts, trace.cycles)
    groups = [f"{pa},{ca}" for pa, ca in obs.keys]
    cycles = [str(i + 1) for i in obs.cycles.tolist()]
    rows = zip([*groups, *groups, *cycles, *cycles],
               map(repr, obs.measured.tolist()), map(repr, obs.simulated(trace).tolist()))
    tables = {}
    for name, size in (("diameter_per_gu", len(groups)), ("mass_per_gu", len(groups)),
                       ("cum_internode", len(cycles)), ("cum_blade", len(cycles))):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "measured", "simulated"))
        writer.writerows(islice(rows, size))
        tables[name] = buf.getvalue()
    return tables


@dataclass(frozen=True)
class Segment:
    segment_id: int
    parent_id: int | None
    start: tuple[float, float, float]
    end: tuple[float, float, float]
    radius_cm: float


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


def build_skeleton(
    trace: SimulationTrace, topology: TreeTopology, seed: int
) -> list[Segment]:
    """One straight segment per internode, cylinder radius attached.

    The root axis grows vertically from the origin; each branch tilts a
    fixed angle off its parent's direction at an azimuth that advances by
    the golden angle per insertion, plus seeded jitter.  An axis's segment
    ends are one running sum of its internode vectors from its start.
    """
    if trace.organs is None:
        raise ValidationError("skeleton export needs an explicit-mode trace")

    organs = trace.organs
    geo = dict(zip(organs.positions,
                   zip(organs.length_cm.tolist(), organs.diameter_cm.tolist())))
    rng = np.random.default_rng(seed)
    segments: list[Segment] = []
    seg_id_of: dict[tuple[str, int, int], int] = {}
    branch_counter = 0

    # Parents before children: walk from the root in insertion order.
    order = [topology.root]
    for axis in order:
        order.extend(topology.children_of(axis.id))

    axis_dir: dict[str, np.ndarray] = {}
    for axis in order:
        # An axis born by the horizon has a parent born by then, walked first.
        if (axis.id, axis.first_ca, 1) not in geo:
            continue  # beyond the simulated horizon
        if axis.is_root:
            direction = np.array([0.0, 0.0, 1.0])
            start = np.zeros(3)
            parent_seg = None
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
            bearing = topology.axes[axis.parent_id].gu_at(axis.insertion_ca)
            parent_seg = seg_id_of[
                (axis.parent_id, axis.insertion_ca, bearing.internode_count)
            ]
            start = np.asarray(segments[parent_seg - 1].end)
        axis_dir[axis.id] = direction

        keys = [(axis.id, gu.ca, rank)
                for gu in axis.gus for rank in range(1, gu.internode_count + 1)]
        keys = [key for key in keys if key in geo]
        lengths = np.array([geo[key][0] for key in keys])
        ends = np.cumsum(np.vstack([start, lengths[:, None] * direction]), axis=0)
        points = [tuple(p) for p in ends.tolist()]
        for key, a, b in zip(keys, points, points[1:]):
            segments.append(
                Segment(
                    segment_id=len(segments) + 1,
                    parent_id=parent_seg,
                    start=a,
                    end=b,
                    radius_cm=geo[key][1] / 2.0,
                )
            )
            parent_seg = seg_id_of[key] = len(segments)

    return segments


def export_skeleton(trace: SimulationTrace, topology: TreeTopology, seed: int) -> str:
    """Skeleton CSV: segment_id,parent_id,x0,y0,z0,x1,y1,z1,radius_cm."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ("segment_id", "parent_id", "x0", "y0", "z0", "x1", "y1", "z1", "radius_cm")
    )
    for seg in build_skeleton(trace, topology, seed):
        writer.writerow(
            (
                seg.segment_id,
                "" if seg.parent_id is None else seg.parent_id,
                repr(seg.start[0]), repr(seg.start[1]), repr(seg.start[2]),
                repr(seg.end[0]), repr(seg.end[1]), repr(seg.end[2]),
                repr(seg.radius_cm),
            )
        )
    return buf.getvalue()


def export_trace_csv(trace: SimulationTrace) -> str:
    """Per-cycle series: cycle,q_prod,demand,leaf_surface,cum_internode_mass,cum_blade_mass."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ("cycle", "q_prod", "demand", "leaf_surface",
         "cum_internode_mass", "cum_blade_mass")
    )
    for i in range(trace.cycles):
        writer.writerow(
            (
                i + 1,
                repr(float(trace.q_prod[i])),
                repr(float(trace.demand[i])),
                repr(float(trace.leaf_surface[i])),
                repr(float(trace.cum_internode_mass[i])),
                repr(float(trace.cum_blade_mass[i])),
            )
        )
    return buf.getvalue()


def export_organs_csv(trace: SimulationTrace) -> str:
    """Per-organ table: pa,birth_cycle,kind,mass_g,length_cm,diameter_mm.

    Explicit traces list every internode individually; blades are expanded
    from their cohorts (all blades of a cohort weigh the same).  Factored
    traces list one aggregate row per cohort and kind instead.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("pa", "birth_cycle", "kind", "mass_g", "length_cm", "diameter_mm"))
    if trace.organs is not None:
        org = trace.organs
        writer.writerows(zip(
            org.pa.tolist(), org.birth.tolist(), repeat("internode"),
            map(repr, (org.primary + org.ring).tolist()),
            map(repr, org.length_cm.tolist()),
            map(repr, (org.diameter_cm * 10.0).tolist()),
        ))
        for (pa, birth), cohort in sorted(trace.cohorts.items()):
            row = (pa, birth, "blade", repr(cohort.blade_mass), "", "")
            writer.writerows(repeat(row, cohort.n_blades))
    else:
        for (pa, birth), cohort in sorted(trace.cohorts.items()):
            writer.writerow(
                (
                    pa, birth, "internode",
                    repr(cohort.internode_mass),
                    repr(cohort.length_cm),
                    repr(cohort.diameter_cm * 10.0),
                )
            )
            writer.writerow((pa, birth, "blade", repr(cohort.blade_mass), "", ""))
    return buf.getvalue()
