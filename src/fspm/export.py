"""Plot-ready comparison tables and 3-D skeleton geometry.

Branch positions were never part of the measurements, so skeleton azimuths
are arbitrary by design: successive insertions rotate by the golden angle
with a little seeded jitter, which keeps output files byte-identical for a
given seed while avoiding planar trees.  Skeleton segments are numbered in
the order of a breadth-first walk of the axes from the root, and each axis
runs from base to tip.

Every table is written column by column through one CSV writer, ``_csv``:
a header, then one row per observation, organ or segment, each row one
``%s`` template, so floats appear as their ``repr`` (and read back exactly),
lines ending in ``"\\n"``.  A table's float columns come as arrays, and each
distinct float among them is formatted once: an organ's values come from
its cohort and ring class, and a segment starts where its parent ends.
Text that ``csv.writer`` would quote, such as the fit tables' ``"pa,ca"``
keys, is quoted as it quotes it, so the bytes are still those of
``csv.writer(lineterminator="\\n")``.
"""
from __future__ import annotations

import csv
import io
import math
import numbers
import re
from itertools import accumulate, chain, islice
from typing import NamedTuple, Sequence

import numpy as np

from .calibrate import _Observed
from .engine import SimulationTrace
from .errors import InvalidParameter, TreeMismatch, ValidationError
from .ingest import TargetSeries
from .topology import TreeTopology

GOLDEN_ANGLE_DEG = 137.5
BRANCH_TILT_DEG = 40.0
_SPECIAL = re.compile('[,"\r\n]')  # text csv.writer may quote


def _quoted(column: Sequence, single: bool) -> list:
    """The cells of one column, each text cell that may need quotes as
    ``csv.writer`` writes it; in a ``single``-column table an empty cell is
    ``""``."""
    cells = []
    for cell in column:
        if type(cell) is str and (_SPECIAL.search(cell) or single and not cell):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow([cell])
            cell = buf.getvalue()[:-1]
        cells.append(cell)
    return cells


def _texts(arrays: list[np.ndarray]) -> list[str]:
    """The ``repr`` of each cell of the float arrays, laid end to end; each
    distinct bit pattern is formatted once, so ``-0.0`` and ``0.0`` stay
    apart."""
    unique, inverse = np.unique(np.concatenate(arrays).view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, unique.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _csv(header: Sequence[str], *columns) -> str:
    """CSV text: ``header``, then one row per position of the columns.

    A column is a sequence of text, int or float cells, a float array, or a
    tuple of such parts written one after another.  All the float arrays'
    cells are rendered together, by :func:`_texts`.  Each row is one
    ``%s`` template, so a float reads as its ``repr``, and the bytes are
    those of ``csv.writer(lineterminator="\\n")``: only text can hold a comma,
    a quote or a line break, and only a one-column row can be empty, so the
    rows are rendered again with such text quoted when the rendered rows
    show one.
    """
    parts = [column if type(column) is tuple else (column,) for column in columns]
    arrays = [part for column in parts for part in column if isinstance(part, np.ndarray)]
    cells = iter(_texts(arrays) if arrays else ())
    # The arrays' texts are taken from ``cells`` in the order they were gathered.
    columns = [(name, *chain.from_iterable(islice(cells, len(part)) if isinstance(part, np.ndarray)
                                           else part for part in column))
               for name, column in zip(header, parts, strict=True)]
    template = ",".join(["%s"] * len(columns))
    lines = list(map(template.__mod__, zip(*columns)))
    text = "\n".join(lines) + "\n"
    if ("" in lines or '"' in text or "\r" in text or text.count("\n") != len(lines)
            or text.count(",") != len(lines) * (len(columns) - 1)):
        quoted = [_quoted(column, len(columns) == 1) for column in columns]
        text = "\n".join(map(template.__mod__, zip(*quoted))) + "\n"
    return text


def export_fit_csv(trace: SimulationTrace, targets: TargetSeries) -> dict[str, str]:
    """Measured-versus-simulated tables for the four observable families.

    Returns CSV texts keyed by family name: ``diameter_per_gu`` (mm),
    ``mass_per_gu`` (g), ``cum_internode`` (g), ``cum_blade`` (g); one row
    per observation, columns key,measured,simulated, in the fit's row order.
    The targets are checked against the trace as a fit checks them.
    """
    obs = _Observed.of(targets, trace.tree_id, trace.cohorts, trace.cycles)
    families = obs.families()
    ends = np.cumsum([len(keys) for keys in families.values()])[:-1]
    return {name: _csv(("key", "measured", "simulated"), keys, measured, simulated)
            for (name, keys), measured, simulated in zip(
                families.items(), np.split(obs.measured, ends),
                np.split(obs.simulated(trace), ends))}


class Skeleton(NamedTuple):
    """Skeleton columns, one row per segment; segment ``i`` has id ``i + 1``.

    ``parent`` holds parent ids (0 at the root's base); ``start`` and
    ``end`` are (n, 3) points in cm.
    """

    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    radius_cm: np.ndarray


def _cross(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float]:
    """Cross product of two 3-vectors, term for term as ``np.cross`` forms it."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _unit(v: Sequence[float]) -> tuple[float, float, float]:
    """``v`` over its length.  The length is ``np.linalg.norm``'s: its BLAS dot
    may fuse multiply-adds, so a plain ``sqrt`` of the squares can differ."""
    norm = float(np.linalg.norm(v))
    return (v[0] / norm, v[1] / norm, v[2] / norm)


def _basis(direction: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Two unit vectors orthogonal to ``direction``."""
    ref = (1.0, 0.0, 0.0) if abs(direction[2]) > 0.99 else (0.0, 0.0, 1.0)
    u = _unit(_cross(direction, ref))
    return u, _cross(direction, u)


def build_skeleton(trace: SimulationTrace, topology: TreeTopology, seed: int) -> Skeleton:
    """One straight segment per internode, cylinder radius attached.

    The root axis grows vertically from the origin; each branch tilts a
    fixed angle off its parent's direction at an azimuth that advances by
    the golden angle per insertion, plus seeded jitter, and starts at the
    top of its bearing GU.  An axis's segment ends are one running sum of
    its internode vectors from its start.  The organ table lists the
    internodes born by ``trace.cycles`` in census order (axes by id, GUs by
    cycle, then rank), so each axis's internodes are one slice of it.
    Branches take their azimuth and jitter by their place in the walk, born
    by ``trace.cycles`` or not, so a shorter trace's segment ends are the
    full-age ones of the internodes it has born, bit for bit.
    Raises InvalidParameter for a seed that is no integer >= 0,
    TreeMismatch for a trace of another tree and ValidationError for an
    organ table of another length.
    """
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InvalidParameter(f"seed must be an integer >= 0, got {seed!r}")
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

    # Each branch's azimuth and tilt jitter, in degrees, drawn in walk order
    # for every branch, born by trace.cycles or not: a younger skeleton is
    # the older one cut back.
    jitter = np.random.default_rng(seed).normal((0.0, 0.0), (5.0, 3.0),
                                                size=(len(topology.axes) - 1, 2))
    parent = np.arange(size)  # a segment's parent is the one below it, but for an axis base
    axis_dir: dict[str, tuple[float, ...]] = {}
    base: dict[str, int] = {}  # each walked axis's first segment
    runs: list[tuple[int, int, int]] = []  # each walked axis's base, segments, parent id
    shift: list[int] = []  # each walked axis's organ table rows less its segments
    done = 0

    # Parents before children: walk from the root in insertion order.  The
    # root comes first, so a branch's place in the walk is its number plus 1.
    order = [topology.root]
    for place, axis in enumerate(order):
        order.extend(topology.children_of(axis.id))
        n = through[axis.id][-1]
        if not n:
            continue  # beyond the simulated horizon, and so are its children
        if axis.is_root:
            direction = (0.0, 0.0, 1.0)
            top = 0
        else:
            parent_dir = axis_dir[axis.parent_id]
            d_azimuth, d_tilt = jitter[place - 1].tolist()
            azimuth = math.radians(GOLDEN_ANGLE_DEG * (place - 1) + d_azimuth)
            tilt = math.radians(BRANCH_TILT_DEG + d_tilt)
            u, v = _basis(parent_dir)
            ct, st, ca, sa = math.cos(tilt), math.sin(tilt), math.cos(azimuth), math.sin(azimuth)
            direction = _unit([ct * p + st * (ca * a + sa * b)
                               for p, a, b in zip(parent_dir, u, v)])
            bearing = topology.axes[axis.parent_id]
            top = base[bearing.id] + through[bearing.id][axis.insertion_ca - bearing.first_ca + 1]
        parent[done] = top
        axis_dir[axis.id] = direction
        base[axis.id] = done
        runs.append((done, n, top))
        shift.append(first[axis.id] - done)
        done += n

    # Each coordinate of an axis's ends runs on from its parent segment's end.
    # axis_dir holds the walked axes in walk order, as runs does.
    counts = [n for _, n, _ in runs]
    rows = np.arange(size) + np.repeat(np.array(shift, dtype=np.intp), counts)  # organ rows
    directions = np.repeat(list(axis_dir.values()), counts, axis=0)
    steps = organs.length_cm[rows, None] * directions
    end = np.empty((size, 3))
    for c, column in enumerate(steps.T.tolist()):
        ends: list[float] = []
        for at, n, top in runs:
            origin = ends[top - 1] if top else 0.0
            ends += islice(accumulate(column[at : at + n], initial=origin), 1, None)
        end[:, c] = ends
    # A segment starts where its parent ends; the root's base, at the origin.
    start = end[parent - 1]
    start[:1] = 0.0
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
        *skeleton.start.T, *skeleton.end.T, skeleton.radius_cm,
    )


def export_trace_csv(trace: SimulationTrace) -> str:
    """Per-cycle series: cycle,q_prod,demand,leaf_surface,cum_internode_mass,cum_blade_mass."""
    names = ("q_prod", "demand", "leaf_surface", "cum_internode_mass", "cum_blade_mass")
    return _csv(("cycle", *names), range(1, trace.cycles + 1),
                *(getattr(trace, name) for name in names))


def export_organs_csv(trace: SimulationTrace) -> str:
    """Per-organ table: pa,birth_cycle,kind,mass_g,length_cm,diameter_mm.

    Explicit traces list every internode individually; blades are expanded
    from their cohorts (all blades of a cohort weigh the same).  Factored
    traces list one aggregate row per cohort and kind instead.
    """
    cohorts = [c for _, c in sorted(trace.cohorts.items())]
    org = trace.organs
    if org is None:  # an internode row, then a blade row, per cohort
        rows = chain.from_iterable(
            ((c.pa, c.birth, "internode", c.internode_mass, c.length_cm, c.diameter_cm * 10.0),
             (c.pa, c.birth, "blade", c.blade_mass, "", "")) for c in cohorts)
        columns = map(list, zip(*rows))
    else:  # every internode, then every blade of each cohort
        n_blades = [c.n_blades for c in cohorts]
        blades = ["blade"] * sum(n_blades)
        pa, birth, mass = (np.repeat([getattr(c, name) for c in cohorts], n_blades)
                           for name in ("pa", "birth", "blade_mass"))
        columns = ((org.pa.tolist(), pa.tolist()), (org.birth.tolist(), birth.tolist()),
                   (["internode"] * len(org), blades), (org.primary + org.ring, mass),
                   (org.length_cm, [""] * len(blades)), (org.diameter_cm * 10.0, [""] * len(blades)))
    return _csv(("pa", "birth_cycle", "kind", "mass_g", "length_cm", "diameter_mm"), *columns)
