"""Tree structure model: axes of annual growth units bearing internodes.

An axis is an ordered run of growth units (GUs), one per growth cycle; each
GU carries a number of internodes, and every internode bears one blade.  Axes
are ranked by a physiological age (PA, 1 = main stem) assigned after
classification, while the chronological age (CA) of a GU is the cycle at
which it appeared.  A measured tree is built from the columns of its axis
and GU tables.  Topologies are immutable once built and safe to share
across threads.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from numbers import Integral
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadInsertion,
    CycleDetected,
    CycleOutOfRange,
    DanglingParent,
    DuplicateKey,
    InvalidTopology,
    MissingPA,
    NonContiguousCA,
    ValidationError,
)

logger = logging.getLogger(__name__)

DEFAULT_P_MAX = 5

INTERNODE = "internode"
BLADE = "blade"


@dataclass(frozen=True)
class GrowthUnit:
    """Portion of an axis produced in one cycle."""

    ca: int
    internode_count: int
    leaf_scar_count: int = 0


@dataclass(frozen=True)
class Axis:
    """An ordered run of growth units with a common physiological age.

    ``pa`` is None until a classification has been applied with
    :func:`with_physio_ages`.
    """

    id: str
    parent_id: str | None
    insertion_ca: int | None
    gus: tuple[GrowthUnit, ...]
    pa: int | None = None

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    @property
    def first_ca(self) -> int:
        return self.gus[0].ca

    @property
    def last_ca(self) -> int:
        return self.gus[-1].ca

    def gu_at(self, ca: int) -> GrowthUnit | None:
        if self.first_ca <= ca <= self.last_ca:
            return self.gus[ca - self.first_ca]
        return None


class Census(NamedTuple):
    """Internode layout of a classified topology, in canonical order.

    ``keys`` lists the (PA, CA) cohorts sorted by (CA, PA), the order the
    growth recursion summarises them in; ``counts`` gives each cohort's
    internodes.  ``positions`` holds (axis_id, gu_ca, rank) per internode in
    :meth:`TreeTopology.iter_gus` order and ``cohort`` (read-only) the index
    into ``keys`` of each of those internodes.
    """

    keys: tuple[tuple[int, int], ...]
    counts: Mapping[tuple[int, int], int]
    positions: tuple[tuple[str, int, int], ...]
    cohort: np.ndarray


class SubtreeRanges(NamedTuple):
    """The internodes at or above each internode, as ranges of a pre-order.

    Internodes form a tree: each carries the next one up its axis, and the
    top internode of a GU also carries the first internode of every axis
    the GU bears.  Numbered in pre-order, the internodes at or above one
    internode (itself, the rest of its axis and every axis borne from its
    GU upward) are the range ``start[j]:stop[j]``, where j indexes
    internodes in :attr:`TreeTopology.census` position order.  ``ca`` gives
    the GU cycle of each internode in pre-order.  All arrays are read-only.
    """

    ca: np.ndarray
    start: np.ndarray
    stop: np.ndarray


@dataclass(frozen=True)
class TreeTopology:
    """Validated whole-tree structure, axes keyed by id in canonical order."""

    tree_id: str
    age: int
    axes: dict[str, Axis] = field(compare=False)

    @property
    def root(self) -> Axis:
        for axis in self.axes.values():
            if axis.is_root:
                return axis
        raise InvalidTopology(f"tree {self.tree_id!r} has no root axis")

    def axes_sorted(self) -> list[Axis]:
        return [self.axes[k] for k in sorted(self.axes)]

    def iter_gus(self) -> Iterator[tuple[Axis, GrowthUnit]]:
        for axis in self.axes_sorted():
            for gu in axis.gus:
                yield axis, gu

    def total_internodes(self) -> int:
        return sum(gu.internode_count for _, gu in self.iter_gus())

    @cached_property
    def _children(self) -> dict[str, list[Axis]]:
        index: dict[str, list[Axis]] = {}
        for axis in self.axes_sorted():
            if axis.parent_id is not None:
                index.setdefault(axis.parent_id, []).append(axis)
        return index

    def children_of(self, axis_id: str) -> list[Axis]:
        """Axes borne by ``axis_id``, in canonical (id-sorted) order."""
        return list(self._children.get(axis_id, ()))

    @cached_property
    def census(self) -> Census:
        """Internodes per (PA, CA) cohort, built once per topology.

        Raises MissingPA on every access while an axis is unclassified.
        """
        positions: list[tuple[str, int, int]] = []
        gu_keys: list[tuple[int, int]] = []
        gu_sizes: list[int] = []
        counts: dict[tuple[int, int], int] = {}
        for axis in self.axes_sorted():
            if axis.pa is None:
                raise MissingPA(f"axis {axis.id!r} has no PA; classify first")
            for gu in axis.gus:
                key = (axis.pa, gu.ca)
                size = gu.internode_count
                positions += [(axis.id, gu.ca, rank) for rank in range(1, size + 1)]
                gu_keys.append(key)
                gu_sizes.append(size)
                counts[key] = counts.get(key, 0) + size
        keys = tuple(sorted(counts, key=lambda k: (k[1], k[0])))
        column = {key: j for j, key in enumerate(keys)}
        cohort = np.repeat(np.array([column[k] for k in gu_keys], dtype=int), gu_sizes)
        cohort.flags.writeable = False
        return Census(keys=keys, counts=MappingProxyType(counts),
                      positions=tuple(positions), cohort=cohort)

    @cached_property
    def subtree_ranges(self) -> SubtreeRanges:
        """Pre-order ranges of the internodes above each one, built once.

        The walk keeps its own stack, so axes may nest to any depth.
        """
        first: dict[str, int] = {}
        size = 0
        for axis in self.axes_sorted():
            first[axis.id] = size
            size += sum(gu.internode_count for gu in axis.gus)
        # Borne axes follow the axis, highest insertion first, so the axes
        # borne from any GU upward end where the lower ones begin.
        order: list[tuple[Axis, list[Axis], int, int]] = []
        ca: list[int] = []
        stack = [self.root]
        while stack:
            axis = stack.pop()
            low = len(ca)  # the axis's own internodes are ca[low:high]
            for gu in axis.gus:
                ca.extend([gu.ca] * gu.internode_count)
            children = sorted(self.children_of(axis.id), key=lambda c: -c.insertion_ca)
            order.append((axis, children, low, len(ca)))
            stack.extend(reversed(children))
        start = np.empty(size, dtype=np.intp)
        stop = np.empty(size, dtype=np.intp)
        end: dict[str, int] = {}  # where each axis's subtree ends in the pre-order
        for axis, children, low, high in reversed(order):
            j = first[axis.id] + high - low
            start[first[axis.id] : j] = np.arange(low, high)
            stop_at = {child.insertion_ca: end[child.id] for child in children}
            end[axis.id] = end[children[-1].id] if children else high
            for gu in reversed(axis.gus):
                high = stop_at.get(gu.ca, high)
                stop[j - gu.internode_count : j] = high
                j -= gu.internode_count
        ranges = SubtreeRanges(ca=np.array(ca, dtype=int), start=start, stop=stop)
        for array in ranges:
            array.flags.writeable = False
        return ranges


def build_topology(axes: Sequence[Sequence], gus: Sequence[Sequence]) -> TreeTopology:
    """Assemble and validate a single tree from the axis and GU tables.

    ``axes`` and ``gus`` are the tables' columns in their CSV column order
    (``tree_id, axis_id, parent_axis_id, insertion_ca`` and ``tree_id,
    axis_id, gu_ca, internode_count, leaf_scar_count``), all of one length
    in each table; row ``i`` is entry ``i`` of every column.  Rows may come
    in any order; the result is canonical (axes sorted by id, GUs by cycle)
    so identical row sets always produce identical trees.  Equal growth
    units of the tree are one (frozen) object.

    The first broken rule is raised: the axis rules, then the GU row rules
    in row order, then each axis's GU rules by axis id, then the
    attachment rules by axis id.  Leaf scar counts that differ from the
    internode counts are logged axis by axis, before any later axis's fault.

    Raises:
        DanglingParent: an axis references an undeclared parent, or a GU
            an undeclared axis.
        CycleDetected: parent links loop.
        NonContiguousCA: the GU cycle sequence of an axis has a gap.
        BadInsertion: a child does not attach to an existing parent GU, or
            its first GU is not at the insertion cycle or one cycle later.
        DuplicateKey, InvalidTopology: identity or structural rule broken,
            or a table's columns differ in length.
    """
    for name, columns in (("axis", axes), ("GU", gus)):
        if len(set(map(len, columns))) > 1:  # zip would drop the longer columns' rows
            raise InvalidTopology(f"{name} table columns differ in length: "
                                  f"{[len(column) for column in columns]}")
    if not axes[0]:
        raise InvalidTopology("no axis records")
    tree_ids = set(axes[0]) | set(gus[0])
    if len(tree_ids) != 1:
        raise InvalidTopology(f"records span multiple trees: {sorted(tree_ids)}")
    tree_id = tree_ids.pop()

    by_id: dict[str, tuple[str | None, int | None]] = {}  # parent id and insertion cycle
    for axis_id, parent_id, insertion_ca in zip(*axes[1:]):
        if axis_id in by_id:
            raise DuplicateKey(f"axis {axis_id!r} declared twice")
        by_id[axis_id] = parent_id, insertion_ca

    roots = [axis_id for axis_id, (parent_id, _) in by_id.items() if parent_id is None]
    if len(roots) != 1:
        raise InvalidTopology(
            f"tree {tree_id!r} must have exactly one root axis, found {len(roots)}"
        )

    for axis_id, (parent_id, _) in by_id.items():
        if parent_id is not None and parent_id not in by_id:
            raise DanglingParent(
                f"axis {axis_id!r} names unknown parent {parent_id!r}"
            )

    # Parent links must form a tree rooted at the single root.  A walk ends
    # at an axis an earlier walk reached the root from; a loop reaches none.
    rooted: set[str] = set()
    for axis_id, (cur, _) in by_id.items():
        seen = {axis_id}
        while cur is not None and cur not in rooted:
            if cur in seen:
                raise CycleDetected(f"parent links loop through axis {cur!r}")
            seen.add(cur)
            cur = by_id[cur][0]
        rooted |= seen

    axes_of = _assembled(by_id, gus)
    age = max(axis.last_ca for axis in axes_of.values())
    return TreeTopology(tree_id=tree_id, age=age, axes=axes_of)


def _assembled(
    by_id: Mapping[str, tuple[str | None, int | None]], gus: Sequence[Sequence]
) -> dict[str, Axis]:
    """The axes of the GU table ``gus`` (its columns), keyed by id in sorted
    order; raises the first broken GU or attachment rule, in
    :func:`build_topology`'s order.

    One sort groups the rows by axis and orders each axis's cycles, and an
    axis's cycles are checked against one ``range``.
    """
    try:
        rows = sorted(zip(*gus), key=itemgetter(1, 2))  # by axis id, then cycle
        groups = {axis_id: list(group) for axis_id, group in groupby(rows, key=itemgetter(1))}
        rows_hold = groups.keys() <= by_id.keys() and (not rows or (
            min(gus[2]) >= 1 and min(gus[3]) >= 1))
    except TypeError:  # a cell that does not compare: its row's rule meets it
        rows_hold = False
    if not rows_hold:  # a column minimum cannot say which row broke it
        for _, axis_id, ca, count, _ in zip(*gus):
            if axis_id not in by_id:
                raise DanglingParent(f"GU references unknown axis {axis_id!r}")
            if ca < 1:
                raise InvalidTopology(f"axis {axis_id!r}: GU ca {ca} < 1")
            if count < 1:
                raise InvalidTopology(
                    f"axis {axis_id!r} GU ca {ca}: internode_count < 1"
                )
        # No row breaks a row rule, so a sort failed: it raises its TypeError again.
        rows = sorted(zip(*gus), key=itemgetter(1, 2))
    key = itemgetter(2, 3, 4)  # ca, internode and leaf scar counts
    units = {k: GrowthUnit(*k) for k in set(map(key, rows))}  # equal GUs share one object
    gu_objects = list(map(units.__getitem__, map(key, rows)))
    axes: dict[str, Axis] = {}
    done = 0  # rows of the axes whose GU rules hold
    cycle = itemgetter(2)
    for axis_id in sorted(by_id):
        cas = list(map(cycle, groups.get(axis_id, ())))
        if not cas or cas != list(range(cas[0], cas[0] + len(cas))):
            _warn_scars(rows[:done])
            if not cas:
                raise InvalidTopology(f"axis {axis_id!r} has no growth units")
            k = next(k for k, ca in enumerate(cas) if ca != cas[0] + k)
            if cas[k] == cas[k - 1]:
                raise DuplicateKey(f"axis {axis_id!r}: GU ca {cas[k]} declared twice")
            raise NonContiguousCA(f"axis {axis_id!r}: GU ca jumps from {cas[k - 1]} to {cas[k]}")
        axes[axis_id] = Axis(axis_id, *by_id[axis_id], tuple(gu_objects[done : done + len(cas)]))
        done += len(cas)
    if any(scars and scars != count for _, count, scars in units):
        _warn_scars(rows)
    # Attachment rule: a child inserted on a parent GU of cycle c starts at
    # c or c + 1 (generated trees always use c + 1).
    for axis in axes.values():
        if axis.is_root:
            continue
        ins = axis.insertion_ca
        if ins is None:
            raise BadInsertion(f"axis {axis.id!r} has a parent but no insertion_ca")
        parent = axes[axis.parent_id]
        if not parent.first_ca <= ins <= parent.last_ca:
            raise BadInsertion(f"axis {axis.id!r} inserts at ca {ins} but parent "
                               f"{parent.id!r} has no GU there")
        if not ins <= axis.first_ca <= ins + 1:
            raise BadInsertion(f"axis {axis.id!r}: first GU ca {axis.first_ca} not at "
                               f"insertion ca {ins} or one cycle later")
    return axes


def _warn_scars(rows: Sequence[tuple]) -> None:
    """Log the GU rows, tuples in the GU table's column order, whose leaf
    scars are not one per internode: one blade per internode is structural,
    so scars only flag odd rows."""
    for _, axis_id, ca, count, scars in rows:
        if scars and scars != count:
            logger.warning(
                "axis %s GU ca %d: %d leaf scars for %d internodes",
                axis_id, ca, scars, count,
            )


def with_physio_ages(
    t: TreeTopology, pa_map: Mapping[str, int], p_max: int = DEFAULT_P_MAX
) -> TreeTopology:
    """Return a copy of the topology with physiological ages applied.

    This is the one place a PA map becomes PAs: later stages read
    ``Axis.pa``.  The map must give every axis of the tree an integer PA
    (a ``bool`` is none) in 1..p_max, the root PA 1, and name no axis the
    tree lacks (such a map is another tree's); a child with a PA below its
    parent is a data anomaly that is logged, not rejected.
    """
    extra = sorted(set(pa_map) - set(t.axes))
    if extra:
        raise ValidationError(f"PA map axis {extra[0]!r} is not in tree {t.tree_id!r}")
    axes: dict[str, Axis] = {}
    for axis_id in sorted(t.axes):
        axis = t.axes[axis_id]
        if axis_id not in pa_map:
            raise MissingPA(f"axis {axis_id!r} has no PA assignment")
        pa = pa_map[axis_id]
        if not isinstance(pa, Integral) or isinstance(pa, bool):  # numpy integers are Integral
            raise MissingPA(f"axis {axis_id!r}: PA must be an integer, got {pa!r}")
        pa = int(pa)
        if not 1 <= pa <= p_max:
            raise MissingPA(f"axis {axis_id!r}: PA {pa} outside 1..{p_max}")
        if axis.is_root and pa != 1:
            raise MissingPA(f"root axis {axis_id!r} must be PA 1, got {pa}")
        axes[axis_id] = Axis(axis.id, axis.parent_id, axis.insertion_ca, axis.gus, pa)
    for axis in axes.values():
        if not axis.is_root and axis.pa < axes[axis.parent_id].pa:
            logger.warning(
                "axis %s has PA %d below its parent's PA %d",
                axis.id, axis.pa, axes[axis.parent_id].pa,
            )
    return TreeTopology(tree_id=t.tree_id, age=t.age, axes=axes)


def organ_census(t: TreeTopology, cycle: int) -> dict[tuple[int, str], int]:
    """Count internodes and blades born at ``cycle``, keyed by (PA, kind).

    Read off :attr:`TreeTopology.census`, so it raises MissingPA while any
    axis is unclassified, whatever the cycle.  Every internode bears
    exactly one blade, so blade counts mirror internode counts.
    """
    if not 1 <= cycle <= t.age:
        raise CycleOutOfRange(f"cycle {cycle} outside 1..{t.age}")
    counts: dict[tuple[int, str], int] = {}
    for (pa, ca), size in t.census.counts.items():
        if ca == cycle:
            counts[(pa, INTERNODE)] = counts[(pa, BLADE)] = size
    return counts


# -- generative topologies ----------------------------------------------------

@dataclass(frozen=True)
class GrowthRules:
    """Deterministic branching rules for synthetic trees.

    Each axis adds one GU per cycle until the tree age; every GU of a
    PA ``p`` axis bears ``branches_per_gu[p]`` child axes of PA ``p + 1``
    (none beyond ``p_max``) whose first GU appears the following cycle.
    ``internodes_per_gu`` and ``branches_per_gu`` accept a single int that
    applies to every PA, or a per-PA mapping.
    """

    p_max: int = DEFAULT_P_MAX
    internodes_per_gu: int | Mapping[int, int] = 1
    branches_per_gu: int | Mapping[int, int] = 0

    def __post_init__(self) -> None:
        if self.p_max < 1:
            raise InvalidTopology("p_max must be >= 1")
        for pa in range(1, self.p_max + 1):
            if self.internodes(pa) < 1:
                raise InvalidTopology(f"internodes_per_gu for PA {pa} must be >= 1")
            if self.branches(pa) < 0:
                raise InvalidTopology(f"branches_per_gu for PA {pa} must be >= 0")

    def internodes(self, pa: int) -> int:
        if isinstance(self.internodes_per_gu, int):
            return self.internodes_per_gu
        return int(self.internodes_per_gu.get(pa, 1))

    def branches(self, pa: int) -> int:
        if isinstance(self.branches_per_gu, int):
            return self.branches_per_gu
        return int(self.branches_per_gu.get(pa, 0))


def generate_topology(
    rules: GrowthRules, age: int, tree_id: str = "synthetic"
) -> TreeTopology:
    """Expand branching rules into an explicit tree of the given age.

    This is the brute-force counterpart of the cohort recurrence used by the
    factorized simulator: it materializes every axis and GU.  Axis ids are
    zero-padded creation ranks so canonical (id-sorted) order equals
    creation order.
    """
    if age < 1:
        raise InvalidTopology("age must be >= 1")
    counter = 0

    def new_id() -> str:
        nonlocal counter
        counter += 1
        return f"a{counter:06d}"

    # Breadth-first by creation: (id, parent, insertion_ca, pa, first_ca)
    queue: list[tuple[str, str | None, int | None, int, int]] = [
        (new_id(), None, None, 1, 1)
    ]
    gu_axes, cycles, counts = [], [], []  # GU table columns after tree_id, bar the scars
    for axis_id, _, _, pa, first_ca in queue:  # grows while it is walked
        span = range(first_ca, age + 1)
        gu_axes += [axis_id] * len(span)
        cycles += span
        counts += [rules.internodes(pa)] * len(span)
        if pa < rules.p_max:
            for ca in span[:-1]:  # a GU of the last cycle bears nothing
                for _ in range(rules.branches(pa)):
                    queue.append((new_id(), axis_id, ca, pa + 1, ca + 1))

    axis_ids, parents, insertions, pas, _ = zip(*queue)  # the axis table, bar tree_id
    # One leaf scar per internode: the scar column is the count column.
    t = build_topology([[tree_id] * len(queue), axis_ids, parents, insertions],
                       [[tree_id] * len(gu_axes), gu_axes, cycles, counts, counts])
    return with_physio_ages(t, dict(zip(axis_ids, pas)), p_max=rules.p_max)
