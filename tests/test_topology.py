import logging
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fspm import (
    GrowthRules,
    TreeTopology,
    build_topology,
    generate_topology,
    organ_census,
    with_physio_ages,
)
from fspm.errors import (
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
from fspm.topology import Axis, GrowthUnit
from test_ingest import topology_of

logger = logging.getLogger("fspm.topology")  # where build_topology warns


def axis(tree, aid, parent=None, ins=None):
    return (tree, aid, parent, ins)


def gu(tree, aid, ca, n=1):
    return (tree, aid, ca, n, n)


class TestBuildTopology:
    def test_single_axis(self):
        t = topology_of(
            [axis("T", "A")],
            [gu("T", "A", 1), gu("T", "A", 2), gu("T", "A", 3)],
        )
        assert t.age == 3
        assert len(t.axes) == 1
        assert [g.ca for g in t.axes["A"].gus] == [1, 2, 3]

    def test_child_offset_by_one(self):
        t = topology_of(
            [axis("T", "A"), axis("T", "B", "A", 2)],
            [gu("T", "A", 1), gu("T", "A", 2), gu("T", "B", 3)],
        )
        assert t.axes["B"].first_ca == 3
        assert [(c.id, c.insertion_ca) for c in t.children_of("A")] == [("B", 2)]
        assert t.children_of("B") == []

    def test_child_at_insertion_cycle_allowed(self):
        t = topology_of(
            [axis("T", "A"), axis("T", "B", "A", 2)],
            [gu("T", "A", 1), gu("T", "A", 2), gu("T", "B", 2)],
        )
        assert t.axes["B"].first_ca == 2

    def test_dangling_parent(self):
        with pytest.raises(DanglingParent):
            topology_of(
                [axis("T", "A"), axis("T", "B", "Z", 1)],
                [gu("T", "A", 1), gu("T", "B", 2)],
            )

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected, match="^parent links loop through axis 'A'$"):
            topology_of(
                [axis("T", "R"), axis("T", "A", "B", 1), axis("T", "B", "A", 1)],
                [gu("T", "R", 1), gu("T", "A", 1), gu("T", "B", 1)],
            )

    def test_cycle_met_after_rooted_axes(self):
        # The walk from D enters the loop; R and C reached the root first.
        records = [axis("T", "R"), axis("T", "C", "R", 1), axis("T", "D", "B", 1),
                   axis("T", "A", "B", 1), axis("T", "B", "A", 1)]
        with pytest.raises(CycleDetected, match="^parent links loop through axis 'B'$"):
            topology_of(records, [gu("T", r[1], 1) for r in records])

    def test_deep_chain_builds_in_linear_time(self):
        # Axis k bears axis k + 1.  A parent check that walked every axis
        # to the root took about 8 s at this depth.
        ids = [f"x{k:05d}" for k in range(10_000)]
        records = [axis("T", ids[0])] + [axis("T", c, p, 1) for p, c in zip(ids, ids[1:])]
        start = time.perf_counter()
        t = topology_of(records, [gu("T", i, 1) for i in ids])
        assert time.perf_counter() - start < 2.0
        assert len(t.axes) == len(ids)

    def test_non_contiguous_ca(self):
        with pytest.raises(NonContiguousCA):
            topology_of([axis("T", "A")], [gu("T", "A", 1), gu("T", "A", 3)])

    def test_duplicate_axis(self):
        with pytest.raises(DuplicateKey):
            topology_of([axis("T", "A"), axis("T", "A")], [gu("T", "A", 1)])

    def test_duplicate_gu(self):
        with pytest.raises(DuplicateKey):
            topology_of([axis("T", "A")], [gu("T", "A", 1), gu("T", "A", 1)])

    def test_multiple_roots(self):
        with pytest.raises(InvalidTopology):
            topology_of(
                [axis("T", "A"), axis("T", "B")],
                [gu("T", "A", 1), gu("T", "B", 1)],
            )

    def test_bad_insertion_no_parent_gu(self):
        with pytest.raises(BadInsertion):
            topology_of(
                [axis("T", "A"), axis("T", "B", "A", 5)],
                [gu("T", "A", 1), gu("T", "B", 2)],
            )

    def test_bad_insertion_offset(self):
        with pytest.raises(BadInsertion):
            topology_of(
                [axis("T", "A"), axis("T", "B", "A", 1)],
                [gu("T", "A", 1), gu("T", "A", 2), gu("T", "A", 3), gu("T", "B", 4)],
            )

    def test_scar_mismatch_warns_without_changing_structure(self, caplog):
        with caplog.at_level("WARNING"):
            t = topology_of(
                [axis("T", "A")], [("T", "A", 1, 3, 5)]
            )
        assert t.axes["A"].gus[0].internode_count == 3
        assert any("leaf scars" in r.message for r in caplog.records)

    def test_deterministic_under_input_order(self):
        axes = [axis("T", "A"), axis("T", "B", "A", 1), axis("T", "C", "A", 2)]
        gus = [
            gu("T", "A", 1, 2), gu("T", "A", 2, 3), gu("T", "A", 3, 1),
            gu("T", "B", 2, 4), gu("T", "C", 3, 2),
        ]
        reference = topology_of(axes, gus)
        rng = random.Random(7)
        for _ in range(5):
            shuffled_axes = axes[:]
            shuffled_gus = gus[:]
            rng.shuffle(shuffled_axes)
            rng.shuffle(shuffled_gus)
            again = topology_of(shuffled_axes, shuffled_gus)
            assert again == reference
            assert again.axes == reference.axes

    def test_borne_axes_recorded_on_bearing_gu(self):
        axes = [axis("T", "A"), axis("T", "D", "A", 1), axis("T", "B", "A", 1),
                axis("T", "C", "A", 2), axis("T", "E", "B", 2)]
        gus = [gu("T", "A", ca, 1) for ca in (1, 2, 3)]
        gus += [gu("T", "B", 1, 1), gu("T", "B", 2, 1), gu("T", "C", 3, 1),
                gu("T", "D", 2, 1), gu("T", "E", 3, 1)]
        t = topology_of(axes, gus)
        borne = {(a.id, g.ca): tuple(c.id for c in t.children_of(a.id) if c.insertion_ca == g.ca)
                 for a in t.axes.values() for g in a.gus}
        assert borne == {
            ("A", 1): ("B", "D"), ("A", 2): ("C",), ("A", 3): (),
            ("B", 1): (), ("B", 2): ("E",), ("C", 3): (), ("D", 2): (), ("E", 3): (),
        }

    @pytest.mark.parametrize("table", ["axis", "GU"])
    def test_columns_of_unequal_length_rejected(self, table):
        # zip would end at the shortest column and drop the other rows unseen.
        axes = [["T", "T"], ["A", "B"], [None, "A"], [None, 1]]
        gus = [["T", "T", "T"], ["A", "A", "B"], [1, 2, 2], [1, 1, 1], [1, 1, 1]]
        (axes if table == "axis" else gus)[2].pop()
        lengths = [2, 2, 1, 2] if table == "axis" else [3, 3, 2, 3, 3]
        with pytest.raises(InvalidTopology,
                           match=rf"^{table} table columns differ in length: \{lengths}$"):
            build_topology(axes, gus)


class AxisRow(NamedTuple):
    """An axis row as the oracle reads it, by the names of its CSV columns."""

    tree_id: str
    axis_id: str
    parent_axis_id: str | None
    insertion_ca: int | None


class GURow(NamedTuple):
    """A GU row as the oracle reads it, by the names of its CSV columns."""

    tree_id: str
    axis_id: str
    gu_ca: int
    internode_count: int
    leaf_scar_count: int


def legacy_build_topology(axis_records, gu_records):
    """Oracle: build_topology as it was before GU rows were grouped by one
    sort, every GU rule checked row by row, and it read rows by field name
    rather than columns; its body copied unchanged, rows given as
    :class:`AxisRow` and :class:`GURow`."""
    if not axis_records:
        raise InvalidTopology("no axis records")
    tree_ids = {r.tree_id for r in axis_records} | {r.tree_id for r in gu_records}
    if len(tree_ids) != 1:
        raise InvalidTopology(f"records span multiple trees: {sorted(tree_ids)}")
    tree_id = tree_ids.pop()

    by_id: dict[str, AxisRow] = {}
    for rec in axis_records:
        if rec.axis_id in by_id:
            raise DuplicateKey(f"axis {rec.axis_id!r} declared twice")
        by_id[rec.axis_id] = rec

    roots = [r for r in by_id.values() if r.parent_axis_id is None]
    if len(roots) != 1:
        raise InvalidTopology(
            f"tree {tree_id!r} must have exactly one root axis, found {len(roots)}"
        )

    for rec in by_id.values():
        if rec.parent_axis_id is not None and rec.parent_axis_id not in by_id:
            raise DanglingParent(
                f"axis {rec.axis_id!r} names unknown parent {rec.parent_axis_id!r}"
            )

    # Parent links must form a tree rooted at the single root.  A walk ends
    # at an axis an earlier walk reached the root from; a loop reaches none.
    rooted: set[str] = set()
    for rec in by_id.values():
        seen = {rec.axis_id}
        cur = rec.parent_axis_id
        while cur is not None and cur not in rooted:
            if cur in seen:
                raise CycleDetected(f"parent links loop through axis {cur!r}")
            seen.add(cur)
            cur = by_id[cur].parent_axis_id
        rooted |= seen

    gus_by_axis: dict[str, list[GURow]] = {k: [] for k in by_id}
    for rec in gu_records:
        if rec.axis_id not in by_id:
            raise DanglingParent(f"GU references unknown axis {rec.axis_id!r}")
        if rec.gu_ca < 1:
            raise InvalidTopology(f"axis {rec.axis_id!r}: GU ca {rec.gu_ca} < 1")
        if rec.internode_count < 1:
            raise InvalidTopology(
                f"axis {rec.axis_id!r} GU ca {rec.gu_ca}: internode_count < 1"
            )
        gus_by_axis[rec.axis_id].append(rec)

    axes: dict[str, Axis] = {}
    for axis_id in sorted(by_id):
        rec = by_id[axis_id]
        rows = sorted(gus_by_axis[axis_id], key=lambda g: g.gu_ca)
        if not rows:
            raise InvalidTopology(f"axis {axis_id!r} has no growth units")
        cas = [g.gu_ca for g in rows]
        for a, b in zip(cas, cas[1:]):
            if b == a:
                raise DuplicateKey(f"axis {axis_id!r}: GU ca {a} declared twice")
            if b != a + 1:
                raise NonContiguousCA(
                    f"axis {axis_id!r}: GU ca jumps from {a} to {b}"
                )
        for g in rows:
            # One blade per internode is structural; scars only flag odd rows.
            if g.leaf_scar_count and g.leaf_scar_count != g.internode_count:
                logger.warning(
                    "axis %s GU ca %d: %d leaf scars for %d internodes",
                    axis_id, g.gu_ca, g.leaf_scar_count, g.internode_count,
                )
        gus = tuple(
            GrowthUnit(ca=g.gu_ca, internode_count=g.internode_count,
                       leaf_scar_count=g.leaf_scar_count)
            for g in rows
        )
        axes[axis_id] = Axis(
            id=axis_id,
            parent_id=rec.parent_axis_id,
            insertion_ca=rec.insertion_ca,
            gus=gus,
        )

    # Attachment rule: a child inserted on a parent GU of cycle c starts at
    # c or c + 1 (generated trees always use c + 1).
    for axis in axes.values():
        if axis.is_root:
            continue
        if axis.insertion_ca is None:
            raise BadInsertion(f"axis {axis.id!r} has a parent but no insertion_ca")
        parent = axes[axis.parent_id]
        if parent.gu_at(axis.insertion_ca) is None:
            raise BadInsertion(
                f"axis {axis.id!r} inserts at ca {axis.insertion_ca} but parent "
                f"{parent.id!r} has no GU there"
            )
        if axis.first_ca not in (axis.insertion_ca, axis.insertion_ca + 1):
            raise BadInsertion(
                f"axis {axis.id!r}: first GU ca {axis.first_ca} not at insertion "
                f"ca {axis.insertion_ca} or one cycle later"
            )

    age = max(axis.last_ca for axis in axes.values())
    return TreeTopology(tree_id=tree_id, age=age, axes=axes)


FAULTS = ("drop_gu", "repeat_gu", "shift_ca", "shift_axis", "root_from_zero",
          "insert_off_parent", "bad_count", "cell_not_comparing", "gu_of_unknown_axis",
          "repeat_axis", "second_root", "dangling_parent", "loop", "no_insertion",
          "shift_insertion", "other_tree", "no_gus", "no_axes")


@st.composite
def record_sets(draw):
    """The axis and GU rows of a random tree, valid or with one or two
    faults, in any order; leaf scar counts may disagree with the internode
    counts."""
    ids = draw(st.permutations([f"A{i}" for i in range(draw(st.integers(1, 6)))]))
    axes, gus, spans = [], [], {}
    for i, axis_id in enumerate(ids):
        if i == 0:
            parent, ins, first = None, None, draw(st.integers(1, 2))
        else:
            parent = draw(st.sampled_from(ids[:i]))
            ins = draw(st.integers(*spans[parent]))
            first = ins + draw(st.integers(0, 1))
        spans[axis_id] = (first, first + draw(st.integers(0, 3)))
        axes.append(AxisRow("T", axis_id, parent, ins))
        for ca in range(spans[axis_id][0], spans[axis_id][1] + 1):
            count = draw(st.integers(1, 3))
            gus.append(GURow("T", axis_id, ca, count, draw(st.sampled_from([count, 0, 4]))))
    # "valid" leaves the tree as it is, and so do faults that find no row.
    faults = draw(st.lists(st.sampled_from(FAULTS + ("valid",) * 6), min_size=1, max_size=2))
    for fault in faults:
        if fault == "no_axes":
            axes = []
            continue
        if fault == "no_gus":
            gus = []
            continue
        axis_at = draw(st.integers(0, len(axes) - 1)) if axes else None
        gu_at = draw(st.integers(0, len(gus) - 1)) if gus else None
        if fault == "drop_gu" and gus:
            del gus[gu_at]
        elif fault == "repeat_gu" and gus:
            gus.append(gus[gu_at])
        elif fault == "shift_ca" and gus:
            gus[gu_at] = gus[gu_at]._replace(gu_ca=gus[gu_at].gu_ca + draw(st.integers(-2, 2)))
        elif fault in ("shift_axis", "root_from_zero", "insert_off_parent") and axes:
            # Move a whole axis: a random step, the root to start at cycle 0,
            # or an axis to insert just before or past its parent's GUs.
            parents = {a.parent_axis_id for a in axes}
            if fault == "root_from_zero":
                axis_at = next((i for i, a in enumerate(axes) if a.parent_axis_id is None), 0)
            elif fault == "insert_off_parent":  # a tip axis, so that no child comes loose
                axis_at = draw(st.sampled_from(
                    [i for i, a in enumerate(axes) if a.axis_id not in parents] or [0]))
            rec = axes[axis_at]
            cas = [g.gu_ca for g in gus if g.axis_id == rec.axis_id] or [1]
            shift = {"shift_axis": draw(st.sampled_from([-1, 1, 2])),
                     "root_from_zero": -min(cas)}.get(fault)
            if shift is None:
                bearing = [g.gu_ca for g in gus if g.axis_id == rec.parent_axis_id] or [1]
                ins = draw(st.sampled_from([min(bearing) - 1, max(bearing) + 1]))
                axes[axis_at] = rec._replace(insertion_ca=ins)
                shift = ins + draw(st.integers(0, 1)) - min(cas)
            gus = [g._replace(gu_ca=g.gu_ca + shift) if g.axis_id == rec.axis_id else g
                   for g in gus]
        elif fault == "bad_count" and gus:
            gus[gu_at] = gus[gu_at]._replace(internode_count=draw(st.integers(-1, 0)))
        elif fault == "gu_of_unknown_axis":
            gus.append(GURow("T", "Z", 1, 1, 1))
        elif fault == "repeat_axis" and axes:
            axes.append(axes[axis_at])
        elif fault == "second_root":
            axes.append(AxisRow("T", "R2", None, None))
            gus.append(GURow("T", "R2", 1, 1, 1))
        elif fault == "dangling_parent" and axes:
            axes[axis_at] = axes[axis_at]._replace(parent_axis_id="Q", insertion_ca=1)
        elif fault == "loop" and axes:
            other = draw(st.sampled_from([a.axis_id for a in axes]))
            axes[axis_at] = axes[axis_at]._replace(parent_axis_id=other, insertion_ca=1)
        elif fault == "no_insertion" and axes:
            axes[axis_at] = axes[axis_at]._replace(insertion_ca=None)
        elif fault == "shift_insertion" and axes and axes[axis_at].insertion_ca is not None:
            ins = axes[axis_at].insertion_ca + draw(st.sampled_from([-2, -1, 1, 2]))
            axes[axis_at] = axes[axis_at]._replace(insertion_ca=ins)
        elif fault == "other_tree" and gus:
            gus[gu_at] = gus[gu_at]._replace(tree_id="U")
    # A cell that does not compare, put in after the faults that count with cells.
    if "cell_not_comparing" in faults and gus:
        gu_at = draw(st.integers(0, len(gus) - 1))
        cell = draw(st.sampled_from([{"gu_ca": None}, {"internode_count": "2"}]))
        gus[gu_at] = gus[gu_at]._replace(**cell)
    return draw(st.permutations(axes)), draw(st.permutations(gus))


@contextmanager
def warnings_logged():
    """The messages build_topology logs inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def outcome(build, axis_records, gu_records):
    """A built tree's id, age and axes in order, or the error class and text;
    then the warnings logged."""
    with warnings_logged() as messages:
        try:
            t = build(axis_records, gu_records)
        except Exception as exc:  # the class and message are what is compared
            return (type(exc), str(exc)), messages
    return (t.tree_id, t.age, list(t.axes.items())), messages


class TestBuildTopologyOracle:
    @settings(max_examples=300)
    @given(record_sets())
    def test_same_tree_or_same_error_as_row_by_row_build(self, records):
        assert outcome(topology_of, *records) == outcome(legacy_build_topology, *records)

class TestOrganCensus:
    def test_single_axis_counts(self):
        t = topology_of([axis("T", "A")], [gu("T", "A", 1, 10)])
        t = with_physio_ages(t, {"A": 1})
        assert organ_census(t, 1) == {(1, "internode"): 10, (1, "blade"): 10}

    def test_cycle_without_new_gus_is_empty(self):
        # Constructed directly: a recorded tree always covers every cycle,
        # but the census must still answer gracefully.
        bare = TreeTopology(
            tree_id="T", age=3,
            axes={"A": Axis(id="A", parent_id=None, insertion_ca=None,
                            gus=(GrowthUnit(ca=1, internode_count=2),), pa=1)},
        )
        assert organ_census(bare, 2) == {}

    def test_two_axis_hand_walk(self, small_tree):
        # Root GUs at 1 (3 internodes) and 2 (5), child PA2 GU at 2 (4).
        assert organ_census(small_tree, 2) == {
            (1, "internode"): 5, (1, "blade"): 5,
            (2, "internode"): 4, (2, "blade"): 4,
        }
        assert organ_census(small_tree, 1) == {
            (1, "internode"): 3, (1, "blade"): 3,
        }

    def test_out_of_range(self, small_tree):
        with pytest.raises(CycleOutOfRange):
            organ_census(small_tree, 0)
        with pytest.raises(CycleOutOfRange):
            organ_census(small_tree, 3)

    def test_requires_pa(self):
        t = topology_of([axis("T", "A")], [gu("T", "A", 1)])
        with pytest.raises(MissingPA):
            organ_census(t, 1)

    def test_unclassified_axis_at_another_cycle_raises(self, small_tree):
        # A2 grows only at cycle 2; the census at cycle 1 still needs its PA.
        axes = {**small_tree.axes, "A2": replace(small_tree.axes["A2"], pa=None)}
        partly = TreeTopology(small_tree.tree_id, small_tree.age, axes)
        with pytest.raises(MissingPA, match="'A2'"):
            organ_census(partly, 1)

    def test_census_sums_to_total_internodes(self):
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=2)
        t = generate_topology(rules, 5)
        total = sum(
            count
            for cycle in range(1, t.age + 1)
            for (pa, kind), count in organ_census(t, cycle).items()
            if kind == "internode"
        )
        assert total == t.total_internodes()


class TestWithPhysioAges:
    def test_missing_axis(self, small_tree):
        with pytest.raises(MissingPA):
            with_physio_ages(small_tree, {"A1": 1})

    def test_axis_the_tree_lacks(self, small_tree):
        # A map of another, larger tree classifies every axis and more; the
        # first extra axis in sorted order is named.
        with pytest.raises(ValidationError,
                           match=r"^PA map axis 'A3' is not in tree 'T'$"):
            with_physio_ages(small_tree, {"A1": 1, "A2": 2, "A4": 2, "A3": 3})

    @pytest.mark.parametrize("pa", [2.7, 2.0, "2", True])
    def test_pa_that_is_no_integer_rejected(self, small_tree, pa):
        # int() read 2.7 as PA 2, and took "2", 2.0 and True as PAs.
        with pytest.raises(MissingPA, match=rf"^axis 'A2': PA must be an integer, got {pa!r}$"):
            with_physio_ages(small_tree, {"A1": 1, "A2": pa})

    def test_numpy_integer_pa_accepted(self, small_tree):
        classified = with_physio_ages(small_tree, {"A1": np.int64(1), "A2": np.int32(2)})
        assert [(a.id, a.pa, type(a.pa)) for a in classified.axes.values()] == [
            ("A1", 1, int), ("A2", 2, int)]

    def test_root_must_be_pa1(self, small_tree):
        with pytest.raises(MissingPA):
            with_physio_ages(small_tree, {"A1": 2, "A2": 2})

    def test_child_below_parent_warns_not_raises(self, caplog):
        t = topology_of(
            [axis("T", "A"), axis("T", "B", "A", 1), axis("T", "C", "B", 2)],
            [gu("T", "A", 1), gu("T", "A", 2), gu("T", "B", 2), gu("T", "B", 3),
             gu("T", "C", 3)],
        )
        with caplog.at_level("WARNING"):
            classified = with_physio_ages(t, {"A": 1, "B": 3, "C": 2})
        assert classified.axes["C"].pa == 2
        assert any("below its parent" in r.message for r in caplog.records)


class TestGenerateTopology:
    def test_no_branching_is_single_axis(self):
        t = generate_topology(GrowthRules(p_max=1, internodes_per_gu=2), 4)
        assert len(t.axes) == 1
        assert t.age == 4
        assert t.total_internodes() == 8

    def test_branching_counts(self):
        # One branch per GU into PA2: root GUs at 1..3 bear children starting
        # at 2, 3 (a child starting at 4 would exceed the age).
        t = generate_topology(
            GrowthRules(p_max=2, internodes_per_gu=1, branches_per_gu=1), 3
        )
        pa2 = [a for a in t.axes.values() if a.pa == 2]
        assert len(pa2) == 2
        assert sorted(a.first_ca for a in pa2) == [2, 3]

    def test_canonical_ids_sorted(self):
        t = generate_topology(
            GrowthRules(p_max=3, internodes_per_gu=1, branches_per_gu=2), 4
        )
        ids = list(t.axes)
        assert ids == sorted(ids)
