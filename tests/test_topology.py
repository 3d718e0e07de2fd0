import random
from dataclasses import replace

import pytest

from fspm import (
    AxisRecord,
    GrowthRules,
    GURecord,
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


def axis(tree, aid, parent=None, ins=None):
    return AxisRecord(tree, aid, parent, ins)


def gu(tree, aid, ca, n=1):
    return GURecord(tree, aid, ca, n, n)


class TestBuildTopology:
    def test_single_axis(self):
        t = build_topology(
            [axis("T", "A")],
            [gu("T", "A", 1), gu("T", "A", 2), gu("T", "A", 3)],
        )
        assert t.age == 3
        assert len(t.axes) == 1
        assert [g.ca for g in t.axes["A"].gus] == [1, 2, 3]

    def test_child_offset_by_one(self):
        t = build_topology(
            [axis("T", "A"), axis("T", "B", "A", 2)],
            [gu("T", "A", 1), gu("T", "A", 2), gu("T", "B", 3)],
        )
        assert t.axes["B"].first_ca == 3
        assert [(c.id, c.insertion_ca) for c in t.children_of("A")] == [("B", 2)]
        assert t.children_of("B") == []

    def test_child_at_insertion_cycle_allowed(self):
        t = build_topology(
            [axis("T", "A"), axis("T", "B", "A", 2)],
            [gu("T", "A", 1), gu("T", "A", 2), gu("T", "B", 2)],
        )
        assert t.axes["B"].first_ca == 2

    def test_dangling_parent(self):
        with pytest.raises(DanglingParent):
            build_topology(
                [axis("T", "A"), axis("T", "B", "Z", 1)],
                [gu("T", "A", 1), gu("T", "B", 2)],
            )

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build_topology(
                [axis("T", "R"), axis("T", "A", "B", 1), axis("T", "B", "A", 1)],
                [gu("T", "R", 1), gu("T", "A", 1), gu("T", "B", 1)],
            )

    def test_non_contiguous_ca(self):
        with pytest.raises(NonContiguousCA):
            build_topology([axis("T", "A")], [gu("T", "A", 1), gu("T", "A", 3)])

    def test_duplicate_axis(self):
        with pytest.raises(DuplicateKey):
            build_topology([axis("T", "A"), axis("T", "A")], [gu("T", "A", 1)])

    def test_duplicate_gu(self):
        with pytest.raises(DuplicateKey):
            build_topology([axis("T", "A")], [gu("T", "A", 1), gu("T", "A", 1)])

    def test_multiple_roots(self):
        with pytest.raises(InvalidTopology):
            build_topology(
                [axis("T", "A"), axis("T", "B")],
                [gu("T", "A", 1), gu("T", "B", 1)],
            )

    def test_bad_insertion_no_parent_gu(self):
        with pytest.raises(BadInsertion):
            build_topology(
                [axis("T", "A"), axis("T", "B", "A", 5)],
                [gu("T", "A", 1), gu("T", "B", 2)],
            )

    def test_bad_insertion_offset(self):
        with pytest.raises(BadInsertion):
            build_topology(
                [axis("T", "A"), axis("T", "B", "A", 1)],
                [gu("T", "A", 1), gu("T", "A", 2), gu("T", "A", 3), gu("T", "B", 4)],
            )

    def test_scar_mismatch_warns_without_changing_structure(self, caplog):
        with caplog.at_level("WARNING"):
            t = build_topology(
                [axis("T", "A")], [GURecord("T", "A", 1, 3, 5)]
            )
        assert t.axes["A"].gus[0].internode_count == 3
        assert any("leaf scars" in r.message for r in caplog.records)

    def test_deterministic_under_input_order(self):
        axes = [axis("T", "A"), axis("T", "B", "A", 1), axis("T", "C", "A", 2)]
        gus = [
            gu("T", "A", 1, 2), gu("T", "A", 2, 3), gu("T", "A", 3, 1),
            gu("T", "B", 2, 4), gu("T", "C", 3, 2),
        ]
        reference = build_topology(axes, gus)
        rng = random.Random(7)
        for _ in range(5):
            shuffled_axes = axes[:]
            shuffled_gus = gus[:]
            rng.shuffle(shuffled_axes)
            rng.shuffle(shuffled_gus)
            again = build_topology(shuffled_axes, shuffled_gus)
            assert again == reference
            assert again.axes == reference.axes

    def test_borne_axes_recorded_on_bearing_gu(self):
        axes = [axis("T", "A"), axis("T", "D", "A", 1), axis("T", "B", "A", 1),
                axis("T", "C", "A", 2), axis("T", "E", "B", 2)]
        gus = [gu("T", "A", ca, 1) for ca in (1, 2, 3)]
        gus += [gu("T", "B", 1, 1), gu("T", "B", 2, 1), gu("T", "C", 3, 1),
                gu("T", "D", 2, 1), gu("T", "E", 3, 1)]
        t = build_topology(axes, gus)
        borne = {(a.id, g.ca): tuple(c.id for c in t.children_of(a.id) if c.insertion_ca == g.ca)
                 for a in t.axes.values() for g in a.gus}
        assert borne == {
            ("A", 1): ("B", "D"), ("A", 2): ("C",), ("A", 3): (),
            ("B", 1): (), ("B", 2): ("E",), ("C", 3): (), ("D", 2): (), ("E", 3): (),
        }


class TestOrganCensus:
    def test_single_axis_counts(self):
        t = build_topology([axis("T", "A")], [gu("T", "A", 1, 10)])
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
        t = build_topology([axis("T", "A")], [gu("T", "A", 1)])
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

    def test_root_must_be_pa1(self, small_tree):
        with pytest.raises(MissingPA):
            with_physio_ages(small_tree, {"A1": 2, "A2": 2})

    def test_child_below_parent_warns_not_raises(self, caplog):
        t = build_topology(
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
