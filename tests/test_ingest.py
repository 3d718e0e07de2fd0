import random
from pathlib import Path

import pytest

from fspm import (
    AxisRecord,
    GURecord,
    InternodeRecord,
    LeafRecord,
    MeasurementSet,
    TargetSeries,
    build_target_series,
    build_topology,
    classify_axes,
    parse_measurements,
    tree_from_json,
    tree_to_json,
    with_physio_ages,
)
from fspm.errors import DuplicateKey, MissingPA, SchemaError, UnitError
from fspm.ingest import serialize_measurements

DATA = Path(__file__).parent / "data"


def write_files(tmp_path, internodes=None, leaves=None, axes=None, gus=None):
    axes = axes or "tree_id,axis_id,parent_axis_id,insertion_ca\nT,A,,\n"
    gus = gus or "tree_id,axis_id,gu_ca,internode_count,leaf_scar_count\nT,A,1,3,3\n"
    internodes = internodes or (
        "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\n"
        "T,A,1,1,2.0,3.0,4.0\nT,A,1,2,2.2,3.1,4.1\nT,A,1,3,2.4,3.2,4.2\n"
    )
    leaves = leaves or (
        "tree_id,axis_id,gu_ca,sample_index,fresh_weight_g,area_cm2\n"
        "T,A,1,1,1.0,30.0\n"
    )
    paths = {}
    for name, text in (("axes", axes), ("gus", gus),
                       ("internodes", internodes), ("leaves", leaves)):
        p = tmp_path / f"{name}.csv"
        p.write_text(text)
        paths[name] = p
    return paths


class TestParseMeasurements:
    def test_three_rows(self, tmp_path):
        paths = write_files(tmp_path)
        ms = parse_measurements(paths["axes"], paths["gus"],
                                paths["internodes"], paths["leaves"])
        assert len(ms.internodes) == 3
        assert ms.internodes[1].fresh_weight == 2.2
        assert ms.tree_ids() == ["T"]

    def test_negative_weight_unit_error(self, tmp_path):
        bad = (
            "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\n"
            "T,A,1,1,2.0,3.0,4.0\nT,A,1,2,-1.0,3.1,4.1\n"
        )
        paths = write_files(tmp_path, internodes=bad)
        with pytest.raises(UnitError, match="internodes.csv:3"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity"])
    @pytest.mark.parametrize("column", [4, 5, 6])
    def test_non_finite_internode_measurement_unit_error(self, tmp_path, raw, column):
        cells = ["T", "A", "1", "2", "2.2", "3.1", "4.1"]
        name = ("fresh_weight_g", "length_cm", "diameter_mm")[column - 4]
        cells[column] = raw
        bad = (
            "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\n"
            "T,A,1,1,2.0,3.0,4.0\n" + ",".join(cells) + "\n"
        )
        paths = write_files(tmp_path, internodes=bad)
        with pytest.raises(UnitError, match=f"internodes.csv:3: column '{name}': "
                                            f"measurement must be finite and > 0, got {raw}"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_leaf_measurement_unit_error(self, tmp_path, raw):
        bad = (
            "tree_id,axis_id,gu_ca,sample_index,fresh_weight_g,area_cm2\n"
            f"T,A,1,1,1.0,{raw}\n"
        )
        paths = write_files(tmp_path, leaves=bad)
        with pytest.raises(UnitError, match="leaves.csv:2: column 'area_cm2'"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    def test_missing_column_schema_error(self, tmp_path):
        bad = (
            "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm\n"
            "T,A,1,1,2.0,3.0\n"
        )
        paths = write_files(tmp_path, internodes=bad)
        with pytest.raises(SchemaError, match="diameter_mm"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    def test_duplicate_key(self, tmp_path):
        bad = (
            "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\n"
            "T,A,1,1,2.0,3.0,4.0\nT,A,1,1,2.1,3.1,4.1\n"
        )
        paths = write_files(tmp_path, internodes=bad)
        with pytest.raises(DuplicateKey):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    def test_malformed_number_schema_error(self, tmp_path):
        bad = (
            "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\n"
            "T,A,1,1,heavy,3.0,4.0\n"
        )
        paths = write_files(tmp_path, internodes=bad)
        with pytest.raises(SchemaError, match="fresh_weight_g"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    def test_reserialize_roundtrip(self, tmp_path):
        paths = write_files(tmp_path)
        ms = parse_measurements(paths["axes"], paths["gus"],
                                paths["internodes"], paths["leaves"])
        texts = serialize_measurements(ms)
        for name, text in texts.items():
            (tmp_path / f"rt_{name}.csv").write_text(text)
        again = parse_measurements(tmp_path / "rt_axes.csv", tmp_path / "rt_gus.csv",
                                   tmp_path / "rt_internodes.csv", tmp_path / "rt_leaves.csv")
        assert again == ms

    def test_roundtrip_preserves_full_float_precision(self, tmp_path):
        # Values far beyond instrument precision must still survive exactly.
        ugly = 2.0000000000000004
        internodes = (
            "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\n"
            f"T,A,1,1,{ugly!r},0.1234567890123456,4.000000000000001\n"
        )
        paths = write_files(tmp_path, internodes=internodes)
        ms = parse_measurements(paths["axes"], paths["gus"],
                                paths["internodes"], paths["leaves"])
        assert ms.internodes[0].fresh_weight == ugly
        text = serialize_measurements(ms)["internodes"]
        (tmp_path / "rt.csv").write_text(text)
        again = parse_measurements(paths["axes"], paths["gus"],
                                   tmp_path / "rt.csv", paths["leaves"])
        assert again.internodes == ms.internodes


def simple_tree(records_weights, tree="T"):
    """One axis, one GU per cycle, one internode per GU with given weights."""
    n = len(records_weights)
    axes = [AxisRecord(tree, "A", None, None)]
    gus = [GURecord(tree, "A", ca, 1, 1) for ca in range(1, n + 1)]
    topo = build_topology(axes, gus)
    internodes = [
        InternodeRecord(tree, "A", ca, 1, w, 5.0, 4.0)
        for ca, w in enumerate(records_weights, start=1)
    ]
    leaves = [
        LeafRecord(tree, "A", ca, 1, 1.0, 30.0) for ca in range(1, n + 1)
    ]
    ms = MeasurementSet(axes=axes, gus=gus, internodes=internodes, leaves=leaves)
    return topo, ms


class TestBuildTargetSeries:
    def test_arithmetic_mean(self):
        topo, ms = simple_tree([4.0])
        ms.internodes = [
            InternodeRecord("T", "A", 1, 1, 4.0, 5.0, 4.0),
        ]
        ms.gus = [GURecord("T", "A", 1, 2, 2)]
        topo = build_topology(ms.axes, ms.gus)
        ms.internodes.append(InternodeRecord("T", "A", 1, 2, 6.0, 5.0, 4.0))
        ts = build_target_series(ms, topo, {"A": 1})
        assert ts.entries[(1, 1)].mean_internode_weight == 5.0
        assert ts.entries[(1, 1)].n_internodes == 2

    def test_gu_blade_mass_is_mean_leaf_times_count(self):
        axes = [AxisRecord("T", "A", None, None)]
        gus = [GURecord("T", "A", 1, 10, 10)]
        topo = build_topology(axes, gus)
        ms = MeasurementSet(
            axes=axes, gus=gus,
            internodes=[InternodeRecord("T", "A", 1, r, 1.0, 5.0, 4.0)
                        for r in range(1, 11)],
            leaves=[LeafRecord("T", "A", 1, s, 2.0, 60.0) for s in (1, 2, 3)],
        )
        ts = build_target_series(ms, topo, {"A": 1})
        assert ts.cumulated[1].cum_blade_mass == pytest.approx(20.0)

    def test_prefix_sum_oracle(self):
        topo, ms = simple_tree([1.0, 2.0, 3.0])
        ts = build_target_series(ms, topo, {"A": 1})
        cum = [ts.cumulated[c].cum_internode_mass for c in (1, 2, 3)]
        assert cum == pytest.approx([1.0, 3.0, 6.0])

    def test_mass_sum_identity(self):
        topo, ms = simple_tree([1.5, 2.5, 3.25, 8.0])
        ts = build_target_series(ms, topo, {"A": 1})
        total_from_entries = sum(
            e.mean_internode_weight * e.n_internodes for e in ts.entries.values()
        )
        raw = sum(r.fresh_weight for r in ms.internodes)
        assert total_from_entries == pytest.approx(raw, rel=1e-9)

    def test_permutation_invariance(self):
        topo, ms = simple_tree([1.0, 2.0, 3.0])
        reference = build_target_series(ms, topo, {"A": 1})
        rng = random.Random(1)
        for _ in range(3):
            shuffled = MeasurementSet(
                axes=ms.axes, gus=ms.gus,
                internodes=random.sample(ms.internodes, len(ms.internodes)),
                leaves=random.sample(ms.leaves, len(ms.leaves)),
            )
            rng.shuffle(shuffled.internodes)
            assert build_target_series(shuffled, topo, {"A": 1}) == reference

    def test_missing_pa(self):
        topo, ms = simple_tree([1.0])
        with pytest.raises(MissingPA):
            build_target_series(ms, topo, {})

    def test_missing_leaf_samples_inherit_and_warn(self, caplog):
        topo, ms = simple_tree([1.0, 2.0])
        ms.leaves = [LeafRecord("T", "A", 1, 1, 3.0, 90.0)]  # nothing at ca 2
        with caplog.at_level("WARNING"):
            ts = build_target_series(ms, topo, {"A": 1})
        assert any("inheriting" in r.message for r in caplog.records)
        # cycle-2 GU inherits the whole-tree leaf mean (3.0 g)
        assert ts.cumulated[2].cum_blade_mass == pytest.approx(6.0)

    def test_json_roundtrip(self):
        topo, ms = simple_tree([1.0, 2.0])
        ts = build_target_series(ms, topo, {"A": 1})
        again = TargetSeries.from_json(ts.to_json())
        assert again == ts

    @pytest.mark.parametrize("cut, message", [
        (lambda text: text[:40], "not valid JSON"),
        (lambda text: text.replace('"cumulated"', '"cum"'), "missing key 'cumulated'"),
        (lambda text: text.replace('"n_internodes"', '"count"'), ".*unexpected keyword"),
    ])
    def test_malformed_json_names_the_file(self, tmp_path, cut, message):
        topo, ms = simple_tree([1.0, 2.0])
        path = tmp_path / "targets.json"
        path.write_text(cut(build_target_series(ms, topo, {"A": 1}).to_json()))
        with pytest.raises(SchemaError, match=f"^{path}: {message}"):
            TargetSeries.load(path)
        with pytest.raises(SchemaError, match=f"^targets: {message}"):
            TargetSeries.from_json(path.read_text())


class TestSingleFixtureHandValues:
    """The committed single-tree fixture against hand-computed aggregates."""

    @pytest.fixture
    def fixture_series(self):
        d = DATA / "single"
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        topo = ms.topology()
        pa_map, _ = classify_axes(topo, ms.internodes, 3)
        classified = with_physio_ages(topo, pa_map)
        return pa_map, build_target_series(ms, classified, pa_map)

    def test_classification(self, fixture_series):
        pa_map, _ = fixture_series
        assert pa_map == {"A1": 1, "A2": 2, "A3": 3}

    def test_entries(self, fixture_series):
        _, ts = fixture_series
        e11 = ts.entries[(1, 1)]
        assert e11.mean_internode_weight == pytest.approx(7.25)
        assert e11.mean_internode_length == pytest.approx(5.4)
        assert e11.mean_internode_diameter == pytest.approx(8.7)
        assert e11.mean_blade_weight == pytest.approx(4.2)
        assert e11.mean_blade_area == pytest.approx(146.0)
        assert e11.n_internodes == 4
        assert ts.entries[(2, 3)].mean_internode_weight == pytest.approx(4.2)
        assert ts.entries[(3, 3)].mean_blade_weight == pytest.approx(1.2)
        assert set(ts.entries) == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}

    def test_cumulated_hand_values(self, fixture_series):
        _, ts = fixture_series
        assert [ts.cumulated[c].cum_internode_mass for c in (1, 2, 3)] == pytest.approx(
            [29.0, 62.9, 93.7]
        )
        assert [ts.cumulated[c].cum_blade_mass for c in (1, 2, 3)] == pytest.approx(
            [16.8, 34.8, 47.6]
        )


class TestTreeJson:
    def test_roundtrip(self, tmp_path):
        d = DATA / "single"
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        topo = ms.topology()
        text = tree_to_json(topo, ms)
        topo2, ms2 = tree_from_json(text)
        assert topo2 == topo
        assert ms2.internodes == ms.internodes
        assert ms2.leaves == ms.leaves
        assert tree_to_json(topo2, ms2) == text

    @pytest.mark.parametrize("cut, message", [
        (lambda text: text[: len(text) // 2], "not valid JSON"),
        (lambda text: text.replace('"measurements"', '"rows"'), "missing key 'measurements'"),
        (lambda text: text.replace('"ca": 1', '"ca": "1"', 1), "'<' not supported"),
    ])
    def test_malformed_json_names_the_source(self, cut, message):
        d = DATA / "single"
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        text = cut(tree_to_json(ms.topology(), ms))
        with pytest.raises(SchemaError, match=f"^tree.json: {message}"):
            tree_from_json(text, "tree.json")
