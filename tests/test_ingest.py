import csv
import gc
import inspect
import io
import json
import math
import random
import sys
import tempfile
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from fspm.cli import main as cli_main
from fspm.errors import (BadInsertion, CycleDetected, DanglingParent, DuplicateKey,
                         InvalidTopology, MissingPA, NonContiguousCA, SchemaError, TreeMismatch,
                         UnitError, ValidationError)
from fspm.ingest import (_TABLES, MAX_CYCLE, MAX_INTERNODES_PER_GU, CumEntry, TargetEntry,
                         _collector_paused, samples_by_gu)
from fspm.topology import TreeTopology
from test_measured_scale import TREES as LARGE_TREES, load_largetree

DATA = Path(__file__).parent / "data"


def serialize_measurements(ms: MeasurementSet) -> dict[str, str]:
    """Oracle: records rendered back to the four CSV texts, losslessly.

    Rows are sorted by their identity.  Cells holding a comma, a quote or a
    line break are quoted.  A row with a carriage return is quoted whole,
    since ``csv.writer`` leaves a lone ``\\r`` unquoted when the line
    terminator is ``\\n``.
    """
    texts = {}
    for name, table in _TABLES.items():
        buf = io.StringIO()
        plain = csv.writer(buf, lineterminator="\n")
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(table.names)
        for record in sorted(getattr(ms, name), key=itemgetter(slice(table.identity))):
            row = ["" if value is None else str(value) for value in record]
            (quoted if any("\r" in cell for cell in row) else plain).writerow(row)
        texts[name] = buf.getvalue()
    return texts


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


LAYOUTS = ["columns", "rows"]


def with_layout(doc: dict, layout: str) -> dict:
    """A copy of ``doc`` whose measurement tables are in ``layout``: "rows"
    rewrites each object of columns, as tree_to_json writes it, as a list of
    one object per row, the layout of earlier versions; "columns" turns such
    rows back into columns.  tree_from_json reads both."""
    measurements = {}
    for name, table in doc["measurements"].items():
        if layout == "rows" and type(table) is dict:
            table = [dict(zip(table, row)) for row in zip(*table.values())]
        elif layout == "columns" and type(table) is list:
            table = {key: [row[key] for row in table] for key in _TABLES[name].json_keys}
        measurements[name] = table
    return {**doc, "measurements": measurements}


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

    def test_blank_lines_count_in_line_numbers(self, tmp_path):
        gus = ("tree_id,axis_id,gu_ca,internode_count,leaf_scar_count\n"
               "T,A,1,3,3\n\nT,A,2,3,3\nT,A,3,0,0\n")
        paths = write_files(tmp_path, gus=gus)
        with pytest.raises(UnitError, match=r"gus.csv:5: column 'internode_count': 0 < 1$"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    @pytest.mark.parametrize("name, row, column, bound", [
        ("axes", "T,B,A,{}", "insertion_ca", MAX_CYCLE),
        ("gus", "T,A,{},3,3", "gu_ca", MAX_CYCLE),
        ("gus", "T,A,1,{},3", "internode_count", MAX_INTERNODES_PER_GU),
        ("internodes", "T,A,1,{},2.0,3.0,4.0", "rank_in_gu", MAX_INTERNODES_PER_GU),
        ("leaves", "T,A,{},1,1.0,30.0", "gu_ca", MAX_CYCLE),
    ])
    @pytest.mark.parametrize("past", [1, 10**400], ids=["bound+1", "10**400"])
    def test_count_or_cycle_past_its_bound(self, tmp_path, name, row, column, bound, past):
        # Unbounded, a count of 10**400 passed ingest and failed a later stage.
        header = write_files(tmp_path)[name].read_text().splitlines()[0]
        value = bound + past
        paths = write_files(tmp_path, **{name: f"{header}\n{row.format(value)}\n"})
        with pytest.raises(UnitError) as info:
            parse_measurements(paths["axes"], paths["gus"], paths["internodes"], paths["leaves"])
        assert str(info.value) == f"{paths[name]}:2: column {column!r}: {value} > {bound}"

    def test_quoted_cell_spanning_lines_counts_its_lines(self, tmp_path):
        leaves = ("tree_id,axis_id,gu_ca,sample_index,fresh_weight_g,area_cm2\n"
                  'T,"A\nnote",1,1,1.0,30.0\nT,A,1,2,1.0,-30.0\n')
        paths = write_files(tmp_path, leaves=leaves)
        with pytest.raises(UnitError, match="leaves.csv:4: column 'area_cm2'"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])
        # A bad cell in the spanning row is reported on the line the row ends on.
        paths = write_files(tmp_path, leaves=leaves.replace("30.0\n", "-1\n", 1))
        with pytest.raises(UnitError, match="leaves.csv:3: column 'area_cm2'"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    @pytest.mark.parametrize("rows, error, message", [
        # Of two bad cells, the earlier row's is reported, whatever its column.
        ("T,A,1,1,2.0,3.0,4.0\nT,A,1,2,2.0,3.0,-4.0\nT,A,1,0,2.0,3.0,4.0\n",
         UnitError, "internodes.csv:3: column 'diameter_mm': measurement"),
        # In one row, the first column's.
        ("T,A,1,1,2.0,3.0,4.0\nT,A,1,2,2.0,x,-4.0\n",
         SchemaError, "internodes.csv:3: column 'length_cm': not a number: 'x'"),
        # A repeated identity before a bad cell is reported first ...
        ("T,A,1,1,2.0,3.0,4.0\nT,A,1,1,2.0,3.0,4.0\nT,A,1,2,-2.0,3.0,4.0\n",
         DuplicateKey, r"internodes.csv:3: internode \('T', 'A', 1, 1\) measured twice"),
        # ... but not a bad cell in the repeating row.
        ("T,A,1,1,2.0,3.0,4.0\nT,A,1,1,-2.0,3.0,4.0\n",
         UnitError, "internodes.csv:3: column 'fresh_weight_g'"),
        # A bad cell above a short row is reported first, and a short row
        # before a bad cell below it.
        ("T,A,1,1,2.0,3.0,4.0\nT,A,1,2,2.0,3.0,0\nT,A,1,3\n",
         UnitError, "internodes.csv:3: column 'diameter_mm'"),
        ("T,A,1,1,2.0,3.0,4.0\nT,A,1,3\nT,A,1,2,2.0,3.0,0\n",
         SchemaError, "internodes.csv:3: column 'fresh_weight_g': missing cell"),
    ])
    def test_first_fault_in_file_order(self, tmp_path, rows, error, message):
        internodes = ("tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\n"
                      + rows)
        paths = write_files(tmp_path, internodes=internodes)
        with pytest.raises(error, match=message):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    @pytest.mark.parametrize("axes, message", [
        ("tree_id,axis_id,parent_axis_id,insertion_ca\nT,A\n", "axes.csv:2: column 'parent_axis_id'"),
        ("insertion_ca,axis_id,tree_id,parent_axis_id\n\n,A\n", "axes.csv:3: column 'tree_id'"),
    ])
    def test_short_row_schema_error(self, tmp_path, axes, message):
        paths = write_files(tmp_path, axes=axes)
        with pytest.raises(SchemaError, match=f"{message}: missing cell$"):
            parse_measurements(paths["axes"], paths["gus"],
                               paths["internodes"], paths["leaves"])

    @pytest.mark.parametrize("orphans, message", [
        ({"leaves.csv": "P2,zz,1,1,1.5,40.0\n"},
         "leaves.csv:470: record references unknown GU ('zz', ca 1)"),
        # An internode row is reported before a leaf row, wherever they are.
        ({"leaves.csv": "P2,zz,1,1,1.5,40.0\n", "internodes.csv": "P1,a000000,9,1,1.0,1.0,1.0\n"},
         "internodes.csv:332: record references unknown GU ('a000000', ca 9)"),
    ], ids=["leaf", "internode-first"])
    def test_row_on_a_missing_gu(self, tmp_path, orphans, message):
        # The grove files pass their own checks; a row on a GU gus.csv lacks does not.
        for csv_file in (DATA / "grove").iterdir():
            (tmp_path / csv_file.name).write_bytes(csv_file.read_bytes())
        for name, row in orphans.items():
            with (tmp_path / name).open("a") as fh:
                fh.write(row)
        with pytest.raises(ValidationError) as info:
            parse_measurements(*(tmp_path / f"{name}.csv" for name in _TABLES))
        assert type(info.value) is ValidationError
        assert str(info.value) == f"{tmp_path}/{message}"

    @pytest.mark.parametrize("fixture", ["single", "grove"])
    def test_every_tree_round_trips_through_its_document(self, fixture):
        # What parse_measurements accepts, each tree's document gives back.
        d = DATA / fixture
        ms = parse_measurements(*(d / f"{name}.csv" for name in _TABLES))
        for tree_id in ms.tree_ids():
            sub = ms.for_tree(tree_id)
            topology, again = tree_from_json(tree_to_json(sub.topology(), sub), f"{tree_id}.json")
            assert topology == sub.topology()
            for name in _TABLES:
                assert list(getattr(again, name)) == list(getattr(sub, name)), name

    def test_columns_found_by_name_extra_columns_ignored(self, tmp_path):
        axes = "note,axis_id,insertion_ca,parent_axis_id,tree_id\nroot,A,,,T\n"
        paths = write_files(tmp_path, axes=axes)
        ms = parse_measurements(paths["axes"], paths["gus"],
                                paths["internodes"], paths["leaves"])
        assert ms.axes == [AxisRecord("T", "A", None, None)]

    @pytest.mark.parametrize("fixture", ["single", "grove"])
    def test_serialize_reproduces_fixture_bytes(self, fixture):
        d = DATA / fixture
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        for name, text in serialize_measurements(ms).items():
            assert text.encode() == (d / f"{name}.csv").read_bytes()

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
    """One PA-1 axis, one GU per cycle, one internode per GU with given weights."""
    n = len(records_weights)
    axes = [AxisRecord(tree, "A", None, None)]
    gus = [GURecord(tree, "A", ca, 1, 1) for ca in range(1, n + 1)]
    topo = with_physio_ages(build_topology(axes, gus), {"A": 1})
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
        topo = with_physio_ages(build_topology(ms.axes, ms.gus), {"A": 1})
        ms.internodes.append(InternodeRecord("T", "A", 1, 2, 6.0, 5.0, 4.0))
        ts = build_target_series(ms, topo)
        assert ts.entries[(1, 1)].mean_internode_weight == 5.0
        assert ts.entries[(1, 1)].n_internodes == 2

    def test_gu_blade_mass_is_mean_leaf_times_count(self):
        axes = [AxisRecord("T", "A", None, None)]
        gus = [GURecord("T", "A", 1, 10, 10)]
        topo = with_physio_ages(build_topology(axes, gus), {"A": 1})
        ms = MeasurementSet(
            axes=axes, gus=gus,
            internodes=[InternodeRecord("T", "A", 1, r, 1.0, 5.0, 4.0)
                        for r in range(1, 11)],
            leaves=[LeafRecord("T", "A", 1, s, 2.0, 60.0) for s in (1, 2, 3)],
        )
        ts = build_target_series(ms, topo)
        assert ts.cumulated[1].cum_blade_mass == pytest.approx(20.0)

    def test_prefix_sum_oracle(self):
        topo, ms = simple_tree([1.0, 2.0, 3.0])
        ts = build_target_series(ms, topo)
        cum = [ts.cumulated[c].cum_internode_mass for c in (1, 2, 3)]
        assert cum == pytest.approx([1.0, 3.0, 6.0])

    def test_mass_sum_identity(self):
        topo, ms = simple_tree([1.5, 2.5, 3.25, 8.0])
        ts = build_target_series(ms, topo)
        total_from_entries = sum(
            e.mean_internode_weight * e.n_internodes for e in ts.entries.values()
        )
        raw = sum(r.fresh_weight for r in ms.internodes)
        assert total_from_entries == pytest.approx(raw, rel=1e-9)

    def test_permutation_invariance(self):
        topo, ms = simple_tree([1.0, 2.0, 3.0])
        reference = build_target_series(ms, topo)
        rng = random.Random(1)
        for _ in range(3):
            shuffled = MeasurementSet(
                axes=ms.axes, gus=ms.gus,
                internodes=random.sample(ms.internodes, len(ms.internodes)),
                leaves=random.sample(ms.leaves, len(ms.leaves)),
            )
            rng.shuffle(shuffled.internodes)
            assert build_target_series(shuffled, topo) == reference

    def test_missing_pa(self):
        _, ms = simple_tree([1.0])
        ms.axes.append(AxisRecord("T", "B", "A", 1))
        ms.gus.append(GURecord("T", "B", 1, 1, 1))
        topo = build_topology(ms.axes, ms.gus)
        with pytest.raises(MissingPA, match="^axis 'A' has no PA; classify first$"):
            build_target_series(ms, topo)
        # The topology is the one carrier of PA: classifying one axis is not enough.
        partly = TreeTopology(topo.tree_id, topo.age,
                              {**topo.axes, "A": replace(topo.axes["A"], pa=1)})
        with pytest.raises(MissingPA, match="^axis 'B' has no PA"):
            build_target_series(ms, partly)

    def test_records_of_another_tree_raise(self):
        # Pooled with T's, U's 5.0 g internode would make the PA1/CA1 mean 3.0 g.
        topo, ms = simple_tree([1.0, 2.0])
        _, other = simple_tree([5.0, 7.0], tree="U")
        ms.internodes += other.internodes
        with pytest.raises(TreeMismatch, match=r"^tree 'T': record \('A', ca 1\) is of tree 'U'$"):
            build_target_series(ms, topo)

    @pytest.mark.parametrize("table", ["internodes", "leaves"])
    def test_record_on_a_missing_gu_raises(self, table):
        topo, ms = simple_tree([1.0, 2.0])
        records = getattr(ms, table)
        records.append(records[0]._replace(gu_ca=3))
        with pytest.raises(ValidationError, match=r"^tree 'T': record references unknown GU \('A', ca 3\)$"):
            build_target_series(ms, topo)

    def test_missing_leaf_samples_inherit_and_warn(self, caplog):
        topo, ms = simple_tree([1.0, 2.0])
        ms.leaves = [LeafRecord("T", "A", 1, 1, 3.0, 90.0)]  # nothing at ca 2
        with caplog.at_level("WARNING"):
            ts = build_target_series(ms, topo)
        assert any("inheriting" in r.message for r in caplog.records)
        # cycle-2 GU inherits the whole-tree leaf mean (3.0 g)
        assert ts.cumulated[2].cum_blade_mass == pytest.approx(6.0)

    def test_json_roundtrip(self):
        topo, ms = simple_tree([1.0, 2.0])
        ts = build_target_series(ms, topo)
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
        path.write_text(cut(build_target_series(ms, topo).to_json()))
        with pytest.raises(SchemaError, match=f"^{path}: {message}"):
            TargetSeries.load(path)
        with pytest.raises(SchemaError, match=f"^targets: {message}"):
            TargetSeries.from_json(path.read_text())

    @pytest.mark.parametrize("mangle, message", [
        (lambda d: d["cumulated"]["2"].update(cum_blade_mass=math.nan),
         "cumulated['2']: cum_blade_mass must be finite and >= 0, got nan"),
        (lambda d: d["cumulated"]["1"].update(cum_internode_mass=math.inf),
         "cumulated['1']: cum_internode_mass must be finite and >= 0, got inf"),
        (lambda d: d["entries"]["1,2"].update(mean_blade_area=-1.0),
         "entries['1,2']: mean_blade_area must be finite and >= 0, got -1.0"),
        (lambda d: d["entries"]["1,1"].update(mean_internode_weight="heavy"),
         "entries['1,1']: mean_internode_weight must be finite and >= 0, got 'heavy'"),
        (lambda d: d["entries"]["1,1"].update(n_internodes=0),
         "entries['1,1']: n_internodes must be an integer >= 1, got 0"),
        (lambda d: d["entries"]["1,1"].update(n_internodes=1.5),
         "entries['1,1']: n_internodes must be an integer >= 1, got 1.5"),
        (lambda d: d["entries"]["1,1"].update(n_internodes=True),
         "entries['1,1']: n_internodes must be an integer >= 1, got True"),
        (lambda d: d["entries"].update({"0,1": d["entries"].pop("1,1")}),
         "entries['0,1']: PA, CA and cycle keys must be >= 1"),
        (lambda d: d["entries"].update({"1,-1": d["entries"].pop("1,1")}),
         "entries['1,-1']: PA, CA and cycle keys must be >= 1"),
        (lambda d: d["cumulated"].update({"0": d["cumulated"].pop("1")}),
         "cumulated['0']: PA, CA and cycle keys must be >= 1"),
    ])
    def test_bad_values_name_the_file_and_key(self, tmp_path, mangle, message):
        topo, ms = simple_tree([1.0, 2.0])
        doc = json.loads(build_target_series(ms, topo).to_json())
        mangle(doc)
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as info:
            TargetSeries.load(path)
        assert str(info.value) == f"{path}: {message}"

    def test_zero_values_pass(self):
        # A trace with no seed biomass makes targets of zeros.
        topo, ms = simple_tree([1.0, 2.0])
        doc = json.loads(build_target_series(ms, topo).to_json())
        for entry in [*doc["entries"].values(), *doc["cumulated"].values()]:
            entry.update({k: 0.0 for k in entry if k != "n_internodes"})
        series = TargetSeries.from_json(json.dumps(doc))
        assert series.cumulated[2].cum_blade_mass == 0.0
        assert series.entries[(1, 1)].mean_blade_weight == 0.0


def uneven_two_pa_tree(internodes=True, leaves=True):
    """A (PA 1, cycles 1-3) bearing B (PA 2, cycles 2-3) and C (PA 2, cycle 3).

    Missing on purpose: C's cycle-3 internodes (its group, PA2/CA3, has B's),
    the leaves of group PA2/CA2 (CA 2 has A's) and every leaf of CA 1.
    """
    axes = [AxisRecord("T", "A", None, None), AxisRecord("T", "B", "A", 1),
            AxisRecord("T", "C", "A", 2)]
    gus = [GURecord("T", "A", ca, 2, 2) for ca in (1, 2, 3)]
    gus += [GURecord("T", "B", 2, 1, 1), GURecord("T", "B", 3, 1, 1), GURecord("T", "C", 3, 1, 1)]
    topo = with_physio_ages(build_topology(axes, gus), {"A": 1, "B": 2, "C": 2})
    weights = {("A", 1): [1.0, 3.0], ("A", 2): [2.0, 4.0], ("A", 3): [6.0],
               ("B", 2): [0.5], ("B", 3): [1.5]}
    blades = {("A", 2): [(2.0, 40.0), (4.0, 80.0)], ("A", 3): [(8.0, 160.0)],
              ("B", 3): [(1.0, 20.0)], ("C", 3): [(3.0, 60.0)]}
    ms = MeasurementSet(axes=axes, gus=gus)
    if internodes:
        ms.internodes = [InternodeRecord("T", a, ca, rank, w, 5.0, 4.0)
                         for (a, ca), ws in weights.items() for rank, w in enumerate(ws, 1)]
    if leaves:
        ms.leaves = [LeafRecord("T", a, ca, index, w, area)
                     for (a, ca), pairs in blades.items()
                     for index, (w, area) in enumerate(pairs, 1)]
    return topo, ms


class TestTargetFallbacks:
    """Every level a missing mean is inherited from: group, CA, whole tree."""

    def test_each_level_inherits_its_exact_mean_and_warns(self, caplog):
        topo, ms = uneven_two_pa_tree()
        with caplog.at_level("WARNING", logger="fspm.ingest"):
            ts = build_target_series(ms, topo)
        tree_blade, tree_area = 18.0 / 5, 360.0 / 5  # every leaf of the tree
        assert ts.entries == {
            # CA 1 has no leaves: the tree's means.
            (1, 1): TargetEntry(2.0, 5.0, 4.0, tree_blade, tree_area, 2),
            (1, 2): TargetEntry(3.0, 5.0, 4.0, 3.0, 60.0, 2),
            (1, 3): TargetEntry(6.0, 5.0, 4.0, 8.0, 160.0, 1),
            # PA2/CA2 has no leaves: CA 2's (A's two blades).
            (2, 2): TargetEntry(0.5, 5.0, 4.0, 3.0, 60.0, 1),
            (2, 3): TargetEntry(1.5, 5.0, 4.0, 2.0, 40.0, 1),
        }
        # C's cycle-3 GU has no internodes: its group's mean, B's 1.5 g.
        assert ts.cumulated == {
            1: CumEntry(2.0 * 2, tree_blade * 2),
            2: CumEntry(2.0 * 2 + 3.0 * 2 + 0.5, tree_blade * 2 + 3.0 * 2 + 3.0),
            3: CumEntry(2.0 * 2 + 3.0 * 2 + 0.5 + 6.0 * 2 + 1.5 + 1.5,
                        tree_blade * 2 + 3.0 * 2 + 3.0 + 8.0 * 2 + 1.0 + 3.0),
        }
        assert [r.getMessage() for r in caplog.records] == [
            "no leaf weight samples for group PA1/CA1; inheriting mean 3.6",
            "no leaf area samples for group PA1/CA1; inheriting mean 72",
            "no leaf weight samples for group PA2/CA2; inheriting mean 3",
            "no leaf area samples for group PA2/CA2; inheriting mean 60",
            "no leaf weight samples for GU ('A', 1); inheriting mean 3.6",
            "no leaf weight samples for GU ('B', 2); inheriting mean 3",
            "no internode weight samples for GU ('C', 3); inheriting mean 1.5",
        ]

    @pytest.mark.parametrize("kind, label", [("internodes", "internode weight"),
                                             ("leaves", "leaf weight")])
    def test_a_kind_with_no_rows_anywhere_raises(self, kind, label):
        topo, ms = uneven_two_pa_tree(**{kind: False})
        with pytest.raises(ValidationError, match=f"^no {label} samples anywhere in the tree$"):
            build_target_series(ms, topo)


class TestSamplesByGU:
    """The one place measurement records are attached to GUs."""

    @staticmethod
    def two_axis_tree():
        axes = [AxisRecord("T", "B", "A", 1), AxisRecord("T", "A", None, None)]
        gus = [GURecord("T", "A", 1, 2, 2), GURecord("T", "A", 2, 2, 2),
               GURecord("T", "B", 2, 1, 1)]
        return build_topology(axes, gus)  # unclassified: no PA is needed

    def test_every_gu_in_topology_order_with_records_in_record_order(self):
        topo = self.two_axis_tree()
        internodes = [InternodeRecord("T", "B", 2, 1, 1.0, 2.0, 3.0),
                      InternodeRecord("T", "A", 1, 2, 4.0, 5.0, 6.0),
                      InternodeRecord("T", "A", 1, 1, 7.0, 8.0, 9.0)]
        leaves = [LeafRecord("T", "A", 2, 1, 1.5, 40.0)]
        table = samples_by_gu(topo, internodes, leaves)
        per_gu = list(table.per_gu(topo))
        assert [gu for gu, _, _ in per_gu] == list(topo.iter_gus())

        def rows(columns, gu_rows):
            return [dict(zip(columns, values)) for values in zip(
                *(column[gu_rows] for column in columns.values()))]

        assert [(rows(table.internodes, i), rows(table.leaves, l)) for _, i, l in per_gu] == [
            ([{"fresh_weight": 4.0, "length": 5.0, "diameter": 6.0},
              {"fresh_weight": 7.0, "length": 8.0, "diameter": 9.0}], []),
            ([], [{"fresh_weight": 1.5, "area": 40.0}]),
            ([{"fresh_weight": 1.0, "length": 2.0, "diameter": 3.0}], []),
        ]

    @pytest.mark.parametrize("tree_id, gus", [
        ("U", [("A", 1), ("A", 2), ("B", 2)]),  # the same GUs, another tree
        ("T", [("A", 1), ("A", 2), ("A", 3), ("B", 2)]),  # another GU list
    ])
    def test_table_read_with_another_topology_raises_tree_mismatch(self, tree_id, gus):
        table = samples_by_gu(self.two_axis_tree(), [], [])
        axes = [AxisRecord(tree_id, "B", "A", 1), AxisRecord(tree_id, "A", None, None)]
        other = build_topology(axes, [GURecord(tree_id, a, ca, 2, 2) for a, ca in gus])
        message = f"^GU table of tree 'T' does not match the GUs of tree '{tree_id}'$"
        for read in (table.per_gu, table.top_gus):
            with pytest.raises(TreeMismatch, match=message):
                read(other)

    def test_table_reads_the_topology_it_classifies(self):
        topo = self.two_axis_tree()
        table = samples_by_gu(topo, [], [LeafRecord("T", "B", 2, 1, 1.5, 40.0)])
        classified = with_physio_ages(topo, {"A": 1, "B": 2})
        assert [(axis.pa, rows) for axis, _, rows in table.top_gus(classified)] == [
            (1, slice(0, 0)), (2, slice(0, 1))]

    def test_record_of_another_tree_raises_tree_mismatch(self):
        topo = self.two_axis_tree()
        stray = LeafRecord("U", "A", 1, 1, 1.5, 40.0)
        with pytest.raises(TreeMismatch, match=r"^tree 'T': record \('A', ca 1\) is of tree 'U'$"):
            samples_by_gu(topo, [], [stray])

    @pytest.mark.parametrize("axis_id, ca", [("C", 1), ("B", 1), ("A", 3)])
    def test_record_on_a_missing_gu_raises(self, axis_id, ca):
        topo = self.two_axis_tree()
        stray = InternodeRecord("T", axis_id, ca, 1, 1.0, 2.0, 3.0)
        with pytest.raises(ValidationError,
                           match=rf"^tree 'T': record references unknown GU \('{axis_id}', ca {ca}\)$"):
            samples_by_gu(topo, [stray], [])


GROVE = DATA / "grove"
GROVE_CSVS = [GROVE / f"{name}.csv" for name in _TABLES]
READERS = (parse_measurements, tree_from_json, samples_by_gu)


@pytest.fixture(scope="module")
def grove_p1():
    """The grove CSVs parsed, and tree P1's document text."""
    ms = parse_measurements(*GROVE_CSVS)
    p1 = ms.for_tree("P1")
    return ms, tree_to_json(p1.topology(), p1)


def collections_inside(readers, call) -> int:
    """Collections CPython's cyclic collector runs while ``call()`` runs
    inside the body of one of ``readers``: their own frames, unwrapped."""
    codes = {inspect.unwrap(reader).__code__ for reader in readers}
    inside = []

    def count(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in codes:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            inside.append(info["generation"])

    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return len(inside)


class TestCollectorPause:
    """The readers leave no cyclic garbage and run with the cyclic
    collector paused; it is enabled again however they end, unless the
    caller had it off."""

    @staticmethod
    def calls(grove_p1, tmp_path):
        """Each reader's call on the grove fixtures: one that returns and
        one that raises."""
        ms, p1_text = grove_p1
        topology, p1 = tree_from_json(p1_text)
        bad_cell = tmp_path / "internodes.csv"
        header, first, *rows = GROVE_CSVS[2].read_text().splitlines(keepends=True)
        cells = first.split(",")
        cells[4] = "heavy"  # fresh_weight_g
        bad_cell.write_text("".join([header, ",".join(cells), *rows]))
        return {
            "parse_measurements": (lambda: parse_measurements(*GROVE_CSVS),
                                   lambda: parse_measurements(*GROVE_CSVS[:2], bad_cell,
                                                              GROVE_CSVS[3]), SchemaError),
            "tree_from_json": (lambda: tree_from_json(p1_text, "P1.json"),
                               lambda: tree_from_json(p1_text[:-40], "P1.json"), SchemaError),
            "samples_by_gu": (lambda: samples_by_gu(topology, p1.internodes, p1.leaves),
                              lambda: samples_by_gu(topology, ms.internodes, ms.leaves),
                              TreeMismatch),
        }

    @pytest.mark.parametrize("reader", [reader.__name__ for reader in READERS])
    @pytest.mark.parametrize("outcome", ["returns", "raises"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    def test_collector_state_is_the_callers(self, grove_p1, tmp_path, reader, outcome, enabled):
        returns, raises, error = self.calls(grove_p1, tmp_path)[reader]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "returns":
                returns()
            else:
                with pytest.raises(error):
                    raises()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_nesting_does_nothing(self, grove_p1):
        _, p1_text = grove_p1
        topology, p1 = tree_from_json(p1_text)
        assert gc.isenabled()
        with _collector_paused():
            assert not gc.isenabled()
            samples_by_gu(topology, p1.internodes, p1.leaves)
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_readers_run_no_collection(self, grove_p1):
        # The grove CSVs parsed, P1's document read and its rows attached
        # to its GUs.  The parse alone leaves about 2,000 more objects that
        # the collector tracks, past its default threshold of 700.
        _, p1_text = grove_p1
        assert gc.isenabled()

        def read(parse, read_tree, attach):
            parse(*GROVE_CSVS)
            topology, p1 = read_tree(p1_text, "P1.json")
            attach(topology, p1.internodes, p1.leaves)

        assert collections_inside(READERS, lambda: read(*READERS)) == 0
        # The same calls, unpaused, do run the collector: the check above can fail.
        assert collections_inside(READERS, lambda: read(*map(inspect.unwrap, READERS))) > 0

    def test_readers_leave_no_cyclic_garbage(self, grove_p1):
        # So a pause frees nothing later that a collection inside would have.
        _, p1_text = grove_p1
        gc.collect()
        topology, p1 = tree_from_json(p1_text, "P1.json")
        samples_by_gu(topology, p1.internodes, p1.leaves)
        parse_measurements(*GROVE_CSVS)
        assert gc.collect() == 0


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
        return pa_map, build_target_series(ms, classified)

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
        (lambda text: text.replace('"ca": 1', '"ca": "1"', 1),
         r"axes\[0\]\.gus\[0\]: column 'ca': not an integer: '1'$"),
    ])
    def test_malformed_json_names_the_source(self, cut, message):
        d = DATA / "single"
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        text = cut(tree_to_json(ms.topology(), ms))
        with pytest.raises(SchemaError, match=f"^tree.json: {message}"):
            tree_from_json(text, "tree.json")


    @pytest.mark.parametrize("age, error, message", [
        (None, SchemaError, "missing key 'age'"),
        ('"x"', SchemaError, "age must be an integer, got 'x'"),
        ("true", SchemaError, "age must be an integer, got True"),
        ("3.0", SchemaError, "age must be an integer, got 3.0"),
        ("99", ValidationError, "age 99 is not the last GU cycle, 3"),
        ("2", ValidationError, "age 2 is not the last GU cycle, 3"),
    ])
    def test_age_is_the_last_gu_cycle(self, age, error, message):
        d = DATA / "single"
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        doc = json.loads(tree_to_json(ms.topology(), ms))
        assert doc["age"] == 3
        if age is None:
            del doc["age"]
        else:
            doc["age"] = json.loads(age)
        with pytest.raises(error) as info:
            tree_from_json(json.dumps(doc), "tree.json")
        assert str(info.value) == f"tree.json: {message}"

    @pytest.mark.parametrize("edit, error, message", [
        (lambda axes: axes[2].update(axis_id="A2"), DuplicateKey, "axis 'A2' declared twice"),
        (lambda axes: axes[1].update(parent_axis_id="Z"), DanglingParent,
         "axis 'A2' names unknown parent 'Z'"),
        (lambda axes: (axes[1].update(parent_axis_id="A3"), axes[2].update(parent_axis_id="A2")),
         CycleDetected, "parent links loop through axis 'A2'"),
        (lambda axes: axes[0]["gus"][2].update(ca=5), NonContiguousCA,
         "axis 'A1': GU ca jumps from 2 to 5"),
        (lambda axes: axes[1].update(insertion_ca=None), BadInsertion,
         "axis 'A2' has a parent but no insertion_ca"),
        (lambda axes: axes[2].update(gus=[]), InvalidTopology, "axis 'A3' has no growth units"),
    ], ids=["DuplicateKey", "DanglingParent", "CycleDetected", "NonContiguousCA", "BadInsertion",
            "InvalidTopology"])
    def test_broken_tree_rule_names_the_source(self, edit, error, message):
        # build_topology's own class, its message after the document's name.
        d = DATA / "single"
        ms = parse_measurements(*(d / f"{name}.csv" for name in _TABLES))
        doc = json.loads(tree_to_json(ms.topology(), ms))
        edit(doc["axes"])
        with pytest.raises(ValidationError) as info:
            tree_from_json(json.dumps(doc), "tree.json")
        assert type(info.value) is error
        assert str(info.value) == f"tree.json: {message}"


class TestTreeJsonCells:
    """tree_from_json checks measurement cells with the CSV rules."""

    layout = "columns"  # of the measurement tables of the documents read

    def document(self):
        """The single fixture's document, its measurements as rows to edit."""
        d = DATA / "single"
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        return with_layout(json.loads(tree_to_json(ms.topology(), ms)), "rows")

    def text(self, doc):
        return json.dumps(with_layout(doc, self.layout))

    @pytest.mark.parametrize("table, row, column, value, error, message", [
        ("internodes", 2, "fresh_weight_g", "abc", SchemaError, "not a number: 'abc'"),
        ("internodes", 0, "length_cm", -1.0, UnitError,
         "measurement must be finite and > 0, got -1.0"),
        ("internodes", 1, "diameter_mm", math.nan, UnitError,
         "measurement must be finite and > 0, got nan"),
        ("internodes", 3, "diameter_mm", math.inf, UnitError,
         "measurement must be finite and > 0, got inf"),
        ("internodes", 1, "diameter_mm", None, SchemaError, "not a number: None"),
        ("internodes", 1, "rank_in_gu", 0, UnitError, "0 < 1"),
        ("internodes", 1, "gu_ca", "1", SchemaError, "not an integer: '1'"),
        ("internodes", 1, "gu_ca", 1.0, SchemaError, "not an integer: 1.0"),
        ("internodes", 1, "rank_in_gu", MAX_INTERNODES_PER_GU + 1, UnitError, "10001 > 10000"),
        ("internodes", 1, "gu_ca", MAX_CYCLE + 1, UnitError, "1001 > 1000"),
        ("leaves", 0, "sample_index", 4, UnitError, "4 > 3"),
        ("leaves", 2, "sample_index", True, SchemaError, "not an integer: True"),
        ("leaves", 1, "area_cm2", 0, UnitError, "measurement must be finite and > 0, got 0"),
        ("leaves", 1, "fresh_weight_g", False, SchemaError, "not a number: False"),
    ])
    def test_bad_cell_names_source_and_row(self, table, row, column, value, error, message):
        doc = self.document()
        doc["measurements"][table][row][column] = value
        with pytest.raises(error) as info:
            tree_from_json(self.text(doc), "tree.json")
        assert str(info.value) == (
            f"tree.json: measurements.{table}[{row}]: column {column!r}: {message}"
        )

    def test_ints_in_measurement_cells_pass_unchanged(self):
        doc = self.document()
        doc["measurements"]["internodes"][0]["length_cm"] = 5
        _, ms = tree_from_json(self.text(doc))
        assert ms.internodes[0].length == 5

    def test_first_fault_in_row_order_then_column_order(self):
        doc = self.document()
        rows = doc["measurements"]["internodes"]
        rows[2]["gu_ca"] = 0
        rows[1]["diameter_mm"] = -1.0
        rows[1]["length_cm"] = "x"
        with pytest.raises(SchemaError) as info:
            tree_from_json(self.text(doc), "tree.json")
        assert str(info.value) == (
            "tree.json: measurements.internodes[1]: column 'length_cm': not a number: 'x'"
        )

    @pytest.mark.parametrize("axis, gu, key, value, error, message", [
        (1, None, "insertion_ca", 1.5, SchemaError, "not an integer: 1.5"),
        (1, None, "insertion_ca", True, SchemaError, "not an integer: True"),
        (1, None, "parent_axis_id", 1, SchemaError, "not text: 1"),
        (0, 1, "internode_count", 2.0, SchemaError, "not an integer: 2.0"),
        (0, 1, "internode_count", True, SchemaError, "not an integer: True"),
        (0, 1, "ca", "1", SchemaError, "not an integer: '1'"),
        (0, 1, "ca", None, SchemaError, "not an integer: None"),
        (1, None, "insertion_ca", MAX_CYCLE + 1, UnitError, "1001 > 1000"),
        (0, 1, "internode_count", MAX_INTERNODES_PER_GU + 1, UnitError, "10001 > 10000"),
        (0, 1, "ca", MAX_CYCLE + 1, UnitError, "1001 > 1000"),
        (0, 1, "leaf_scar_count", -1, UnitError, "-1 < 0"),
        # GU rows are counted across axes but named by their place.
        (2, 0, "internode_count", 0, UnitError, "0 < 1"),
    ])
    def test_bad_gu_or_axis_cell(self, axis, gu, key, value, error, message):
        doc = self.document()
        row = doc["axes"][axis] if gu is None else doc["axes"][axis]["gus"][gu]
        row[key] = value
        with pytest.raises(error) as info:
            tree_from_json(self.text(doc), "tree.json")
        place = f"axes[{axis}]" if gu is None else f"axes[{axis}].gus[{gu}]"
        assert str(info.value) == f"tree.json: {place}: column {key!r}: {message}"


class TestTreeJsonCellsInRows(TestTreeJsonCells):
    """The same cells and messages with the measurement tables as lists of
    rows, as earlier versions wrote them."""

    layout = "rows"


def bad_cells():
    """(table, CSV column, bad value) for every column of the declaration with
    a rule: values whose text in a CSV cell reads as the value in tree.json."""
    for table, spec in _TABLES.items():
        for column, rule in zip(spec.names, spec.rules):
            if rule.kind is int:
                bounds = [rule.minimum - 1] + ([rule.maximum + 1] if rule.maximum else [])
                yield from ((table, column, value) for value in ["abc", *bounds])
            elif rule.kind is float:
                yield from ((table, column, value)
                            for value in ["abc", -1.0, 0, math.nan, math.inf])


class TestCsvJsonParity:
    """A bad cell fails alike in a CSV file and in tree.json."""

    JSON_KEY = {("gus", "gu_ca"): "ca"}
    layout = "columns"  # of the measurement tables of the document read

    @pytest.mark.parametrize("table, column, value", list(bad_cells()))
    def test_same_error_after_the_location(self, tmp_path, table, column, value):
        paths = {}
        for name in _TABLES:
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_bytes((DATA / "single" / f"{name}.csv").read_bytes())
        rows = paths[table].read_text().splitlines(keepends=True)
        cells = rows[2].rstrip("\n").split(",")
        cells[rows[0].rstrip("\n").split(",").index(column)] = str(value)
        rows[2] = ",".join(cells) + "\n"
        paths[table].write_text("".join(rows))
        with pytest.raises((SchemaError, UnitError)) as from_csv:
            parse_measurements(*paths.values())

        d = DATA / "single"
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        doc = with_layout(json.loads(tree_to_json(ms.topology(), ms)), "rows")
        key = self.JSON_KEY.get((table, column), column)
        if table == "axes":
            row, place = doc["axes"][1], "axes[1]"
        elif table == "gus":
            row, place = doc["axes"][0]["gus"][1], "axes[0].gus[1]"
        else:
            row, place = doc["measurements"][table][1], f"measurements.{table}[1]"
        row[key] = value
        with pytest.raises((SchemaError, UnitError)) as from_json:
            tree_from_json(json.dumps(with_layout(doc, self.layout)), "tree.json")

        assert type(from_csv.value) is type(from_json.value)
        csv_where = f"{paths[table]}:3: column {column!r}: "
        json_where = f"tree.json: {place}: column {key!r}: "
        assert str(from_csv.value).startswith(csv_where)
        assert str(from_json.value).startswith(json_where)
        assert str(from_csv.value)[len(csv_where):] == str(from_json.value)[len(json_where):]


class TestCsvJsonParityInRows(TestCsvJsonParity):
    """The same, with the measurement tables of tree.json as lists of rows."""

    layout = "rows"


class TestRecords:
    RECORDS = [
        AxisRecord("T", "A", None, None),
        GURecord("T", "A", 1, 3, 3),
        InternodeRecord("T", "A", 1, 1, 2.0, 3.0, 4.0),
        LeafRecord("T", "A", 1, 1, 1.0, 30.0),
    ]

    @pytest.mark.parametrize("record", RECORDS)
    def test_immutable(self, record):
        with pytest.raises(AttributeError):
            record.tree_id = "U"

    @pytest.mark.parametrize("record", RECORDS)
    def test_keyword_construction(self, record):
        assert type(record)(**record._asdict()) == record

    def test_fields_in_order_and_gu_default(self):
        assert AxisRecord._fields == ("tree_id", "axis_id", "parent_axis_id", "insertion_ca")
        assert GURecord._fields == (
            "tree_id", "axis_id", "gu_ca", "internode_count", "leaf_scar_count")
        assert InternodeRecord._fields == (
            "tree_id", "axis_id", "gu_ca", "rank_in_gu", "fresh_weight", "length", "diameter")
        assert LeafRecord._fields == (
            "tree_id", "axis_id", "gu_ca", "sample_index", "fresh_weight", "area")
        gu = GURecord(tree_id="T", axis_id="A", gu_ca=2, internode_count=3)
        assert gu.leaf_scar_count == 0
        assert gu == GURecord("T", "A", 2, 3, 0)


# -- the tree.json writer against json.dumps -----------------------------------

def json_dumps_tree(topology, ms):
    """Oracle: the document tree_to_json writes, built as dicts and lists
    and written by json.dumps; each measurement table an object of one
    array per key, rows sorted by their identity."""
    internodes = sorted(ms.internodes, key=lambda r: (r.axis_id, r.gu_ca, r.rank_in_gu))
    leaves = sorted(ms.leaves, key=lambda r: (r.axis_id, r.gu_ca, r.sample_index))
    doc = {
        "tree_id": topology.tree_id,
        "age": topology.age,
        "axes": [
            {
                "axis_id": axis.id,
                "parent_axis_id": axis.parent_id,
                "insertion_ca": axis.insertion_ca,
                "gus": [
                    {"ca": gu.ca, "internode_count": gu.internode_count,
                     "leaf_scar_count": gu.leaf_scar_count}
                    for gu in axis.gus
                ],
            }
            for axis in topology.axes_sorted()
        ],
        "measurements": {
            "internodes": {
                "axis_id": [r.axis_id for r in internodes],
                "gu_ca": [r.gu_ca for r in internodes],
                "rank_in_gu": [r.rank_in_gu for r in internodes],
                "fresh_weight_g": [r.fresh_weight for r in internodes],
                "length_cm": [r.length for r in internodes],
                "diameter_mm": [r.diameter for r in internodes],
            },
            "leaves": {
                "axis_id": [r.axis_id for r in leaves],
                "gu_ca": [r.gu_ca for r in leaves],
                "sample_index": [r.sample_index for r in leaves],
                "fresh_weight_g": [r.fresh_weight for r in leaves],
                "area_cm2": [r.area for r in leaves],
            },
        },
    }
    return json.dumps(doc, sort_keys=True) + "\n"


# Ids with non-ASCII text, quotes, backslashes and control characters.
ANY_ID = st.text(max_size=5)
# Measurement values as the writer may meet them: tiny to huge floats, ints,
# non-finite floats, and the other JSON scalars.
ANY_VALUE = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300),
    st.integers(min_value=-10**20, max_value=10**20),
    st.sampled_from([math.nan, math.inf, -math.inf, None, True, False]),
)


@st.composite
def documented_trees(draw):
    """A valid topology and measurement rows in any order, possibly none."""
    tree_id = draw(ANY_ID)
    age = draw(st.integers(1, 4))
    ids = draw(st.lists(ANY_ID, min_size=1, max_size=5, unique=True))
    axes = [AxisRecord(tree_id, ids[0], None, None)]
    gus = [GURecord(tree_id, ids[0], ca, draw(st.integers(1, 3)), draw(st.integers(0, 3)))
           for ca in range(1, age + 1)]
    first = {ids[0]: 1}
    for axis_id in ids[1:]:
        parent = draw(st.sampled_from(sorted(first)))
        ins = draw(st.integers(first[parent], age))
        axes.append(AxisRecord(tree_id, axis_id, parent, ins))
        gus += [GURecord(tree_id, axis_id, ca, 2, 2) for ca in range(ins, age + 1)]
        first[axis_id] = ins
    topo = build_topology(axes, gus)
    keys = st.tuples(st.sampled_from(ids), st.integers(1, age), st.integers(1, 3))
    internodes = [InternodeRecord(tree_id, a, ca, k, *draw(st.tuples(ANY_VALUE, ANY_VALUE, ANY_VALUE)))
                  for a, ca, k in draw(st.lists(keys, max_size=6))]
    leaves = [LeafRecord(tree_id, a, ca, k, *draw(st.tuples(ANY_VALUE, ANY_VALUE)))
              for a, ca, k in draw(st.lists(keys, max_size=6))]
    return topo, MeasurementSet(axes=axes, gus=gus, internodes=internodes, leaves=leaves)


class TestTreeJsonWriter:
    @given(documented_trees())
    def test_equals_json_dumps(self, tree):
        topo, ms = tree
        assert tree_to_json(topo, ms) == json_dumps_tree(topo, ms)

    @pytest.mark.parametrize("fixture", ["single", "grove"])
    def test_fixtures_equal_json_dumps(self, fixture):
        d = DATA / fixture
        ms = parse_measurements(d / "axes.csv", d / "gus.csv",
                                d / "internodes.csv", d / "leaves.csv")
        for tree_id in ms.tree_ids():
            sub = ms.for_tree(tree_id)
            topo = sub.topology()
            assert tree_to_json(topo, sub) == json_dumps_tree(topo, sub)

    @pytest.mark.parametrize("value", [np.int64(3), np.float32(1.5), object(), b"1", 1j])
    def test_non_json_value_raises_type_error(self, value):
        topo, ms = simple_tree([1.0, 2.0])
        ms.internodes[1] = ms.internodes[1]._replace(length=value)
        with pytest.raises(TypeError):
            json_dumps_tree(topo, ms)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            tree_to_json(topo, ms)

    def test_numpy_float64_written_as_float(self):
        topo, ms = simple_tree([1.0, 2.0])
        ms.internodes[0] = ms.internodes[0]._replace(diameter=np.float64(0.1))
        assert tree_to_json(topo, ms) == json_dumps_tree(topo, ms)


def ingested(tmp_path, src, tree_id) -> str:
    """The text ``fspm ingest`` writes for one tree of the CSVs in ``src``."""
    out = tmp_path / f"{tree_id}.json"
    assert cli_main([str(a) for a in (
        "ingest", "--axes", src / "axes.csv", "--gus", src / "gus.csv",
        "--internodes", src / "internodes.csv", "--leaves", src / "leaves.csv",
        "--tree-id", tree_id, "--out", out)]) == 0
    return out.read_text(encoding="utf-8")


def no_leaf_rows(tmp_path):
    """The single fixture's CSVs with a leaves file of its header alone."""
    src = tmp_path / "csv"
    src.mkdir()
    for name in _TABLES:
        text = (DATA / "single" / f"{name}.csv").read_text()
        (src / f"{name}.csv").write_text(text.splitlines(keepends=True)[0]
                                         if name == "leaves" else text)
    return src


class TestTreeJsonDocument:
    """What ``ingest`` writes is the canonical text of its own JSON, and a
    document whose measurement tables are rows, as earlier versions wrote
    them, still reads."""

    @pytest.mark.parametrize("source", ["single", "grove", "large-tree", "no leaf rows"])
    def test_ingest_output_is_json_dumps_of_itself(self, tmp_path, source):
        if source == "large-tree":
            src = tmp_path / "csv"
            load_largetree().write(src, 0, LARGE_TREES)
            tree_ids = [tree_id for tree_id, _ in LARGE_TREES]
        else:
            src = no_leaf_rows(tmp_path) if source == "no leaf rows" else DATA / source
            tree_ids = parse_measurements(*(src / f"{name}.csv" for name in _TABLES)).tree_ids()
        for tree_id in tree_ids:
            text = ingested(tmp_path, src, tree_id)
            doc = json.loads(text)
            assert text == json.dumps(doc, sort_keys=True) + "\n"
            assert {name: type(table) for name, table in doc["measurements"].items()} == {
                "internodes": dict, "leaves": dict}
            if source == "no leaf rows":
                assert doc["measurements"]["leaves"] == dict.fromkeys(
                    _TABLES["leaves"].json_keys, [])

    @pytest.mark.parametrize("earlier, layout", [("tree_indented.json", "columns"),
                                                 ("tree_rows.json", "rows")])
    def test_earlier_text_reads_as_the_golden(self, earlier, layout):
        # The golden's indented text, then its measurement tables as rows.
        golden = (DATA / "golden" / "tree.json").read_text()
        text = (DATA / "golden" / earlier).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert with_layout(json.loads(golden), layout) == json.loads(text)
        topology, ms = tree_from_json(golden)
        assert tree_from_json(text) == (topology, ms)
        assert tree_to_json(*tree_from_json(text)) == golden

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_tree_with_no_leaf_rows_round_trips(self, tmp_path, layout):
        text = ingested(tmp_path, no_leaf_rows(tmp_path), "T1")
        topology, ms = tree_from_json(json.dumps(with_layout(json.loads(text), layout)))
        assert len(ms.leaves) == 0 and len(ms.internodes) == 16
        assert tree_to_json(topology, ms) == text


# -- serialize_measurements round trip -------------------------------------------

# Ids as a CSV cell can carry them: commas, quotes, line breaks, non-ASCII.
CSV_ID = st.text(alphabet=st.sampled_from('aZ09 ,"\n\r\t\\é中'), max_size=5)
# Parent ids are read stripped, with an empty cell meaning "no parent".
PARENT_ID = CSV_ID.filter(lambda s: s == s.strip() and s)
MEASURED = st.floats(min_value=5e-324, max_value=1e300)
CYCLE = st.integers(1, 40)


@st.composite
def measurement_sets(draw):
    """Records that parse_measurements accepts, in serialize_measurements's order."""
    axes = draw(st.lists(
        st.builds(AxisRecord, CSV_ID, CSV_ID, st.none() | PARENT_ID, st.none() | CYCLE),
        unique_by=lambda r: r[:2], max_size=4))
    gus = draw(st.lists(
        st.builds(GURecord, CSV_ID, CSV_ID, CYCLE, CYCLE, st.integers(0, 40)),
        unique_by=lambda r: r[:3], max_size=4))
    # Each measurement row sits on a drawn GU: parse_measurements rejects any other.
    place = st.sampled_from([gu[:3] for gu in gus]) if gus else st.nothing()
    internodes = draw(st.lists(
        st.builds(lambda gu, *cells: InternodeRecord(*gu, *cells),
                  place, CYCLE, MEASURED, MEASURED, MEASURED),
        unique_by=lambda r: r[:4], max_size=4))
    leaves = draw(st.lists(
        st.builds(lambda gu, *cells: LeafRecord(*gu, *cells),
                  place, st.integers(1, 3), MEASURED, MEASURED),
        unique_by=lambda r: r[:4], max_size=4))
    return MeasurementSet(axes=sorted(axes), gus=sorted(gus),
                          internodes=sorted(internodes, key=lambda r: r[:4]),
                          leaves=sorted(leaves, key=lambda r: r[:4]))


class TestSerializeRoundTrip:
    @given(measurement_sets())
    def test_parse_of_serialize_is_identity(self, ms):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, text in serialize_measurements(ms).items():
                paths[name] = Path(tmp) / f"{name}.csv"
                paths[name].write_text(text, encoding="utf-8", newline="")
            again = parse_measurements(paths["axes"], paths["gus"],
                                       paths["internodes"], paths["leaves"])
        assert again == ms

    def test_id_with_comma_survives(self, tmp_path):
        ms = MeasurementSet(axes=[AxisRecord("T", "a,1", None, None)])
        text = serialize_measurements(ms)["axes"]
        assert text == 'tree_id,axis_id,parent_axis_id,insertion_ca\nT,"a,1",,\n'
