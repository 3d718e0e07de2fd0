import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fspm import (
    DirectParams,
    GrowthRules,
    HiddenParams,
    SimConfig,
    export_fit_csv,
    export_organs_csv,
    export_skeleton,
    export_trace_csv,
    generate_topology,
    organ_census,
    residuals,
    simulate,
    simulate_factored,
    targets_from_trace,
    with_physio_ages,
)
from fspm.calibrate import WEIGHT_FLOOR
from fspm.errors import InvalidParameter, TreeMismatch, ValidationError
from fspm.export import _csv, _cross, build_skeleton
from test_calibrate import acceptance_problem, doubled_init
from test_engine import uneven_trees
from test_ingest import topology_of

FAMILIES = ("diameter_per_gu", "mass_per_gu", "cum_internode", "cum_blade")


@pytest.fixture
def run(dp3, hp_default):
    rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
    t = generate_topology(rules, 4, "tree1")
    trace = simulate(hp_default, dp3, t)
    return t, trace


def parse(text):
    return list(csv.DictReader(io.StringIO(text)))


def writer_csv(header, *columns):
    """Oracle: the bytes csv.writer gives the table _csv writes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


EDGE_CELLS = ["a,b", "1,2", 'say "hi"', '"', ",", "c\rd", "\r", "e\nf", "\n", "\r\n", "",
              "plain", " padded ", "%s", "%", 0, 7, -3, True, 0.1, -0.0, 0.0, 1e-310, 1e300,
              -1.5e-7, float("inf")]


class TestCsvWriter:
    @pytest.mark.parametrize("cell", EDGE_CELLS, ids=repr)
    def test_edge_cell_in_a_row_of_several(self, cell):
        columns = ([cell, 1.0, cell], [2, cell, ""], ["x", cell, 3.5])
        assert _csv(("h1", "h2", "h3"), *columns) == writer_csv(("h1", "h2", "h3"), *columns)

    @pytest.mark.parametrize("cell", EDGE_CELLS, ids=repr)
    def test_edge_cell_in_a_one_column_table(self, cell):
        column = [cell, "", 2.5, cell]
        assert _csv(("only",), column) == writer_csv(("only",), column)

    def test_one_column_table_of_an_empty_cell(self):
        assert _csv(("h",), [""]) == writer_csv(("h",), [""]) == 'h\n""\n'
        assert _csv(("",), []) == writer_csv(("",), []) == '""\n'

    def test_quoted_header_and_keys(self):
        keys = ["1,2", "2,2"]
        text = _csv(("key", "measured"), keys, [0.5, 1e300])
        assert text == writer_csv(("key", "measured"), keys, [0.5, 1e300])
        assert text == 'key,measured\n"1,2",0.5\n"2,2",1e+300\n'

    def test_header_only(self):
        assert _csv(("a", "b"), [], []) == writer_csv(("a", "b"), [], []) == "a,b\n"

    @given(st.data())
    def test_tables_of_edge_cells(self, data):
        width = data.draw(st.integers(1, 4), label="width")
        rows = data.draw(st.integers(0, 6), label="rows")
        header = data.draw(st.lists(st.sampled_from(["h", "", "a,b", 'q"', "\r"]),
                                    min_size=width, max_size=width), label="header")
        cell = st.sampled_from(EDGE_CELLS) | st.text(alphabet=',"\r\n x%', max_size=3)
        columns = data.draw(st.lists(st.lists(cell, min_size=rows, max_size=rows),
                                     min_size=width, max_size=width), label="columns")
        assert _csv(header, *columns) == writer_csv(header, *columns)

    def test_float_arrays_match_their_cells(self):
        # Each distinct bit pattern is rendered once: -0.0 and 0.0, and NaNs
        # of other payloads, keep their own text.
        payload_nan = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)[0]
        values = [0.0, -0.0, payload_nan, math.nan, math.inf, -math.inf, 5e-324, 1e16,
                  1e-5, 0.1, 0.0]
        a = np.array(values)
        b = a[::-1].copy()
        columns = (a, b, ["k"] * len(values), a)
        text = _csv(("a", "b", "key", "again"), *columns)
        assert text == writer_csv(("a", "b", "key", "again"), *(
            c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        assert "\n-0.0,0.1,k,-0.0\n" in text and "\n0.1,-0.0,k,0.1\n" in text

    def test_float_array_parts_of_a_column(self):
        # A tuple column is its parts end to end, arrays and cells alike.
        a, b = np.array([1.5, -0.0]), np.array([2.5])
        text = _csv(("x", "y"), (a, ["", "t"]), ([1, 2], b, [0.1]))
        assert text == writer_csv(("x", "y"), [1.5, -0.0, "", "t"], [1, 2, 2.5, 0.1])

    @given(st.data())
    def test_float_arrays_from_a_small_pool(self, data):
        # Draws from a small pool, so one value recurs in and across columns.
        pool = data.draw(st.lists(st.floats(allow_nan=True), min_size=1, max_size=4),
                         label="pool")
        rows = data.draw(st.integers(0, 8), label="rows")
        width = data.draw(st.integers(1, 3), label="width")
        cells = st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)
        columns = [data.draw(cells, label=f"column {i}") for i in range(width)]
        header = [f"h{i}" for i in range(width)]
        arrays = [np.array(column, dtype=float) for column in columns]
        assert _csv(header, *arrays) == writer_csv(header, *columns)


class TestExportFitCsv:
    def test_row_counts(self, run, dp3):
        t, trace = run
        targets = targets_from_trace(trace, dp3)
        tables = export_fit_csv(trace, targets)
        assert len(parse(tables["diameter_per_gu"])) == len(targets.entries)
        assert len(parse(tables["mass_per_gu"])) == len(targets.entries)
        assert len(parse(tables["cum_internode"])) == len(targets.cumulated)
        assert len(parse(tables["cum_blade"])) == len(targets.cumulated)

    def test_self_targets_zero_diff(self, run, dp3):
        t, trace = run
        targets = targets_from_trace(trace, dp3)
        for table in export_fit_csv(trace, targets).values():
            for row in parse(table):
                assert float(row["measured"]) == float(row["simulated"])

    def test_csv_rmse_equals_object_level_rmse(self, run, dp3, hp_default):
        t, trace = run
        targets = targets_from_trace(trace, dp3)
        other = simulate(HiddenParams(hp_default.q0 * 1.2, hp_default.rp,
                                      hp_default.pc), dp3, t)
        tables = export_fit_csv(other, targets)

        def rmse(pairs):
            return math.sqrt(sum((s - m) ** 2 for m, s in pairs) / len(pairs))

        # Independent recomputation straight from the trace and targets.
        keys = sorted(targets.entries)
        expected = {
            "diameter_per_gu": rmse(
                [(targets.entries[k].mean_internode_diameter,
                  other.cohorts[k].diameter_cm * 10.0) for k in keys]
            ),
            "mass_per_gu": rmse(
                [(targets.entries[k].mean_internode_weight,
                  other.cohorts[k].internode_mass) for k in keys]
            ),
            "cum_internode": rmse(
                [(targets.cumulated[c].cum_internode_mass,
                  float(other.cum_internode_mass[c - 1]))
                 for c in sorted(targets.cumulated)]
            ),
            "cum_blade": rmse(
                [(targets.cumulated[c].cum_blade_mass,
                  float(other.cum_blade_mass[c - 1]))
                 for c in sorted(targets.cumulated)]
            ),
        }
        for name, table in tables.items():
            rows = parse(table)
            got = rmse([(float(r["measured"]), float(r["simulated"])) for r in rows])
            assert got == pytest.approx(expected[name], rel=1e-12)
            assert got > 0.0  # the 20% seed change must move the outputs

    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    def test_rows_are_the_fit_residual_rows(self, dp3, ring_mode):
        # Away from the optimum, every row weighted as the fit weighs it is
        # that tree's residual, bit for bit, in the fit's row order.
        cfg = SimConfig(ring_mode=ring_mode)
        problem = acceptance_problem(dp3, cfg=cfg)
        fp = doubled_init(problem)
        expected = residuals(fp, problem).tolist()
        start = 0
        for ts, topology in zip(problem.targets, problem.topologies):
            hp = HiddenParams(q0=fp.q0[ts.tree_id], rp=fp.rp, pc=fp.pc)
            tables = export_fit_csv(simulate(hp, dp3, topology, cfg), ts)
            assert list(tables) == list(FAMILIES)
            rows = [(float(r["measured"]), float(r["simulated"]))
                    for name in FAMILIES for r in parse(tables[name])]
            got = [(s - m) * (1.0 / max(abs(m), WEIGHT_FLOOR)) for m, s in rows]
            assert got == expected[start:start + len(got)]
            assert any(got)
            start += len(got)
        assert start == len(expected)

    def test_tree_mismatch(self, run, dp3):
        _, trace = run
        targets = targets_from_trace(trace, dp3)
        targets.tree_id = "other"
        with pytest.raises(TreeMismatch):
            export_fit_csv(trace, targets)

    @pytest.mark.parametrize("cycle", [0, -1, 5])
    def test_cumulated_cycle_outside_the_trace(self, run, dp3, cycle):
        _, trace = run
        targets = targets_from_trace(trace, dp3)
        targets.cumulated[cycle] = targets.cumulated[1]
        with pytest.raises(ValidationError, match=(
            f"^tree 'tree1': cumulated target for cycle {cycle} outside the simulated cycles 1..4$"
        )):
            export_fit_csv(trace, targets)


class TestSkeleton:
    def test_single_internode(self, dp3):
        t = generate_topology(GrowthRules(p_max=1, internodes_per_gu=1), 1, "one")
        hp = HiddenParams(q0=1.5, rp=5.0, pc=0.1)
        trace = simulate(hp, dp3, t)
        skeleton = build_skeleton(trace, t, seed=0)
        assert len(skeleton.parent) == 1
        length = math.dist(skeleton.start[0], skeleton.end[0])
        assert length == pytest.approx(trace.organs.length_cm[0])
        assert skeleton.radius_cm[0] == pytest.approx(trace.organs.diameter_cm[0] / 2)
        assert skeleton.parent[0] == 0  # the root's base has no parent

    def test_segment_count_matches_census(self, run, dp3):
        t, trace = run
        total = sum(
            count
            for cycle in range(1, t.age + 1)
            for (pa, kind), count in organ_census(t, cycle).items()
            if kind == "internode"
        )
        text = export_skeleton(trace, t, seed=3)
        rows = parse(text)
        assert len(rows) == total
        for row in rows:  # every numeric field must parse as a plain float
            for col in ("x0", "y0", "z0", "x1", "y1", "z1", "radius_cm"):
                float(row[col])

    def test_cross_bitwise_equals_numpy(self):
        rng = np.random.default_rng(11)
        for a, b in rng.normal(size=(500, 2, 3)) * rng.lognormal(size=(500, 2, 1)):
            assert np.array(_cross(a.tolist(), b.tolist())).tobytes() == np.cross(a, b).tobytes()

    def test_shortened_trace_skips_unborn_internodes(self, run, dp3, hp_default):
        t, _ = run
        trace = simulate(hp_default, dp3, t, cycles=2)
        skeleton = build_skeleton(trace, t, seed=5)
        assert len(skeleton.parent) == len(trace.organs)
        assert (skeleton.parent < np.arange(1, len(skeleton.parent) + 1)).all()

    def test_deterministic_under_seed(self, run):
        t, trace = run
        assert export_skeleton(trace, t, 42) == export_skeleton(trace, t, 42)
        assert export_skeleton(trace, t, 42) != export_skeleton(trace, t, 43)

    def test_parent_links_form_tree(self, run):
        t, trace = run
        skeleton = build_skeleton(trace, t, seed=1)
        n = len(skeleton.parent)
        assert skeleton.start.shape == skeleton.end.shape == (n, 3)
        assert (skeleton.parent == 0).sum() == 1
        for i, parent_id in enumerate(skeleton.parent.tolist()):
            if parent_id:
                assert 1 <= parent_id <= n
                assert skeleton.start[i] == pytest.approx(skeleton.end[parent_id - 1])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_trace_of_another_tree(self, dp3, hp_default, reverse):
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
        a, b = generate_topology(rules, 3, "A"), generate_topology(rules, 5, "B")
        if reverse:
            a, b = b, a
        trace = simulate(hp_default, dp3, a)
        with pytest.raises(TreeMismatch, match=(
            f"^tree '{b.tree_id}': skeleton of a trace of tree '{a.tree_id}'$"
        )):
            export_skeleton(trace, b, seed=0)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_organ_table_of_another_layout(self, dp3, hp_default, reverse):
        # Same tree id, other structure: the slices would read other axes.
        a = generate_topology(GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1), 3, "T")
        b = generate_topology(GrowthRules(p_max=3, internodes_per_gu=3, branches_per_gu=1), 5, "T")
        if reverse:
            a, b = b, a
        trace = simulate(hp_default, dp3, a)
        born = sum(gu.internode_count for _, gu in b.iter_gus() if gu.ca <= a.age)
        assert born != len(trace.organs)
        with pytest.raises(ValidationError, match=(
            f"^tree 'T': organ table holds {len(trace.organs)} internodes, "
            f"the topology {born} born by cycle {a.age}$"
        )):
            build_skeleton(trace, b, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_that_is_no_integer_at_least_0(self, dp3, hp_default, seed):
        t = generate_topology(GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1), 3, "T")
        trace = simulate(hp_default, dp3, t)
        with pytest.raises(InvalidParameter, match=rf"^seed must be an integer >= 0, got {seed}$"):
            build_skeleton(trace, t, seed)


@dataclass(frozen=True)
class LegacySegment:
    segment_id: int
    parent_id: int | None
    start: tuple[float, float, float]
    end: tuple[float, float, float]
    radius_cm: float


def legacy_cross(a, b):
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def legacy_basis(direction):
    ref = np.array([0.0, 0.0, 1.0])
    if abs(float(direction @ ref)) > 0.99:
        ref = np.array([1.0, 0.0, 0.0])
    u = legacy_cross(direction, ref)
    u /= np.linalg.norm(u)
    v = legacy_cross(direction, u)
    return u, v


def legacy_skeleton_csv(trace, topology, seed):
    """build_skeleton and export_skeleton as they were: one Segment object
    per internode, found through dicts keyed by (axis_id, gu_ca, rank), each
    axis's frame from numpy 3-vectors."""
    organs = trace.organs
    geo = dict(zip(organs.positions,
                   zip(organs.length_cm.tolist(), organs.diameter_cm.tolist())))
    rng = np.random.default_rng(seed)
    segments = []
    seg_id_of = {}
    branch_counter = 0
    order = [topology.root]
    for axis in order:
        order.extend(topology.children_of(axis.id))
    axis_dir = {}
    for axis in order:
        if (axis.id, axis.first_ca, 1) not in geo:
            continue
        if axis.is_root:
            direction = np.array([0.0, 0.0, 1.0])
            start = np.zeros(3)
            parent_seg = None
        else:
            parent_dir = axis_dir[axis.parent_id]
            azimuth = math.radians(137.5 * branch_counter + rng.normal(0.0, 5.0))
            tilt = math.radians(40.0 + rng.normal(0.0, 3.0))
            branch_counter += 1
            u, v = legacy_basis(parent_dir)
            direction = (
                math.cos(tilt) * parent_dir
                + math.sin(tilt) * (math.cos(azimuth) * u + math.sin(azimuth) * v)
            )
            direction = direction / np.linalg.norm(direction)
            bearing = topology.axes[axis.parent_id].gu_at(axis.insertion_ca)
            parent_seg = seg_id_of[(axis.parent_id, axis.insertion_ca, bearing.internode_count)]
            start = np.asarray(segments[parent_seg - 1].end)
        axis_dir[axis.id] = direction
        keys = [(axis.id, gu.ca, rank)
                for gu in axis.gus for rank in range(1, gu.internode_count + 1)]
        keys = [key for key in keys if key in geo]
        lengths = np.array([geo[key][0] for key in keys])
        ends = np.cumsum(np.vstack([start, lengths[:, None] * direction]), axis=0)
        points = [tuple(p) for p in ends.tolist()]
        for key, a, b in zip(keys, points, points[1:]):
            segments.append(LegacySegment(len(segments) + 1, parent_seg, a, b, geo[key][1] / 2.0))
            parent_seg = seg_id_of[key] = len(segments)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("segment_id", "parent_id", "x0", "y0", "z0", "x1", "y1", "z1", "radius_cm"))
    for seg in segments:
        writer.writerow((
            seg.segment_id, "" if seg.parent_id is None else seg.parent_id,
            repr(seg.start[0]), repr(seg.start[1]), repr(seg.start[2]),
            repr(seg.end[0]), repr(seg.end[1]), repr(seg.end[2]),
            repr(seg.radius_cm),
        ))
    return buf.getvalue()


@st.composite
def shuffled_uneven_trees(draw):
    """uneven_trees with the axis ids permuted, so id (census) order is
    not the order of the skeleton's walk."""
    t = draw(uneven_trees())
    ids = sorted(t.axes)
    new = dict(zip(ids, draw(st.permutations(ids))))
    axes = [("H", new[a.id], new.get(a.parent_id), a.insertion_ca)
            for a in t.axes.values()]
    gus = [("H", new[a.id], gu.ca, gu.internode_count)
           for a in t.axes.values() for gu in a.gus]
    return with_physio_ages(topology_of(axes, gus), {new[a.id]: a.pa for a in t.axes.values()})


class TestSkeletonBytes:
    DP = DirectParams(
        p_int={1: 0.561, 2: 0.726, 3: 0.858},
        allometry={1: (5.0, 0.3), 2: (7.0, 0.35), 3: (9.0, 0.4)},
        slw=0.0287,
    )
    HP = HiddenParams(q0=10.0, rp=6.4319, pc=0.13882)

    # The legacy writer numbers only the branches born by the horizon, so it
    # is the oracle of full-age traces; shorter ones are the full skeleton
    # cut back (TestShorterSkeletons).
    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    @pytest.mark.parametrize("age", [1, 4, 6])
    def test_generated_tree_matches_legacy_writer(self, ring_mode, age):
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=2)
        t = generate_topology(rules, age, "T")
        trace = simulate(self.HP, self.DP, t, SimConfig(ring_mode=ring_mode))
        assert export_skeleton(trace, t, 7) == legacy_skeleton_csv(trace, t, 7)

    @given(t=shuffled_uneven_trees(), ring_mode=st.sampled_from(["uniform", "pipe"]),
           seed=st.integers(0, 2**32 - 1))
    def test_uneven_tree_matches_legacy_writer(self, t, ring_mode, seed):
        trace = simulate(self.HP, self.DP, t, SimConfig(ring_mode=ring_mode))
        assert export_skeleton(trace, t, seed) == legacy_skeleton_csv(trace, t, seed)


def born_by(topology, cycles):
    """Whether each segment of the full-age skeleton, in the order of
    build_skeleton's walk, is an internode born by ``cycles``."""
    order = [topology.root]
    for axis in order:
        order.extend(topology.children_of(axis.id))
    return np.array([gu.ca <= cycles for axis in order for gu in axis.gus
                     for _ in range(gu.internode_count)])


class TestShorterSkeletons:
    """The skeleton of a trace shortened to c cycles is the full-age one cut
    to the internodes born by c: the same segment ends, bit for bit, and the
    same parent links."""

    def check_every_horizon(self, t, ring_mode, seed):
        cfg = SimConfig(ring_mode=ring_mode)
        full = build_skeleton(simulate(TestSkeletonBytes.HP, TestSkeletonBytes.DP, t, cfg), t,
                              seed)
        for cycles in range(1, t.age + 1):
            short = build_skeleton(simulate(TestSkeletonBytes.HP, TestSkeletonBytes.DP, t, cfg,
                                            cycles=cycles), t, seed)
            keep = born_by(t, cycles)
            assert short.end.tobytes() == full.end[keep].tobytes()
            assert short.start.tobytes() == full.start[keep].tobytes()
            renumbered = np.concatenate([[0], np.cumsum(keep)])  # full segment id -> short
            assert (short.parent == renumbered[full.parent[keep]]).all()

    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    @pytest.mark.parametrize("rules, age", [(GrowthRules(3, 2, 2), 6), (GrowthRules(3, 3, 2), 6),
                                            (GrowthRules(3, 1, 3), 7)])
    def test_generated_tree(self, rules, age, ring_mode):
        self.check_every_horizon(generate_topology(rules, age, "T"), ring_mode, 7)

    @given(t=st.one_of(uneven_trees(), shuffled_uneven_trees()),
           ring_mode=st.sampled_from(["uniform", "pipe"]), seed=st.integers(0, 2**32 - 1))
    def test_uneven_tree(self, t, ring_mode, seed):
        self.check_every_horizon(t, ring_mode, seed)


class TestTraceAndOrgansCsv:
    def test_trace_columns_and_rows(self, run):
        _, trace = run
        rows = parse(export_trace_csv(trace))
        assert len(rows) == trace.cycles
        assert list(rows[0]) == ["cycle", "q_prod", "demand", "leaf_surface",
                                 "cum_internode_mass", "cum_blade_mass"]
        assert float(rows[-1]["cum_internode_mass"]) == pytest.approx(
            float(trace.cum_internode_mass[-1])
        )

    def test_organs_row_count(self, run):
        t, trace = run
        rows = parse(export_organs_csv(trace))
        internode_rows = [r for r in rows if r["kind"] == "internode"]
        blade_rows = [r for r in rows if r["kind"] == "blade"]
        assert len(internode_rows) == t.total_internodes()
        assert len(blade_rows) == t.total_internodes()

    def test_organs_mass_reconciles_with_trace(self, run):
        _, trace = run
        rows = parse(export_organs_csv(trace))
        total = sum(float(r["mass_g"]) for r in rows)
        assert total == pytest.approx(trace.total_mass(), rel=1e-9)


def legacy_organs_csv(trace):
    """export_organs_csv as it was, one row and one numpy scalar at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("pa", "birth_cycle", "kind", "mass_g", "length_cm", "diameter_mm"))
    if trace.organs is not None:
        org = trace.organs
        for j in range(len(org)):
            writer.writerow((
                int(org.pa[j]), int(org.birth[j]), "internode",
                repr(float(org.primary[j] + org.ring[j])),
                repr(float(org.length_cm[j])),
                repr(float(org.diameter_cm[j] * 10.0)),
            ))
        for (pa, birth), cohort in sorted(trace.cohorts.items()):
            for _ in range(cohort.n_blades):
                writer.writerow((pa, birth, "blade", repr(cohort.blade_mass), "", ""))
    else:
        for (pa, birth), cohort in sorted(trace.cohorts.items()):
            writer.writerow((pa, birth, "internode", repr(cohort.internode_mass),
                             repr(cohort.length_cm), repr(cohort.diameter_cm * 10.0)))
            writer.writerow((pa, birth, "blade", repr(cohort.blade_mass), "", ""))
    return buf.getvalue()


class TestOrgansCsvBytes:
    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    @pytest.mark.parametrize("age, cycles", [(1, None), (5, None), (6, 3)])
    def test_explicit_trace_matches_row_by_row_writer(self, dp3, hp_default, ring_mode,
                                                      age, cycles):
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=2)
        trace = simulate(hp_default, dp3, generate_topology(rules, age, "T"),
                         SimConfig(ring_mode=ring_mode), cycles=cycles)
        assert export_organs_csv(trace) == legacy_organs_csv(trace)

    def test_factored_trace_matches_row_by_row_writer(self, dp3, hp_default):
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=2)
        trace = simulate_factored(hp_default, dp3, rules, 6)
        assert export_organs_csv(trace) == legacy_organs_csv(trace)

    def test_trace_with_no_organ_born_writes_the_header(self, late_root):
        # The root's first GU is at cycle 2: by cycle 1 nothing is born.
        dp = DirectParams(p_int={1: 0.5}, allometry={1: (2.0, 1 / 3)}, slw=0.02)
        trace = simulate(HiddenParams(0.0, 3.0, 0.3), dp, late_root, cycles=1)
        assert export_organs_csv(trace) == legacy_organs_csv(trace)
        assert export_skeleton(trace, late_root, 1) == legacy_skeleton_csv(trace, late_root, 1)

    @given(t=uneven_trees(), data=st.data(), ring_mode=st.sampled_from(["uniform", "pipe"]))
    def test_uneven_tree_matches_row_by_row_writer(self, t, data, ring_mode):
        cycles = data.draw(st.integers(1, t.age), label="cycles")
        trace = simulate(TestSkeletonBytes.HP, TestSkeletonBytes.DP, t,
                         SimConfig(ring_mode=ring_mode), cycles=cycles)
        assert export_organs_csv(trace) == legacy_organs_csv(trace)
