import csv
import io
import math

import numpy as np
import pytest

from fspm import (
    GrowthRules,
    HiddenParams,
    SimConfig,
    export_fit_csv,
    export_organs_csv,
    export_skeleton,
    export_trace_csv,
    generate_topology,
    organ_census,
    simulate,
    simulate_factored,
    targets_from_trace,
)
from fspm.errors import TreeMismatch, ValidationError
from fspm.export import _cross, build_skeleton


@pytest.fixture
def run(dp3, hp_default):
    rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
    t = generate_topology(rules, 4, "tree1")
    trace = simulate(hp_default, dp3, t)
    return t, trace


def parse(text):
    return list(csv.DictReader(io.StringIO(text)))


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
            f"^cumulated target for cycle {cycle} outside the simulated cycles 1..4$"
        )):
            export_fit_csv(trace, targets)


class TestSkeleton:
    def test_single_internode(self, dp3):
        t = generate_topology(GrowthRules(p_max=1, internodes_per_gu=1), 1, "one")
        hp = HiddenParams(q0=1.5, rp=5.0, pc=0.1)
        trace = simulate(hp, dp3, t)
        segments = build_skeleton(trace, t, seed=0)
        assert len(segments) == 1
        seg = segments[0]
        length = math.dist(seg.start, seg.end)
        assert length == pytest.approx(trace.organs.length_cm[0])
        assert seg.radius_cm == pytest.approx(trace.organs.diameter_cm[0] / 2)
        assert seg.parent_id is None

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
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()

    def test_shortened_trace_skips_unborn_internodes(self, run, dp3, hp_default):
        t, _ = run
        trace = simulate(hp_default, dp3, t, cycles=2)
        segments = build_skeleton(trace, t, seed=5)
        assert len(segments) == len(trace.organs)
        for seg in segments:
            assert seg.parent_id is None or seg.parent_id < seg.segment_id

    def test_deterministic_under_seed(self, run):
        t, trace = run
        assert export_skeleton(trace, t, 42) == export_skeleton(trace, t, 42)
        assert export_skeleton(trace, t, 42) != export_skeleton(trace, t, 43)

    def test_parent_links_form_tree(self, run):
        t, trace = run
        segments = build_skeleton(trace, t, seed=1)
        ids = {s.segment_id for s in segments}
        roots = [s for s in segments if s.parent_id is None]
        assert len(roots) == 1
        for seg in segments:
            if seg.parent_id is not None:
                assert seg.parent_id in ids
                parent = segments[seg.parent_id - 1]
                assert seg.start == pytest.approx(parent.end)


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
