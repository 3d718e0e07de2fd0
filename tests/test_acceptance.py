"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failed assertion is the FAIL case.  Runtime budgets are
asserted inside the tests themselves.
"""
import csv
import io
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from fspm import (
    DirectParams,
    FitOptions,
    FitProblem,
    FreeParams,
    GrowthRules,
    HiddenParams,
    SimConfig,
    analytic_organ_count,
    classify_axes,
    cluster_1d,
    estimate_slw,
    fit_allometry,
    fit_hidden,
    fit_sink_ratio,
    generate_topology,
    organ_census,
    parse_measurements,
    samples_by_gu,
    simulate,
    simulate_factored,
    targets_from_trace,
    with_physio_ages,
)
from fspm.cli import main
from fspm.errors import DuplicateKey, SchemaError, UnitError
from fspm.export import export_skeleton
from fspm.ingest import _TABLES

DATA = Path(__file__).parent / "data"


def report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s budget"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def random_direct_params(rng, p_max):
    return DirectParams(
        p_int={pa: float(rng.uniform(0.3, 1.2)) for pa in range(1, p_max + 1)},
        allometry={
            pa: (float(rng.uniform(2.0, 20.0)), float(rng.uniform(-0.5, 0.8)))
            for pa in range(1, p_max + 1)
        },
        slw=float(rng.uniform(0.01, 0.1)),
    )


def test_conservation_suite():
    """100 randomized parameter/topology combinations conserve biomass."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i in range(100):
        p_max = int(rng.integers(1, 5))
        rules = GrowthRules(
            p_max=p_max,
            internodes_per_gu=int(rng.integers(1, 4)),
            branches_per_gu=int(rng.integers(0, 3)),
        )
        age = int(rng.integers(2, 9))
        cfg = SimConfig(
            ring_mode="pipe" if i % 4 == 0 else "uniform",
            ring_demand="constant" if i % 5 == 0 else "per-blade",
        )
        dp = random_direct_params(rng, p_max)
        hp = HiddenParams(
            q0=float(rng.uniform(0.5, 50.0)),
            rp=float(rng.uniform(1.0, 10.0)),
            pc=float(rng.uniform(0.01, 0.5)),
        )
        trace = simulate(hp, dp, generate_topology(rules, age), cfg)

        prev_total = 0.0
        for c in range(trace.cycles):
            total = float(trace.cum_internode_mass[c] + trace.cum_blade_mass[c])
            funded = float(trace.q_funded[c])
            assert abs((total - prev_total) - funded) <= 1e-9 * max(1.0, funded)
            prev_total = total
        expected = hp.q0 + float(trace.q_prod[:-1].sum())
        assert abs(trace.total_mass() - expected) <= 1e-9 * max(1.0, expected)
    report("conservation", started, 10.0)


def test_round_trip_calibration():
    """Noiseless 4-tree multi-fit recovers the generating hidden parameters."""
    started = time.perf_counter()
    dp = DirectParams(
        p_int={1: 0.561, 2: 0.726, 3: 0.858},
        allometry={1: (5.0, 0.3), 2: (7.0, 0.35), 3: (9.0, 0.4)},
        slw=0.0287,
    )
    rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
    true_q0 = {"tree1": 14.23, "tree2": 0.97, "tree3": 47.23, "tree4": 10.94}
    true_rp, true_pc = 6.4319, 0.13882

    topologies, targets = [], []
    for (tid, q0), age in zip(true_q0.items(), (3, 4, 5, 6)):
        t = generate_topology(rules, age, tid)
        trace = simulate(HiddenParams(q0, true_rp, true_pc), dp, t)
        topologies.append(t)
        targets.append(targets_from_trace(trace, dp))

    problem = FitProblem(targets=targets, topologies=topologies, dp=dp)
    init = FreeParams(
        q0={tid: 2 * v for tid, v in true_q0.items()},
        rp=2 * true_rp, pc=2 * true_pc,
    )
    result = fit_hidden(problem, init, FitOptions(seed=0, n_starts=8))
    assert result.converged
    assert result.params.rp == pytest.approx(true_rp, rel=0.01)
    assert result.params.pc == pytest.approx(true_pc, rel=0.01)
    for tid, q0 in true_q0.items():
        assert result.params.q0[tid] == pytest.approx(q0, rel=0.02)
    report("round-trip-calibration", started, 60.0)


def test_direct_estimation_recovery():
    """Sink/SLW generators recovered within 5% under 1% noise; exact allometry."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for true_p in (0.561, 0.726, 0.858, 0.954, 0.499):
        blades = rng.uniform(0.5, 6.0, size=120)
        inters = true_p * blades * (1.0 + rng.normal(0.0, 0.01, size=120))
        fit = fit_sink_ratio(list(zip(blades, inters)))
        assert fit.p == pytest.approx(true_p, rel=0.05)

    true_slw = 0.0287
    weights = rng.uniform(0.5, 5.0, size=200)
    areas = weights / true_slw * (1.0 + rng.normal(0.0, 0.01, size=200))
    assert estimate_slw(weights.tolist(), areas.tolist()) == pytest.approx(true_slw, rel=0.05)

    masses = (0.4, 1.1, 2.6, 5.2, 9.7)
    for b, beta in ((5.193, 0.3), (12.146, 0.0576), (20.78, 0.259), (7.229, -0.22)):
        fit = fit_allometry([(q, b * q**beta) for q in masses])
        assert fit.b == pytest.approx(b, rel=1e-10)
        assert fit.beta == pytest.approx(beta, abs=1e-10)
    report("direct-estimation", started, 5.0)


def brute_force_wcss(values, k):
    xs = sorted(values)
    best = float("inf")
    for splits in combinations(range(1, len(xs)), k - 1):
        bounds = (0, *splits, len(xs))
        cost = 0.0
        for a, b in zip(bounds, bounds[1:]):
            seg = xs[a:b]
            mean = sum(seg) / len(seg)
            cost += sum((x - mean) ** 2 for x in seg)
        best = min(best, cost)
    return best


def test_clustering_exactness():
    """DP clustering equals exhaustive enumeration on 200 seeded instances."""
    started = time.perf_counter()
    assert cluster_1d([0.0, 1.0, 2.0, 4.0, 8.0], 2).wcss == 8.75

    import random

    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 12)
        xs = [rng.uniform(0.05, 20.0) for _ in range(n)]
        k = rng.randint(1, min(4, n))
        assert cluster_1d(xs, k).wcss == brute_force_wcss(xs, k)
        checked += 1
    report("clustering-exactness", started, 5.0)


def test_substructure_equivalence_and_performance():
    """Factored cohort recursion reproduces explicit traces and stays fast."""
    started = time.perf_counter()
    hp = HiddenParams(q0=9.0, rp=5.0, pc=0.18)
    rng = np.random.default_rng(99)
    cases = [
        GrowthRules(p_max=p_max, internodes_per_gu=n_int, branches_per_gu=branching)
        for branching in (0, 1, 2, 3)
        for p_max in (1, 2, 3)
        for n_int in (1, 3)
    ]
    cases += [
        GrowthRules(
            p_max=3,
            internodes_per_gu={1: int(rng.integers(1, 4)), 2: int(rng.integers(1, 4)),
                               3: int(rng.integers(1, 4))},
            branches_per_gu={1: int(rng.integers(0, 3)), 2: int(rng.integers(0, 3))},
        )
        for _ in range(6)
    ]
    for rules in cases:
        age = 8
        dp = random_direct_params(rng, rules.p_max)
        explicit = simulate(hp, dp, generate_topology(rules, age))
        factored = simulate_factored(hp, dp, rules, age)
        np.testing.assert_allclose(factored.q_prod, explicit.q_prod, rtol=1e-9)
        np.testing.assert_allclose(factored.demand, explicit.demand, rtol=1e-9)
        np.testing.assert_allclose(
            factored.cum_internode_mass, explicit.cum_internode_mass, rtol=1e-9
        )
        np.testing.assert_allclose(
            factored.cum_blade_mass, explicit.cum_blade_mass, rtol=1e-9
        )
        for key, ce in explicit.cohorts.items():
            cf = factored.cohorts[key]
            assert cf.n_internodes == ce.n_internodes
            assert cf.blade_mass == pytest.approx(ce.blade_mass, rel=1e-9)
            assert cf.internode_mass == pytest.approx(ce.internode_mass, rel=1e-9)
            assert cf.internode_ring == pytest.approx(
                ce.internode_ring, rel=1e-9, abs=1e-15
            )

    big_rules = GrowthRules(p_max=5, internodes_per_gu=1, branches_per_gu=2)
    assert analytic_organ_count(big_rules, 30) > 10**6
    dp5 = random_direct_params(rng, 5)
    t0 = time.perf_counter()
    trace = simulate_factored(hp, dp5, big_rules, 30)
    factored_seconds = time.perf_counter() - t0
    assert factored_seconds < 1.0, f"factored run took {factored_seconds:.2f}s"
    assert trace.total_mass() > 0
    report("substructure", started, 30.0)


def test_ingestion_golden_files(tmp_path):
    """Fixture CSVs reproduce the committed goldens byte for byte."""
    started = time.perf_counter()
    single = DATA / "single"
    tree_out = tmp_path / "tree.json"
    assert main(["ingest", "--axes", str(single / "axes.csv"),
                 "--gus", str(single / "gus.csv"),
                 "--internodes", str(single / "internodes.csv"),
                 "--leaves", str(single / "leaves.csv"),
                 "--out", str(tree_out)]) == 0
    assert tree_out.read_bytes() == (DATA / "golden" / "tree.json").read_bytes()

    cls_out = tmp_path / "cls"
    assert main(["classify-pa", "--tree", str(tree_out), "--k", "3",
                 "--out", str(cls_out)]) == 0
    assert (cls_out / "pa_map.json").read_bytes() == (
        DATA / "golden" / "pa_map.json"
    ).read_bytes()
    assert (cls_out / "targets.json").read_bytes() == (
        DATA / "golden" / "targets.json"
    ).read_bytes()

    def broken(name, text):
        p = tmp_path / name
        p.write_text(text)
        return p

    good = lambda n: single / f"{n}.csv"
    with pytest.raises(SchemaError):
        parse_measurements(
            good("axes"), good("gus"),
            broken("i1.csv", "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm\nT1,A1,1,1,1.0,1.0\n"),
            good("leaves"),
        )
    with pytest.raises(UnitError):
        parse_measurements(
            good("axes"), good("gus"),
            broken("i2.csv", "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\nT1,A1,1,1,-1.0,1.0,1.0\n"),
            good("leaves"),
        )
    with pytest.raises(DuplicateKey):
        parse_measurements(
            good("axes"), good("gus"),
            broken("i3.csv", "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\nT1,A1,1,1,1.0,1.0,1.0\nT1,A1,1,1,2.0,1.0,1.0\n"),
            good("leaves"),
        )
    report("ingestion-goldens", started, 10.0)


def test_skeleton_export_counts_and_determinism():
    """Per-tree segment counts equal the organ census over the 4-tree set."""
    started = time.perf_counter()
    grove = DATA / "grove"
    ms = parse_measurements(grove / "axes.csv", grove / "gus.csv",
                            grove / "internodes.csv", grove / "leaves.csv")
    hp = HiddenParams(q0=12.0, rp=6.4, pc=0.14)
    for tid in ("P1", "P2", "P3", "P4"):
        sub = ms.for_tree(tid)
        topo = sub.topology()
        pa_map, _ = classify_axes(topo, samples_by_gu(topo, sub.internodes, sub.leaves), 3)
        classified = with_physio_ages(topo, pa_map)
        p_max = max(pa_map.values())
        dp = DirectParams(
            p_int={pa: 0.5 + 0.1 * pa for pa in range(1, p_max + 1)},
            allometry={pa: (5.0, 0.3) for pa in range(1, p_max + 1)},
            slw=0.03,
        )
        trace = simulate(hp, dp, classified)
        text = export_skeleton(trace, classified, seed=11)
        rows = list(csv.DictReader(io.StringIO(text)))

        census_total = sum(
            count
            for cycle in range(1, classified.age + 1)
            for (pa, kind), count in organ_census(classified, cycle).items()
            if kind == "internode"
        )
        # Independent oracle: raw internode_count column of gus.csv.
        raw_total = sum(sub.gus.columns[_TABLES["gus"].names.index("internode_count")])
        assert census_total == raw_total
        assert len(rows) == census_total

        assert export_skeleton(trace, classified, seed=11) == text
    report("skeleton-export", started, 20.0)
