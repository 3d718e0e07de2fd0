import math
from dataclasses import replace
from operator import mul

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fspm import (
    DirectParams,
    FitOptions,
    FitProblem,
    FreeParams,
    GrowthRules,
    HiddenParams,
    SimConfig,
    TreeTopology,
    fd_jacobian,
    fit_hidden,
    generate_topology,
    residuals,
    simulate,
    targets_from_trace,
)
from fspm.calibrate import (
    DEFAULT_BOUNDS,
    _jacobian,
    _values,
    central_jacobian,
)
from fspm.errors import (
    InfeasibleInit,
    InvalidParameter,
    MissingPA,
    SimulationFailed,
    ValidationError,
)
from fspm.ingest import CumEntry, TargetEntry, TargetSeries
from test_engine import uneven_trees


@pytest.fixture
def dp2():
    return DirectParams(
        p_int={1: 0.561, 2: 0.726},
        allometry={1: (5.0, 0.3), 2: (7.0, 0.35)},
        slw=0.0287,
    )


def n_observations(problem):
    return sum(len(obs.measured) for obs in problem._observed)


def synthetic_problem(dp, hp_by_tree, ages, rules=None, cfg=SimConfig()):
    rules = rules or GrowthRules(p_max=2, internodes_per_gu=2, branches_per_gu=1)
    topologies = []
    targets = []
    for (tree_id, hp), age in zip(hp_by_tree.items(), ages):
        t = generate_topology(rules, age, tree_id)
        trace = simulate(hp, dp, t, cfg)
        topologies.append(t)
        targets.append(targets_from_trace(trace, dp))
    return FitProblem(targets=targets, topologies=topologies, dp=dp, cfg=cfg)


class TestFitProblem:
    def test_unclassified_topology_raises_missing_pa(self, dp2):
        problem = synthetic_problem(dp2, {"t1": HiddenParams(5.0, 4.0, 0.1)}, [3])
        t = problem.topologies[0]
        axes = {k: replace(a, pa=None) for k, a in t.axes.items()}
        bare = TreeTopology(t.tree_id, t.age, axes)
        with pytest.raises(MissingPA):
            FitProblem(targets=problem.targets, topologies=[bare], dp=dp2)

    def test_target_group_absent_from_topology(self, dp2):
        problem = synthetic_problem(dp2, {"t1": HiddenParams(5.0, 4.0, 0.1)}, [3])
        ts = problem.targets[0]
        entries = dict(ts.entries)
        entries[(2, 1)] = entries[(1, 1)]  # no PA-2 organ is born at cycle 1
        with pytest.raises(ValidationError, match="PA2/CA1"):
            FitProblem(targets=[replace(ts, entries=entries)],
                       topologies=problem.topologies, dp=dp2)

    def test_tree_given_twice_rejected(self, dp2):
        # Fitted twice, a tree's residuals would count double in the SSE.
        problem = synthetic_problem(
            dp2, {"t1": HiddenParams(5.0, 4.0, 0.1), "t2": HiddenParams(6.0, 4.0, 0.1)}, [3, 4]
        )
        t1, t2 = zip(problem.targets, problem.topologies)
        targets, topologies = zip(t1, t2, t1)
        with pytest.raises(ValidationError) as got:
            FitProblem(targets=list(targets), topologies=list(topologies), dp=dp2)
        assert str(got.value) == "tree 't1' is given more than once"

    @pytest.mark.parametrize("bad, index", [
        (math.nan, 0), (math.inf, 3), (-math.inf, 1), (-1e-9, 2),
    ])
    def test_non_finite_or_negative_weight_rejected(self, dp2, bad, index):
        # A NaN weight used to give a "converged" fit with sse=nan at the init point.
        problem = synthetic_problem(dp2, {"t1": HiddenParams(5.0, 4.0, 0.1)}, [3])
        weights = np.ones(n_observations(problem))
        weights[index] = bad
        with pytest.raises(ValidationError, match=rf"weights\[{index}\] must be finite and >= 0"):
            replace(problem, weights=weights)

    def test_zero_weights_accepted(self, dp2):
        problem = synthetic_problem(dp2, {"t1": HiddenParams(5.0, 4.0, 0.1)}, [3])
        replace(problem, weights=[0.0] * n_observations(problem))

    @pytest.mark.parametrize("bounds, match", [
        ({"rp": (1e-2, math.inf)}, "bounds for 'rp' must be finite"),
        ({"pc": (math.nan, 1.0)}, "bounds for 'pc' must be finite"),
        ({"q0": (-math.inf, 1.0)}, "bounds for 'q0' must be finite"),
        ({"q0": (1.0, 1.0)}, "0 < lo < hi"),
        ({"q0": None}, r"missing \['q0'\], unknown \[\]"),
        ({"qo": (1e-3, 1e5)}, r"unknown \['qo'\]"),
    ])
    def test_bad_bounds_rejected(self, dp2, bounds, match):
        problem = synthetic_problem(dp2, {"t1": HiddenParams(5.0, 4.0, 0.1)}, [3])
        merged = {**DEFAULT_BOUNDS, **bounds}  # None drops the key
        merged = {name: pair for name, pair in merged.items() if pair is not None}
        with pytest.raises(ValidationError, match=match):
            replace(problem, bounds=merged)


class TestResiduals:
    def test_zero_at_generator(self, dp2):
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(dp2, {"t1": hp}, [4])
        fp = FreeParams(q0={"t1": 5.0}, rp=4.0, pc=0.1)
        assert np.all(residuals(fp, problem) == 0.0)

    def test_doubling_weights_doubles_residuals(self, dp2):
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(dp2, {"t1": hp}, [4])
        fp = FreeParams(q0={"t1": 7.0}, rp=4.0, pc=0.1)
        base = residuals(fp, problem)
        n = len(base)
        doubled_problem = FitProblem(
            targets=problem.targets, topologies=problem.topologies,
            dp=problem.dp, cfg=problem.cfg, weights=[2.0] * n,
        )
        np.testing.assert_allclose(residuals(fp, doubled_problem), 2.0 * base)

    def test_two_observation_toy_hand_computed(self, dp2):
        # Age-1 tree, one (PA, CA) group, no cumulated targets: residuals are
        # exactly [(sim_d - meas_d)/meas_d, (sim_w - meas_w)/meas_w].
        rules = GrowthRules(p_max=1, internodes_per_gu=1)
        t = generate_topology(rules, 1, "toy")
        hp = HiddenParams(q0=2.0, rp=4.0, pc=0.1)
        trace = simulate(hp, dp2, t)
        full = targets_from_trace(trace, dp2)
        targets = TargetSeries(tree_id="toy", entries=dict(full.entries), cumulated={})
        meas_d = targets.entries[(1, 1)].mean_internode_diameter
        meas_w = targets.entries[(1, 1)].mean_internode_weight
        problem = FitProblem(targets=[targets], topologies=[t], dp=dp2)

        fp = FreeParams(q0={"toy": 3.0}, rp=4.0, pc=0.1)
        sim_trace = simulate(HiddenParams(3.0, 4.0, 0.1), dp2, t)
        sim_d = sim_trace.cohorts[(1, 1)].diameter_cm * 10.0
        sim_w = sim_trace.cohorts[(1, 1)].internode_mass
        expected = [(sim_d - meas_d) / meas_d, (sim_w - meas_w) / meas_w]
        np.testing.assert_allclose(residuals(fp, problem), expected, rtol=1e-12)


class TestFdJacobian:
    def test_pc_column_zero_without_rings(self, dp2):
        # An age-1 tree never opens the ring compartment.
        hp = HiddenParams(q0=2.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(
            dp2, {"t1": hp}, [1], rules=GrowthRules(p_max=1, internodes_per_gu=1)
        )
        fp = FreeParams(q0={"t1": 2.5}, rp=4.5, pc=0.12)
        jac = fd_jacobian(fp, problem)
        pc_col = jac[:, problem.param_names.index("pc")]
        assert np.max(np.abs(pc_col)) < 1e-6

    def test_matches_analytic_on_quadratic(self):
        def fn(x):
            return np.array([x[0] ** 2 + 3 * x[1], x[0] * x[1]])

        x = np.array([1.3, -0.7])
        jac = central_jacobian(fn, x, 1e-5)
        analytic = np.array([[2 * x[0], 3.0], [x[1], x[0]]])
        np.testing.assert_allclose(jac, analytic, atol=1e-6)

    def test_step_halving_second_order(self):
        def fn(x):
            return np.array([np.exp(x[0])])

        x = np.array([0.4])
        errors = []
        for step in (1e-2, 5e-3):
            jac = central_jacobian(fn, x, step)
            errors.append(abs(jac[0, 0] - np.exp(0.4)))
        # Central differences: error ~ step^2, so halving shrinks it ~4x.
        assert errors[1] == pytest.approx(errors[0] / 4, rel=0.1)

    def test_requires_strict_interior(self, dp2):
        hp = HiddenParams(q0=2.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(dp2, {"t1": hp}, [3])
        fp = FreeParams(q0={"t1": 1e-3}, rp=4.0, pc=0.1)  # at the bound
        with pytest.raises(InfeasibleInit):
            fd_jacobian(fp, problem)


class TestFitHidden:
    def test_init_at_generator_converges_immediately(self, dp2):
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(dp2, {"t1": hp}, [4])
        init = FreeParams(q0={"t1": 5.0}, rp=4.0, pc=0.1)
        result = fit_hidden(problem, init, FitOptions(n_starts=0))
        assert result.converged
        assert result.iterations <= 2
        assert result.sse <= 1e-20

    def test_single_tree_roundtrip(self, dp2):
        hp = HiddenParams(q0=14.23, rp=6.4319, pc=0.13882)
        problem = synthetic_problem(dp2, {"t1": hp}, [5])
        init = FreeParams(q0={"t1": 2 * 14.23}, rp=2 * 6.4319, pc=2 * 0.13882)
        result = fit_hidden(problem, init, FitOptions(n_starts=2))
        assert result.params.rp == pytest.approx(6.4319, rel=0.01)
        assert result.params.pc == pytest.approx(0.13882, rel=0.01)
        assert result.params.q0["t1"] == pytest.approx(14.23, rel=0.02)

    def test_sse_never_worse_than_init(self, dp2):
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(dp2, {"t1": hp}, [4])
        init = FreeParams(q0={"t1": 30.0}, rp=1.0, pc=0.5)
        r0 = residuals(init, problem)
        result = fit_hidden(problem, init, FitOptions(n_starts=1, max_iter=10))
        assert result.sse <= float(r0 @ r0)

    def test_deterministic_under_fixed_seed(self, dp2):
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(dp2, {"t1": hp}, [4])
        init = FreeParams(q0={"t1": 9.0}, rp=5.0, pc=0.2)
        opts = FitOptions(n_starts=3, seed=123, max_iter=40)
        a = fit_hidden(problem, init, opts)
        b = fit_hidden(problem, init, opts)
        assert a.to_json() == b.to_json()

    def test_tree_without_targets_reported_degenerate(self, dp2):
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        rules = GrowthRules(p_max=2, internodes_per_gu=2, branches_per_gu=1)
        t1 = generate_topology(rules, 4, "t1")
        t2 = generate_topology(rules, 4, "t2")
        targets1 = targets_from_trace(simulate(hp, dp2, t1), dp2)
        empty2 = TargetSeries(tree_id="t2", entries={}, cumulated={})
        problem = FitProblem(targets=[targets1, empty2], topologies=[t1, t2], dp=dp2)
        init = FreeParams(q0={"t1": 8.0, "t2": 8.0}, rp=5.0, pc=0.15)
        result = fit_hidden(problem, init, FitOptions(n_starts=1, max_iter=30))
        assert "q0:t2" in result.degenerate_params

    def test_infeasible_init(self, dp2):
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(dp2, {"t1": hp}, [3])
        with pytest.raises(InfeasibleInit):
            fit_hidden(problem, FreeParams(q0={"t1": 1e9}, rp=4.0, pc=0.1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_init_without_a_finite_log(self, dp2, value):
        # Checked before any log is taken: no warning, and no fit runs.
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        problem = synthetic_problem(dp2, {"t1": hp}, [3])
        init = FreeParams(q0={"t1": value}, rp=4.0, pc=value)
        with pytest.raises(InfeasibleInit, match=(
            r"^init must be finite and inside the bounds for \['q0:t1', 'pc'\]$"
        )):
            fit_hidden(problem, init, FitOptions(n_starts=0))


ACCEPTANCE_Q0 = {"tree1": 14.23, "tree2": 0.97, "tree3": 47.23, "tree4": 10.94}
ACCEPTANCE_AGES = (3, 4, 5, 6)


def acceptance_problem(dp3, n_trees=4, cfg=SimConfig(), weighted=False):
    """The 4-tree round-trip problem of the acceptance suite (first n trees)."""
    hp = {tid: HiddenParams(q0, 6.4319, 0.13882)
          for tid, q0 in list(ACCEPTANCE_Q0.items())[:n_trees]}
    rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
    problem = synthetic_problem(dp3, hp, ACCEPTANCE_AGES, rules, cfg)
    if weighted:
        problem = replace(problem, weights=np.linspace(0.5, 2.0, n_observations(problem)))
    return problem


def doubled_init(problem):
    return FreeParams(q0={tid: 2 * ACCEPTANCE_Q0[tid] for tid in problem.tree_ids},
                      rp=2 * 6.4319, pc=2 * 0.13882)


def block_pattern(problem):
    """True where a residual can move with a parameter: tree t's rows move
    with q0:t and the shared rp and pc only."""
    n = len(problem.tree_ids)
    pattern = np.zeros((n_observations(problem), n + 2), dtype=bool)
    pattern[:, n:] = True
    pattern[problem._plan.rows, problem._plan.tree] = True
    return pattern


class TestFdOracle:
    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_block_structure(self, dp3, ring_mode, weighted):
        problem = acceptance_problem(dp3, cfg=SimConfig(ring_mode=ring_mode),
                                     weighted=weighted)
        jac = fd_jacobian(doubled_init(problem), problem)
        pattern = block_pattern(problem)
        assert jac.shape == pattern.shape == (len(residuals(doubled_init(problem), problem)), 6)
        assert np.all(jac[~pattern] == 0.0)  # a tree's rows ignore other trees' q0
        assert np.all(np.any(jac != 0.0, axis=0))  # every column informative

    @pytest.mark.parametrize("n_trees", [1, 2, 4])
    def test_fd_jacobian_makes_one_pair_of_passes_per_column(self, dp3, monkeypatch, n_trees):
        import fspm.calibrate as calibrate

        problem = acceptance_problem(dp3, n_trees)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].tree_id)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(calibrate, "simulate", counting)
        fd_jacobian(doubled_init(problem), problem)
        assert len(calls) == 2 * (n_trees + 2) * n_trees
        assert sorted(set(calls)) == problem.tree_ids

    @pytest.mark.parametrize("ring_mode, passes", [("uniform", (211, 164)),
                                                   ("pipe", (208, 157))])
    def test_acceptance_fit_makes_211_value_and_164_tangent_passes(
        self, dp3, monkeypatch, ring_mode, passes
    ):
        # The seed-0 round trip of the acceptance suite: a change to the
        # solver's work shows here as a different count.  The solver runs
        # on the residual plans in both ring modes; the simulator runs once
        # per tree, for the reported SSE.  The solver holds the forward
        # sweep of its current point and takes every Jacobian from it, the
        # identifiability one at the best start's optimum too: forward
        # sweeps are value passes, one each.
        import fspm.calibrate as calibrate

        problem = acceptance_problem(dp3, cfg=SimConfig(ring_mode=ring_mode))
        calls = forward = 0

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return simulate(*args, **kwargs)

        def counting_sweeps(*args):
            nonlocal forward
            forward += 1
            return _values(*args)

        monkeypatch.setattr(calibrate, "simulate", counting)
        monkeypatch.setattr(calibrate, "_values", counting_sweeps)
        result = fit_hidden(problem, doubled_init(problem), FitOptions(seed=0, n_starts=8))
        assert (result.value_passes, result.tangent_passes) == passes
        assert forward == result.value_passes
        assert calls == 4
        assert result.converged
        assert result.at_bound == []
        assert result.params.rp == pytest.approx(6.4319, rel=0.01)
        assert result.params.pc == pytest.approx(0.13882, rel=0.01)
        for tid, q0 in ACCEPTANCE_Q0.items():
            assert result.params.q0[tid] == pytest.approx(q0, rel=0.02)


def legacy_allocations(plan, q0, rp, pc, tangent):
    """Oracle: a_i for each cycle and, with ``tangent``, its derivatives
    with respect to (log q0, log rp, log pc), one row per cycle, by the one
    loop that ran the value and tangent recursions together before they
    were split into a forward and a tangent sweep."""
    e, sp = plan.e, plan.sp
    a: list[float] = []
    da: list[list[float]] = []
    funded, dfunded = q0, [q0, 0.0, 0.0]
    last = len(plan.g) - 1
    for i, (e_sink, g, w_row) in enumerate(zip(plan.e_sinks, plan.g, plan.w_rows)):
        ring = pc * g
        d = e_sink + ring
        if funded > 0:
            if d <= 0:
                raise SimulationFailed(
                    f"tree {plan.tree_id!r}: cycle {i + 1}: "
                    f"{funded} g to allocate but no demand"
                )
            ai = funded / d
            if tangent:
                dq, dr, dp = dfunded
                da.append([dq / d, dr / d, (dp - ai * ring) / d])
        else:
            ai = 0.0
            if tangent:
                da.append([0.0, 0.0, 0.0])
        a.append(ai)
        if i == last:
            break
        s = sum(map(mul, w_row, a))
        decay = math.exp(-s / sp)
        funded = e * (sp / rp) * (1.0 - decay)
        if tangent:
            slope = e / rp * decay
            ds = [sum(map(mul, w_row, column)) for column in zip(*da)]
            dfunded = [slope * ds[0], slope * ds[1] - funded, slope * ds[2]]
    return a, da


def legacy_tree_residuals(plan, rho, q0, rp, pc, tangent):
    """Oracle: one tree's weighted residuals and (rows x 3)
    Jacobian block as the per-tree plans evaluated them before the trees
    were stacked into one pass, on the plan's rows of cohorts with a
    target: the class rows of the other cohorts are sliced off first."""
    a, da = legacy_allocations(plan, q0, rp, pc, tangent)
    k = plan.n_observed
    kept = np.r_[:k, len(plan.b):len(plan.fixed)]  # observed class rows, cumulated rows
    b, beta = plan.b[:k], plan.beta[:k]
    fixed = (plan.fixed @ a)[kept]
    ringed = (plan.ringed @ a)[kept]
    mass = fixed + pc * ringed
    primary, total = fixed[:k], mass[:k]
    ok = (primary > 0) & (total > 0)
    if not ok.all():
        primary, total = np.where(ok, primary, 1.0), np.where(ok, total, 1.0)
    length = b * primary**beta
    diameter = np.sqrt(4.0 * total / (math.pi * rho * length)) * 10.0 * ok
    observed = [diameter, mass]
    if plan.mean is not None:
        observed = [plan.mean @ diameter, plan.mean @ mass[:k], mass[k:]]
    weight = plan.obs.weight
    res = (np.concatenate(observed) - plan.obs.measured) * weight
    if not tangent:
        return res, None
    dfixed = (plan.fixed @ da)[kept]
    dmass = dfixed + pc * (plan.ringed @ da)[kept]
    dmass[:, 2] += pc * ringed
    ddiameter = (0.5 * diameter)[:, None] * (
        dmass[:k] / total[:, None] - beta[:, None] * dfixed[:k] / primary[:, None]
    )
    dobserved = [ddiameter, dmass]
    if plan.mean is not None:
        dobserved = [plan.mean @ ddiameter, plan.mean @ dmass[:k], dmass[k:]]
    return res, np.vstack(dobserved) * weight[:, None]


def legacy_planned(problem, x, tangent):
    """Oracle: every tree's block evaluated on its own, then
    concatenated and scattered into the Jacobian block by block."""
    vals = np.exp(x).tolist()
    trees = problem._plan.trees
    n = len(trees)
    rp, pc = vals[n], vals[n + 1]
    parts, blocks = [], []
    for plan, q0 in zip(trees, vals):
        res, block = legacy_tree_residuals(plan, problem.cfg.rho, q0, rp, pc, tangent)
        parts.append(res)
        blocks.append(block)
    res = np.concatenate(parts)
    jac = None
    if tangent:
        jac = np.zeros((len(res), n + 2))
        offset = 0
        for t, block in enumerate(blocks):
            rows = slice(offset, offset + len(block))
            jac[rows, t] = block[:, 0]
            jac[rows, n:] = block[:, 1:]
            offset += len(block)
    if problem._weights is not None:
        res = res * problem._weights
        if tangent:
            jac *= problem._weights[:, None]
    return res, jac


def planned(problem, x, tangent=False):
    """The residuals at x and, with ``tangent``, the Jacobian there: one
    forward sweep, then one tangent sweep over its state."""
    sweep = _values(problem, x)
    return sweep.res, _jacobian(problem, sweep) if tangent else None


def assert_bitwise_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_plan_matches_simulator(problem, fp):
    """The plan's residuals and exact Jacobian against ``residuals`` and
    ``fd_jacobian``, both of which run the simulator, and bit for bit
    against the per-tree evaluation of ``legacy_planned``."""
    reference = residuals(fp, problem)
    values, jac = planned(problem, problem.pack(fp), tangent=True)
    legacy_values, legacy_jac = legacy_planned(problem, problem.pack(fp), tangent=True)
    assert_bitwise_equal(values, legacy_values)
    assert_bitwise_equal(jac, legacy_jac)
    assert np.max(np.abs(values - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert_bitwise_equal(planned(problem, problem.pack(fp))[0], values)
    fd = fd_jacobian(fp, problem)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))
    assert np.all(jac[~block_pattern(problem)] == 0.0)


class TestResidualPlan:
    """Residual plans in both ring modes against the simulator they replace."""

    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    @pytest.mark.parametrize("ring_demand", ["per-blade", "constant"])
    @pytest.mark.parametrize("t_exp", [1, 2, 3])
    @pytest.mark.parametrize("t_f", [1, 2, 3])
    def test_generated_trees(self, dp3, t_exp, t_f, ring_demand, ring_mode):
        # Ages 1-8 at branching 1 and 2, fitted together as one problem, at
        # a point away from the generating parameters.
        cfg = SimConfig(t_exp=t_exp, t_f=t_f, ring_demand=ring_demand, ring_mode=ring_mode)
        topologies, targets, q0 = [], [], {}
        for branching in (1, 2):
            rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=branching)
            for age in range(1, 9):
                tid = f"b{branching}a{age}"
                topo = generate_topology(rules, age, tid)
                trace = simulate(HiddenParams(4.0 + age, 6.4319, 0.13882), dp3, topo, cfg)
                topologies.append(topo)
                targets.append(targets_from_trace(trace, dp3))
                q0[tid] = 2.0 + 1.5 * age
        problem = FitProblem(targets=targets, topologies=topologies, dp=dp3, cfg=cfg)
        assert_plan_matches_simulator(problem, FreeParams(q0=q0, rp=3.1, pc=0.31))
        # Uniform rings give each cohort one ring class.  On these trees pipe
        # rings split cohorts once blades outlive expansion.
        split = [plan.mean is not None for plan in problem._plan.trees]
        assert any(split) == (ring_mode == "pipe" and t_f > t_exp)

    @given(
        topo=uneven_trees(),
        t_exp=st.integers(1, 3),
        t_f=st.integers(1, 3),
        ring_demand=st.sampled_from(["per-blade", "constant"]),
        ring_mode=st.sampled_from(["uniform", "pipe"]),
    )
    def test_uneven_trees(self, topo, t_exp, t_f, ring_demand, ring_mode):
        dp = DirectParams(
            p_int={1: 0.561, 2: 0.726, 3: 0.858},
            allometry={1: (5.0, 0.3), 2: (7.0, 0.35), 3: (9.0, 0.4)},
            slw=0.0287,
        )
        cfg = SimConfig(t_exp=t_exp, t_f=t_f, ring_demand=ring_demand, ring_mode=ring_mode)
        trace = simulate(HiddenParams(14.23, 6.4319, 0.13882), dp, topo, cfg)
        problem = FitProblem(targets=[targets_from_trace(trace, dp)], topologies=[topo],
                             dp=dp, cfg=cfg)
        assert_plan_matches_simulator(problem, FreeParams(q0={topo.tree_id: 9.0}, rp=4.0, pc=0.5))

    @given(
        topo=st.one_of(
            st.builds(generate_topology,
                      st.builds(GrowthRules, p_max=st.integers(1, 3),
                                internodes_per_gu=st.integers(1, 3),
                                branches_per_gu=st.integers(0, 2)),
                      st.integers(1, 6)),
            uneven_trees(),
        ),
        ring_mode=st.sampled_from(["uniform", "pipe"]),
        t_f=st.integers(1, 3),
        data=st.data(),
    )
    def test_classes_cover_every_internode(self, topo, ring_mode, t_f, data):
        # Targets for only some cohorts: the plan's classes still account for
        # every internode of the census, and their count-weighted masses are
        # each cohort's harvest internode mass, as simulate gives it.  Pipe
        # rings split cohorts once blades outlive expansion (t_f > 1).
        dp3 = DirectParams(
            p_int={1: 0.561, 2: 0.726, 3: 0.858},
            allometry={1: (5.0, 0.3), 2: (7.0, 0.35), 3: (9.0, 0.4)},
            slw=0.0287,
        )
        cfg = SimConfig(ring_mode=ring_mode, t_f=t_f)
        hp = HiddenParams(14.23, 6.4319, 0.13882)
        trace = simulate(hp, dp3, topo, cfg)
        full = targets_from_trace(trace, dp3)
        kept = sorted(data.draw(st.sets(st.sampled_from(sorted(full.entries))), label="kept"))
        targets = replace(full, entries={key: full.entries[key] for key in kept})
        problem = FitProblem(targets=[targets], topologies=[topo], dp=dp3, cfg=cfg)
        plan = problem._plan.trees[0]
        census = topo.census
        assert plan.cohorts[:len(kept)] == kept
        assert sorted(plan.cohorts) == sorted(census.keys)
        assert plan.count.sum() == len(census.cohort) == sum(census.counts.values())
        assert set(plan.owner[:plan.n_observed].tolist()) == set(range(len(kept)))
        a, _ = plan._forward(hp.q0, hp.rp, hp.pc)
        k = len(plan.b)
        mass = plan.fixed[:k] @ a + hp.pc * (plan.ringed[:k] @ a)
        harvest = np.bincount(plan.owner, plan.count * mass, len(plan.cohorts))
        for key, got in zip(plan.cohorts, harvest.tolist()):
            cohort = trace.cohorts[key]
            expected = cohort.internode_mass * cohort.n_internodes
            assert abs(got - expected) <= 1e-12 * expected
        assert_plan_matches_simulator(problem, FreeParams(q0={topo.tree_id: 9.0}, rp=4.0, pc=0.5))

    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    def test_user_weights(self, dp3, ring_mode):
        problem = acceptance_problem(dp3, cfg=SimConfig(ring_mode=ring_mode), weighted=True)
        assert_plan_matches_simulator(problem, doubled_init(problem))

    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    def test_empty_classes_bitwise_equal_to_per_tree_passes(self, dp3, ring_mode):
        # A seed mass of 1e-300 funds no leaf surface: every cohort of
        # tree2 after the first gets nothing and has no diameter, so the
        # empty-class guard runs for some rows of the stacked pass.
        problem = acceptance_problem(dp3, cfg=SimConfig(ring_mode=ring_mode), weighted=True)
        trace = simulate(HiddenParams(1e-300, 4.0, 0.5), dp3, problem.topologies[1],
                         problem.cfg)
        assert sum(c.diameter_cm == 0.0 for c in trace.cohorts.values()) > 1
        q0 = {tid: 2 * v for tid, v in ACCEPTANCE_Q0.items()}
        x = problem.pack(FreeParams(q0={**q0, "tree2": 1e-300}, rp=4.0, pc=0.5))
        for tangent in (False, True):
            values, jac = planned(problem, x, tangent)
            legacy_values, legacy_jac = legacy_planned(problem, x, tangent)
            assert_bitwise_equal(values, legacy_values)
            if tangent:
                assert_bitwise_equal(jac, legacy_jac)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_length_closes_no_diameter_as_simulate_does(self, dp3):
        # With beta = 200 for PA 3, a class of little primary mass gets an
        # allometric length that underflows to 0: simulate gives it no
        # diameter, and so must the plan, without dividing by that length.
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
        q0 = {"t5": 0.05, "t6": 0.03}
        topologies, targets = [], []
        for (tid, seed_mass), age in zip(q0.items(), (5, 6)):
            topo = generate_topology(rules, age, tid)
            trace = simulate(HiddenParams(seed_mass, 6.4319, 0.13882), dp3, topo)
            topologies.append(topo)
            targets.append(targets_from_trace(trace, dp3))
        steep = replace(dp3, allometry={**dp3.allometry, 3: (9.0, 200.0)})
        problem = FitProblem(targets=targets, topologies=topologies, dp=steep)
        fp = FreeParams(q0=q0, rp=6.4319, pc=0.13882)
        sweep = _values(problem, problem.pack(fp))
        assert np.any(sweep.diameter == 0.0)
        reference = residuals(fp, problem)
        assert np.max(np.abs(sweep.res - reference)) <= 1e-12 * np.max(np.abs(reference))
        jac = _jacobian(problem, sweep)
        assert np.all(np.isfinite(jac))
        # beta = 200 makes the diameter rows steep: central differences
        # are good to a few parts per million here.
        fd = fd_jacobian(fp, problem)
        assert np.max(np.abs(jac - fd)) <= 1e-5 * np.max(np.abs(fd))

    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_length_raises_as_residuals_does(self, dp3, ring_mode):
        # With beta = 400 for PA 1, a PA-1 cohort's primary mass of about
        # 6.5 g gives an allometric length past the largest float.
        cfg = SimConfig(ring_mode=ring_mode)
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
        topo = generate_topology(rules, 4, "t1")
        targets = targets_from_trace(simulate(HiddenParams(10.0, 6.4, 0.14), dp3, topo, cfg), dp3)
        steep = replace(dp3, allometry={**dp3.allometry, 1: (5.0, 400.0)})
        problem = FitProblem(targets=[targets], topologies=[topo], dp=steep, cfg=cfg)
        fp = FreeParams(q0={"t1": 10.0}, rp=6.4, pc=0.14)
        # The plan sums the mass in another order: its last digits may differ.
        message = (r"^tree 't1': PA 1: allometric length 5\.0 \* 6\.5047576027104\d+ g "
                   r"\*\* 400\.0 overflows$")
        with pytest.raises(SimulationFailed, match=message):
            residuals(fp, problem)
        with pytest.raises(SimulationFailed, match=message):
            _values(problem, problem.pack(fp))
        with pytest.raises(SimulationFailed, match=message):
            fit_hidden(problem, fp, FitOptions(n_starts=0))

    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_length_of_a_cohort_without_a_target(self, dp3, ring_mode, monkeypatch):
        # As above, but with no PA-1 target: simulate still raises for the
        # PA-1 cohorts, so the fit must fail on the first value pass at such
        # a point, not after the whole solve.
        import fspm.calibrate as calibrate

        cfg = SimConfig(ring_mode=ring_mode)
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
        topo = generate_topology(rules, 4, "t1")
        targets = targets_from_trace(simulate(HiddenParams(10.0, 6.4, 0.14), dp3, topo, cfg), dp3)
        targets = replace(targets, entries={k: e for k, e in targets.entries.items() if k[0] != 1})
        steep = replace(dp3, allometry={**dp3.allometry, 1: (5.0, 400.0)})
        problem = FitProblem(targets=[targets], topologies=[topo], dp=steep, cfg=cfg)
        fp = FreeParams(q0={"t1": 10.0}, rp=6.4, pc=0.14)
        message = r"^tree 't1': PA 1: allometric length 5\.0 \* [0-9.e+-]+ g \*\* 400\.0 overflows$"
        with pytest.raises(SimulationFailed, match=message):
            residuals(fp, problem)
        with pytest.raises(SimulationFailed, match=message):
            _values(problem, problem.pack(fp))
        points = []

        def counting_sweeps(problem, x):
            points.append(problem.unpack(x))
            return _values(problem, x)

        monkeypatch.setattr(calibrate, "_values", counting_sweeps)
        init = FreeParams(q0={"t1": 20.0}, rp=2 * 6.4, pc=2 * 0.14)
        with pytest.raises(SimulationFailed, match=message):
            fit_hidden(problem, init, FitOptions(n_starts=4))
        # The init simulates (its PA-1 primary masses stay below 5.9 g); the
        # first trial step does not, and the fit stops there.
        assert len(points) == 2
        residuals(points[0], problem)
        with pytest.raises(SimulationFailed, match=message):
            residuals(points[1], problem)

    def test_zero_demand_raises_as_residuals_does(self, dp2):
        # Declared one cycle older than its growth: on the last cycle the
        # foliage funds biomass and nothing takes it.
        hp = HiddenParams(q0=5.0, rp=4.0, pc=0.1)
        rules = GrowthRules(p_max=2, internodes_per_gu=2, branches_per_gu=1)
        grown = generate_topology(rules, 3, "t1")
        older = TreeTopology(grown.tree_id, 4, grown.axes)
        targets = targets_from_trace(simulate(hp, dp2, grown), dp2)
        problem = FitProblem(targets=[targets], topologies=[older], dp=dp2)
        fp = FreeParams(q0={"t1": 5.0}, rp=4.0, pc=0.1)
        with pytest.raises(SimulationFailed) as expected:
            residuals(fp, problem)
        assert "cycle 4" in str(expected.value)
        with pytest.raises(SimulationFailed) as got:
            _values(problem, problem.pack(fp))
        assert str(got.value) == str(expected.value)
        with pytest.raises(SimulationFailed, match="cycle 4"):
            fit_hidden(problem, fp, FitOptions(n_starts=0))

    def test_zero_demand_on_the_first_cycle(self, late_root):
        # The root's first GU is at cycle 2, so the seed mass of cycle 1 has
        # no organ to take it: the plan fails as simulate does.
        dp = DirectParams(p_int={1: 0.5}, allometry={1: (2.0, 1 / 3)}, slw=0.02)
        targets = TargetSeries(
            tree_id="Z",
            entries={(1, 2): TargetEntry(1.0, 1.0, 1.0, 1.0, 1.0, 2)},
            cumulated={3: CumEntry(1.0, 1.0)},
        )
        problem = FitProblem(targets=[targets], topologies=[late_root], dp=dp)
        fp = FreeParams(q0={"Z": 1.0}, rp=3.0, pc=0.3)
        message = "tree 'Z': cycle 1: 1.0 g to allocate but no demand"
        with pytest.raises(SimulationFailed) as got:
            _values(problem, problem.pack(fp))
        assert str(got.value) == message
        with pytest.raises(SimulationFailed) as got:
            fit_hidden(problem, fp, FitOptions(n_starts=0))
        assert str(got.value) == message

    def test_missing_sink_fails_in_the_problem(self, dp2):
        # Direct parameters without PA 2: no plan can be built, and the
        # problem reports the error ``residuals`` gives.
        problem = synthetic_problem(dp2, {"t1": HiddenParams(5.0, 4.0, 0.1)}, [3])
        bare = DirectParams(p_int={1: 0.561}, allometry={1: (5.0, 0.3)}, slw=0.0287)
        with pytest.raises(SimulationFailed, match="no internode sink for PA 2") as got:
            replace(problem, dp=bare)
        assert str(got.value) == "tree 't1': no internode sink for PA 2"

    @pytest.mark.parametrize("cycle", [0, 4])
    def test_cumulated_cycle_outside_the_run_rejected(self, dp2, cycle):
        problem = synthetic_problem(dp2, {"t1": HiddenParams(5.0, 4.0, 0.1)}, [3])
        ts = problem.targets[0]
        bad = replace(ts, cumulated={**ts.cumulated, cycle: ts.cumulated[3]})
        with pytest.raises(ValidationError, match=f"cycle {cycle} outside"):
            FitProblem(targets=[bad], topologies=problem.topologies, dp=dp2)

    @pytest.mark.parametrize("ring_mode", ["uniform", "pipe"])
    def test_acceptance_fit_deterministic_per_seed(self, dp3, ring_mode):
        problem = acceptance_problem(dp3, cfg=SimConfig(ring_mode=ring_mode))
        runs = [fit_hidden(problem, doubled_init(problem), FitOptions(seed=seed, n_starts=2))
                for seed in (3, 3, 4)]
        assert runs[0].to_json() == runs[1].to_json()
        assert runs[0].to_json() != runs[2].to_json()


class TestFitOptions:
    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"n_starts": -1}, {"max_iter": 0},
        {"seed": 1.5}, {"max_iter": 2.0},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(InvalidParameter, match=next(iter(kwargs))):
            FitOptions(**kwargs)

    def test_edges_accepted(self):
        FitOptions(seed=np.int64(0), n_starts=0, max_iter=1)
