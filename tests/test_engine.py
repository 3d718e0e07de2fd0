import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fspm import (
    DirectParams,
    GrowthRules,
    HiddenParams,
    SimConfig,
    TreeTopology,
    analytic_organ_count,
    cohort_counts,
    generate_topology,
    internode_geometry,
    organ_census,
    production,
    simulate,
    simulate_factored,
    with_physio_ages,
)
from fspm.engine import _ring_weights, _shares
from fspm.errors import (
    InvalidTopology,
    LengthOverflow,
    NonFiniteState,
    UnsupportedRingMode,
    ValidationError,
    ZeroDemandWithBiomass,
)
from test_ingest import topology_of


def assert_conserved(trace, hp, tol=1e-9):
    """Independent recomputation: allocated mass per cycle equals funded mass."""
    prev_total = 0.0
    for i in range(trace.cycles):
        total = float(trace.cum_internode_mass[i] + trace.cum_blade_mass[i])
        allocated = total - prev_total
        funded = float(trace.q_funded[i])
        assert abs(allocated - funded) <= tol * max(1.0, funded)
        prev_total = total
    expected_total = hp.q0 + float(trace.q_prod[:-1].sum())
    assert abs(trace.total_mass() - expected_total) <= tol * max(1.0, expected_total)


def chain_topology(cycles=3, internodes=1):
    """Single axis, one GU per cycle."""
    return generate_topology(
        GrowthRules(p_max=1, internodes_per_gu=internodes), cycles, "chain"
    )


def uneven_topology():
    """Sibling subtrees of different depth on one root.

    A1 (PA1) grows cycles 1-4.  A2 (PA2) inserts on A1's cycle-1 GU and
    starts that same cycle, then grows to cycle 4 and bears A3 (PA3) from
    cycle 3.  A4 (PA2) inserts on the same GU but stops after one GU at
    cycle 2, so it shares cohort (PA2, 2) with A2 while carrying nothing
    above it.
    """
    axes = [
        ("U", "A1", None, None),
        ("U", "A2", "A1", 1),
        ("U", "A3", "A2", 2),
        ("U", "A4", "A1", 1),
    ]
    gus = [("U", "A1", ca, n) for ca, n in ((1, 2), (2, 2), (3, 1), (4, 1))]
    gus += [("U", "A2", ca, 1) for ca in (1, 2, 3, 4)]
    gus += [("U", "A3", ca, 2) for ca in (3, 4)]
    gus += [("U", "A4", 2, 2)]
    t = topology_of(axes, gus)
    return with_physio_ages(t, {"A1": 1, "A2": 2, "A3": 3, "A4": 2})


@st.composite
def uneven_trees(draw):
    """Classified trees with uneven structure, up to about 20 axes.

    The root's first GU bears a PA2 axis that starts that same cycle and
    runs to the last one, and a sibling that starts a cycle later and stops
    early.  Every GU of a PA1 or PA2 axis may bear up to two more axes of
    the next PA, each starting at its insertion cycle or one later and
    stopping at a drawn cycle, so sibling subtrees reach different depths.
    """
    age = draw(st.integers(3, 6))
    axes, gus, pa_map, queue = [], [], {}, []

    def add(parent, insertion, first, last, pa):
        axis_id = f"x{len(axes):02d}"
        axes.append(("H", axis_id, parent, insertion))
        pa_map[axis_id] = pa
        queue.append((axis_id, first, last, pa))

    add(None, None, 1, age, 1)
    add("x00", 1, 1, age, 2)
    add("x00", 1, 2, draw(st.integers(2, age - 1)), 2)
    for axis_id, first, last, pa in queue:  # grows while it is walked
        for ca in range(first, last + 1):
            gus.append(("H", axis_id, ca, draw(st.integers(1, 3))))
            room = 2 if pa < 3 and len(axes) < 20 else 0
            for _ in range(draw(st.integers(0, room))):
                start = draw(st.integers(ca, min(ca + 1, age)))
                add(axis_id, ca, start, draw(st.integers(start, age)), pa + 1)
    return with_physio_ages(topology_of(axes, gus), pa_map)


def recursive_distal_functioning(topology, positions, cycle, t_f):
    """Independent oracle: functioning blades at or above each internode,
    by a recursive walk of the axes (the pipe weights' former form)."""
    index_of = {pos: j for j, pos in enumerate(positions)}
    weights = np.zeros(len(positions))

    def visit(axis):
        from_child = {}
        for child in topology.children_of(axis.id):
            from_child[child.insertion_ca] = (
                from_child.get(child.insertion_ca, 0) + visit(child)
            )
        above = 0
        for gu in reversed(axis.gus):
            above += from_child.pop(gu.ca, 0)
            if gu.ca > cycle:
                continue
            own = 1 if cycle - t_f < gu.ca <= cycle else 0
            for rank in range(gu.internode_count, 0, -1):
                above += own
                weights[index_of[(axis.id, gu.ca, rank)]] = above
        return above

    visit(topology.root)
    return weights


@pytest.fixture
def dp1():
    return DirectParams(p_int={1: 0.5}, allometry={1: (2.0, 1 / 3)}, slw=0.02)


class TestProduction:
    def test_zero_surface(self, hp_default):
        assert production(0.0, SimConfig(), hp_default) == 0.0

    def test_asymptote(self):
        hp = HiddenParams(q0=1.0, rp=6.4319, pc=0.1)
        cfg = SimConfig(sp=120_000.0, e=1.0)
        limit = 1.0 * 120_000.0 / 6.4319  # ~1.866e4 g
        assert production(1e12, cfg, hp) == pytest.approx(limit, rel=1e-9)
        assert limit == pytest.approx(1.866e4, rel=1e-3)

    def test_small_surface_linear_slope(self):
        hp = HiddenParams(q0=1.0, rp=2.0, pc=0.1)
        cfg = SimConfig(sp=120_000.0)
        slope_fd = production(1.0, cfg, hp) - production(0.0, cfg, hp)
        assert slope_fd == pytest.approx(cfg.e / hp.rp, rel=1e-4)

    def test_concave_and_bounded(self, hp_default):
        cfg = SimConfig()
        bound = cfg.e * cfg.sp / hp_default.rp
        grid = np.linspace(0.0, 5e5, 41)
        q = [production(s, cfg, hp_default) for s in grid]
        assert all(v <= bound for v in q)
        # Midpoint above chord on every consecutive triple.
        for a, b, c in zip(q, q[1:], q[2:]):
            assert b >= (a + c) / 2 - 1e-9

    def test_rp_strictly_decreases_production(self):
        cfg = SimConfig()
        for s in (10.0, 1e3, 1e5):
            lo = production(s, cfg, HiddenParams(q0=1, rp=5.0, pc=0.1))
            hi = production(s, cfg, HiddenParams(q0=1, rp=5.0 + 1e-6, pc=0.1))
            assert hi < lo


def idle_last_cycle(internodes=10):
    """One GU of ``internodes`` at cycle 1, declared a cycle older: on
    cycle 2 no organ expands, so the ring sink is the only demand."""
    grown = chain_topology(cycles=1, internodes=internodes)
    return TreeTopology(grown.tree_id, grown.age + 1, grown.axes)


class TestDemand:
    """The per-cycle demand sum of the recursion, read from the trace."""

    def test_blade_plus_internode(self, hp_default):
        dp = DirectParams(p_int={1: 0.561}, allometry={1: (5.0, 0.3)}, slw=0.0287)
        trace = simulate(hp_default, dp, chain_topology(cycles=1))
        assert trace.demand[0] == pytest.approx(1.561)

    def test_empty(self, late_root, dp1):
        trace = simulate(HiddenParams(q0=0.0, rp=3.0, pc=0.3), dp1, late_root)
        assert trace.demand[0] == 0.0

    def test_ring_only(self, dp3):
        hp = HiddenParams(q0=1.0, rp=5.0, pc=0.13882)
        trace = simulate(hp, dp3, idle_last_cycle(), SimConfig(t_f=2))
        assert trace.demand[1] == pytest.approx(1.3882)

    def test_constant_ring_demand(self, dp3):
        hp = HiddenParams(q0=1.0, rp=5.0, pc=0.13882)
        cfg = SimConfig(t_f=2, ring_demand="constant")
        trace = simulate(hp, dp3, idle_last_cycle(), cfg)
        assert trace.demand[1] == pytest.approx(0.13882)


class TestAllocate:
    """The share rule the recursion splits each cycle's biomass by."""

    def test_single_component_gets_everything(self):
        assert _shares(7.3, [2.0], 2.0) == [7.3]

    def test_two_sinks_hand_values(self):
        blade, internode = _shares(10.0, [1.0, 0.561], 1.561)
        assert blade == pytest.approx(6.4061, abs=5e-5)
        assert internode == pytest.approx(3.5939, abs=5e-5)

    def test_zero_biomass(self):
        assert _shares(0.0, [1.0, 2.0], 3.0) == [0.0, 0.0]

    def test_exact_sum(self):
        sinks = [0.3, 1.7, 0.11]
        assert sum(_shares(math.pi, sinks, sum(sinks))) == math.pi


class TestZeroDemand:
    @pytest.mark.parametrize("mode", ["uniform", "pipe"])
    def test_seed_mass_with_no_organ_to_take_it(self, late_root, dp1, mode):
        with pytest.raises(ZeroDemandWithBiomass) as got:
            simulate(HiddenParams(q0=1.0, rp=3.0, pc=0.3), dp1, late_root,
                     SimConfig(ring_mode=mode))
        assert str(got.value) == "cycle 1: 1.0 g to allocate but no demand"

    def test_no_seed_mass_grows_nothing(self, late_root, dp1):
        trace = simulate(HiddenParams(q0=0.0, rp=3.0, pc=0.3), dp1, late_root)
        assert trace.total_mass() == 0.0


@pytest.mark.filterwarnings("error")
class TestNonFiniteState:
    """A demand, a leaf surface or a diameter past the largest float is a
    model failure naming the cycle or the PA, with no numpy warning."""

    RULES = GrowthRules(p_max=2, internodes_per_gu=2)

    @pytest.mark.parametrize("engine", ["uniform", "pipe", "factored"])
    @pytest.mark.parametrize("change, message", [
        ({"p_int": {1: 1e308, 2: 0.3}}, r"cycle 1: organ demand is not finite \(inf\)"),
        ({"slw": 5e-324}, r"cycle 1: leaf surface of \S+ g of blades at slw 5e-324 g/cm\^2 "
                          r"is not finite"),
        ({"allometry": {1: (5e-324, 0.3), 2: (2.0, 0.3)}},
         r"PA 1: diameter of an internode of \S+ g and length \S+ cm is not finite"),
    ], ids=["demand", "leaf-surface", "diameter"])
    def test_raises_naming_cycle_or_pa(self, engine, change, message):
        dp = replace(DirectParams(p_int={1: 0.6, 2: 0.3}, allometry={1: (2.0, 0.3), 2: (2.0, 0.3)},
                                  slw=0.03), **change)
        hp = HiddenParams(q0=1.0, rp=3.0, pc=0.3)
        with pytest.raises(NonFiniteState, match=f"^{message}$"):
            if engine == "factored":
                simulate_factored(hp, dp, self.RULES, 4)
            else:
                simulate(hp, dp, generate_topology(self.RULES, 4), SimConfig(ring_mode=engine))


class TestInternodeGeometry:
    def test_unit_case(self):
        length, diameter = internode_geometry(1.0, 1.0, b=1.0, beta=1 / 3, rho=1.0)
        assert length == 1.0
        assert diameter == pytest.approx(math.sqrt(4 / math.pi))  # ~1.1284

    def test_zero_mass(self):
        assert internode_geometry(0.0, 0.0, 2.0, 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("b, beta", [(2.0, 400.0), (1e300, 10.0)])
    def test_length_past_the_largest_float_raises(self, b, beta):
        # The power overflows, or the product with b does.
        with pytest.raises(LengthOverflow, match=re.escape(f"length {b} * 10.0 g ** {beta}")):
            internode_geometry(10.0, 10.0, b, beta)

    @given(q=st.floats(1e-6, 100.0), ring=st.floats(0.0, 50.0))
    def test_cylinder_closure(self, q, ring):
        rho = 1.3
        length, diameter = internode_geometry(q, q + ring, 2.0, 0.4, rho)
        volume_mass = math.pi / 4 * diameter**2 * length * rho
        assert volume_mass == pytest.approx(q + ring, rel=1e-12)


class TestSimulate:
    def test_single_step_reference(self):
        t = chain_topology(1)
        dp = DirectParams(p_int={1: 0.561}, allometry={1: (2.0, 0.3)}, slw=0.02)
        hp = HiddenParams(q0=1.561, rp=6.4319, pc=0.13882)
        trace = simulate(hp, dp, t)
        cohort = trace.cohorts[(1, 1)]
        assert cohort.blade_mass == pytest.approx(1.0, rel=1e-12)
        assert cohort.internode_primary == pytest.approx(0.561, rel=1e-12)
        assert trace.ring_pool[0] == 0.0

    def test_zero_seed_all_zero(self, dp1):
        trace = simulate(HiddenParams(q0=0.0, rp=2.0, pc=0.1), dp1, chain_topology(3))
        assert trace.total_mass() == 0.0
        assert np.all(trace.q_prod == 0.0)
        assert np.all(trace.demand > 0.0)  # demand exists, nothing to fund

    def test_three_cycle_manual_recursion(self, dp1):
        """Spreadsheet-style recomputation with literal arithmetic."""
        hp = HiddenParams(q0=2.0, rp=2.0, pc=0.1)
        cfg = SimConfig(e=1.0, sp=1000.0, rho=1.0)
        trace = simulate(hp, dp1, chain_topology(3), cfg)

        d1 = 1.0 + 0.5
        blade1 = 2.0 * 1.0 / d1
        int1 = 2.0 * 0.5 / d1
        s1 = blade1 / 0.02
        q1 = 1.0 * (1000.0 / 2.0) * (1.0 - math.exp(-s1 / 1000.0))

        d2 = 1.0 + 0.5 + 0.1 * 1  # one functioning blade, rings now active
        blade2 = q1 * 1.0 / d2
        int2 = q1 * 0.5 / d2
        pool2 = q1 * 0.1 / d2  # all to the cycle-1 internode
        s2 = blade2 / 0.02
        q2 = 500.0 * (1.0 - math.exp(-s2 / 1000.0))

        d3 = 1.6
        blade3 = q2 / d3
        int3 = q2 * 0.5 / d3
        pool3 = q2 * 0.1 / d3  # split over internodes 1 and 2

        assert trace.demand == pytest.approx([d1, d2, d3], rel=1e-12)
        assert trace.q_prod == pytest.approx([q1, q2, 500.0 * (1 - math.exp(-(blade3 / 0.02) / 1000.0))], rel=1e-12)
        assert trace.leaf_surface == pytest.approx([s1, s2, blade3 / 0.02], rel=1e-12)
        assert trace.ring_pool == pytest.approx([0.0, pool2, pool3], rel=1e-12)
        assert trace.cum_internode_mass == pytest.approx(
            [int1, int1 + int2 + pool2, int1 + int2 + int3 + pool2 + pool3],
            rel=1e-12,
        )
        assert trace.cum_blade_mass == pytest.approx(
            [blade1, blade1 + blade2, blade1 + blade2 + blade3], rel=1e-12
        )
        rings = trace.organs.ring
        assert rings == pytest.approx([pool2 + pool3 / 2, pool3 / 2, 0.0], rel=1e-12)
        assert_conserved(trace, hp, tol=1e-12)

    def test_cumulated_series_nondecreasing(self, dp3, hp_default):
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=2)
        trace = simulate(hp_default, dp3, generate_topology(rules, 6))
        assert np.all(np.diff(trace.cum_internode_mass) >= 0)
        assert np.all(np.diff(trace.cum_blade_mass) >= 0)

    def test_diameter_nondecreasing_over_cycles(self, dp1):
        hp = HiddenParams(q0=2.0, rp=2.0, pc=0.1)
        t = chain_topology(4)
        diameters = []
        for cycles in range(1, 5):
            trace = simulate(hp, dp1, t, cycles=cycles)
            diameters.append(trace.organs.diameter_cm[0])  # first internode
        assert all(a <= b + 1e-15 for a, b in zip(diameters, diameters[1:]))

    def test_seed_sensitivity_positive(self, dp1):
        t = chain_topology(2)
        h = 1e-6
        q_lo = simulate(HiddenParams(2.0 - h, 2.0, 0.1), dp1, t).q_prod[0]
        q_hi = simulate(HiddenParams(2.0 + h, 2.0, 0.1), dp1, t).q_prod[0]
        assert (q_hi - q_lo) / (2 * h) > 0

    def test_conservation_random_combinations(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p_max = int(rng.integers(1, 5))
            rules = GrowthRules(
                p_max=p_max,
                internodes_per_gu=int(rng.integers(1, 4)),
                branches_per_gu=int(rng.integers(0, 3)),
            )
            age = int(rng.integers(2, 7))
            dp = DirectParams(
                p_int={pa: float(rng.uniform(0.3, 1.2)) for pa in range(1, p_max + 1)},
                allometry={pa: (float(rng.uniform(2, 20)), float(rng.uniform(-0.5, 0.8)))
                           for pa in range(1, p_max + 1)},
                slw=float(rng.uniform(0.01, 0.1)),
            )
            hp = HiddenParams(
                q0=float(rng.uniform(0.5, 50.0)),
                rp=float(rng.uniform(1.0, 10.0)),
                pc=float(rng.uniform(0.01, 0.5)),
            )
            trace = simulate(hp, dp, generate_topology(rules, age))
            assert_conserved(trace, hp)

    def test_conservation_with_expansion_and_functioning_windows(self, dp3):
        hp = HiddenParams(q0=5.0, rp=3.0, pc=0.2)
        cfg = SimConfig(t_f=2, t_exp=2)
        rules = GrowthRules(p_max=2, internodes_per_gu=2, branches_per_gu=1)
        trace = simulate(hp, dp3, generate_topology(rules, 6), cfg)
        assert_conserved(trace, hp)

    def test_pipe_mode_three_internode_chain(self, dp1):
        # At cycle 3 only the cycle-3 blade functions; it is distal to both
        # ring-eligible internodes, so the pool splits equally.
        hp = HiddenParams(q0=2.0, rp=2.0, pc=0.1)
        cfg = SimConfig(e=1.0, sp=1000.0, ring_mode="pipe")
        trace = simulate(hp, dp1, chain_topology(3), cfg)
        rings = trace.organs.ring
        pool2, pool3 = trace.ring_pool[1], trace.ring_pool[2]
        assert rings[0] == pytest.approx(pool2 + pool3 / 2, rel=1e-12)
        assert rings[1] == pytest.approx(pool3 / 2, rel=1e-12)
        assert rings[2] == 0.0
        assert_conserved(trace, hp, tol=1e-12)

    def test_pipe_mode_branch_weighting(self, dp3, hp_default):
        rules = GrowthRules(p_max=2, internodes_per_gu=1, branches_per_gu=2)
        t = generate_topology(rules, 4)
        trace = simulate(hp_default, dp3, t, SimConfig(ring_mode="pipe"))
        assert_conserved(trace, hp_default)
        # Basal internode carries every functioning blade; it must get the
        # largest ring share of its cycle.
        rings = trace.organs.ring
        basal = trace.organs.positions.index(("a000001", 1, 1))
        assert rings[basal] == max(rings)


class TestFactored:
    def test_no_branching_matches_explicit(self, dp1):
        hp = HiddenParams(q0=2.0, rp=2.0, pc=0.1)
        rules = GrowthRules(p_max=1, internodes_per_gu=1)
        explicit = simulate(hp, dp1, generate_topology(rules, 5))
        factored = simulate_factored(hp, dp1, rules, 5)
        assert factored.q_prod == pytest.approx(list(explicit.q_prod), rel=1e-12)
        for key, ce in explicit.cohorts.items():
            cf = factored.cohorts[key]
            assert cf.n_internodes == ce.n_internodes
            assert cf.blade_mass == pytest.approx(ce.blade_mass, rel=1e-12)
            assert cf.internode_mass == pytest.approx(ce.internode_mass, rel=1e-12)

    def test_cohort_counts_match_expansion(self):
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=2)
        age = 4
        counts = cohort_counts(rules, age)
        t = generate_topology(rules, age)
        expanded = {}
        for cycle in range(1, age + 1):
            for (pa, kind), count in organ_census(t, cycle).items():
                if kind == "internode":
                    expanded[(pa, cycle)] = count
        assert counts == expanded

    def test_equivalence_sweep(self, dp3):
        hp = HiddenParams(q0=8.0, rp=4.0, pc=0.15)
        for branching in (0, 1, 2):
            for p_max in (1, 2, 3):
                rules = GrowthRules(
                    p_max=p_max, internodes_per_gu=2, branches_per_gu=branching
                )
                dp = DirectParams(
                    p_int={pa: 0.5 + 0.1 * pa for pa in range(1, p_max + 1)},
                    allometry={pa: (5.0, 0.3) for pa in range(1, p_max + 1)},
                    slw=0.03,
                )
                age = 6
                explicit = simulate(hp, dp, generate_topology(rules, age))
                factored = simulate_factored(hp, dp, rules, age)
                np.testing.assert_allclose(factored.q_prod, explicit.q_prod, rtol=1e-9)
                np.testing.assert_allclose(factored.demand, explicit.demand, rtol=1e-9)
                np.testing.assert_allclose(
                    factored.cum_internode_mass, explicit.cum_internode_mass, rtol=1e-9
                )
                for key, ce in explicit.cohorts.items():
                    cf = factored.cohorts[key]
                    assert cf.n_internodes == ce.n_internodes
                    assert cf.internode_mass == pytest.approx(ce.internode_mass, rel=1e-9)
                    assert cf.internode_ring == pytest.approx(ce.internode_ring, rel=1e-9, abs=1e-15)
                    assert cf.blade_mass == pytest.approx(ce.blade_mass, rel=1e-9)

    def test_pipe_unsupported(self, dp1):
        with pytest.raises(UnsupportedRingMode):
            simulate_factored(
                HiddenParams(1.0, 2.0, 0.1), dp1,
                GrowthRules(p_max=1), 3, SimConfig(ring_mode="pipe"),
            )

    def test_analytic_count_grows_combinatorially(self):
        rules = GrowthRules(p_max=5, internodes_per_gu=1, branches_per_gu=2)
        assert analytic_organ_count(rules, 30) > 10**6

    def test_factored_conserves(self, dp3):
        hp = HiddenParams(q0=12.0, rp=5.0, pc=0.2)
        rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=2)
        trace = simulate_factored(hp, dp3, rules, 10)
        assert_conserved(trace, hp)


SERIES = ("q_funded", "q_prod", "demand", "leaf_surface", "ring_pool",
          "cum_internode_mass", "cum_blade_mass")


def assert_same_trace(a, b):
    """Every series, cohort and per-internode array equal, float for float."""
    assert (a.tree_id, a.cycles) == (b.tree_id, b.cycles)
    for name in SERIES:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.cohorts == b.cohorts
    assert list(a.organs.positions) == list(b.organs.positions)
    for name in ("pa", "birth", "primary", "ring", "length_cm", "diameter_cm"):
        assert np.array_equal(getattr(a.organs, name), getattr(b.organs, name)), name


class TestCensusCache:
    """simulate reads a census built once per topology."""

    HP = HiddenParams(q0=6.0, rp=3.0, pc=0.3)

    @pytest.fixture(params=["uniform", "pipe"])
    def cfg(self, request):
        return SimConfig(ring_mode=request.param)

    @staticmethod
    def fresh(t):
        return TreeTopology(t.tree_id, t.age, t.axes)

    @pytest.mark.parametrize("make", [uneven_topology, lambda: chain_topology(4, 2)])
    def test_repeated_calls_identical(self, dp3, cfg, make):
        t = make()
        first = simulate(self.HP, dp3, t, cfg)
        assert_same_trace(first, simulate(self.HP, dp3, t, cfg))
        assert_same_trace(first, simulate(self.HP, dp3, self.fresh(t), cfg))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_truncated_after_full_matches_fresh(self, dp3, cfg, k):
        t = uneven_topology()
        simulate(self.HP, dp3, t, cfg)
        assert_same_trace(simulate(self.HP, dp3, t, cfg, cycles=k),
                          simulate(self.HP, dp3, self.fresh(t), cfg, cycles=k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_after_truncated_matches_fresh(self, dp3, cfg, k):
        t = uneven_topology()
        short = simulate(self.HP, dp3, t, cfg, cycles=k)
        assert short.cycles == k
        assert all(birth <= k for _, birth in short.cohorts)
        assert all(ca <= k for _, ca, _ in short.organs.positions)
        assert_same_trace(simulate(self.HP, dp3, t, cfg),
                          simulate(self.HP, dp3, self.fresh(t), cfg))

    def test_mutating_positions_leaves_next_trace_alone(self, dp3):
        t = uneven_topology()
        first = simulate(self.HP, dp3, t)
        expected = list(first.organs.positions)
        first.organs.positions.reverse()
        first.organs.positions.append(("X", 9, 9))
        assert simulate(self.HP, dp3, t).organs.positions == expected
        assert list(t.census.positions) == expected

    def test_unclassified_topology_raises_every_call(self, dp3):
        t = uneven_topology()
        bare = TreeTopology(t.tree_id, t.age,
                            {k: replace(a, pa=None) for k, a in t.axes.items()})
        for _ in range(2):
            with pytest.raises(InvalidTopology, match="classify first"):
                simulate(self.HP, dp3, bare)
        assert "census" not in vars(bare)


class TestParameterValidation:
    @pytest.mark.parametrize("kwargs", [
        {"q0": -1.0}, {"q0": math.nan}, {"q0": math.inf},
        {"rp": 0.0}, {"rp": -1.0}, {"rp": math.nan}, {"rp": math.inf},
        {"pc": -0.1}, {"pc": math.nan}, {"pc": math.inf},
    ])
    def test_hidden_params(self, kwargs):
        values = {"q0": 1.0, "rp": 2.0, "pc": 0.1, **kwargs}
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            HiddenParams(**values)

    def test_hidden_params_bounds_accepted(self):
        HiddenParams(q0=0.0, rp=1e-300, pc=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"e": math.nan}, {"e": 0.0}, {"sp": math.inf}, {"sp": -1.0},
        {"rho": math.nan}, {"t_f": 0}, {"t_exp": 1.5}, {"t_f": math.nan},
        {"ring_mode": "spiral"}, {"ring_demand": "never"},
    ])
    def test_sim_config(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            SimConfig(**kwargs)


class TestUnevenTree:
    """Per-organ pipe weights on a tree that generate_topology cannot make."""

    @pytest.fixture
    def hp(self):
        return HiddenParams(q0=6.0, rp=3.0, pc=0.3)

    @pytest.mark.parametrize("mode", ["uniform", "pipe"])
    def test_conservation_and_ring_total(self, dp3, hp, mode):
        trace = simulate(hp, dp3, uneven_topology(), SimConfig(ring_mode=mode))
        assert_conserved(trace, hp, tol=1e-9)
        assert trace.ring_pool[1:].min() > 0
        assert trace.organs.ring.sum() == pytest.approx(trace.ring_pool.sum(), rel=1e-12)

    def test_uniform_zero_spread_within_cohorts(self, dp3, hp):
        organs = simulate(hp, dp3, uneven_topology()).organs
        for pa, b in set(zip(organs.pa, organs.birth)):
            idx = (organs.pa == pa) & (organs.birth == b)
            for values in (organs.primary, organs.ring, organs.diameter_cm):
                assert np.ptp(values[idx]) == 0.0

    def test_pipe_weights_differ_within_cohort(self, dp3, hp):
        t = uneven_topology()
        uniform = simulate(hp, dp3, t)
        pipe = simulate(hp, dp3, t, SimConfig(ring_mode="pipe"))
        for name in ("q_prod", "demand", "ring_pool", "cum_internode_mass",
                     "cum_blade_mass"):
            assert np.array_equal(getattr(pipe, name), getattr(uniform, name))
        organs = pipe.organs
        ring = dict(zip(organs.positions, organs.ring))
        # Same (PA2, cycle 2) cohort: A2 carries A3 and its own later GUs,
        # A4 ends there, so nothing functions above it once it can thicken.
        assert ring[("A2", 2, 1)] > 0.0
        assert ring[("A4", 2, 1)] == 0.0
        assert ring[("A4", 2, 2)] == 0.0
        cohort = pipe.cohorts[(2, 2)]
        assert cohort.internode_ring == pytest.approx(ring[("A2", 2, 1)] / 3, rel=1e-12)

    def test_pipe_first_pool_by_hand(self, dp3, hp):
        # Cycle 2: the five blades born that cycle function.  Both cycle-1
        # internodes of A1 carry all five (A1 GU2 and the GUs of A2 and A4
        # borne at cycle 1); A2's cycle-1 internode carries one.
        cfg = SimConfig(ring_mode="pipe")
        trace = simulate(hp, dp3, uneven_topology(), cfg, cycles=2)
        pool = trace.ring_pool[1]
        ring = dict(zip(trace.organs.positions, trace.organs.ring))
        assert ring[("A1", 1, 1)] == pytest.approx(pool * 5 / 11, rel=1e-12)
        assert ring[("A1", 1, 2)] == pytest.approx(pool * 5 / 11, rel=1e-12)
        assert ring[("A2", 1, 1)] == pytest.approx(pool * 1 / 11, rel=1e-12)
        assert sum(ring.values()) == pytest.approx(pool, rel=1e-12)

    def test_pipe_cycle_without_functioning_blades_spreads_evenly(self, dp3, hp):
        # Declared one cycle older than its growth: on cycle 5 no blade
        # functions, so every pipe weight is 0, yet the constant ring sink
        # takes the whole production; every internode gets an equal share.
        grown = uneven_topology()
        older = TreeTopology(grown.tree_id, grown.age + 1, grown.axes)
        cfg = SimConfig(ring_mode="pipe", ring_demand="constant")
        trace = simulate(hp, dp3, older, cfg)
        before = simulate(hp, dp3, older, cfg, cycles=grown.age)
        pool = trace.ring_pool[-1]
        assert pool == trace.q_funded[-1] > 0
        gained = trace.organs.ring - before.organs.ring
        assert gained == pytest.approx(np.full(len(gained), pool / len(gained)), rel=1e-9)
        assert_conserved(trace, hp, tol=1e-9)

    def test_pipe_weights_on_axes_nested_past_the_recursion_limit(self, dp3, hp):
        # Axis k bears axis k + 1 from its cycle-1 GU, 1,100 deep (Python's
        # default recursion limit is 1,000); every axis grows cycles 1-2.
        # On cycle 2 the cycle-1 internode of axis k carries the cycle-2
        # blades of axis k and of every axis above it: depth - k of them.
        depth = 1_100
        ids = [f"x{k:05d}" for k in range(depth)]
        axes = [("D", ids[0], None, None)]
        axes += [("D", child, parent, 1) for parent, child in zip(ids, ids[1:])]
        gus = [("D", axis_id, ca, 1, 1) for axis_id in ids for ca in (1, 2)]
        t = with_physio_ages(topology_of(axes, gus), {i: 1 if i == ids[0] else 2 for i in ids})
        cfg = SimConfig(ring_mode="pipe")
        weights = _ring_weights(t, cfg)
        assert not weights[0].any()
        assert np.array_equal(weights[1, 0::2], np.arange(depth, 0, -1))
        assert not weights[1, 1::2].any()
        trace = simulate(hp, dp3, t, cfg)
        assert_conserved(trace, hp, tol=1e-9)
        assert trace.organs.ring.sum() == pytest.approx(trace.ring_pool.sum(), rel=1e-12)


class TestUnevenTreeProperties:
    """Pipe weights and conservation on drawn uneven trees."""

    DP = DirectParams(
        p_int={1: 0.561, 2: 0.726, 3: 0.858},
        allometry={1: (5.0, 0.3), 2: (7.0, 0.35), 3: (9.0, 0.4)},
        slw=0.0287,
    )

    @given(uneven_trees(), st.integers(1, 3), st.integers(1, 3))
    def test_ring_weights_equal_recursive_walk(self, t, t_f, t_exp):
        positions = t.census.positions
        births = np.array([ca for _, ca, _ in positions])
        uniform = SimConfig(t_f=t_f, t_exp=t_exp)
        pipe = replace(uniform, ring_mode="pipe")
        for n in range(1, t.age + 1):  # full and shortened runs
            born = births <= n
            kept = [pos for pos, b in zip(positions, births) if b <= n]
            got_uniform = _ring_weights(t, uniform, n)
            got_pipe = _ring_weights(t, pipe, n)
            assert got_uniform.shape == got_pipe.shape == (n, len(positions))
            # Internodes born after cycle n weigh nothing in either mode.
            assert not got_uniform[:, ~born].any() and not got_pipe[:, ~born].any()
            for cycle in range(1, n + 1):
                eligible = (births[born] <= cycle - t_exp).astype(int)
                distal = eligible * recursive_distal_functioning(t, kept, cycle, t_f)
                assert np.array_equal(got_uniform[cycle - 1, born], eligible)
                expected = distal if distal.any() else eligible
                assert np.array_equal(got_pipe[cycle - 1, born], expected)

    @given(uneven_trees(), st.sampled_from(["uniform", "pipe"]), st.integers(1, 2))
    def test_conservation_in_both_ring_modes(self, t, mode, t_f):
        hp = HiddenParams(q0=6.0, rp=3.0, pc=0.3)
        trace = simulate(hp, self.DP, t, SimConfig(ring_mode=mode, t_f=t_f))
        assert_conserved(trace, hp, tol=1e-9)
        assert trace.organs.ring.sum() == pytest.approx(trace.ring_pool.sum(), rel=1e-9)

    @given(uneven_trees())
    def test_uniform_organs_equal_their_cohort(self, t):
        trace = simulate(HiddenParams(q0=6.0, rp=3.0, pc=0.3), self.DP, t)
        organs = trace.organs
        for j, key in enumerate(zip(organs.pa.tolist(), organs.birth.tolist())):
            cohort = trace.cohorts[key]
            assert organs.primary[j] == cohort.internode_primary
            assert organs.ring[j] == cohort.internode_ring
            assert organs.diameter_cm[j] == cohort.diameter_cm


def legacy_run_cohorts(hp, dp, counts, cfg, n):
    """Independent oracle: the cohort loop in its former form, which scanned
    every cohort on every cycle and built its sink components and shares as
    dicts.  Returns the per-cycle series, one row per name in ``SERIES``,
    and each cohort's summary fields in (birth, PA) order."""
    keys = sorted(counts, key=lambda k: (k[1], k[0]))
    primary = dict.fromkeys(keys, 0.0)
    blade = dict.fromkeys(keys, 0.0)
    ring = dict.fromkeys(keys, 0.0)
    series = np.zeros((7, n))
    q_funded, q_prod, dem, surf, pools, cum_int, cum_blade = series

    for i in range(1, n + 1):
        funded = hp.q0 if i == 1 else float(q_prod[i - 2])
        expanding = [k for k in keys if i - cfg.t_exp < k[1] <= i]
        eligible = [k for k in keys if k[1] <= i - cfg.t_exp]
        functioning = [k for k in keys if i - cfg.t_f < k[1] <= i]
        n_eligible = sum(counts[k] for k in eligible)
        n_func = sum(counts[k] for k in functioning)
        comps = []
        for k in expanding:
            for kind in ("blade", "internode"):
                sink = 1.0 if kind == "blade" else dp.sink(k[0])
                comps.append(((k, kind), counts[k] * sink / cfg.t_exp))
        if n_eligible > 0:
            per_blade = cfg.ring_demand == "per-blade"
            ring_sink = hp.pc * n_func if per_blade else hp.pc
            if ring_sink > 0:
                comps.append(("rings", ring_sink))
        d = sum((sink for _, sink in comps), 0.0)

        pool = 0.0
        if funded > 0:
            total = sum(s for _, s in comps)
            shares, acc = {}, 0.0
            for key, sink in comps[:-1]:
                shares[key] = funded * sink / total
                acc += shares[key]
            shares[comps[-1][0]] = funded - acc
            for key, mass in shares.items():
                if key == "rings":
                    pool = mass
                elif key[1] == "blade":
                    blade[key[0]] += mass / counts[key[0]]
                else:
                    primary[key[0]] += mass / counts[key[0]]
            if pool > 0:
                per_organ = pool / n_eligible
                for k in eligible:
                    ring[k] += per_organ

        s = sum(blade[k] * counts[k] for k in functioning) / dp.slw
        q_funded[i - 1] = funded
        q_prod[i - 1] = production(s, cfg, hp)
        dem[i - 1] = d
        surf[i - 1] = s
        pools[i - 1] = pool
        cum_int[i - 1] = sum((primary[k] + ring[k]) * counts[k] for k in keys)
        cum_blade[i - 1] = sum(blade[k] * counts[k] for k in keys)

    cohorts = {}
    for k in keys:
        length, diameter = internode_geometry(
            primary[k], primary[k] + ring[k], *dp.shape(k[0]), cfg.rho
        )
        cohorts[k] = (k[0], k[1], counts[k], counts[k], blade[k], primary[k],
                      ring[k], primary[k] + ring[k], length, diameter)
    return series, cohorts


def assert_matches_legacy(trace, hp, dp, counts, cfg, n):
    """Series, cohort summaries and, in uniform mode, every internode equal
    to the former loop's, bit for bit."""
    series, cohorts = legacy_run_cohorts(hp, dp, counts, cfg, n)
    for name, expected in zip(SERIES, series):
        got = getattr(trace, name)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes(), name
    if cfg.ring_mode != "uniform":
        return
    assert list(trace.cohorts) == list(cohorts)
    for key, fields in cohorts.items():  # repr tells every bit and int from float
        assert repr(tuple(trace.cohorts[key])) == repr(fields), key
    if trace.organs is not None:
        organs = trace.organs
        per_organ = [cohorts[key] for key in zip(organs.pa.tolist(), organs.birth.tolist())]
        for name, field in (("primary", 5), ("ring", 6), ("length_cm", 8), ("diameter_cm", 9)):
            expected = np.array([fields[field] for fields in per_organ], dtype=float)
            assert getattr(organs, name).tobytes() == expected.tobytes(), name


def census_counts(t, n):
    return {key: c for key, c in t.census.counts.items() if key[1] <= n}


def legacy_pipe_geometry(trace, dp, cfg):
    """Independent oracle: one ``internode_geometry`` call per internode, the
    pipe-mode geometry's former form."""
    organs = trace.organs
    return np.array([
        internode_geometry(p, p + r, *dp.shape(a), cfg.rho)
        for p, r, a in zip(organs.primary, organs.ring, organs.pa)
    ]).reshape(-1, 2)


class TestLegacyLoopEquality:
    """The slice-based cohort loop reproduces the former loop bit for bit."""

    DP = TestUnevenTreeProperties.DP
    HPS = (HiddenParams(q0=10.0, rp=6.4319, pc=0.13882),
           HiddenParams(q0=47.23, rp=1.5, pc=0.0),
           # numpy-typed, as the fit passes them; repr tells the types apart
           HiddenParams(q0=np.float64(10.94), rp=np.float64(6.4319),
                        pc=np.float64(0.13882)))

    @pytest.mark.parametrize("age", range(1, 9))
    @pytest.mark.parametrize("t_exp", [1, 2, 3])
    @pytest.mark.parametrize("t_f", [1, 2, 3])
    def test_generated_trees(self, age, t_exp, t_f):
        for branching in (1, 2):
            rules = GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=branching)
            t = generate_topology(rules, age)
            for ring_demand in ("per-blade", "constant"):
                cfg = SimConfig(t_exp=t_exp, t_f=t_f, ring_demand=ring_demand)
                for hp in self.HPS:
                    trace = simulate(hp, self.DP, t, cfg)
                    assert_matches_legacy(trace, hp, self.DP, t.census.counts, cfg, age)

    @given(uneven_trees(), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from(["per-blade", "constant"]), st.integers(0, 5))
    def test_uneven_trees(self, t, t_exp, t_f, ring_demand, cut):
        n = max(1, t.age - cut)
        hp = self.HPS[0]
        for mode in ("uniform", "pipe"):
            cfg = SimConfig(t_exp=t_exp, t_f=t_f, ring_demand=ring_demand, ring_mode=mode)
            trace = simulate(hp, self.DP, t, cfg, cycles=n)
            assert_matches_legacy(trace, hp, self.DP, census_counts(t, n), cfg, n)

    @pytest.mark.parametrize("mode", ["uniform", "pipe"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_shortened_runs(self, mode, n):
        t = generate_topology(GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1), 6)
        cfg = SimConfig(t_exp=2, t_f=2, ring_mode=mode)
        trace = simulate(self.HPS[0], self.DP, t, cfg, cycles=n)
        assert_matches_legacy(trace, self.HPS[0], self.DP, census_counts(t, n), cfg, n)

    @pytest.mark.parametrize("q0, n", [(0.0, 4), (0, 4), (0, 1), (5, 1), (5, 4)])
    def test_zero_and_integer_seed(self, q0, n):
        t = uneven_topology()
        hp = HiddenParams(q0=q0, rp=3.0, pc=0.3)
        for mode in ("uniform", "pipe"):
            cfg = SimConfig(ring_mode=mode)
            trace = simulate(hp, self.DP, t, cfg, cycles=n)
            assert_matches_legacy(trace, hp, self.DP, census_counts(t, n), cfg, n)

    @pytest.mark.parametrize("p_max, branching", [(1, 0), (2, 2), (3, 1), (3, 3)])
    @pytest.mark.parametrize("age", [1, 3, 7, 12])
    def test_factored(self, p_max, branching, age):
        rules = GrowthRules(p_max=p_max, internodes_per_gu=2, branches_per_gu=branching)
        counts = cohort_counts(rules, age)
        for t_exp in (1, 2, 3):
            for ring_demand in ("per-blade", "constant"):
                cfg = SimConfig(t_exp=t_exp, t_f=2, ring_demand=ring_demand)
                for hp in self.HPS + (HiddenParams(q0=3, rp=2.0, pc=0.5),):
                    trace = simulate_factored(hp, self.DP, rules, age, cfg)
                    assert_matches_legacy(trace, hp, self.DP, counts, cfg, age)


class TestPipeGeometry:
    """Pipe-mode length and diameter equal a per-internode geometry call."""

    DP = TestUnevenTreeProperties.DP

    @staticmethod
    def check(trace, dp, cfg):
        expected = legacy_pipe_geometry(trace, dp, cfg)
        assert trace.organs.length_cm.tobytes() == expected[:, 0].tobytes()
        assert trace.organs.diameter_cm.tobytes() == expected[:, 1].tobytes()

    @pytest.mark.parametrize("rho", [1.0, 0.83])
    @pytest.mark.parametrize("age", [1, 4, 8])
    def test_generated_tree(self, rho, age):
        t = generate_topology(GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=2), age)
        cfg = SimConfig(ring_mode="pipe", rho=rho, t_f=2)
        self.check(simulate(HiddenParams(12.0, 6.4, 0.14), self.DP, t, cfg), self.DP, cfg)

    @given(uneven_trees(), st.integers(1, 3), st.integers(0, 5))
    def test_uneven_trees(self, t, t_exp, cut):
        cfg = SimConfig(ring_mode="pipe", t_exp=t_exp)
        trace = simulate(HiddenParams(6.0, 3.0, 0.3), self.DP, t, cfg,
                         cycles=max(1, t.age - cut))
        self.check(trace, self.DP, cfg)

    def test_bare_internodes_have_zero_diameter(self, dp3):
        # With q0 = 0 nothing grows: every length and diameter is 0.
        cfg = SimConfig(ring_mode="pipe")
        trace = simulate(HiddenParams(0.0, 3.0, 0.3), dp3, uneven_topology(), cfg)
        self.check(trace, dp3, cfg)
        assert not trace.organs.diameter_cm.any() and not trace.organs.length_cm.any()
