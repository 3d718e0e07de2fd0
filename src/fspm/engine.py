"""Per-cycle production and allocation over a tree structure.

Each growth cycle, the biomass produced by the previous cycle's foliage (the
seed mass on cycle 1) is split among the organs expanding this cycle and a
cambial ring compartment, proportionally to their sink strengths.  Blades are
the sink reference (1 per blade); internode sinks depend on physiological
age; the ring compartment competes once internodes from earlier cycles exist
to thicken.  New foliage then fixes the biomass that funds the next cycle.

All organs of one physiological age born in one cycle are interchangeable
(the substructure factorization of Cournede et al. 2006), so the recursion
runs once, on internode counts per (PA, birth cycle) cohort.  The counts
come from one of two census sources:

* :func:`simulate` reads the census of an explicit
  :class:`~fspm.topology.TreeTopology`, built once per topology, and
  expands the cohort results to one row per internode, as geometry export
  needs.
* :func:`simulate_factored` takes them from a linear recurrence over
  generative branching rules, so trees with millions of organs cost
  O(p_max * age^2).

A fit calls :func:`simulate` once per tree, for its reported SSE; its
residuals run on plans of the same recursion (:mod:`fspm.calibrate`), which
take this one as their reference.  A call does little beyond the float
work that depends on the hidden parameters.  Cohorts are
kept sorted by birth, which makes each cycle's expanding and functioning
cohorts contiguous slices found by bisection; the organ sinks are computed
once per call; cohort summaries are named tuples.  The float operations
keep one fixed order, so a trace is reproducible bit for bit.

The pipe ring distribution is the only per-organ physics.  A cycle's ring
pool depends only on pc and the number of functioning blades, never on how
earlier pools were spread, so :func:`simulate` spreads every cycle's pool
over the internodes after the recursion has run, in one product with a
table of integer ring weights, one row per cycle and one column per
internode.  The table comes from one function, which the fit's residual
plans (:mod:`fspm.calibrate`) call too, so traces and fits share one rule
for which internode thickens how much: only internodes old enough to
thicken, weighted by the functioning blades at or above them.  The
topology numbers its internodes in pre-order once, so the internodes at or
above any one form a contiguous range, and the weights are differences of
one cumulative count: exact integers, with no walk of the tree.  An
internode's length follows its primary mass alone, so it is its cohort's;
its diameter closes the cylinder on its own ring mass, in one array pass.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .direct_estim import DirectParams
from .errors import (
    InvalidParameter,
    InvalidTopology,
    MissingPA,
    UnsupportedRingMode,
    ZeroDemandWithBiomass,
)
from .topology import GrowthRules, TreeTopology

RING_UNIFORM = "uniform"
RING_PIPE = "pipe"
RING_DEMAND_PER_BLADE = "per-blade"
RING_DEMAND_CONSTANT = "constant"


@dataclass(frozen=True)
class HiddenParams:
    """Parameters recovered by calibration rather than direct measurement.

    q0: seed biomass funding the first cycle (g).  Fitted values are
        strictly positive; 0 is accepted and yields an all-zero trace.
    rp: resistance divisor of the production law (dimensionless).
    pc: relative sink of the ring compartment per functioning blade
        (dimensionless).
    """

    q0: float
    rp: float
    pc: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q0) and self.q0 >= 0):
            raise InvalidParameter(f"q0 must be finite and >= 0, got {self.q0}")
        if not (math.isfinite(self.rp) and self.rp > 0):
            raise InvalidParameter(f"rp must be finite and > 0, got {self.rp}")
        if not (math.isfinite(self.pc) and self.pc >= 0):
            raise InvalidParameter(f"pc must be finite and >= 0, got {self.pc}")


@dataclass(frozen=True)
class SimConfig:
    """Fixed constants of the production/allocation recursion.

    e: environmental potential (g biomass per cm^2 of ground per cycle).
    sp: characteristic ground surface (cm^2); default is the 3 m x 4 m
        planting spacing.
    rho: fresh tissue density (g/cm^3) closing the internode cylinder.
    t_f: cycles a blade keeps functioning after birth.
    t_exp: cycles an organ takes to reach its final primary mass; its sink
        is spread uniformly over those cycles.
    ring_mode: how the ring pool is spread over internodes ("uniform" or
        "pipe", the latter weighting by functioning blades above).
    ring_demand: "per-blade" scales ring sink with functioning blade count,
        "constant" adds a flat pc to demand while rings are active.
    """

    e: float = 1.0
    sp: float = 120_000.0
    rho: float = 1.0
    t_f: int = 1
    t_exp: int = 1
    ring_mode: str = RING_UNIFORM
    ring_demand: str = RING_DEMAND_PER_BLADE

    def __post_init__(self) -> None:
        for name in ("e", "sp", "rho"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameter(f"{name} must be finite and > 0, got {value}")
        for name in ("t_f", "t_exp"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")
        if self.ring_mode not in (RING_UNIFORM, RING_PIPE):
            raise UnsupportedRingMode(f"unknown ring_mode {self.ring_mode!r}")
        if self.ring_demand not in (RING_DEMAND_PER_BLADE, RING_DEMAND_CONSTANT):
            raise InvalidParameter(f"unknown ring_demand {self.ring_demand!r}")


def production(leaf_surface: float, cfg: SimConfig, hp: HiddenParams) -> float:
    """Biomass fixed in one cycle by ``leaf_surface`` cm^2 of foliage.

    Saturating in the leaf surface: linear slope e/rp for small surfaces,
    bounded by e*sp/rp as the canopy closes over its ground area.
    """
    if leaf_surface < 0:
        raise ValueError("leaf surface must be >= 0")
    return cfg.e * (cfg.sp / hp.rp) * (1.0 - math.exp(-leaf_surface / cfg.sp))


def _shares(q_prev: float, sinks: Sequence[float], total: float) -> list[float]:
    """``q_prev * sink / total`` per sink, the last share taken as the
    remainder so the shares sum to ``q_prev`` exactly."""
    shares = []
    acc = 0.0
    for sink in sinks[:-1]:
        share = q_prev * sink / total
        shares.append(share)
        acc += share
    shares.append(q_prev - acc)
    return shares


def internode_geometry(
    primary_mass: float,
    total_mass: float,
    b: float,
    beta: float,
    rho: float = 1.0,
) -> tuple[float, float]:
    """(length_cm, diameter_cm) of an internode.

    Length follows the allometric law on primary mass only, fixed once
    expansion ends; ring mass thickens the diameter through the cylinder
    closure pi/4 * d^2 * l * rho = total mass.
    """
    if primary_mass < 0 or total_mass < 0:
        raise ValueError("masses must be >= 0")
    if primary_mass == 0:
        return 0.0, 0.0
    length = b * primary_mass**beta
    if total_mass == 0 or length <= 0:
        return length, 0.0
    diameter = math.sqrt(4.0 * total_mass / (math.pi * rho * length))
    return length, diameter


# -- traces -------------------------------------------------------------------

class CohortSummary(NamedTuple):
    """Per-organ state of one (PA, birth cycle) cohort at the end of a run."""

    pa: int
    birth: int
    n_internodes: int
    n_blades: int
    blade_mass: float
    internode_primary: float
    internode_ring: float
    internode_mass: float
    length_cm: float
    diameter_cm: float


@dataclass
class OrganTable:
    """Per-internode arrays (explicit mode only), canonical order."""

    positions: list[tuple[str, int, int]]  # (axis_id, gu_ca, rank)
    pa: np.ndarray
    birth: np.ndarray
    primary: np.ndarray
    ring: np.ndarray
    length_cm: np.ndarray
    diameter_cm: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class SimulationTrace:
    """Everything a run produces, cycle by cycle and cohort by cohort."""

    tree_id: str
    cycles: int
    q_funded: np.ndarray
    q_prod: np.ndarray
    demand: np.ndarray
    leaf_surface: np.ndarray
    ring_pool: np.ndarray
    cum_internode_mass: np.ndarray
    cum_blade_mass: np.ndarray
    cohorts: dict[tuple[int, int], CohortSummary]
    organs: OrganTable | None = None

    def total_mass(self) -> float:
        return float(self.cum_internode_mass[-1] + self.cum_blade_mass[-1])


def _run_cohorts(
    hp: HiddenParams,
    dp: DirectParams,
    counts: Mapping[tuple[int, int], int],
    cfg: SimConfig,
    n: int,
    tree_id: str,
) -> SimulationTrace:
    """Run ``n`` cycles on internode counts per (PA, birth cycle) cohort.

    Every internode bears one blade, and all organs of a cohort receive the
    same primary and blade mass; the ring pool is spread evenly over the
    internodes old enough to thicken.  The cohort summaries are therefore
    exact per-organ values in uniform ring mode, and ``ring_pool`` records
    each cycle's pool for a per-organ distribution afterwards.

    Cohorts are kept sorted by (birth, PA), so each cycle's expanding and
    functioning cohorts are contiguous slices and the cohorts old enough to
    thicken a prefix, found by bisection on the births.  The organ sinks do
    not depend on the hidden parameters and are computed once per call, a
    blade and an internode entry per cohort; a cycle slices them and appends
    the ring term.
    """
    keys = sorted(counts, key=lambda k: (k[1], k[0]))
    births = [b for _, b in keys]
    sizes = [counts[k] for k in keys]
    before = list(accumulate(sizes, initial=0))  # internodes of cohorts [0, j)
    # Each organ's sink is spread over its t_exp expansion cycles; a blade
    # weighs 1 and an internode its PA's sink.
    sinks = []
    for (pa, _), size in zip(keys, sizes):
        sinks += [size / cfg.t_exp, size * dp.sink(pa) / cfg.t_exp]
    per_blade = cfg.ring_demand == RING_DEMAND_PER_BLADE
    primary = [0.0] * len(keys)
    blade = [0.0] * len(keys)
    ring = [0.0] * len(keys)
    q_funded, q_prod, dem, surf, pools, cum_int, cum_blade = ([] for _ in range(7))

    funded = hp.q0
    for i in range(1, n + 1):
        born = bisect_right(births, i)
        grown = bisect_right(births, i - cfg.t_exp)  # expanding: [grown, born)
        young = bisect_right(births, i - cfg.t_f)  # functioning: [young, born)
        n_eligible = before[grown]
        comps = sinks[2 * grown : 2 * born]
        # The ring compartment competes, last, while there are internodes
        # to thicken and its sink is positive.
        if n_eligible > 0:
            ring_sink = hp.pc * (before[born] - before[young]) if per_blade else hp.pc
            if ring_sink > 0:
                comps.append(ring_sink)
        d = sum(comps, 0.0)
        if funded > 0 and d <= 0:
            raise ZeroDemandWithBiomass(
                f"cycle {i}: {funded} g to allocate but no demand"
            )

        pool = 0.0
        if funded > 0:
            shares = _shares(funded, comps, d)
            for j, to_blade, to_primary in zip(range(grown, born), shares[::2], shares[1::2]):
                blade[j] += to_blade / sizes[j]
                primary[j] += to_primary / sizes[j]
            if len(shares) > 2 * (born - grown):  # the ring compartment's share
                pool = shares[-1]
            if pool > 0:
                per_organ = pool / n_eligible
                ring[:grown] = [r + per_organ for r in ring[:grown]]

        blade_mass = [m * size for m, size in zip(blade[:born], sizes)]
        s = sum(blade_mass[young:]) / dp.slw
        q_funded.append(funded)
        dem.append(d)
        surf.append(s)
        pools.append(pool)
        cum_int.append(sum([(p + r) * size for p, r, size in zip(primary[:born], ring, sizes)]))
        cum_blade.append(sum(blade_mass))
        # A plain float even for numpy-typed parameters: sum() adds exact
        # floats and float subclasses differently on newer Pythons.
        funded = float(production(s, cfg, hp))
        q_prod.append(funded)

    cohorts: dict[tuple[int, int], CohortSummary] = {}
    for (pa, b), size, p, r, m in zip(keys, sizes, primary, ring, blade):
        length, diameter = internode_geometry(p, p + r, *dp.shape(pa), cfg.rho)
        cohorts[(pa, b)] = CohortSummary(
            pa, b, size, size, m, p, r, p + r, length, diameter
        )

    def series(values: list[float]) -> np.ndarray:
        return np.array(values, dtype=float)

    return SimulationTrace(
        tree_id=tree_id, cycles=n,
        q_funded=series(q_funded), q_prod=series(q_prod), demand=series(dem),
        leaf_surface=series(surf), ring_pool=series(pools),
        cum_internode_mass=series(cum_int), cum_blade_mass=series(cum_blade),
        cohorts=cohorts,
    )


def _ring_weights(
    topology: TreeTopology, cfg: SimConfig, cycles: int | None = None
) -> np.ndarray:
    """Integer ring weight w_ik of internode k on cycle i.

    Rows are cycles 1..``cycles`` (the topology's age by default), columns
    the internodes in census position order.  Cycle i's ring pool goes to
    internode k in proportion to w_ik.  Only internodes born by i - t_exp
    thicken.  Uniform mode weighs each of them 1; pipe mode weighs each by
    the functioning blades at or above it, and falls back to 1s on a cycle
    where those weights are all 0, so the pool is never lost.  The
    internodes at or above one form a range of the topology's pre-order
    (:attr:`~fspm.topology.TreeTopology.subtree_ranges`), so every cycle's
    pipe weights are differences of one cumulative count of functioning
    blades.
    """
    census = topology.census
    n = topology.age if cycles is None else cycles
    cycle = np.arange(1, n + 1)[:, None]
    birth = np.array([b for _, b in census.keys])[census.cohort]
    eligible = (birth <= cycle - cfg.t_exp).astype(int)
    if cfg.ring_mode == RING_UNIFORM:
        return eligible
    ranges = topology.subtree_ranges
    functioning = (ranges.ca > cycle - cfg.t_f) & (ranges.ca <= cycle)
    counts = np.zeros((n, len(ranges.ca) + 1), dtype=int)
    np.cumsum(functioning, axis=1, out=counts[:, 1:])
    distal = eligible * (counts[:, ranges.stop] - counts[:, ranges.start])
    return np.where(distal.any(axis=1)[:, None], distal, eligible)


def simulate(
    hp: HiddenParams,
    dp: DirectParams,
    topology: TreeTopology,
    cfg: SimConfig = SimConfig(),
    cycles: int | None = None,
) -> SimulationTrace:
    """Run the recursion over an explicit, PA-classified topology.

    Cycle 1 is funded by the seed mass, cycle i by the production of cycle
    i - 1.  The trace carries per-internode masses and geometry.  In pipe
    mode each cycle's ring pool goes to the internodes old enough to
    thicken in proportion to the functioning blades at or above them, and
    the cohort summaries become means over their internodes.
    """
    n = topology.age if cycles is None else int(cycles)
    if not 1 <= n <= topology.age:
        raise InvalidTopology(
            f"cycles must be in 1..{topology.age}, got {n}"
        )
    try:
        census = topology.census
    except MissingPA as exc:
        raise InvalidTopology(str(exc)) from None

    # Cohorts sort by birth first, so those born by cycle n keep their index.
    counts, positions, cohort = census.counts, census.positions, census.cohort
    born = None
    if n < topology.age:
        born = np.array([ca for _, ca in census.keys])[cohort] <= n
        counts = {key: c for key, c in counts.items() if key[1] <= n}
        positions = compress(positions, born)
        cohort = cohort[born]
    positions = list(positions)  # the trace's own copy

    trace = _run_cohorts(hp, dp, counts, cfg, n, topology.tree_id)
    summaries = list(trace.cohorts.values())

    def per_organ(attr: str) -> np.ndarray:
        return np.array([getattr(c, attr) for c in summaries])[cohort]

    primary = per_organ("internode_primary")
    length = per_organ("length_cm")
    if cfg.ring_mode == RING_UNIFORM:
        ring = per_organ("internode_ring")
    else:
        # Internodes born after cycle n never weigh anything, so a
        # shortened run keeps the born columns.  A cycle whose weights sum
        # to 0 has no internode to thicken, hence no pool.
        weights = _ring_weights(topology, cfg, n)
        if born is not None:
            weights = weights[:, born]
        weight_sum = weights.sum(axis=1)
        per_weight = np.divide(trace.ring_pool, weight_sum, out=np.zeros(n),
                               where=weight_sum > 0)
        ring = per_weight @ weights
    # Length follows primary mass alone, so each internode keeps its
    # cohort's; the diameter closes the cylinder on its own ring mass,
    # rounded as internode_geometry rounds it.
    total = primary + ring
    diameter = np.zeros(len(total))
    thick = (primary > 0) & (total > 0) & (length > 0)
    diameter[thick] = np.sqrt(4.0 * total[thick] / (math.pi * cfg.rho * length[thick]))
    trace.organs = OrganTable(
        positions=positions, pa=per_organ("pa"), birth=per_organ("birth"),
        primary=primary, ring=ring, length_cm=length, diameter_cm=diameter,
    )
    if cfg.ring_mode == RING_UNIFORM:
        return trace
    size = np.bincount(cohort, minlength=len(summaries))

    def mean(values: np.ndarray) -> np.ndarray:
        return np.bincount(cohort, weights=values, minlength=len(summaries)) / size

    rings, masses = mean(ring), mean(total)
    lengths, diameters = mean(length), mean(diameter)
    trace.cohorts = {
        key: c._replace(
            internode_ring=float(rings[j]), internode_mass=float(masses[j]),
            length_cm=float(lengths[j]), diameter_cm=float(diameters[j]),
        )
        for j, (key, c) in enumerate(trace.cohorts.items())
    }
    return trace


# -- census from branching rules ----------------------------------------------

def cohort_counts(rules: GrowthRules, age: int) -> dict[tuple[int, int], int]:
    """Internode count per (PA, birth cycle) from the branching recurrence.

    Axes of PA p+1 starting at cycle s come from GUs laid down at s - 1 by
    every PA-p axis already alive, so cumulative axis counts drive the whole
    table; no organ is ever enumerated.
    """
    if age < 1:
        raise InvalidTopology("age must be >= 1")
    cum = {p: [0] * (age + 1) for p in range(1, rules.p_max + 1)}
    starts = {p: [0] * (age + 1) for p in range(1, rules.p_max + 1)}
    starts[1][1] = 1
    for s in range(1, age + 1):
        for p in range(1, rules.p_max + 1):
            cum[p][s] = cum[p][s - 1] + starts[p][s]
        for p in range(1, rules.p_max):
            if s + 1 <= age:
                starts[p + 1][s + 1] = rules.branches(p) * cum[p][s]
    counts: dict[tuple[int, int], int] = {}
    for p in range(1, rules.p_max + 1):
        for c in range(1, age + 1):
            if cum[p][c]:
                counts[(p, c)] = rules.internodes(p) * cum[p][c]
    return counts


def analytic_organ_count(rules: GrowthRules, age: int) -> int:
    """Total organs (internodes + blades) the rules imply, without expansion."""
    return 2 * sum(cohort_counts(rules, age).values())


def simulate_factored(
    hp: HiddenParams,
    dp: DirectParams,
    rules: GrowthRules,
    age: int,
    cfg: SimConfig = SimConfig(),
    tree_id: str = "factored",
) -> SimulationTrace:
    """Run the recursion on cohort counts alone (uniform ring mode only)."""
    if cfg.ring_mode != RING_UNIFORM:
        raise UnsupportedRingMode("pipe ring distribution requires explicit mode")
    return _run_cohorts(hp, dp, cohort_counts(rules, age), cfg, age, tree_id)
