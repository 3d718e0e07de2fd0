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
earlier pools were spread, so :func:`simulate` spreads each cycle's pool
over the internodes after the recursion has run.  Its weights are the
functioning blades at or above each internode.  The topology numbers its
internodes in pre-order once, so the internodes at or above any one form a
contiguous range, and a cycle's weights are differences of one cumulative
count: exact integers in O(internodes), with no walk of the tree.  An
internode's length follows its primary mass alone, so it is its cohort's;
its diameter closes the cylinder on its own ring mass, in one array pass.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .direct_estim import DirectParams
from .errors import (
    InvalidParameter,
    InvalidTopology,
    MissingPA,
    UnsupportedRingMode,
    ZeroDemandWithBiomass,
)
from .topology import BLADE, INTERNODE, GrowthRules, TreeTopology

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


def _organ_sinks(
    organs: Iterable[tuple[int, str, int]], dp: DirectParams, cfg: SimConfig
) -> list[float]:
    """Sink of each expanding organ group, given as (PA, kind, count).

    A blade weighs 1 and an internode its PA's sink; each organ contributes
    its sink divided by t_exp, the cycles its expansion is spread over.
    """
    sinks = []
    for pa, kind, count in organs:
        if count < 0:
            raise ValueError("organ counts must be >= 0")
        sink = 1.0 if kind == BLADE else dp.sink(pa)
        sinks.append(count * sink / cfg.t_exp)
    return sinks


def _with_ring_sink(
    sinks: list[float],
    hp: HiddenParams,
    cfg: SimConfig,
    n_functioning_blades: int,
    rings_active: bool,
) -> list[float]:
    """Append the ring compartment's sink to ``sinks`` and return them.

    The ring compartment competes, last, while there are completed
    internodes to thicken and its sink is positive.
    """
    if rings_active:
        per_blade = cfg.ring_demand == RING_DEMAND_PER_BLADE
        ring_sink = hp.pc * n_functioning_blades if per_blade else hp.pc
        if ring_sink > 0:
            sinks.append(ring_sink)
    return sinks


def demand(
    expanding: Mapping[tuple[int, str], int],
    dp: DirectParams,
    hp: HiddenParams,
    cfg: SimConfig,
    n_functioning_blades: int = 0,
    rings_active: bool = False,
) -> float:
    """Total sink demand for one cycle.

    ``expanding`` counts organs currently in their expansion window, keyed by
    (PA, kind); each contributes its sink divided by t_exp.  The ring term is
    added only while there are completed internodes to thicken.  This is the
    sum of the components the recursion allocates over.
    """
    organs = [(pa, kind, count) for (pa, kind), count in sorted(expanding.items())]
    sinks = _organ_sinks(organs, dp, cfg)
    return sum(_with_ring_sink(sinks, hp, cfg, n_functioning_blades, rings_active), 0.0)


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


def allocate(
    q_prev: float, components: Sequence[tuple[object, float]]
) -> dict[object, float]:
    """Split ``q_prev`` grams over components proportionally to their sinks.

    The final share is taken as the remainder so the allocations sum to
    ``q_prev`` exactly.
    """
    if q_prev < 0:
        raise ValueError("biomass to allocate must be >= 0")
    sinks = [s for _, s in components]
    total = sum(sinks)
    if any(s < 0 for s in sinks):
        raise ValueError("sink weights must be >= 0")
    if q_prev == 0:
        return {key: 0.0 for key, _ in components}
    if total <= 0:
        raise ZeroDemandWithBiomass(
            f"{q_prev} g available but total sink demand is zero"
        )
    return dict(zip((key for key, _ in components), _shares(q_prev, sinks, total)))


def distribute_rings(
    ring_pool: float,
    n_internodes: int,
    mode: str = RING_UNIFORM,
    distal_blade_counts: Sequence[int] | None = None,
) -> np.ndarray:
    """Per-internode ring increments summing exactly to ``ring_pool``.

    Uniform mode gives every internode the same share.  Pipe mode weights
    each internode by the functioning blades at or above it, so a bare
    internode with nothing distal receives nothing; if no internode carries
    any weight the pool falls back to uniform to conserve mass.
    """
    if ring_pool < 0:
        raise ValueError("ring pool must be >= 0")
    if n_internodes == 0:
        if ring_pool > 0:
            raise ValueError("ring pool with no internodes to receive it")
        return np.zeros(0)
    if ring_pool == 0:
        return np.zeros(n_internodes)
    if mode == RING_UNIFORM:
        shares = np.full(n_internodes, ring_pool / n_internodes)
        shares[-1] = ring_pool - shares[:-1].sum()
        return shares
    if mode != RING_PIPE:
        raise UnsupportedRingMode(f"unknown ring mode {mode!r}")
    if distal_blade_counts is None or len(distal_blade_counts) != n_internodes:
        raise ValueError("pipe mode needs one distal blade count per internode")
    w = np.asarray(distal_blade_counts, dtype=float)
    total = w.sum()
    if total <= 0:
        return distribute_rings(ring_pool, n_internodes, RING_UNIFORM)
    shares = ring_pool * w / total
    anchor = int(np.argmax(w))
    shares[anchor] = 0.0
    shares[anchor] = ring_pool - shares.sum()
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
    sinks = _organ_sinks(
        [(pa, kind, size) for (pa, _), size in zip(keys, sizes) for kind in (BLADE, INTERNODE)],
        dp, cfg,
    )
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
        comps = _with_ring_sink(
            sinks[2 * grown : 2 * born], hp, cfg, before[born] - before[young], n_eligible > 0
        )
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
    mode each cycle's ring pool goes to the internodes in proportion to the
    functioning blades at or above them, and the cohort summaries become
    means over their internodes.
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

    pa = per_organ("pa")
    birth = per_organ("birth")
    primary = per_organ("internode_primary")
    length = per_organ("length_cm")
    if cfg.ring_mode == RING_UNIFORM:
        trace.organs = OrganTable(
            positions=positions, pa=pa, birth=birth, primary=primary,
            ring=per_organ("internode_ring"),
            length_cm=length, diameter_cm=per_organ("diameter_cm"),
        )
        return trace

    # Length follows primary mass alone, so each internode keeps its
    # cohort's; the diameter closes the cylinder on its own ring mass.
    ring = _PipeContext(topology, born).spread(trace.ring_pool, birth, cfg)
    total = primary + ring
    diameter = np.zeros(len(total))
    thick = (primary > 0) & (total > 0) & (length > 0)
    diameter[thick] = np.sqrt(4.0 * total[thick] / (math.pi * cfg.rho * length[thick]))
    trace.organs = OrganTable(
        positions=positions, pa=pa, birth=birth, primary=primary, ring=ring,
        length_cm=length, diameter_cm=diameter,
    )
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


class _PipeContext:
    """Pipe-model ring distribution over the internodes of one topology.

    Weights are the functioning blades at or above each internode.  The
    topology numbers its internodes in pre-order once
    (:attr:`~fspm.topology.TreeTopology.subtree_ranges`), so each cycle's
    weights are differences of one cumulative count: exact integers,
    O(internodes) per cycle.
    """

    def __init__(self, topology: TreeTopology, born: np.ndarray | None = None):
        ranges = topology.subtree_ranges
        self.ca = ranges.ca
        self.start, self.stop = ranges.start, ranges.stop
        if born is not None:  # the internodes a shortened run simulates
            self.start, self.stop = self.start[born], self.stop[born]
        self.n = len(self.start)

    def distal_functioning(self, cycle: int, t_f: int) -> np.ndarray:
        """Functioning blades at or above each internode at ``cycle``."""
        functioning = (self.ca > cycle - t_f) & (self.ca <= cycle)
        counts = np.zeros(len(functioning) + 1, dtype=int)
        np.cumsum(functioning, out=counts[1:])
        return counts[self.stop] - counts[self.start]

    def spread(self, pools: np.ndarray, birth: np.ndarray, cfg: SimConfig) -> np.ndarray:
        """Per-internode ring mass from each cycle's pool, weighted by
        :meth:`distal_functioning` over the internodes old enough to thicken."""
        ring = np.zeros(self.n)
        for i, pool in enumerate(pools, start=1):
            if pool > 0:
                eligible = birth <= i - cfg.t_exp
                weights = self.distal_functioning(i, cfg.t_f)
                ring[eligible] += distribute_rings(
                    pool, int(eligible.sum()), RING_PIPE, weights[eligible]
                )
        return ring


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
