"""Hidden-parameter recovery by multi-target weighted least squares.

Several trees are fitted simultaneously: each tree keeps its own seed mass
while the production resistance and ring sink are shared, so the residual
vector concatenates four observable families per tree (per-(PA, CA) mean
internode diameter and mass, per-cycle cumulated internode and blade mass),
each observation weighted by the reciprocal of its measured magnitude.

The solver is a damped Gauss-Newton iteration with adaptive Levenberg-style
damping, run on log-transformed parameters so positivity holds by
construction, with a seeded log-uniform multi-start.

Every sink except the ring sink is fixed by the census, the direct
parameters and the configuration, so the recursion collapses onto one
scalar per cycle, the biomass per unit of sink a_i = q_i / (E_i + pc*G_i),
and every observable is a fixed linear map of a and pc*a, closed by the
allometry.  The ring mode only decides how each cycle's pool is spread:
evenly over the internodes old enough to thicken, or in pipe mode in
proportion to the functioning blades above them, so a cohort's internodes
fall into ring classes of equal ring mass.  ``FitProblem`` builds these
maps once per tree (a residual plan) and stacks the trees' plans.  A
plan's classes span every cohort of the census, with a target or not, so
an allometric length fails a pass in any cohort, as in the simulator.  A
forward sweep runs each tree's scalar recursion and its own matrix
products, then the allometry and the weights once on all trees' rows, and
keeps the per-cycle scalars and class values a tangent needs.  The solver
evaluates residuals through that sweep, and takes the Jacobian from one
tangent sweep over the stored forward state that carries d/d(log q0,
log rp, log pc) through the same recursions (forward-mode differentiation,
Griewank & Walther 2008, ch. 3): exact, and the price of about one
simulation per tree where central differences need two per parameter.
The solver holds the forward sweep of its current point and takes every
Jacobian from it, the identifiability one at the optimum too, so no
forward sweep is ever rerun.

Finite differences (FD) are the test oracle.  :func:`residuals` and
:func:`fd_jacobian` always run the simulator: they are the reference the
plans are tested against, and the reported SSE of a fit is recomputed
through :func:`residuals` at its optimum.  :func:`fd_jacobian` takes plain
central differences, one pair of residual evaluations per column.
"""
from __future__ import annotations

import json
import math
import numbers
import random
import sys
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .direct_estim import DirectParams
from .engine import (
    RING_DEMAND_PER_BLADE,
    HiddenParams,
    SimConfig,
    SimulationTrace,
    _ring_weights,
    simulate,
)
from .errors import (
    FspmError,
    InfeasibleInit,
    InvalidParameter,
    SimulationFailed,
    TreeMismatch,
    ValidationError,
)
from .ingest import CumEntry, TargetEntry, TargetSeries
from .topology import TreeTopology

WEIGHT_FLOOR = 1e-3
# A fitted log parameter this close to a log bound is reported as on it.
BOUND_TOL = 1e-9
LAMBDA0 = 1e-3  # damping at a start, and after an iteration where no damped step helped
# A start stops once STALL_ITERS iterations in a row lower the SSE by less
# than REL_TOL of itself.
REL_TOL = 1e-10
STALL_ITERS = 3
# Weighted residuals are relative, so an SSE this small is an exact fit
# up to float noise; stop without burning Jacobian evaluations.
SSE_FLOOR = 1e-24
# ln of the largest float and of the smallest one above 0.
_LOG_MAX = math.log(sys.float_info.max)
_LOG_TINY = math.log(math.ulp(0.0))


def _steep(b: float, beta: float) -> bool:
    """Whether b * P**beta exceeds e**-1 of the largest float for some float
    P > 0; if not, no allometric length can overflow."""
    return math.log(b) + max(beta * _LOG_MAX, beta * _LOG_TINY) > _LOG_MAX - 1.0


DEFAULT_BOUNDS = {
    "q0": (1e-3, 1e5),
    "rp": (1e-2, 1e4),
    "pc": (1e-6, 1e2),
}


@dataclass(frozen=True)
class FreeParams:
    """One point in the fitted-parameter space."""

    q0: Mapping[str, float]  # per tree_id
    rp: float
    pc: float


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 200
    n_starts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("seed", 0), ("n_starts", 0), ("max_iter", 1)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise InvalidParameter(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class FitProblem:
    """Targets, matching topologies, and everything fixed during the fit.

    Treat it as read-only once built: each tree's measured vector and
    weights, the user weights as an array and the trees' residual plans,
    stacked into one pass, are derived once, in ``__post_init__``, after
    each tree's targets are checked against its
    topology (:meth:`_Observed.of`).  Each tree is fitted once: a tree id
    given twice fails.  Bounds must name exactly q0, rp and
    pc, finite with 0 < lo < hi, and user weights must be finite and >= 0.
    Direct parameters lacking a PA of a tree fail there, with the
    :class:`SimulationFailed` that :func:`residuals` would raise.
    """

    targets: list[TargetSeries]
    topologies: list[TreeTopology]
    dp: DirectParams
    cfg: SimConfig = field(default_factory=SimConfig)
    bounds: Mapping[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_BOUNDS)
    )
    weights: Sequence[float] | None = None
    _observed: list[_Observed] = field(init=False, repr=False, compare=False)
    _weights: np.ndarray | None = field(init=False, repr=False, compare=False)
    _plan: _StackedPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.targets) != len(self.topologies):
            raise ValidationError("one topology per target series required")
        if not self.targets:
            raise ValidationError("no targets to fit")
        ids = self.tree_ids
        for i, tid in enumerate(ids):
            if tid in ids[:i]:
                raise ValidationError(f"tree {tid!r} is given more than once")
        # census.counts raises MissingPA on an unclassified tree
        self._observed = [_Observed.of(ts, topo.tree_id, topo.census.counts, topo.age)
                          for ts, topo in zip(self.targets, self.topologies)]
        missing = [name for name in DEFAULT_BOUNDS if name not in self.bounds]
        unknown = [name for name in self.bounds if name not in DEFAULT_BOUNDS]
        if missing or unknown:
            raise ValidationError(
                f"bounds need exactly q0, rp and pc: missing {missing}, unknown {unknown}"
            )
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
                raise ValidationError(
                    f"bounds for {name!r} must be finite with 0 < lo < hi, got ({lo}, {hi})"
                )
        n_obs = sum(len(obs.measured) for obs in self._observed)
        self._weights = None
        if self.weights is not None:
            if len(self.weights) != n_obs:
                raise ValidationError(f"{len(self.weights)} weights for {n_obs} observations")
            self._weights = np.asarray(self.weights, dtype=float)
            for i, w in enumerate(self._weights.tolist()):
                if not (math.isfinite(w) and w >= 0):
                    raise ValidationError(f"weights[{i}] must be finite and >= 0, got {w}")
        plans = []
        for ts, topo, obs in zip(self.targets, self.topologies, self._observed):
            try:
                plans.append(_TreePlan(topo, self.dp, self.cfg, obs, ts.tree_id))
            except ValidationError as exc:  # direct parameters lacking a PA of the tree
                raise SimulationFailed(f"tree {ts.tree_id!r}: {exc}") from exc
        self._plan = _StackedPlan(plans, self.cfg.rho)

    @property
    def tree_ids(self) -> list[str]:
        return [ts.tree_id for ts in self.targets]

    @property
    def param_names(self) -> list[str]:
        return [f"q0:{tid}" for tid in self.tree_ids] + ["rp", "pc"]

    def pack(self, fp: FreeParams) -> np.ndarray:
        """Log-space vector in param_names order."""
        vals = [fp.q0[tid] for tid in self.tree_ids] + [fp.rp, fp.pc]
        return np.log(np.asarray(vals, dtype=float))

    def unpack(self, x: np.ndarray) -> FreeParams:
        vals = np.exp(x)
        n = len(self.tree_ids)
        return FreeParams(
            q0={tid: float(vals[i]) for i, tid in enumerate(self.tree_ids)},
            rp=float(vals[n]),
            pc=float(vals[n + 1]),
        )

    def log_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = [], []
        for name in self.param_names:
            base = name.split(":")[0]
            b = self.bounds[base]
            lo.append(math.log(b[0]))
            hi.append(math.log(b[1]))
        return np.asarray(lo), np.asarray(hi)


class _Observed(NamedTuple):
    """One tree's observation layout, measured values and their weights.

    The layout is the fit's row order, which the fit CSVs follow too: mean
    internode diameter (mm) and mass per sorted (PA, CA) group, then
    cumulated internode and blade mass per sorted cycle.
    """

    keys: tuple[tuple[int, int], ...]  # sorted (PA, CA) groups
    cycles: np.ndarray  # sorted cumulated cycles, as 0-based indices
    measured: np.ndarray
    weight: np.ndarray  # 1 / max(|measured|, WEIGHT_FLOOR)

    @classmethod
    def of(cls, ts: TargetSeries, tree_id: str, cohorts: Mapping[tuple[int, int], object],
           cycles: int) -> "_Observed":
        """Lay out ``ts`` against tree ``tree_id`` simulated over ``cycles``.

        Raises TreeMismatch for targets of another tree, and ValidationError
        for a target group not among ``cohorts`` or a cumulated cycle
        outside 1..cycles.
        """
        if ts.tree_id != tree_id:
            raise TreeMismatch(f"tree {tree_id!r}: targets are for tree {ts.tree_id!r}")
        keys = sorted(ts.entries)
        for pa, ca in keys:
            if (pa, ca) not in cohorts:
                raise ValidationError(
                    f"tree {tree_id!r}: target group PA{pa}/CA{ca} is not simulated")
        cum_cycles = sorted(ts.cumulated)
        for cycle in cum_cycles:
            if not 1 <= cycle <= cycles:
                raise ValidationError(
                    f"tree {tree_id!r}: cumulated target for cycle {cycle} "
                    f"outside the simulated cycles 1..{cycles}")
        measured = np.asarray(
            [ts.entries[k].mean_internode_diameter for k in keys]
            + [ts.entries[k].mean_internode_weight for k in keys]
            + [ts.cumulated[c].cum_internode_mass for c in cum_cycles]
            + [ts.cumulated[c].cum_blade_mass for c in cum_cycles]
        )
        return cls(
            keys=tuple(keys),
            cycles=np.asarray(cum_cycles, dtype=int) - 1,
            measured=measured,
            weight=1.0 / np.maximum(np.abs(measured), WEIGHT_FLOOR),
        )

    def families(self) -> dict[str, list]:
        """Each observable family's row keys: "pa,ca" per group, the cycle per cumulated cycle."""
        groups, cycles = [f"{pa},{ca}" for pa, ca in self.keys], (self.cycles + 1).tolist()
        return {"diameter_per_gu": groups, "mass_per_gu": groups,
                "cum_internode": cycles, "cum_blade": cycles}

    def simulated(self, trace: SimulationTrace) -> np.ndarray:
        """The simulated counterpart of ``measured``."""
        return np.concatenate(_observables(trace, self.keys, self.cycles))


def _observables(trace: SimulationTrace, keys: Sequence[tuple[int, int]],
                 cycles: np.ndarray) -> list:
    """A trace's four observable families: the mean internode diameter (mm)
    and mass of each (PA, CA) cohort in ``keys``, then the cumulated
    internode and blade mass at each 0-based cycle in ``cycles``."""
    cohorts = [trace.cohorts[key] for key in keys]
    return [[c.diameter_cm * 10.0 for c in cohorts],  # cm -> mm
            [c.internode_mass for c in cohorts],
            trace.cum_internode_mass[cycles], trace.cum_blade_mass[cycles]]


class _TreePlan:
    """One tree's weighted residuals as a function of (q0, rp, pc) alone.

    Everything that does not move with them is fixed once, per cycle i:
    the organ sinks E_i, the ring weight G_i (the functioning blades, or 1
    under constant ring demand, once there are internodes to thicken) and
    the leaf-surface weights W, so that s_i = sum_k W[i, k] * a_k.  Cycle
    i's pool, pc * G_i * a_i, reaches internode k in proportion to its ring
    weight w_ik, from the ring-weight table :func:`simulate` spreads its
    pools by: 1 for every internode old enough to thicken in uniform mode,
    its distal functioning blades in pipe mode.  The internodes of a cohort
    with equal share rows G_i * w_ik / sum_k w_ik form one ring class, and
    the classes span every internode of the census.  ``cohorts`` lists the
    census cohorts, those with a target first, in target order; ``owner``
    gives each class's cohort and ``count`` its internodes, and the first
    ``n_observed`` classes belong to cohorts with a target.  Two matrices,
    ``fixed`` and ``ringed``, map a and pc*a onto each class's internode
    mass and onto the observed cumulated internode and blade masses; the
    class rows of ``fixed`` alone give its primary mass, whose allometry
    fixes the length that closes the diameter.  Where an observed cohort
    has more than one class, ``mean`` averages the observed classes'
    diameters and masses into the cohort's.

    Direct parameters whose organ demand or leaf-surface weights are not
    finite fail here, naming the tree, where :func:`simulate` fails on the
    cycle.  ``FitProblem`` has checked that every observed cohort exists
    and every cumulated cycle is simulated, so a pass fails only as the
    simulator does: on biomass with no sink to take it, on a leaf surface
    that overflows, or on an allometric length that overflows, in any
    cohort.  A tree with a PA whose lengths can overflow (:func:`_steep`)
    is ``steep``.
    """

    def __init__(
        self, topology: TreeTopology, dp: DirectParams, cfg: SimConfig,
        obs: _Observed, tree_id: str,
    ) -> None:
        census = topology.census
        n = topology.age
        birth = np.array([b for _, b in census.keys])
        size = np.array([census.counts[k] for k in census.keys], dtype=float)
        sink = np.array([dp.sink(pa) for pa, _ in census.keys])
        cycle = np.arange(1, n + 1)[:, None]  # (cycles, cohorts) masks below
        expanding = (birth > cycle - cfg.t_exp) & (birth <= cycle)
        functioning = (birth > cycle - cfg.t_f) & (birth <= cycle)
        blade_sink = expanding * size / cfg.t_exp
        e_blade = blade_sink.sum(axis=1)
        with np.errstate(over="ignore"):  # checked below, as simulate checks them
            e_internode = blade_sink @ sink
            w = (functioning * size) @ expanding.T / (cfg.t_exp * dp.slw)
        if not np.isfinite(e_internode).all():
            raise SimulationFailed(f"tree {tree_id!r}: organ demand is not finite")
        if not np.isfinite(w).all():
            raise SimulationFailed(f"tree {tree_id!r}: leaf surface is not finite "
                                   f"at slw {dp.slw} g/cm^2")
        ring_weight = _ring_weights(topology, cfg)
        weight_sum = ring_weight.sum(axis=1)[:, None]
        # A cycle's weights sum to 0 exactly when no internode can thicken.
        per_blade = cfg.ring_demand == RING_DEMAND_PER_BLADE
        g = np.where(weight_sum[:, 0] > 0, functioning @ size if per_blade else 1.0, 0.0)

        column = {key: j for j, key in enumerate(census.keys)}
        self.cohorts = list(dict.fromkeys([*obs.keys, *census.keys]))
        cols = [column[key] for key in self.cohorts]
        rank = np.argsort(cols)  # each census cohort's place in ``cohorts``
        share = np.divide(g[:, None] * ring_weight, weight_sum,
                          out=np.zeros(ring_weight.shape), where=weight_sum > 0)
        classes, self.count = np.unique(
            np.column_stack([rank[census.cohort], share.T]), axis=0, return_counts=True
        )
        self.owner = classes[:, 0].astype(int)
        m = len(obs.keys)
        k = self.n_observed = int(np.searchsorted(self.owner, m))
        self.mean = None
        if k > m:
            self.mean = np.zeros((m, k))
            self.mean[self.owner[:k], np.arange(k)] = self.count[:k] / size[cols][self.owner[:k]]

        upto = np.tril(np.ones((n, n)))[obs.cycles]  # (cumulated cycles, cycles)
        self.fixed = np.vstack([
            ((expanding[:, cols] * sink[cols]).T / cfg.t_exp)[self.owner],
            upto * e_internode, upto * e_blade,
        ])
        self.ringed = np.vstack([classes[:, 1:], upto * g, np.zeros_like(upto)])
        shapes = {pa: dp.shape(pa) for pa, _ in census.keys}
        self.b = np.array([shapes[pa][0] for pa, _ in self.cohorts])[self.owner]
        self.beta = np.array([shapes[pa][1] for pa, _ in self.cohorts])[self.owner]
        self.steep = any(_steep(*shape) for shape in shapes.values())
        self.e_sinks = (e_blade + e_internode).tolist()
        self.g = g.tolist()
        # Leaf surface at i counts the blade mass laid down up to cycle i.
        self.w_rows = [row[: i + 1].tolist() for i, row in enumerate(w)]
        self.e, self.sp, self.slw = cfg.e, cfg.sp, dp.slw
        self.obs = obs
        self.tree_id = tree_id

    def overflow(self, pa: int, b: float, mass: float, beta: float) -> SimulationFailed:
        """The failure :func:`simulate` raises for a length that overflows."""
        return SimulationFailed(f"tree {self.tree_id!r}: PA {pa}: allometric length "
                                f"{float(b)} * {float(mass)} g ** {float(beta)} overflows")

    def _forward(self, q0: float, rp: float, pc: float) -> tuple[list[float], list[float]]:
        """a_i for each cycle, and each cycle's decay exp(-s_i / sp) but the last's."""
        e, sp = self.e, self.sp
        a: list[float] = []
        decays: list[float] = []
        funded = q0
        last = len(self.g) - 1
        for i, (e_sink, g, w_row) in enumerate(zip(self.e_sinks, self.g, self.w_rows)):
            d = e_sink + pc * g
            if funded > 0:
                if d <= 0:
                    raise SimulationFailed(
                        f"tree {self.tree_id!r}: cycle {i + 1}: "
                        f"{funded} g to allocate but no demand"
                    )
                a.append(funded / d)
            else:
                a.append(0.0)
            if i == last:
                break
            decay = math.exp(-sum(map(mul, w_row, a)) / sp)
            decays.append(decay)
            funded = e * (sp / rp) * (1.0 - decay)
        if 0.0 in decays:  # a surface that overflowed, or one whose exp underflows
            self._check_surfaces(a)
        return a, decays

    def _check_surfaces(self, a: list[float]) -> None:
        """Raise SimulationFailed at the first cycle but the last whose leaf
        surface is not finite, as :func:`simulate` fails on it."""
        for i, w_row in enumerate(self.w_rows[:-1]):
            if not math.isfinite(sum(map(mul, w_row, a))):
                raise SimulationFailed(f"tree {self.tree_id!r}: cycle {i + 1}: leaf surface "
                                       f"is not finite at slw {self.slw} g/cm^2")

    def _tangent(
        self, q0: float, rp: float, pc: float, a: list[float], decays: list[float]
    ) -> np.ndarray:
        """d a_i / d(log q0, log rp, log pc), one row per cycle, from the
        forward sweep's ``a`` and ``decays`` at the same point."""
        e, sp = self.e, self.sp
        dq, dr, dp = [], [], []  # the three columns
        funded, dfq, dfr, dfp = q0, q0, 0.0, 0.0  # funded and its three derivatives
        last = len(self.g) - 1
        for i, (e_sink, g, w_row, ai) in enumerate(zip(self.e_sinks, self.g, self.w_rows, a)):
            ring = pc * g
            d = e_sink + ring
            if funded > 0:
                dq.append(dfq / d)
                dr.append(dfr / d)
                dp.append((dfp - ai * ring) / d)
            else:
                dq.append(0.0)
                dr.append(0.0)
                dp.append(0.0)
            if i == last:
                break
            decay = decays[i]
            funded = e * (sp / rp) * (1.0 - decay)
            slope = e / rp * decay
            dfq = slope * sum(map(mul, w_row, dq))
            dfr = slope * sum(map(mul, w_row, dr)) - funded
            dfp = slope * sum(map(mul, w_row, dp))
        return np.array([dq, dr, dp], order="F").T  # C-contiguous (cycles, 3)


class _StackedPlan:
    """Every tree's residual plan, evaluated as one pass.

    A tree's scalar recursion and its products with ``fixed`` and
    ``ringed`` stay its own: one block-diagonal product would sum in another
    order and round differently.  Everything after them is elementwise or a
    gather, so it runs once on the trees' rows laid end to end (each tree's
    class rows, then its cumulated rows): the empty-class guard, the
    allometry that closes the diameters, the observation weights and the
    Jacobian's assembly.  ``classes`` picks the class rows out of the
    stacked rows.  Each tree gives a block of diameters and one of masses:
    its classes' or, where its observed cohorts split into ring classes,
    their ``mean``.  ``order`` gathers the observed values (each block's
    leading rows, then the cumulated rows) into residual order, tree by
    tree, and ``tree`` names each residual row's tree, the one whose seed
    mass moves it.
    """

    def __init__(self, trees: list[_TreePlan], rho: float) -> None:
        self.trees = trees
        self.rho = rho
        classes = [len(plan.b) for plan in trees]
        rows = [len(plan.fixed) for plan in trees]
        cohorts = [len(plan.obs.keys) for plan in trees]
        blocks = [k if plan.mean is None else m for plan, k, m in zip(trees, classes, cohorts)]
        first_row = np.cumsum([0] + rows[:-1])
        first_block = np.cumsum([0] + blocks[:-1])
        self.classes = np.concatenate(
            [first + np.arange(k) for first, k in zip(first_row, classes)]
        )
        self.class_ends = np.cumsum(classes)[:-1]
        self.split = any(plan.mean is not None for plan in trees)
        n_blocks = sum(blocks)
        self.order = np.concatenate([
            np.concatenate([c + np.arange(m), n_blocks + c + np.arange(m),
                            2 * n_blocks + r + np.arange(k, n)])
            for r, c, k, m, n in zip(first_row, first_block, classes, cohorts, rows)
        ])
        self.rows = np.arange(len(self.order))
        self.tree = np.repeat(np.arange(len(trees)), [len(plan.obs.measured) for plan in trees])
        self.b = np.concatenate([plan.b for plan in trees])
        self.beta = np.concatenate([plan.beta for plan in trees])
        self.measured = np.concatenate([plan.obs.measured for plan in trees])
        self.weight = np.concatenate([plan.obs.weight for plan in trees])
        self.steep = any(plan.steep for plan in trees)

    def lengths(self, primary: np.ndarray) -> np.ndarray:
        """Each class's allometric length b * primary**beta, for a steep
        plan: the first class that overflows, in tree order, raises
        SimulationFailed naming its tree and PA, as :func:`simulate` does,
        and numpy warns of none."""
        with np.errstate(over="ignore"):
            length = self.b * primary**self.beta
        overflows = np.isinf(length)
        if overflows.any():
            i = int(overflows.argmax())
            t = int(np.searchsorted(self.class_ends, i, side="right"))
            tree = self.trees[t]
            pa = tree.cohorts[tree.owner[i - (self.class_ends[t - 1] if t else 0)]][0]
            raise tree.overflow(pa, self.b[i], primary[i], self.beta[i])
        return length

    def means(self, values: np.ndarray) -> np.ndarray:
        """Stacked class values -> each tree's block of them."""
        parts = np.split(values, self.class_ends)
        return np.concatenate([
            part if plan.mean is None else plan.mean.dot(part[:plan.n_observed])
            for plan, part in zip(self.trees, parts)
        ])


class _Sweep(NamedTuple):
    """One forward sweep: the residuals at ``x`` and the state at ``x`` that
    the tangent sweep reads."""

    x: np.ndarray
    res: np.ndarray
    vals: list[float]  # exp(x)
    runs: list[tuple[list[float], list[float]]]  # per tree: a and decays
    ringed: np.ndarray
    primary: np.ndarray
    total: np.ndarray
    diameter: np.ndarray


def _values(problem: FitProblem, x: np.ndarray) -> _Sweep:
    """``residuals`` at log parameters x, evaluated through the stacked plan."""
    plan = problem._plan
    vals = np.exp(x).tolist()
    n = len(plan.trees)
    rp, pc = vals[n], vals[n + 1]
    runs, fixed, ringed = [], [], []
    for tree, q0 in zip(plan.trees, vals):
        run = tree._forward(q0, rp, pc)
        runs.append(run)
        a = np.array(run[0])
        fixed.append(tree.fixed.dot(a))
        ringed.append(tree.ringed.dot(a))
    fixed, ringed = np.concatenate(fixed), np.concatenate(ringed)
    mass = fixed + pc * ringed  # per tree: class masses, then the cumulated series
    primary = fixed[plan.classes]
    masses = total = mass[plan.classes]
    ok = (primary > 0.0) & (total > 0.0)  # a class given nothing has no diameter
    # count_nonzero is the cheap form of all() on a few dozen rows.
    empty = np.count_nonzero(ok) < len(ok)
    if empty:
        primary, total = np.where(ok, primary, 1.0), np.where(ok, total, 1.0)
    length = plan.lengths(primary) if plan.steep else plan.b * primary**plan.beta
    if np.count_nonzero(length) < len(length):  # nor has one whose length underflows to 0
        ok, empty = ok & (length > 0.0), True
        primary, total, length = (np.where(ok, v, 1.0) for v in (primary, total, length))
    diameter = np.sqrt(4.0 * total / (math.pi * plan.rho * length)) * 10.0
    if empty:  # a mask of all True would change no bit
        diameter *= ok
    observed = [diameter, masses, mass]
    if plan.split:  # class values -> observed cohort means
        observed[:2] = plan.means(diameter), plan.means(masses)
    res = (np.concatenate(observed)[plan.order] - plan.measured) * plan.weight
    if problem._weights is not None:
        res = res * problem._weights
    return _Sweep(x, res, vals, runs, ringed, primary, total, diameter)


def _jacobian(problem: FitProblem, sweep: _Sweep) -> np.ndarray:
    """The Jacobian of the residuals at ``sweep.x`` in param_names order, by
    one tangent sweep over the forward sweep's state."""
    plan = problem._plan
    vals = sweep.vals
    n = len(plan.trees)
    rp, pc = vals[n], vals[n + 1]
    dfixed, dringed = [], []
    for tree, q0, (a, decays) in zip(plan.trees, vals, sweep.runs):
        da = tree._tangent(q0, rp, pc, a, decays)
        dfixed.append(tree.fixed.dot(da))
        dringed.append(tree.ringed.dot(da))
    dfixed = np.concatenate(dfixed)
    dmass = dfixed + pc * np.concatenate(dringed)
    dmass[:, 2] += pc * sweep.ringed
    dmasses = dmass.take(plan.classes, 0)  # row gathers: take is the cheap form
    # d ln D = (d ln M - beta * d ln P) / 2, with the length L = b * P**beta.
    ddiameter = (0.5 * sweep.diameter)[:, None] * (
        dmasses / sweep.total[:, None]
        - plan.beta[:, None] * dfixed.take(plan.classes, 0) / sweep.primary[:, None]
    )
    dobserved = [ddiameter, dmasses, dmass]
    if plan.split:
        dobserved[:2] = plan.means(ddiameter), plan.means(dmasses)
    block = np.concatenate(dobserved).take(plan.order, 0) * plan.weight[:, None]
    jac = np.zeros((len(sweep.res), n + 2))
    jac[plan.rows, plan.tree] = block[:, 0]
    jac[:, n:] = block[:, 1:]
    if problem._weights is not None:
        jac *= problem._weights[:, None]
    return jac


def residuals(fp: FreeParams, problem: FitProblem) -> np.ndarray:
    """Weighted (simulated - measured) over every tree and observable family.

    Weights are 1 / max(|measured|, 1e-3) in each observable's unit, times
    any user-supplied per-observation weight.
    """
    parts: list[np.ndarray] = []
    for ts, topo, obs in zip(problem.targets, problem.topologies, problem._observed):
        hp = HiddenParams(q0=fp.q0[ts.tree_id], rp=fp.rp, pc=fp.pc)
        try:
            trace = simulate(hp, problem.dp, topo, problem.cfg)
        except FspmError as exc:
            raise SimulationFailed(f"tree {ts.tree_id!r}: {exc}") from exc
        parts.append((obs.simulated(trace) - obs.measured) * obs.weight)
    res = np.concatenate(parts)
    if problem._weights is not None:
        res = res * problem._weights
    return res


def central_jacobian(
    fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float
) -> np.ndarray:
    """Central-difference Jacobian of fn at x, one +/- pair per column."""
    columns = []
    for j in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        columns.append((fn(hi) - fn(lo)) / (2.0 * step))
    return np.column_stack(columns)


def fd_jacobian(
    fp: FreeParams, problem: FitProblem, step: float = 1e-5
) -> np.ndarray:
    """d(residual)/d(log param), columns ordered as problem.param_names.

    The step is taken in log space, i.e. a relative step on the parameters
    themselves; parameters must sit strictly inside their bounds.  Each
    column costs one pair of residual evaluations, 2 * (trees + 2) in all.
    """
    x = problem.pack(fp)
    lo, hi = problem.log_bounds()
    if np.any(x <= lo) or np.any(x >= hi):
        raise InfeasibleInit("parameters must lie strictly inside bounds")
    return central_jacobian(lambda v: residuals(problem.unpack(v), problem), x, step)


@dataclass
class FitResult:
    """The best start's parameters and how the solver got there.

    ``sse`` and ``per_tree_sse`` are recomputed through :func:`residuals` at
    those parameters.  ``value_passes`` counts the solver's residual-vector
    evaluations over all trees and ``tangent_passes`` its exact Jacobians.
    ``at_bound`` names the parameters that ended on a bound.
    """

    params: FreeParams
    sse: float
    per_tree_sse: dict[str, float]
    iterations: int
    converged: bool
    degenerate_params: list[str]
    value_passes: int = 0
    tangent_passes: int = 0
    at_bound: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "q0": {tid: v for tid, v in sorted(self.params.q0.items())},
            "rp": self.params.rp,
            "pc": self.params.pc,
            "sse": self.sse,
            "converged": self.converged,
            "iterations": self.iterations,
            "per_tree_sse": dict(sorted(self.per_tree_sse.items())),
            "degenerate_params": self.degenerate_params,
            "at_bound": self.at_bound,
            "value_passes": self.value_passes,
            "tangent_passes": self.tangent_passes,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _per_tree_sse(res: np.ndarray, problem: FitProblem) -> dict[str, float]:
    out: dict[str, float] = {}
    offset = 0
    for ts, obs in zip(problem.targets, problem._observed):
        n = len(obs.measured)
        out[ts.tree_id] = float(np.sum(res[offset : offset + n] ** 2))
        offset += n
    return out


def _gauss_newton(
    problem: FitProblem, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, opts: FitOptions
) -> tuple[_Sweep, float, int, bool, int, int]:
    """Damped Gauss-Newton from ``x0`` clipped into [lo, hi].  It holds the
    forward sweep of its current point, takes every Jacobian from it and
    keeps a trial step's sweep when the SSE drops.  Returns the final
    sweep, its SSE, the iterations, whether the start converged, and the
    value and tangent passes it made.  A start whose SSE is not finite
    raises SimulationFailed naming the tree of its first such residual;
    a step is kept only where the SSE drops, so no other SSE can be."""
    with np.errstate(over="ignore", invalid="ignore"):  # such a start fails below
        sweep = _values(problem, np.clip(x0, lo, hi))
    sse = float(sweep.res.dot(sweep.res))
    if not math.isfinite(sse):
        tree = problem.tree_ids[problem._plan.tree[np.isfinite(sweep.res).argmin()]]
        raise SimulationFailed(f"tree {tree!r}: the weighted SSE is {sse}")
    value_passes, tangent_passes = 1, 0
    lam = LAMBDA0
    stall = 0
    it = 0
    while it < opts.max_iter:
        if sse <= SSE_FLOOR:
            return sweep, sse, it, True, value_passes, tangent_passes
        it += 1
        jac = _jacobian(problem, sweep)
        tangent_passes += 1
        a = jac.T.dot(jac)
        minus_g = -jac.T.dot(sweep.res)
        damping = np.diag(np.maximum(np.diag(a), 1e-12))
        improved = False
        while lam <= 1e12:
            try:
                dx = np.linalg.solve(a + lam * damping, minus_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = _values(problem, np.clip(sweep.x + dx, lo, hi))
            value_passes += 1
            sse_new = float(trial.res.dot(trial.res))
            if sse_new < sse:
                improved = True
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        if improved:
            rel = (sse - sse_new) / max(sse, 1e-300)
            sweep, sse = trial, sse_new
        else:
            rel = 0.0
            lam = LAMBDA0
        stall = stall + 1 if rel < REL_TOL else 0
        if stall >= STALL_ITERS:
            return sweep, sse, it, True, value_passes, tangent_passes
    return sweep, sse, it, False, value_passes, tangent_passes


def fit_hidden(
    problem: FitProblem,
    init: FreeParams,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Fit per-tree seed masses and shared (rp, pc) to the target series.

    Runs damped Gauss-Newton from the supplied init plus ``n_starts``
    log-uniform draws over the bounds (fixed seed, so results are exactly
    reproducible) and keeps the lowest weighted SSE.  A failure to reach the
    stall criterion is reported through ``converged=False``, never raised.
    The solver runs on the trees' residual plans, with exact Jacobians; the
    result's SSE is the simulator's, at the optimum.  A start whose SSE is
    not finite raises SimulationFailed, so no fit reports such an SSE.
    """
    lo, hi = problem.log_bounds()
    # A value <= 0 or non-finite has no finite log; NaN fails every bound.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_init = problem.pack(init)
    bad = [name for name, x, a, b in zip(problem.param_names, x_init.tolist(), lo, hi)
           if not a <= x <= b]
    if bad:
        raise InfeasibleInit(f"init must be finite and inside the bounds for {bad}")

    # The standard library's seeded generator: a fit never loads
    # numpy.random, about 15 ms and 3 MB of resident memory on first use.
    rng = random.Random(options.seed)
    bounds = list(zip(lo.tolist(), hi.tolist()))
    starts = [x_init] + [
        np.array([rng.uniform(a, b) for a, b in bounds]) for _ in range(options.n_starts)
    ]

    best: tuple[_Sweep, float, int, bool] | None = None
    value_passes = tangent_passes = 0
    for x0 in starts:
        sweep, sse, iters, converged, values, tangents = _gauss_newton(
            problem, x0, lo, hi, options
        )
        value_passes += values
        tangent_passes += tangents
        if best is None or sse < best[1]:
            best = (sweep, sse, iters, converged)

    sweep, _, iters, converged = best
    x = sweep.x
    fp = problem.unpack(x)
    # The identifiability Jacobian, from the best start's own final sweep.
    norms = np.linalg.norm(_jacobian(problem, sweep), axis=0)
    tangent_passes += 1
    names = problem.param_names
    degenerate = [names[j] for j in range(len(norms)) if norms[j] < 1e-12]
    at_bound = [
        names[j] for j in range(len(x))
        if x[j] - lo[j] <= BOUND_TOL or hi[j] - x[j] <= BOUND_TOL
    ]
    res = residuals(fp, problem)
    return FitResult(
        params=fp,
        sse=float(res @ res),
        per_tree_sse=_per_tree_sse(res, problem),
        iterations=iters,
        converged=converged,
        degenerate_params=degenerate,
        value_passes=value_passes,
        tangent_passes=tangent_passes,
        at_bound=at_bound,
    )


def targets_from_trace(
    trace: SimulationTrace, dp: DirectParams
) -> TargetSeries:
    """Recast a simulation trace as a TargetSeries (synthetic targets)."""
    keys = sorted(trace.cohorts)
    cohorts = [trace.cohorts[key] for key in keys]
    diameters, masses, cum_internode, cum_blade = _observables(
        trace, keys, np.arange(trace.cycles))
    entries = {key: TargetEntry(
        mean_internode_weight=mass, mean_internode_length=cohort.length_cm,
        mean_internode_diameter=diameter, mean_blade_weight=cohort.blade_mass,
        mean_blade_area=cohort.blade_mass / dp.slw, n_internodes=cohort.n_internodes,
    ) for key, cohort, diameter, mass in zip(keys, cohorts, diameters, masses)}
    cumulated = {cycle: CumEntry(*pair) for cycle, pair in enumerate(
        zip(cum_internode.tolist(), cum_blade.tolist()), start=1)}
    return TargetSeries(tree_id=trace.tree_id, entries=entries, cumulated=cumulated)
