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
forward sweep runs each tree's scalar recursion and its own matrix
products, then the allometry and the weights once on all trees' rows, and
keeps the per-cycle scalars and class values a tangent needs.  The solver
evaluates residuals through that sweep, and takes the Jacobian from one
tangent sweep over the stored forward state that carries d/d(log q0,
log rp, log pc) through the same recursions (forward-mode differentiation,
Griewank & Walther 2008, ch. 3): exact, and the price of about one
simulation per tree where central differences need two per parameter.
The solver asks for a Jacobian only at the point it has just evaluated, so
the tangent sweep reuses that point's forward sweep instead of rerunning it.

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

    def simulated(self, trace: SimulationTrace) -> np.ndarray:
        """The simulated counterpart of ``measured``."""
        cohorts = [trace.cohorts[key] for key in self.keys]
        return np.concatenate([
            [c.diameter_cm * 10.0 for c in cohorts],  # cm -> mm
            [c.internode_mass for c in cohorts],
            trace.cum_internode_mass[self.cycles],
            trace.cum_blade_mass[self.cycles],
        ])


class _TreePlan:
    """One tree's weighted residuals as a function of (q0, rp, pc) alone.

    Everything that does not move with them is fixed once, per cycle i:
    the organ sinks E_i, the ring weight G_i (the functioning blades, or 1
    under constant ring demand, once there are internodes to thicken) and
    the leaf-surface weights W, so that s_i = sum_k W[i, k] * a_k.  Cycle
    i's pool, pc * G_i * a_i, reaches internode k in proportion to its ring
    weight w_ik, from the ring-weight table :func:`simulate` spreads its
    pools by: 1 for every internode old enough to thicken in uniform mode,
    its distal functioning blades in pipe mode.  The internodes of an observed cohort with equal share rows
    G_i * w_ik / sum_k w_ik form one ring class.  Two matrices, ``fixed``
    and ``ringed``, map a and pc*a onto each class's internode mass and onto
    the observed cumulated internode and blade masses; the class rows of
    ``fixed`` alone give its primary mass, whose allometry fixes the length
    that closes the diameter.  Where a cohort has more than one class,
    ``mean`` averages class diameters and masses into the cohort's.

    ``FitProblem`` has checked that every observed cohort exists and every
    cumulated cycle is simulated, so a pass fails only as the simulator
    does on biomass with no sink to take it.
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
        e_internode = blade_sink @ sink
        w = (functioning * size) @ expanding.T / (cfg.t_exp * dp.slw)
        ring_weight = _ring_weights(topology, cfg)
        weight_sum = ring_weight.sum(axis=1)[:, None]
        # A cycle's weights sum to 0 exactly when no internode can thicken.
        per_blade = cfg.ring_demand == RING_DEMAND_PER_BLADE
        g = np.where(weight_sum[:, 0] > 0, functioning @ size if per_blade else 1.0, 0.0)

        column = {key: j for j, key in enumerate(census.keys)}
        cols = [column[key] for key in obs.keys]
        observed = np.full(len(census.keys), -1)
        observed[cols] = np.arange(len(cols))
        member = observed[census.cohort]  # each internode's observed cohort, or -1
        kept = member >= 0
        weights = ring_weight[:, kept]
        share = np.divide(g[:, None] * weights, weight_sum,
                          out=np.zeros(weights.shape), where=weight_sum > 0)
        classes, count = np.unique(
            np.column_stack([member[kept], share.T]), axis=0, return_counts=True
        )
        owner = classes[:, 0].astype(int)  # the observed cohort of each class
        self.mean = None
        if len(classes) > len(cols):
            self.mean = np.zeros((len(cols), len(classes)))
            self.mean[owner, np.arange(len(classes))] = count / size[cols][owner]

        upto = np.tril(np.ones((n, n)))[obs.cycles]  # (cumulated cycles, cycles)
        self.fixed = np.vstack([
            ((expanding[:, cols] * sink[cols]).T / cfg.t_exp)[owner],
            upto * e_internode, upto * e_blade,
        ])
        self.ringed = np.vstack([classes[:, 1:], upto * g, np.zeros_like(upto)])
        shapes = [dp.shape(pa) for pa, _ in obs.keys]
        self.b = np.array([b for b, _ in shapes])[owner]
        self.beta = np.array([beta for _, beta in shapes])[owner]
        self.e_sinks = (e_blade + e_internode).tolist()
        self.g = g.tolist()
        # Leaf surface at i counts the blade mass laid down up to cycle i.
        self.w_rows = [row[: i + 1].tolist() for i, row in enumerate(w)]
        self.e, self.sp = cfg.e, cfg.sp
        self.obs = obs
        self.tree_id = tree_id

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
        return a, decays

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
    stacked rows, ``order`` gathers the observed values (diameters, cohort
    masses, stacked rows) into residual order, tree by tree, and ``tree``
    names each residual row's tree, the one whose seed mass moves it.  A
    tree whose cohorts split into ring classes applies its ``mean`` map to
    its own slice.
    """

    def __init__(self, trees: list[_TreePlan], rho: float) -> None:
        self.trees = trees
        self.rho = rho
        classes = [len(plan.b) for plan in trees]
        rows = [len(plan.fixed) for plan in trees]
        cohorts = [len(plan.obs.keys) for plan in trees]
        first_row = np.cumsum([0] + rows[:-1])
        first_cohort = np.cumsum([0] + cohorts[:-1])
        self.classes = np.concatenate(
            [first + np.arange(k) for first, k in zip(first_row, classes)]
        )
        self.class_ends = np.cumsum(classes)[:-1]
        self.split = any(plan.mean is not None for plan in trees)
        n_cohorts = sum(cohorts)
        self.order = np.concatenate([
            np.concatenate([c + np.arange(m), n_cohorts + c + np.arange(m),
                            2 * n_cohorts + r + np.arange(k, n)])
            for r, c, k, m, n in zip(first_row, first_cohort, classes, cohorts, rows)
        ])
        self.rows = np.arange(len(self.order))
        self.tree = np.repeat(np.arange(len(trees)), [len(plan.obs.measured) for plan in trees])
        self.b = np.concatenate([plan.b for plan in trees])
        self.beta = np.concatenate([plan.beta for plan in trees])
        self.measured = np.concatenate([plan.obs.measured for plan in trees])
        self.weight = np.concatenate([plan.obs.weight for plan in trees])

    def means(self, values: np.ndarray) -> np.ndarray:
        """Stacked class values -> stacked observed cohort values."""
        parts = np.split(values, self.class_ends)
        return np.concatenate([
            part if plan.mean is None else plan.mean.dot(part)
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
    empty = not ok.all()
    if empty:
        primary, total = np.where(ok, primary, 1.0), np.where(ok, total, 1.0)
    length = plan.b * primary**plan.beta
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


class _Passes:
    """The solver's residual and exact Jacobian evaluations through the
    trees' plans, counted.  A Jacobian at the point of the last residual
    evaluation reuses that forward sweep; the solver never changes a point
    in place."""

    def __init__(self, problem: FitProblem) -> None:
        self.problem = problem
        self.value_passes = 0
        self.tangent_passes = 0
        self.last: _Sweep | None = None

    def values(self, x: np.ndarray) -> np.ndarray:
        self.value_passes += 1
        self.last = _values(self.problem, x)
        return self.last.res

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        self.tangent_passes += 1
        sweep = self.last
        if sweep is None or not (sweep.x is x or np.array_equal(sweep.x, x)):
            sweep = _values(self.problem, x)
        return _jacobian(self.problem, sweep)


def _gauss_newton(
    fn: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    opts: FitOptions,
) -> tuple[np.ndarray, float, int, bool]:
    x = np.clip(x0, lo, hi)
    r = fn(x)
    sse = float(r.dot(r))
    lam = LAMBDA0
    stall = 0
    it = 0
    while it < opts.max_iter:
        if sse <= SSE_FLOOR:
            return x, sse, it, True
        it += 1
        jac = jacobian(x)
        a = jac.T.dot(jac)
        minus_g = -jac.T.dot(r)
        damping = np.diag(np.maximum(np.diag(a), 1e-12))
        improved = False
        while lam <= 1e12:
            try:
                dx = np.linalg.solve(a + lam * damping, minus_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = np.clip(x + dx, lo, hi)
            r_new = fn(x_new)
            sse_new = float(r_new.dot(r_new))
            if sse_new < sse:
                improved = True
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        if improved:
            rel = (sse - sse_new) / max(sse, 1e-300)
            x, r, sse = x_new, r_new, sse_new
        else:
            rel = 0.0
        stall = stall + 1 if rel < REL_TOL else 0
        if stall >= STALL_ITERS:
            return x, sse, it, True
        if not improved:
            lam = LAMBDA0
    return x, sse, it, False


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
    result's SSE is the simulator's, at the optimum.
    """
    lo, hi = problem.log_bounds()
    # A value <= 0 or non-finite has no finite log; NaN fails every bound.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_init = problem.pack(init)
    bad = [name for name, x, a, b in zip(problem.param_names, x_init.tolist(), lo, hi)
           if not a <= x <= b]
    if bad:
        raise InfeasibleInit(f"init must be finite and inside the bounds for {bad}")

    passes = _Passes(problem)
    # The standard library's seeded generator: a fit never loads
    # numpy.random, about 15 ms and 3 MB of resident memory on first use.
    rng = random.Random(options.seed)
    bounds = list(zip(lo.tolist(), hi.tolist()))
    starts = [x_init] + [
        np.array([rng.uniform(a, b) for a, b in bounds]) for _ in range(options.n_starts)
    ]

    best: tuple[np.ndarray, float, int, bool] | None = None
    for x0 in starts:
        x, sse, iters, converged = _gauss_newton(
            passes.values, passes.jacobian, x0, lo, hi, options
        )
        if best is None or sse < best[1]:
            best = (x, sse, iters, converged)

    x, _, iters, converged = best
    fp = problem.unpack(x)
    norms = np.linalg.norm(passes.jacobian(x), axis=0)
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
        value_passes=passes.value_passes,
        tangent_passes=passes.tangent_passes,
        at_bound=at_bound,
    )


def targets_from_trace(
    trace: SimulationTrace, dp: DirectParams
) -> TargetSeries:
    """Recast a simulation trace as a TargetSeries (synthetic targets)."""
    entries: dict[tuple[int, int], TargetEntry] = {}
    for key, cohort in sorted(trace.cohorts.items()):
        entries[key] = TargetEntry(
            mean_internode_weight=cohort.internode_mass,
            mean_internode_length=cohort.length_cm,
            mean_internode_diameter=cohort.diameter_cm * 10.0,
            mean_blade_weight=cohort.blade_mass,
            mean_blade_area=cohort.blade_mass / dp.slw,
            n_internodes=cohort.n_internodes,
        )
    cumulated = {
        cycle: CumEntry(
            cum_internode_mass=float(trace.cum_internode_mass[cycle - 1]),
            cum_blade_mass=float(trace.cum_blade_mass[cycle - 1]),
        )
        for cycle in range(1, trace.cycles + 1)
    }
    return TargetSeries(tree_id=trace.tree_id, entries=entries, cumulated=cumulated)
