"""Hidden-parameter recovery by multi-target weighted least squares.

Several trees are fitted simultaneously: each tree keeps its own seed mass
while the production resistance and ring sink are shared, so the residual
vector concatenates four observable families per tree (per-(PA, CA) mean
internode diameter and mass, per-cycle cumulated internode and blade mass),
each observation weighted by the reciprocal of its measured magnitude.

The solver is a damped Gauss-Newton iteration with adaptive Levenberg-style
damping, run on log-transformed parameters so positivity holds by
construction, with central finite-difference Jacobians and a seeded
log-uniform multi-start.

A tree's residuals depend only on its own seed mass and the shared pair, so
the Jacobian is block-sparse: the seed-mass columns have disjoint rows and
share one +/- step (grouped central differences, Curtis, Powell & Reid
1974).  A Jacobian over T trees costs 3 pairs of residual evaluations, 6*T
simulations, and is bitwise equal to the column-by-column one.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .direct_estim import DirectParams
from .engine import HiddenParams, SimConfig, SimulationTrace, simulate
from .errors import (
    FspmError,
    InfeasibleInit,
    InvalidParameter,
    SimulationFailed,
    ValidationError,
)
from .ingest import CumEntry, TargetEntry, TargetSeries
from .topology import TreeTopology

WEIGHT_FLOOR = 1e-3

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
    rel_tol: float = 1e-10
    stall_iters: int = 3
    fd_step: float = 1e-5
    lambda0: float = 1e-3
    # Weighted residuals are relative, so an SSE this small is an exact fit
    # up to float noise; stop without burning Jacobian evaluations.
    sse_floor: float = 1e-24

    def __post_init__(self) -> None:
        for name, low in (("seed", 0), ("n_starts", 0), ("max_iter", 1), ("stall_iters", 1)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise InvalidParameter(f"{name} must be an integer >= {low}, got {value!r}")
        for name, strict in (("fd_step", True), ("lambda0", True),
                             ("rel_tol", False), ("sse_floor", False)):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
                bound = "> 0" if strict else ">= 0"
                raise InvalidParameter(f"{name} must be finite and {bound}, got {value}")


@dataclass
class FitProblem:
    """Targets, matching topologies, and everything fixed during the fit.

    Treat it as read-only once built: each tree's measured vector and
    weights, the user weights as an array and ``jacobian_pattern`` (rows x
    param_names, True where a residual can move with a parameter) are
    derived once, in ``__post_init__``.
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
    jacobian_pattern: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.targets) != len(self.topologies):
            raise ValidationError("one topology per target series required")
        if not self.targets:
            raise ValidationError("no targets to fit")
        for ts, topo in zip(self.targets, self.topologies):
            if ts.tree_id != topo.tree_id:
                raise ValidationError(
                    f"target {ts.tree_id!r} paired with topology {topo.tree_id!r}"
                )
            born = topo.census.counts  # raises MissingPA on an unclassified tree
            for key in ts.entries:
                if key not in born:
                    raise ValidationError(
                        f"tree {ts.tree_id!r}: target group PA{key[0]}/CA{key[1]} "
                        "never appears in the topology"
                    )
        for name, (lo, hi) in self.bounds.items():
            if not 0 < lo < hi:
                raise ValidationError(f"bounds for {name!r} must be 0 < lo < hi")
        self._observed = [_Observed.of(ts) for ts in self.targets]
        n_obs = sum(len(obs.measured) for obs in self._observed)
        if self.weights is not None and len(self.weights) != n_obs:
            raise ValidationError(
                f"{len(self.weights)} weights for {n_obs} observations"
            )
        self._weights = (
            None if self.weights is None else np.asarray(self.weights, dtype=float)
        )
        # Tree t's rows depend on q0:t and the shared rp and pc only.
        n_trees = len(self.targets)
        self.jacobian_pattern = np.zeros((n_obs, n_trees + 2), dtype=bool)
        self.jacobian_pattern[:, n_trees:] = True
        offset = 0
        for t, obs in enumerate(self._observed):
            self.jacobian_pattern[offset : offset + len(obs.measured), t] = True
            offset += len(obs.measured)
        self.jacobian_pattern.flags.writeable = False

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
    """One tree's observation layout, measured values and their weights."""

    keys: tuple[tuple[int, int], ...]  # sorted (PA, CA) groups
    cycles: np.ndarray  # sorted cumulated cycles, as 0-based indices
    measured: np.ndarray
    weight: np.ndarray  # 1 / max(|measured|, WEIGHT_FLOOR)

    @classmethod
    def of(cls, ts: TargetSeries) -> "_Observed":
        keys = sorted(ts.entries)
        cycles = sorted(ts.cumulated)
        measured = np.asarray(
            [ts.entries[k].mean_internode_diameter for k in keys]
            + [ts.entries[k].mean_internode_weight for k in keys]
            + [ts.cumulated[c].cum_internode_mass for c in cycles]
            + [ts.cumulated[c].cum_blade_mass for c in cycles]
        )
        return cls(
            keys=tuple(keys),
            cycles=np.asarray(cycles, dtype=int) - 1,
            measured=measured,
            weight=1.0 / np.maximum(np.abs(measured), WEIGHT_FLOOR),
        )

    def simulated(self, trace: SimulationTrace, tree_id: str) -> np.ndarray:
        """The simulated counterpart of ``measured``."""
        cohorts = []
        for key in self.keys:
            cohort = trace.cohorts.get(key)
            if cohort is None:
                raise SimulationFailed(
                    f"tree {tree_id!r}: no simulated cohort for PA{key[0]}/CA{key[1]}"
                )
            cohorts.append(cohort)
        return np.concatenate([
            [c.diameter_cm * 10.0 for c in cohorts],  # cm -> mm
            [c.internode_mass for c in cohorts],
            trace.cum_internode_mass[self.cycles],
            trace.cum_blade_mass[self.cycles],
        ])


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
        parts.append((obs.simulated(trace, ts.tree_id) - obs.measured) * obs.weight)
    res = np.concatenate(parts)
    if problem._weights is not None:
        res = res * problem._weights
    return res


def _column_groups(pattern: np.ndarray) -> list[list[int]]:
    """Greedy partition of columns into groups with disjoint row sets."""
    groups: list[list[int]] = []
    covered: list[np.ndarray] = []
    for j in range(pattern.shape[1]):
        rows = pattern[:, j]
        for group, seen in zip(groups, covered):
            if not np.any(seen & rows):
                group.append(j)
                seen |= rows
                break
        else:
            groups.append([j])
            covered.append(rows.copy())
    return groups


def central_jacobian(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    step: float,
    pattern: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of fn at x.

    ``pattern`` is an optional boolean (rows x columns) array marking the
    entries that may be nonzero.  Columns whose row sets do not overlap are
    stepped together and share one +/- pair of evaluations (Curtis, Powell
    & Reid 1974); each reads its own rows off the shared difference, and
    every entry outside the pattern is 0.  Without a pattern each column
    gets its own pair.
    """
    n = len(x)
    if pattern is None:
        groups = [[j] for j in range(n)]
    else:
        pattern = np.asarray(pattern, dtype=bool)
        groups = _column_groups(pattern)
    jac: np.ndarray | None = None
    for group in groups:
        hi = x.copy()
        lo = x.copy()
        hi[group] += step
        lo[group] -= step
        diff = (fn(hi) - fn(lo)) / (2.0 * step)
        if jac is None:
            jac = np.zeros((len(diff), n))
            if pattern is not None and pattern.shape != jac.shape:
                raise ValueError(f"pattern shape {pattern.shape} != {jac.shape}")
        for j in group:
            if pattern is None:
                jac[:, j] = diff
            else:
                jac[pattern[:, j], j] = diff[pattern[:, j]]
    return jac


def fd_jacobian(
    fp: FreeParams, problem: FitProblem, step: float = 1e-5
) -> np.ndarray:
    """d(residual)/d(log param), columns ordered as problem.param_names.

    The step is taken in log space, i.e. a relative step on the parameters
    themselves; parameters must sit strictly inside their bounds.  Columns
    are grouped by ``problem.jacobian_pattern``: 3 pairs of residual
    evaluations whatever the number of trees.
    """
    x = problem.pack(fp)
    lo, hi = problem.log_bounds()
    if np.any(x <= lo) or np.any(x >= hi):
        raise InfeasibleInit("parameters must lie strictly inside bounds")
    return central_jacobian(
        lambda v: residuals(problem.unpack(v), problem), x, step,
        problem.jacobian_pattern,
    )


@dataclass
class FitResult:
    params: FreeParams
    sse: float
    per_tree_sse: dict[str, float]
    iterations: int
    converged: bool
    degenerate_params: list[str]

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
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _per_tree_sse(fp: FreeParams, problem: FitProblem) -> dict[str, float]:
    out: dict[str, float] = {}
    offset = 0
    res = residuals(fp, problem)
    for ts, obs in zip(problem.targets, problem._observed):
        n = len(obs.measured)
        out[ts.tree_id] = float(np.sum(res[offset : offset + n] ** 2))
        offset += n
    return out


def _gauss_newton(
    fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    opts: FitOptions,
    pattern: np.ndarray,
) -> tuple[np.ndarray, float, int, bool]:
    x = np.clip(x0, lo, hi)
    r = fn(x)
    sse = float(r @ r)
    lam = opts.lambda0
    stall = 0
    it = 0
    while it < opts.max_iter:
        if sse <= opts.sse_floor:
            return x, sse, it, True
        it += 1
        jac = central_jacobian(fn, x, opts.fd_step, pattern)
        a = jac.T @ jac
        g = jac.T @ r
        scale = np.maximum(np.diag(a), 1e-12)
        improved = False
        while lam <= 1e12:
            try:
                dx = np.linalg.solve(a + lam * np.diag(scale), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = np.clip(x + dx, lo, hi)
            r_new = fn(x_new)
            sse_new = float(r_new @ r_new)
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
        stall = stall + 1 if rel < opts.rel_tol else 0
        if stall >= opts.stall_iters:
            return x, sse, it, True
        if not improved:
            lam = opts.lambda0
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
    """
    lo, hi = problem.log_bounds()
    x_init = problem.pack(init)
    if np.any(x_init < lo) or np.any(x_init > hi):
        bad = [
            problem.param_names[j]
            for j in range(len(x_init))
            if not lo[j] <= x_init[j] <= hi[j]
        ]
        raise InfeasibleInit(f"init outside bounds for {bad}")

    def fn(x: np.ndarray) -> np.ndarray:
        return residuals(problem.unpack(x), problem)

    rng = np.random.default_rng(options.seed)
    starts = [x_init]
    for _ in range(options.n_starts):
        starts.append(rng.uniform(lo, hi))

    best: tuple[np.ndarray, float, int, bool] | None = None
    for x0 in starts:
        x, sse, iters, converged = _gauss_newton(
            fn, x0, lo, hi, options, problem.jacobian_pattern
        )
        if best is None or sse < best[1]:
            best = (x, sse, iters, converged)

    x, sse, iters, converged = best
    fp = problem.unpack(x)
    jac = central_jacobian(fn, x, options.fd_step, problem.jacobian_pattern)
    norms = np.linalg.norm(jac, axis=0)
    degenerate = [
        problem.param_names[j] for j in range(len(norms)) if norms[j] < 1e-12
    ]
    return FitResult(
        params=fp,
        sse=sse,
        per_tree_sse=_per_tree_sse(fp, problem),
        iterations=iters,
        converged=converged,
        degenerate_params=degenerate,
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
