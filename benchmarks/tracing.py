"""Spans around the public functions of every fspm layer, and the per-layer
metrics computed from them.

The tracer replaces each traced function at every module attribute that
holds it (so re-exports such as ``fspm.calibrate.simulate`` or
``fspm.cli.simulate`` are covered), plus two methods on their classes.
Nothing in the package is edited; ``Tracer.installed`` restores the
originals on exit.  Each call appends one span ``[id, parent, name, start,
end, info]`` to an in-memory list; ``info`` is a small count taken from the
call's arguments or result.  Start and end are read from the clock the
tracer is given: the harness passes one that leaves out its host-speed
probes.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

LAYERS = ("ingest", "topology", "pa_classify", "direct_estim", "engine",
          "calibrate", "export", "cli")
CLI_COMMANDS = ("ingest", "classify-pa", "estimate", "fit", "simulate",
                "export-skeleton", "bench-substructure")


def _csv_bytes(text) -> int:
    if isinstance(text, dict):
        return sum(len(t) for t in text.values())
    return len(text)


def _sim_info(args, kwargs, out):
    return [out.tree_id, len(out.organs)]


def _sim_label(args, kwargs) -> str:
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    return "engine.simulate." + getattr(cfg, "ring_mode", "uniform")


def _factored_info(args, kwargs, out):
    organs = sum(c.n_internodes + c.n_blades for c in out.cohorts.values())
    return [len(out.cohorts), organs]


def _rows_info(args, kwargs, out):
    return len(out.axes) + len(out.gus) + len(out.internodes) + len(out.leaves)


def _cluster_info(args, kwargs, out):
    return len(out.assignments)


# module name -> {function name: info(args, kwargs, result) or None}
FUNCTIONS = {
    "topology": {"build_topology": None, "with_physio_ages": None,
                 "organ_census": None, "generate_topology": None},
    "ingest": {"parse_measurements": _rows_info, "build_target_series": None,
               "tree_to_json": None, "tree_from_json": None},
    "pa_classify": {"classify_axes": None, "top_internode_weight": None,
                    "cluster_1d": _cluster_info, "assign_pa": None},
    "direct_estim": {"estimate_direct_params": None, "fit_sink_ratio": None,
                     "fit_allometry": None, "estimate_slw": None},
    "engine": {"simulate": _sim_info, "simulate_factored": _factored_info,
               "analytic_organ_count": None, "cohort_counts": None},
    "calibrate": {"fit_hidden": None, "residuals": None, "central_jacobian": None,
                  "fd_jacobian": None, "targets_from_trace": None},
    "export": {"export_skeleton": lambda a, k, out: out.count("\n") - 1,
               "build_skeleton": None,
               "export_trace_csv": lambda a, k, out: _csv_bytes(out),
               "export_organs_csv": lambda a, k, out: _csv_bytes(out),
               "export_fit_csv": lambda a, k, out: _csv_bytes(out)},
}
# (module, class, method, span name)
METHODS = (
    ("topology", "TreeTopology", "children_of", "topology.children_of"),
    ("calibrate", "FitProblem", "__post_init__", "calibrate.problem"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def _wrap(self, name, fn, info=None, label=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else label(args, kwargs)
            span = [len(spans), stack[-1] if stack else -1, span_name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper, at every attribute that holds it."""
        pkg = sys.modules["fspm"]
        wrapper_of = {}
        for mod_name, funcs in FUNCTIONS.items():
            mod = sys.modules[f"fspm.{mod_name}"]
            for fn_name, info in funcs.items():
                fn = getattr(mod, fn_name)
                label = _sim_label if fn_name == "simulate" else None
                wrapper_of[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn, info, label)
        cli = sys.modules["fspm.cli"]
        wrapper_of[id(cli.main)] = self._wrap(None, cli.main, label=lambda a, k: "cli." + a[0][0])

        patched = []  # (owner, attribute, original)
        modules = [pkg] + [m for n, m in sys.modules.items() if n.startswith("fspm.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapper_of:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper_of[id(value)])
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"fspm.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span_name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def _scaling(pairs) -> float:
    """Time per unit of the largest input over that of the smallest.

    ``pairs`` are (size, seconds) per input; 1.0 means linear work.  Reported
    as 0.0 (not measured) unless the largest input is at least twice the
    smallest.
    """
    if not pairs:
        return 0.0
    small = min(pairs)
    large = max(pairs)
    if large[0] < 2 * small[0]:
        return 0.0
    return (large[1] / large[0]) / (small[1] / small[0])


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0.0 where a layer was not exercised."""
    dur = [s[4] - s[3] for s in spans]
    child_s = [0.0] * len(spans)
    top_s = 0.0
    for s, d in zip(spans, dur):
        if s[1] < 0:
            top_s += d
        else:
            child_s[s[1]] += d

    def self_s(i: int) -> float:
        return dur[i] - child_s[i]

    def ancestors(i: int):
        p = spans[i][1]
        while p >= 0:
            yield spans[p][2]
            p = spans[p][1]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[2], []).append(i)

    def total(*names) -> float:
        return sum(dur[i] for n in names for i in by_name.get(n, []))

    def calls(name) -> int:
        return len(by_name.get(name, []))

    def infos(*names) -> list:
        """The recorded counts of the named spans (none for a call that raised)."""
        return [spans[i][5] for n in names for i in by_name.get(n, []) if spans[i][5] is not None]

    def sized(name) -> list[tuple[int, float]]:
        return [(spans[i][5], dur[i]) for i in by_name.get(name, []) if spans[i][5] is not None]

    def mean_ms(name) -> float:
        n = calls(name)
        return 1000.0 * total(name) / n if n else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            self_s(i) for i, s in enumerate(spans) if s[2].split(".")[0] == layer
        )

    # calibrate
    sims = by_name.get("engine.simulate.uniform", []) + by_name.get("engine.simulate.pipe", [])
    sims_in_fit = sum(1 for i in sims if "calibrate.fit_hidden" in ancestors(i))
    sims_in_jac = sum(1 for i in sims if "calibrate.central_jacobian" in ancestors(i))
    jacobians = calls("calibrate.central_jacobian")
    m["calibrate.fit_s"] = total("calibrate.fit_hidden")
    m["calibrate.problem_s"] = total("calibrate.problem")
    m["calibrate.jacobians"] = jacobians
    m["calibrate.jacobian_ms"] = mean_ms("calibrate.central_jacobian")
    m["calibrate.residuals_calls"] = calls("calibrate.residuals")
    m["calibrate.residuals_ms"] = mean_ms("calibrate.residuals")
    m["calibrate.trial_steps"] = sum(
        1 for i in by_name.get("calibrate.residuals", [])
        if spans[i][1] < 0 or spans[spans[i][1]][2] != "calibrate.central_jacobian"
    )
    # Every Gauss-Newton iteration takes one Jacobian; each fit adds one more
    # at the optimum for its identifiability check.
    m["calibrate.iterations"] = jacobians - calls("calibrate.fit_hidden")
    m["calibrate.sims_per_jacobian"] = sims_in_jac / jacobians if jacobians else 0.0
    m["calibrate.sims_in_jacobian_share"] = sims_in_jac / sims_in_fit if sims_in_fit else 0.0

    # engine
    internodes = sum(n for _, n in infos("engine.simulate.uniform", "engine.simulate.pipe"))
    pipe_internodes = sum(n for _, n in infos("engine.simulate.pipe"))
    per_tree: dict[str, list[float]] = {}
    for i in by_name.get("engine.simulate.pipe", []):
        if spans[i][5] is not None:
            acc = per_tree.setdefault(spans[i][5][0], [0, 0.0])
            acc[0] += spans[i][5][1]
            acc[1] += dur[i]
    m["engine.simulate_calls"] = len(sims)
    m["engine.simulate_uniform_s"] = total("engine.simulate.uniform")
    m["engine.internodes_per_call"] = internodes / len(sims) if sims else 0.0
    m["engine.simulate_pipe_s"] = total("engine.simulate.pipe")
    m["engine.pipe_us_per_internode"] = (
        1e6 * m["engine.simulate_pipe_s"] / pipe_internodes if pipe_internodes else 0.0
    )
    m["engine.pipe_scaling"] = _scaling([tuple(v) for v in per_tree.values()])
    m["engine.factored_s"] = total("engine.simulate_factored")
    m["engine.factored_cohorts"] = sum(c for c, _ in infos("engine.simulate_factored"))
    m["engine.factored_organs"] = sum(o for _, o in infos("engine.simulate_factored"))

    # topology
    m["topology.build_s"] = total("topology.build_topology")
    m["topology.children_of_calls"] = calls("topology.children_of")
    m["topology.organ_census_calls"] = calls("topology.organ_census")

    # pa_classify
    m["pa_classify.cluster_s"] = total("pa_classify.cluster_1d")
    m["pa_classify.cluster_n"] = sum(infos("pa_classify.cluster_1d"))
    m["pa_classify.cluster_scaling"] = _scaling(sized("pa_classify.cluster_1d"))

    # ingest and direct_estim
    m["ingest.parse_s"] = total("ingest.parse_measurements")
    m["ingest.rows"] = sum(infos("ingest.parse_measurements"))
    m["ingest.tree_json_s"] = total("ingest.tree_to_json", "ingest.tree_from_json")
    m["ingest.targets_s"] = total("ingest.build_target_series")
    m["direct_estim.estimate_s"] = total("direct_estim.estimate_direct_params")

    # export
    csv_names = ("export.export_trace_csv", "export.export_organs_csv", "export.export_fit_csv")
    m["export.skeleton_s"] = total("export.export_skeleton")
    m["export.segments"] = sum(infos("export.export_skeleton"))
    m["export.skeleton_scaling"] = _scaling(sized("export.export_skeleton"))
    m["export.csv_s"] = total(*csv_names)
    m["export.csv_bytes"] = sum(infos(*csv_names))

    # cli
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd.replace('-', '_')}_s"] = total(f"cli.{cmd}")

    m["trace.wall_s"] = wall_s
    m["trace.uncovered_s"] = wall_s - top_s
    m["trace.spans"] = len(spans)
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes (counts repeat exactly)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}

