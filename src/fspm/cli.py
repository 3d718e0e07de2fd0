"""Batch command line front end.

Subcommands wire the pipeline stages together: ``ingest`` validates the four
measurement CSVs into a canonical tree document, ``classify-pa`` clusters
axes into physiological ages and emits the target series, ``estimate`` fits
the directly measurable parameters, ``simulate`` runs the growth engine,
``fit`` recovers the hidden parameters by multi-target least squares,
``export-skeleton`` writes 3-D geometry, and ``bench-substructure`` compares
the factorized engine against explicit expansion.

Exit codes: 0 success, 1 validation/usage error (bad input file, parameter
or option, or an output path that cannot be written), 2 convergence
failure, 3 runtime model failure (such as biomass to allocate with no sink
to take it, or a simulation failing inside the fit), each error reported in
one line.
Every command that exits 0 or 2 writes one manifest into the directory of
its outputs: ``run_manifest.json``, or ``<stem>.run_manifest.json`` beside
the tree ``<stem>.json`` of ``ingest`` and the skeleton ``<stem>.csv`` of
``export-skeleton``, so trees ingested or skeletons exported into one
directory keep one each.  ``main`` derives it from the flags as the command
resolved them (``ingest``'s tree id, the q0, rp and pc read from
``--hidden``): its inputs are the files :data:`INPUT_FLAGS` name, its config
hash covers the command and every other flag but a directory ``--out``.  It
also records the elapsed time, the process's peak resident memory and the
Python and numpy versions; outputs are written atomically (temp file +
rename) so failures leave nothing partial.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import resource
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import FitOptions, FitProblem, FreeParams, fit_hidden
from .direct_estim import DirectParams, estimate_direct_params
from .engine import (
    GrowthRules,
    HiddenParams,
    SimConfig,
    analytic_organ_count,
    simulate,
    simulate_factored,
)
from .errors import FspmError, ValidationError, _json_loads, _json_number, read_text, schema_errors
from .export import (
    export_fit_csv,
    export_organs_csv,
    export_skeleton,
    export_trace_csv,
)
from .ingest import (
    MeasurementSet,
    TargetSeries,
    build_target_series,
    parse_measurements,
    samples_by_gu,
    tree_from_json,
    tree_to_json,
)
from .pa_classify import classify_axes, pa_map_from_json, pa_map_to_json
from .topology import TreeTopology, with_physio_ages

logger = logging.getLogger(__name__)

LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far (children not counted)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes / KiB


# The flags that name an input file, by destination.
INPUT_FLAGS = frozenset({"axes", "gus", "internodes", "leaves", "tree", "pa_map", "params",
                         "hidden", "targets"})


def _run_record(args: argparse.Namespace) -> tuple[Path, list[str], dict]:
    """The manifest's path, inputs and config for ``args`` as the command
    resolved them: the inputs are the files :data:`INPUT_FLAGS` name, the
    config is ``command`` and every other flag but a directory ``--out``."""
    out = Path(args.out)
    inputs, config = [], {}
    for name, value in vars(args).items():
        if name in INPUT_FLAGS:
            inputs += value if isinstance(value, list) else [value] if value else []
        elif name not in ("func", "started", "out"):  # func and started are no flags
            config[name] = value
    if args.command in ("ingest", "export-skeleton"):  # --out names the one file written
        config["out"] = out.name
        return out.with_name(f"{out.stem}.run_manifest.json"), sorted(inputs), config
    return out / "run_manifest.json", sorted(inputs), config


def _write_manifest(args: argparse.Namespace) -> None:
    path, inputs, config = _run_record(args)
    normalized = json.dumps(config, sort_keys=True)
    manifest = {
        "command": args.command,
        "inputs": inputs,
        "config_hash": hashlib.sha256(normalized.encode()).hexdigest(),
        "seed": config.get("seed"),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": time.perf_counter() - args.started,
        "peak_rss_mb": _peak_rss_mb(),
        "python_version": "%d.%d.%d" % sys.version_info[:3],
        "numpy_version": np.__version__,
    }
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_tree(path: str):
    return tree_from_json(read_text(path), str(path))


def _classified(tree: str, pa_map: str):
    """The tree at ``tree`` with the PAs of the map at ``pa_map`` applied.

    Returns the classified topology and the tree's measurements.  A map
    that misses an axis, names one the tree lacks or gives the root a PA
    other than 1 fails with its own error class, the message prefixed with
    the map's path.
    """
    topology, ms = _load_tree(tree)
    pas = pa_map_from_json(read_text(pa_map), str(pa_map))
    try:
        return with_physio_ages(topology, pas), ms
    except ValidationError as exc:
        raise type(exc)(f"{pa_map}: {exc}") from None


def _classified_trees(args) -> list[tuple[TreeTopology, MeasurementSet]]:
    """:func:`_classified` of each ``--tree`` with its ``--pa-map``."""
    if len(args.tree) != len(args.pa_map):
        raise ValidationError("need one --pa-map per --tree")
    return [_classified(tree, pa_map) for tree, pa_map in zip(args.tree, args.pa_map)]


def _cmd_ingest(args) -> int:
    ms = parse_measurements(args.axes, args.gus, args.internodes, args.leaves)
    ids = ms.tree_ids()
    if args.tree_id is None:
        if len(ids) != 1:
            raise ValidationError(f"files contain trees {ids}; pick one with --tree-id")
        args.tree_id = ids[0]  # the manifest records the tree ingested
    elif args.tree_id not in ids:
        raise ValidationError(f"tree {args.tree_id!r} not in files (have {ids})")
    sub = ms.for_tree(args.tree_id)
    topology = sub.topology()
    out = Path(args.out)
    _atomic_write(out, tree_to_json(topology, sub))
    logger.info("wrote %s (%d axes, age %d)", out, len(topology.axes), topology.age)
    return 0


def _cmd_classify_pa(args) -> int:
    topology, ms = _load_tree(args.tree)
    samples = samples_by_gu(topology, ms.internodes, ms.leaves)  # read by both stages
    pa_map, _ = classify_axes(topology, samples, args.k)
    targets = build_target_series(samples, with_physio_ages(topology, pa_map))
    out = Path(args.out)
    _atomic_write(out / "pa_map.json", pa_map_to_json(pa_map))
    _atomic_write(out / "targets.json", targets.to_json())
    return 0


def _cmd_estimate(args) -> int:
    dp, diagnostics = estimate_direct_params(_classified_trees(args))
    out = Path(args.out)
    _atomic_write(out / "direct_params.json", dp.to_json())
    for pa, diag in sorted(diagnostics.items()):
        logger.info(
            "PA%d: sink p=%.4g (r2=%.4f, n=%d), allometry r2=%.4f (n=%d)",
            pa, dp.p_int[pa], diag["sink_r2"], int(diag["sink_n"]),
            diag["allometry_r2"], int(diag["allometry_n"]),
        )
    return 0


def _sim_config(args) -> SimConfig:
    return SimConfig(ring_mode=args.ring_mode, ring_demand=args.ring_demand)


def _hidden_from_args(args, tree_id: str) -> HiddenParams:
    """--q0/--rp/--pc, each one not given read from --hidden's fit result,
    whose q0 is read for tree ``tree_id``; set on ``args`` for the manifest."""
    if args.hidden:
        text = read_text(args.hidden)
        with schema_errors(args.hidden):
            doc = _json_loads(text)
            tree_q0 = {tid: _json_number(v, f"q0[{tid!r}]") for tid, v in doc["q0"].items()}
            file_rp, file_pc = _json_number(doc["rp"], "rp"), _json_number(doc["pc"], "pc")
        args.rp = file_rp if args.rp is None else args.rp
        args.pc = file_pc if args.pc is None else args.pc
        if args.q0 is None:
            if tree_id not in tree_q0:
                raise ValidationError(f"{args.hidden}: holds q0 for trees {sorted(tree_q0)}, "
                                      f"not for tree {tree_id!r}; pass --q0")
            args.q0 = tree_q0[tree_id]
    if None in (args.q0, args.rp, args.pc):
        raise ValidationError("give --hidden fit_result.json or all of --q0/--rp/--pc")
    return HiddenParams(q0=args.q0, rp=args.rp, pc=args.pc)


def _run_model(args, cycles: int | None = None):
    """Simulate the model ``_add_model_flags`` names; returns the classified
    topology and the trace."""
    classified, _ = _classified(args.tree, args.pa_map)
    dp = DirectParams.load(args.params)
    hp = _hidden_from_args(args, classified.tree_id)
    return classified, simulate(hp, dp, classified, _sim_config(args), cycles=cycles)


def _cmd_simulate(args) -> int:
    _, trace = _run_model(args, args.cycles)
    targets = TargetSeries.load(args.targets) if args.targets else None
    fit_csvs = {} if targets is None else export_fit_csv(trace, targets)
    out = Path(args.out)
    _atomic_write(out / "trace.csv", export_trace_csv(trace))
    _atomic_write(out / "organs.csv", export_organs_csv(trace))
    for name, text in fit_csvs.items():
        _atomic_write(out / f"{name}.csv", text)
    return 0


def _cmd_fit(args) -> int:
    trees = _classified_trees(args)
    if args.targets and len(args.targets) != len(args.tree):
        raise ValidationError("need one --targets per --tree when given")
    dp = DirectParams.load(args.params)
    if args.targets:
        targets = [TargetSeries.load(path) for path in args.targets]
    else:
        targets = [build_target_series(samples_by_gu(classified, ms.internodes, ms.leaves),
                                       classified) for classified, ms in trees]

    problem = FitProblem(targets=targets, topologies=[t for t, _ in trees], dp=dp,
                         cfg=_sim_config(args))
    init = FreeParams(
        q0={t.tree_id: args.init_q0 for t in targets},
        rp=args.init_rp, pc=args.init_pc,
    )
    options = FitOptions(seed=args.seed, n_starts=args.n_starts)
    result = fit_hidden(problem, init, options)
    out = Path(args.out)
    _atomic_write(out / "fit_result.json", result.to_json())
    logger.info("fit: sse=%.6g converged=%s iterations=%d",
                result.sse, result.converged, result.iterations)
    if result.degenerate_params:
        logger.warning("unidentifiable parameters: %s", result.degenerate_params)
    if result.at_bound:
        logger.warning("parameters on a bound: %s", result.at_bound)
    return 0 if result.converged else 2


def _cmd_export_skeleton(args) -> int:
    classified, trace = _run_model(args)
    _atomic_write(Path(args.out), export_skeleton(trace, classified, args.seed))
    return 0


def _cmd_bench(args) -> int:
    rules = GrowthRules(p_max=args.pmax, internodes_per_gu=args.internodes_per_gu,
                        branches_per_gu=args.branching)
    dp = DirectParams(
        p_int={pa: 0.6 for pa in range(1, args.pmax + 1)},
        allometry={pa: (5.0, 0.3) for pa in range(1, args.pmax + 1)},
        slw=0.03,
    )
    hp = HiddenParams(q0=args.q0, rp=args.rp, pc=args.pc)
    organ_count = analytic_organ_count(rules, args.cycles)

    t0 = time.perf_counter()
    trace = simulate_factored(hp, dp, rules, args.cycles)
    factored_seconds = time.perf_counter() - t0

    report = {
        "age": args.cycles,
        "p_max": args.pmax,
        "branching": args.branching,
        "internodes_per_gu": args.internodes_per_gu,
        "organ_count_analytic": organ_count,
        "cohorts": len(trace.cohorts),
        "factored_seconds": factored_seconds,
        "total_mass_g": trace.total_mass(),
    }
    out = Path(args.out)
    _atomic_write(out / "bench.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"factored: {organ_count} organs as {len(trace.cohorts)} cohorts "
        f"in {factored_seconds:.3f}s"
    )
    return 0


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring-mode", choices=["uniform", "pipe"], default="uniform")
    p.add_argument("--ring-demand", choices=["per-blade", "constant"],
                   default="per-blade")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """The tree, its PA map, the direct and hidden parameters, the engine."""
    p.add_argument("--tree", required=True)
    p.add_argument("--pa-map", required=True)
    p.add_argument("--params", required=True, help="direct_params.json")
    p.add_argument("--hidden", default=None, help="fit_result.json")
    p.add_argument("--q0", type=float, default=None)
    p.add_argument("--rp", type=float, default=None)
    p.add_argument("--pc", type=float, default=None)
    _add_engine_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fspm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate measurement CSVs into tree.json")
    p.add_argument("--axes", required=True)
    p.add_argument("--gus", required=True)
    p.add_argument("--internodes", required=True)
    p.add_argument("--leaves", required=True)
    p.add_argument("--tree-id", default=None)
    p.add_argument("--out", required=True, help="output tree.json path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("classify-pa", help="cluster axes into physiological ages")
    p.add_argument("--tree", required=True)
    p.add_argument("--k", type=int, default=5, help="number of PA classes")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_classify_pa)

    p = sub.add_parser("estimate", help="fit sinks, allometry and SLW")
    p.add_argument("--tree", action="append", required=True,
                   help="tree.json; repeat to pool trees")
    p.add_argument("--pa-map", action="append", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="run the growth engine on a tree")
    _add_model_flags(p)
    p.add_argument("--cycles", type=int, default=None)
    p.add_argument("--targets", default=None,
                   help="targets.json; also writes measured-vs-simulated CSVs")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="multi-target hidden parameter fit")
    p.add_argument("--tree", action="append", required=True)
    p.add_argument("--pa-map", action="append", required=True)
    p.add_argument("--targets", action="append", default=None,
                   help="per-tree targets.json (default: build from tree.json)")
    p.add_argument("--params", required=True, help="direct_params.json")
    p.add_argument("--init-q0", type=float, default=10.0)
    p.add_argument("--init-rp", type=float, default=5.0)
    p.add_argument("--init-pc", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-starts", type=int, default=8)
    _add_engine_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("export-skeleton", help="write 3-D line-segment geometry")
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output skeleton.csv path")
    p.set_defaults(func=_cmd_export_skeleton)

    p = sub.add_parser("bench-substructure",
                       help="factorized-engine benchmark on generated rules")
    p.add_argument("--cycles", type=int, default=30, help="tree age to simulate")
    p.add_argument("--pmax", type=int, default=5)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--internodes-per-gu", type=int, default=1)
    p.add_argument("--q0", type=float, default=10.0)
    p.add_argument("--rp", type=float, default=5.0)
    p.add_argument("--pc", type=float, default=0.1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_bench)

    return parser


# main's parser, built on its first call: a parse leaves no state in it.
_main_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    level = LOG_LEVELS.get(os.environ.get("FSPM_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig configures only the first call in a process; FSPM_LOG
    # applies to every call.
    logging.getLogger("fspm").setLevel(level)
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.started = time.perf_counter()
    try:
        code = args.func(args)  # 0, or 2 for a fit that did not converge
        _write_manifest(args)
        return code
    # OSError: an input that cannot be read or an --out that cannot be written.
    except (ValidationError, OSError) as exc:
        print(f"fspm {args.command}: {exc}", file=sys.stderr)
        return 1
    except FspmError as exc:  # a model failure at run time, not bad input
        print(f"fspm {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
