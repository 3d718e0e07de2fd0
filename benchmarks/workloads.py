"""The three benchmark workloads.

Each workload builds its inputs in ``setup`` (timed as ``setup_s``) and has
a list of ``units``; ``run(out, unit)`` does one unit of work.  A pass runs
every unit once; every pass of a run does the same work.  ``run`` returns
one boolean per operation: True when the operation exited as expected and
every check on its output held.  Every call into fspm goes through a module attribute
looked up at call time, so the tracer's wrappers see it.
"""
from __future__ import annotations

import json
import math
import shutil
import traceback
from pathlib import Path

import largetree

REPO = Path(__file__).resolve().parent.parent
GROVE = REPO / "tests" / "data" / "grove"


def _cli(argv) -> int:
    """Run one command in-process; an uncaught exception counts as exit 1."""
    import fspm.cli

    try:
        return fspm.cli.main([str(a) for a in argv])
    except Exception:
        traceback.print_exc()
        return 1


def _ingest_args(src: Path, tree_id: str, out: Path) -> list:
    return ["ingest", "--axes", src / "axes.csv", "--gus", src / "gus.csv",
            "--internodes", src / "internodes.csv", "--leaves", src / "leaves.csv",
            "--tree-id", tree_id, "--out", out]


def _data_rows(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _internodes_in(tree_json: Path) -> int:
    doc = json.loads(tree_json.read_text(encoding="utf-8"))
    return sum(gu["internode_count"] for axis in doc["axes"] for gu in axis["gus"])


def _root_of(tree_json: Path) -> str:
    doc = json.loads(tree_json.read_text(encoding="utf-8"))
    return next(a["axis_id"] for a in doc["axes"] if a["parent_axis_id"] is None)


class RoundtripFit:
    """The acceptance round trip: noiseless engine-made targets on four trees.

    A unit is one fit from the doubled init; the units are the fit seeds
    ``2 * seed`` and ``2 * seed + 1``.  The work of one fit depends on where
    its random starts land: fit seeds 0-19 make 7,304-9,836 ``simulate``
    calls, a quartile spread of 13% of the median, and the pairs that
    workload seeds 0-9 run make 15,240-17,752, a spread of 10%.  Two fits
    per pass narrow the spread of ``wall_s`` that comes from the inputs and
    still leave room for two or three passes in a run.  At seed 0 the first
    unit is exactly the acceptance test's fit.
    """

    name = "roundtrip-fit"
    TRUE_Q0 = {"tree1": 14.23, "tree2": 0.97, "tree3": 47.23, "tree4": 10.94}
    TRUE_RP, TRUE_PC = 6.4319, 0.13882
    AGES = (3, 4, 5, 6)
    FITS = 2

    def __init__(self, small: bool = False) -> None:
        self.fits = 1 if small else self.FITS
        self.n_starts = 1 if small else 8

    def setup(self, seed: int, work: Path) -> dict:
        import fspm

        self.dp = fspm.DirectParams(
            p_int={1: 0.561, 2: 0.726, 3: 0.858},
            allometry={1: (5.0, 0.3), 2: (7.0, 0.35), 3: (9.0, 0.4)},
            slw=0.0287,
        )
        rules = fspm.GrowthRules(p_max=3, internodes_per_gu=2, branches_per_gu=1)
        self.topologies, self.targets = [], []
        for (tid, q0), age in zip(self.TRUE_Q0.items(), self.AGES):
            topo = fspm.generate_topology(rules, age, tid)
            trace = fspm.simulate(fspm.HiddenParams(q0, self.TRUE_RP, self.TRUE_PC), self.dp, topo)
            self.topologies.append(topo)
            self.targets.append(fspm.targets_from_trace(trace, self.dp))
        self.init = fspm.FreeParams(
            q0={tid: 2 * v for tid, v in self.TRUE_Q0.items()},
            rp=2 * self.TRUE_RP, pc=2 * self.TRUE_PC,
        )
        self.units = [self.FITS * seed + j for j in range(self.fits)]
        return {"fit_seeds": self.units, "n_starts": self.n_starts}

    def run(self, out: Path, fit_seed: int) -> list[bool]:
        import fspm

        problem = fspm.FitProblem(targets=self.targets, topologies=self.topologies, dp=self.dp)
        try:
            result = fspm.fit_hidden(
                problem, self.init, fspm.FitOptions(seed=fit_seed, n_starts=self.n_starts)
            )
        except Exception:
            traceback.print_exc()
            return [False]
        (out / f"fit_result_{fit_seed}.json").write_text(result.to_json(), encoding="utf-8")
        p = result.params
        return [
            result.converged
            and math.isclose(p.rp, self.TRUE_RP, rel_tol=0.01)
            and math.isclose(p.pc, self.TRUE_PC, rel_tol=0.01)
            and all(math.isclose(p.q0[t], q0, rel_tol=0.02) for t, q0 in self.TRUE_Q0.items())
        ]


class GrovePipeline:
    """The README command sequence on the committed grove fixtures.

    The fixture is fixed, so this workload ignores the seed.  The fit is one
    start on formula-made targets: it runs its whole iteration budget and
    exits 2, the documented result.  The one unit is the whole batch.
    """

    name = "grove-pipeline"
    TREES = ("P1", "P2", "P3", "P4")
    units = [None]

    def __init__(self, small: bool = False) -> None:
        pass

    def setup(self, seed: int, work: Path) -> dict:
        import fspm.cli  # noqa: F401  (import cost belongs to set-up)

        self.src = work / "grove"
        shutil.rmtree(self.src, ignore_errors=True)
        shutil.copytree(GROVE, self.src)
        return {}

    def run(self, out: Path, unit=None) -> list[bool]:
        ops = []

        def stage(argv, check, expect=0) -> None:
            ops.append(_cli(argv) == expect and check())

        tree_args = []
        for tid in self.TREES:
            tree = out / f"{tid}.json"
            stage(_ingest_args(self.src, tid, tree), check=tree.exists)
            stage(["classify-pa", "--tree", tree, "--k", 3, "--out", out / f"cls_{tid}"],
                  check=(out / f"cls_{tid}" / "targets.json").exists)
            tree_args += ["--tree", tree, "--pa-map", out / f"cls_{tid}" / "pa_map.json"]
        params = out / "est" / "direct_params.json"
        stage(["estimate", *tree_args, "--out", out / "est"], check=params.exists)

        fit_result = out / "fit" / "fit_result.json"

        def finite_sse() -> bool:
            return math.isfinite(json.loads(fit_result.read_text(encoding="utf-8"))["sse"])

        stage(["fit", *tree_args, "--params", params, "--seed", 0, "--n-starts", 0,
               "--out", out / "fit"], expect=2, check=finite_sse)

        tree, pa_map = out / "P2.json", out / "cls_P2" / "pa_map.json"
        stage(["simulate", "--tree", tree, "--pa-map", pa_map, "--params", params,
               "--hidden", fit_result, "--q0", 12, "--targets", out / "cls_P2" / "targets.json",
               "--out", out / "sim_P2"],
              check=lambda: _data_rows(out / "sim_P2" / "organs.csv") == 2 * _internodes_in(tree))
        skeleton = out / "P2_skeleton.csv"
        stage(["export-skeleton", "--tree", tree, "--pa-map", pa_map, "--params", params,
               "--q0", 12, "--rp", 6.4, "--pc", 0.14, "--seed", 7, "--out", skeleton],
              check=lambda: _data_rows(skeleton) == _internodes_in(tree))
        return ops


class LargeTree:
    """A measured-scale batch on two generated trees, pipe ring mode.

    The generator in ``largetree`` writes the four CSVs from the seed alone.
    Never calls ``calibrate``.  The one unit is the whole batch.
    """

    name = "large-tree"
    units = [None]
    HIDDEN = ["--q0", 12, "--rp", 6.4, "--pc", 0.14]
    BENCH = {"cycles": 30, "pmax": 5, "branching": 2}

    def __init__(self, small: bool = False) -> None:
        self.trees = (("L1", 6), ("L2", 5)) if small else largetree.TREES

    def setup(self, seed: int, work: Path) -> dict:
        import fspm.cli  # noqa: F401  (import cost belongs to set-up)

        self.src = work / "large"
        shutil.rmtree(self.src, ignore_errors=True)
        checksum = largetree.write(self.src, seed, self.trees)
        self.internodes = {tid: largetree.internode_count(age) for tid, age in self.trees}
        self.bench_organs = 2 * largetree.internode_count(
            self.BENCH["cycles"], self.BENCH["pmax"], 1, self.BENCH["branching"])
        return {"csv_sha256": checksum, "internodes": self.internodes}

    def run(self, out: Path, unit=None) -> list[bool]:
        ops = []

        def stage(argv, check) -> None:
            ops.append(_cli(argv) == 0 and check())

        tree_args = []
        for tid, _ in self.trees:
            tree = out / f"{tid}.json"
            cls = out / f"cls_{tid}"
            stage(_ingest_args(self.src, tid, tree), check=tree.exists)

            def root_is_pa1() -> bool:
                pa_map = json.loads((cls / "pa_map.json").read_text(encoding="utf-8"))
                return pa_map[_root_of(tree)] == 1

            stage(["classify-pa", "--tree", tree, "--k", 4, "--out", cls], check=root_is_pa1)
            tree_args += ["--tree", tree, "--pa-map", cls / "pa_map.json"]
        params = out / "est" / "direct_params.json"
        stage(["estimate", *tree_args, "--out", out / "est"], check=params.exists)

        for tid, _ in self.trees:
            n = self.internodes[tid]
            tree, cls = out / f"{tid}.json", out / f"cls_{tid}"
            common = ["--tree", tree, "--pa-map", cls / "pa_map.json", "--params", params,
                      *self.HIDDEN, "--ring-mode", "pipe"]
            stage(["simulate", *common, "--targets", cls / "targets.json", "--out", out / f"sim_{tid}"],
                  check=lambda: _data_rows(out / f"sim_{tid}" / "organs.csv") == 2 * n)
            skeleton = out / f"{tid}_skeleton.csv"
            stage(["export-skeleton", *common, "--seed", 7, "--out", skeleton],
                  check=lambda: _data_rows(skeleton) == n)

        def organ_count() -> bool:
            doc = json.loads((out / "bench" / "bench.json").read_text(encoding="utf-8"))
            return doc["organ_count_analytic"] == self.bench_organs

        stage(["bench-substructure", "--cycles", self.BENCH["cycles"], "--pmax", self.BENCH["pmax"],
               "--branching", self.BENCH["branching"], "--out", out / "bench"], check=organ_count)
        return ops


WORKLOADS = {w.name: w for w in (RoundtripFit, GrovePipeline, LargeTree)}


def artifacts(out: Path) -> dict[str, bytes]:
    """Output files whose bytes must not depend on tracing."""
    names = ("fit_result*.json", "*_skeleton.csv", "fit/fit_result.json")
    return {str(p.relative_to(out)): p.read_bytes() for pat in names for p in sorted(out.glob(pat))}

