import hashlib
import importlib
import json
import logging
import re
from pathlib import Path

import pytest

from fspm import (
    DirectParams,
    GrowthRules,
    HiddenParams,
    generate_topology,
    simulate,
    targets_from_trace,
    tree_to_json,
)
from fspm import calibrate
from fspm.cli import main
from fspm.errors import SimulationFailed, ValidationError, ZeroDemandWithBiomass
from fspm.ingest import (MAX_CYCLE, MAX_INTERNODES_PER_GU, MeasurementSet, TargetSeries,
                         tree_from_json)
from fspm.pa_classify import pa_map_from_json, pa_map_to_json
from fspm.topology import DEFAULT_P_MAX
from test_ingest import LAYOUTS, with_layout

DATA = Path(__file__).parent / "data"
SINGLE = DATA / "single"
GROVE = DATA / "grove"


def run(*argv):
    return main([str(a) for a in argv])


def edited_trees(src, dst, edit):
    """The tree document at ``src`` with ``edit`` applied to its
    measurements as rows, written in each layout of the measurement tables
    as ``dst/<layout>/<name of src>``.  Returns the edited document and the
    file of each layout."""
    doc = with_layout(json.loads(Path(src).read_text()), "rows")
    edit(doc)
    paths = {}
    for layout in LAYOUTS:
        paths[layout] = Path(dst) / layout / Path(src).name
        paths[layout].parent.mkdir(parents=True, exist_ok=True)
        paths[layout].write_text(json.dumps(with_layout(doc, layout)))
    return doc, paths


def ingest_args(src, out, tree_id=None):
    args = ["ingest", "--axes", src / "axes.csv", "--gus", src / "gus.csv",
            "--internodes", src / "internodes.csv", "--leaves", src / "leaves.csv",
            "--out", out]
    if tree_id:
        args += ["--tree-id", tree_id]
    return args


class TestIngest:
    def test_golden_file(self, tmp_path):
        out = tmp_path / "tree.json"
        assert run(*ingest_args(SINGLE, out)) == 0
        golden = (DATA / "golden" / "tree.json").read_bytes()
        assert out.read_bytes() == golden
        manifest = json.loads((tmp_path / "tree.run_manifest.json").read_text())
        assert manifest["command"] == "ingest"

    def test_unknown_flag_exits_1(self, capsys):
        assert run("ingest", "--nonsense") == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_file_exits_1_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "internodes.csv"
        bad.write_text(
            "tree_id,axis_id,gu_ca,rank_in_gu,fresh_weight_g,length_cm,diameter_mm\n"
            "T1,A1,1,1,-5.0,1.0,1.0\n"
        )
        out = tmp_path / "tree.json"
        code = run("ingest", "--axes", SINGLE / "axes.csv", "--gus", SINGLE / "gus.csv",
                   "--internodes", bad, "--leaves", SINGLE / "leaves.csv", "--out", out)
        assert code == 1
        assert not out.exists()
        assert "fresh_weight_g" in capsys.readouterr().err

    def test_multi_tree_needs_tree_id(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        assert run(*ingest_args(GROVE, out)) == 1
        assert "tree-id" in capsys.readouterr().err.replace("_", "-")
        assert run(*ingest_args(GROVE, out, tree_id="P2")) == 0
        assert json.loads(out.read_text())["tree_id"] == "P2"

    def test_idempotent_outputs(self, tmp_path):
        out1 = tmp_path / "a" / "tree.json"
        out2 = tmp_path / "b" / "tree.json"
        assert run(*ingest_args(SINGLE, out1)) == 0
        assert run(*ingest_args(SINGLE, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "a" / "tree.run_manifest.json").read_text())
        m2 = json.loads((tmp_path / "b" / "tree.run_manifest.json").read_text())
        for run_dependent in ("timestamp", "elapsed_s", "peak_rss_mb"):
            m1.pop(run_dependent)
            m2.pop(run_dependent)
        assert m1 == m2

    def test_trees_in_one_directory_keep_a_manifest_each(self, tmp_path):
        for tree_id in ("P1", "P2"):
            assert run(*ingest_args(GROVE, tmp_path / f"{tree_id}.json", tree_id)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "P1.json", "P1.run_manifest.json", "P2.json", "P2.run_manifest.json",
        ]
        for tree_id in ("P1", "P2"):
            manifest = json.loads((tmp_path / f"{tree_id}.run_manifest.json").read_text())
            config = {"command": "ingest", "tree_id": tree_id, "out": f"{tree_id}.json"}
            digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
            assert manifest["config_hash"] == digest


class TestClassifyAndTargets:
    def test_golden_pa_map_and_targets(self, tmp_path):
        tree = tmp_path / "tree.json"
        assert run(*ingest_args(SINGLE, tree)) == 0
        out = tmp_path / "cls"
        assert run("classify-pa", "--tree", tree, "--k", 3, "--out", out) == 0
        assert (out / "pa_map.json").read_bytes() == (DATA / "golden" / "pa_map.json").read_bytes()
        assert (out / "targets.json").read_bytes() == (DATA / "golden" / "targets.json").read_bytes()


@pytest.fixture(scope="module")
def grove_pipeline(tmp_path_factory):
    """ingest + classify + estimate across the four grove trees."""
    base = tmp_path_factory.mktemp("grove_run")
    trees = {}
    for tid in ("P1", "P2", "P3", "P4"):
        tree = base / f"{tid}.json"
        assert run(*ingest_args(GROVE, tree, tree_id=tid)) == 0
        cls = base / f"cls_{tid}"
        assert run("classify-pa", "--tree", tree, "--k", 3, "--out", cls) == 0
        trees[tid] = (tree, cls / "pa_map.json", cls / "targets.json")
    est = base / "est"
    args = ["estimate", "--out", est]
    for tree, pa, _ in trees.values():
        args += ["--tree", tree, "--pa-map", pa]
    assert run(*args) == 0
    return base, trees, est / "direct_params.json"


class TestGrovePipeline:
    def test_estimated_params_match_generators(self, grove_pipeline):
        _, _, params = grove_pipeline
        dp = DirectParams.load(params)
        # Grove internode/blade masses were laid down at ratio p per PA.
        assert dp.p_int[1] == pytest.approx(0.56, rel=0.01)
        assert dp.p_int[2] == pytest.approx(0.73, rel=0.01)
        assert dp.p_int[3] == pytest.approx(0.86, rel=0.01)
        assert dp.slw == pytest.approx(0.0287, rel=0.01)

    def test_simulate_outputs(self, grove_pipeline):
        base, trees, params = grove_pipeline
        tree, pa_map, targets = trees["P1"]
        out = base / "sim_P1"
        code = run("simulate", "--tree", tree, "--pa-map", pa_map,
                   "--params", params, "--q0", 12.0, "--rp", 6.4, "--pc", 0.14,
                   "--targets", targets, "--out", out)
        assert code == 0
        for name in ("trace.csv", "organs.csv", "diameter_per_gu.csv",
                     "mass_per_gu.csv", "cum_internode.csv", "cum_blade.csv",
                     "run_manifest.json"):
            assert (out / name).exists()

    def test_skeleton_deterministic(self, grove_pipeline):
        base, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        out1 = base / "sk1.csv"
        out2 = base / "sk2.csv"
        for out in (out1, out2):
            code = run("export-skeleton", "--tree", tree, "--pa-map", pa_map,
                       "--params", params, "--q0", 12.0, "--rp", 6.4, "--pc", 0.14,
                       "--seed", 7, "--out", out)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--q0", 9.0), ("--rp", 3.2), ("--pc", 0.3)])
    def test_command_line_value_wins_over_hidden(self, grove_pipeline, tmp_path, flag, value):
        # The flag replaces the fit result's value; the other two still come
        # from the file, so the run equals one given all three on the line.
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        hidden = tmp_path / "fit_result.json"
        hidden.write_text('{"q0": {"P2": 12.0}, "rp": 6.4, "pc": 0.14}')
        explicit = {"--q0": 12.0, "--rp": 6.4, "--pc": 0.14, flag: value}
        runs = {"hidden": ["--hidden", hidden, flag, value],
                "explicit": [cell for pair in explicit.items() for cell in pair]}
        common = ["--tree", tree, "--pa-map", pa_map, "--params", params]
        for name, hidden_args in runs.items():
            assert run("simulate", *common, *hidden_args, "--out", tmp_path / name) == 0
            assert run("export-skeleton", *common, *hidden_args, "--seed", 7,
                       "--out", tmp_path / f"{name}_skeleton" / "skeleton.csv") == 0
        for manifest in ("{}/run_manifest.json", "{}_skeleton/skeleton.run_manifest.json"):
            manifests = [json.loads((tmp_path / manifest.format(name)).read_text())
                         for name in runs]
            assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
        for name in ("trace.csv", "organs.csv"):
            assert (tmp_path / "hidden" / name).read_bytes() == \
                (tmp_path / "explicit" / name).read_bytes()
        assert (tmp_path / "hidden_skeleton" / "skeleton.csv").read_bytes() == \
            (tmp_path / "explicit_skeleton" / "skeleton.csv").read_bytes()

    def test_skeleton_manifest_records_hidden_parameters(self, grove_pipeline, tmp_path):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        hashes = []
        for pc in (0.14, 0.15):
            out = tmp_path / f"pc{pc}"
            assert run("export-skeleton", "--tree", tree, "--pa-map", pa_map, "--params", params,
                       "--q0", 12.0, "--rp", 6.4, "--pc", pc, "--out", out / "skeleton.csv") == 0
            manifest = json.loads((out / "skeleton.run_manifest.json").read_text())
            hashes.append(manifest["config_hash"])
        assert hashes[0] != hashes[1]

    def test_skeletons_in_one_directory_keep_a_manifest_each(self, grove_pipeline, tmp_path):
        _, trees, params = grove_pipeline
        for seed, tree_id in enumerate(("P1", "P2")):
            tree, pa_map, _ = trees[tree_id]
            assert run("export-skeleton", "--tree", tree, "--pa-map", pa_map, "--params", params,
                       "--q0", 12.0, "--rp", 6.4, "--pc", 0.14, "--seed", seed,
                       "--out", tmp_path / f"{tree_id}_skeleton.csv") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "P1_skeleton.csv", "P1_skeleton.run_manifest.json",
            "P2_skeleton.csv", "P2_skeleton.run_manifest.json",
        ]
        for seed, tree_id in enumerate(("P1", "P2")):
            manifest = json.loads((tmp_path / f"{tree_id}_skeleton.run_manifest.json").read_text())
            assert manifest["command"] == "export-skeleton"
            assert manifest["seed"] == seed
            assert str(trees[tree_id][0]) in manifest["inputs"]


class TestSamplesAttachedOncePerTree:
    """Each command attaches a tree's measurement rows to its GUs once."""

    @pytest.fixture
    def attached(self, monkeypatch):
        import fspm.ingest

        trees = []
        original = fspm.ingest.samples_by_gu

        def counting(topology, internodes, leaves):
            trees.append(topology.tree_id)
            return original(topology, internodes, leaves)

        for name in ("ingest", "pa_classify", "direct_estim", "cli"):
            module = importlib.import_module(f"fspm.{name}")
            if hasattr(module, "samples_by_gu"):
                monkeypatch.setattr(module, "samples_by_gu", counting)
        return trees

    def test_classify_pa(self, grove_pipeline, tmp_path, attached):
        _, trees, _ = grove_pipeline
        for tid, (tree, _, targets) in trees.items():
            assert run("classify-pa", "--tree", tree, "--k", 3, "--out", tmp_path / tid) == 0
            assert (tmp_path / tid / "targets.json").read_bytes() == targets.read_bytes()
        assert attached == list(trees)

    def test_estimate(self, grove_pipeline, tmp_path, attached):
        _, trees, params = grove_pipeline
        args = ["estimate", "--out", tmp_path]
        for tree, pa_map, _ in trees.values():
            args += ["--tree", tree, "--pa-map", pa_map]
        assert run(*args) == 0
        assert (tmp_path / "direct_params.json").read_bytes() == params.read_bytes()
        assert attached == list(trees)


class TestEstimateErrors:
    def test_one_tree_has_too_few_pa1_sink_pairs(self, grove_pipeline, tmp_path, capsys):
        # One tree has one main stem: one PA 1 sink pair.
        _, trees, _ = grove_pipeline
        tree, pa_map, _ = trees["P1"]
        capsys.readouterr()
        assert run("estimate", "--tree", tree, "--pa-map", pa_map, "--out", tmp_path / "est") == 1
        assert capsys.readouterr().err == (
            "fspm estimate: PA 1 sink ratio: need >= 2 pairs, got 1\n")
        assert not (tmp_path / "est").exists()

    def test_tree_given_twice_exits_1(self, grove_pipeline, tmp_path, capsys):
        # As fit does: pooled twice, P1's samples moved the PA-1 sink and slw.
        _, trees, _ = grove_pipeline
        argv = ["estimate", "--out", tmp_path / "est"]
        for tid in ("P1", "P2", "P1"):
            argv += ["--tree", trees[tid][0], "--pa-map", trees[tid][1]]
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == "fspm estimate: tree 'P1' is given more than once\n"
        assert not (tmp_path / "est").exists()


class TestFitCommand:
    def test_roundtrip_fixture(self, tmp_path):
        dp = DirectParams(
            p_int={1: 0.561, 2: 0.726},
            allometry={1: (5.0, 0.3), 2: (7.0, 0.35)},
            slw=0.0287,
        )
        rules = GrowthRules(p_max=2, internodes_per_gu=2, branches_per_gu=1)
        true = {"s1": 6.0, "s2": 18.0}
        args = ["fit", "--params", tmp_path / "dp.json", "--out", tmp_path / "fit",
                "--init-q0", 20.0, "--init-rp", 9.0, "--init-pc", 0.3,
                "--n-starts", 2, "--seed", 0]
        (tmp_path / "dp.json").write_text(dp.to_json())
        for (tid, q0), age in zip(true.items(), (3, 4)):
            t = generate_topology(rules, age, tid)
            trace = simulate(HiddenParams(q0, 4.5, 0.2), dp, t)
            (tmp_path / f"{tid}.json").write_text(tree_to_json(t, MeasurementSet()))
            (tmp_path / f"{tid}_pa.json").write_text(
                pa_map_to_json({a.id: a.pa for a in t.axes.values()})
            )
            (tmp_path / f"{tid}_targets.json").write_text(
                targets_from_trace(trace, dp).to_json()
            )
            args += ["--tree", tmp_path / f"{tid}.json",
                     "--pa-map", tmp_path / f"{tid}_pa.json",
                     "--targets", tmp_path / f"{tid}_targets.json"]
        assert run(*args) == 0
        doc = json.loads((tmp_path / "fit" / "fit_result.json").read_text())
        assert doc["converged"] is True
        assert doc["rp"] == pytest.approx(4.5, rel=0.01)
        assert doc["pc"] == pytest.approx(0.2, rel=0.01)
        assert doc["q0"]["s1"] == pytest.approx(6.0, rel=0.02)
        assert doc["q0"]["s2"] == pytest.approx(18.0, rel=0.02)


class TestGroveFit:
    @pytest.mark.parametrize("ring_mode, sse", [("uniform", 61.7055), ("pipe", 61.6470)])
    def test_stops_at_max_iter_with_pc_on_its_bound(
        self, grove_pipeline, tmp_path, caplog, monkeypatch, ring_mode, sse
    ):
        # The grove targets are formula-made: the one-start fit runs its
        # whole budget and ends with pc on its lower bound, in both ring
        # modes on the residual plans.  A change to the solver's work on a
        # fit that never converges shows in the pinned pass counts.  Every
        # Jacobian, the identifiability one too, is taken from the forward
        # sweep the solver holds at its current point: no sweep is rerun.
        import fspm.calibrate as calibrate

        forward = 0
        values = calibrate._values

        def counting_sweeps(*args):
            nonlocal forward
            forward += 1
            return values(*args)

        monkeypatch.setattr(calibrate, "_values", counting_sweeps)
        _, trees, params = grove_pipeline
        out = tmp_path / "fit"
        argv = ["fit", "--params", params, "--seed", 0, "--n-starts", 0, "--out", out,
                "--ring-mode", ring_mode]
        for tree, pa_map, _ in trees.values():
            argv += ["--tree", tree, "--pa-map", pa_map]
        with caplog.at_level(logging.WARNING, logger="fspm.cli"):
            assert run(*argv) == 2
        doc = json.loads((out / "fit_result.json").read_text())
        assert doc["iterations"] == 200 and doc["converged"] is False
        assert doc["at_bound"] == ["pc"]
        assert doc["pc"] == pytest.approx(1e-6, rel=1e-9)
        assert doc["sse"] == pytest.approx(sse, rel=1e-3)
        assert (doc["value_passes"], doc["tangent_passes"]) == (300, 201)
        assert forward == 300
        assert "parameters on a bound: ['pc']" in caplog.text

    def test_params_lacking_a_pa_exit_3_naming_tree_and_pa(self, grove_pipeline, tmp_path,
                                                          capsys):
        _, trees, params = grove_pipeline
        doc = json.loads(Path(params).read_text())
        del doc["p_int"]["3"], doc["allometry"]["3"]
        stripped = tmp_path / "direct_params.json"
        stripped.write_text(json.dumps(doc))
        argv = ["fit", "--params", stripped, "--n-starts", 0, "--out", tmp_path / "fit"]
        for tree, pa_map, _ in trees.values():
            argv += ["--tree", tree, "--pa-map", pa_map]
        capsys.readouterr()
        assert run(*argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("fspm fit: tree 'P")
        assert err[0].endswith("no internode sink for PA 3")
        assert not (tmp_path / "fit").exists()

    def test_tree_given_twice_exits_1(self, grove_pipeline, tmp_path, capsys):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P1"]
        capsys.readouterr()
        assert run("fit", "--tree", tree, "--pa-map", pa_map, "--tree", tree, "--pa-map", pa_map,
                   "--params", params, "--n-starts", 0, "--out", tmp_path / "fit") == 1
        assert capsys.readouterr().err.splitlines() == [
            "fspm fit: tree 'P1' is given more than once"
        ]
        assert not (tmp_path / "fit").exists()

    def test_manifest_records_run_costs(self, grove_pipeline, tmp_path):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        out = tmp_path / "fit"
        assert run("fit", "--tree", tree, "--pa-map", pa_map, "--params", params,
                   "--n-starts", 0, "--out", out) in (0, 2)
        assert sorted(p.name for p in out.iterdir()) == ["fit_result.json", "run_manifest.json"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert {"elapsed_s", "peak_rss_mb", "python_version", "numpy_version"} <= set(manifest)


class TestFitExitCodes:
    def test_nonconvergence_exits_2_but_writes_result(self, tmp_path, monkeypatch):
        import fspm.cli as cli_mod
        from fspm.calibrate import FitResult, FreeParams as FP

        def fake_fit(problem, init, options):
            return FitResult(
                params=FP(q0={t.tree_id: 1.0 for t in problem.targets}, rp=5.0, pc=0.1),
                sse=123.0, per_tree_sse={}, iterations=200, converged=False,
                degenerate_params=[],
            )

        monkeypatch.setattr(cli_mod, "fit_hidden", fake_fit)
        dp = DirectParams(p_int={1: 0.5}, allometry={1: (5.0, 0.3)}, slw=0.03)
        t = generate_topology(GrowthRules(p_max=1, internodes_per_gu=1), 2, "s1")
        trace = simulate(HiddenParams(2.0, 5.0, 0.1), dp, t)
        (tmp_path / "dp.json").write_text(dp.to_json())
        (tmp_path / "t.json").write_text(tree_to_json(t, MeasurementSet()))
        (tmp_path / "pa.json").write_text(pa_map_to_json({"a000001": 1}))
        (tmp_path / "tg.json").write_text(targets_from_trace(trace, dp).to_json())
        code = run("fit", "--tree", tmp_path / "t.json", "--pa-map", tmp_path / "pa.json",
                   "--targets", tmp_path / "tg.json", "--params", tmp_path / "dp.json",
                   "--out", tmp_path / "fit")
        assert code == 2
        doc = json.loads((tmp_path / "fit" / "fit_result.json").read_text())
        assert doc["converged"] is False


class TestInvalidParameters:
    @pytest.mark.parametrize("flag, value", [
        ("--rp", "-1"), ("--q0", "nan"), ("--rp", "inf"), ("--pc", "-inf"),
    ])
    def test_simulate_exits_1_with_one_line(self, grove_pipeline, tmp_path, capsys,
                                            flag, value):
        base, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        hidden = {"--q0": "12.0", "--rp": "6.4", "--pc": "0.14", flag: value}
        argv = ["simulate", "--tree", tree, "--pa-map", pa_map, "--params", params,
                "--out", tmp_path / "sim"]
        argv += [f"{name}={text}" for name, text in hidden.items()]
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"fspm simulate: {flag[2:]} must be finite")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("command, flag", [
        ("export-skeleton", "--seed"), ("fit", "--seed"), ("fit", "--n-starts"),
        ("classify-pa", "--k"), ("simulate", "--cycles"),
        ("bench-substructure", "--cycles"), ("bench-substructure", "--pmax"),
        ("bench-substructure", "--branching"), ("bench-substructure", "--internodes-per-gu"),
    ])
    def test_negative_integer_flag_exits_1_with_one_line(self, grove_pipeline, tmp_path,
                                                          capsys, command, flag):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        out = tmp_path / "out"
        model = ["--tree", tree, "--pa-map", pa_map, "--params", params,
                 "--q0", 12.0, "--rp", 6.4, "--pc", 0.14]
        argv = {"export-skeleton": [*model, "--out", out / "skeleton.csv"],
                "fit": ["--tree", tree, "--pa-map", pa_map, "--params", params,
                        "--n-starts", 0, "--out", out],
                "classify-pa": ["--tree", tree, "--out", out],
                "simulate": [*model, "--out", out],
                "bench-substructure": ["--cycles", 3, "--out", out]}[command]
        capsys.readouterr()
        assert run(command, *argv, flag, -1) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"fspm {command}: ")
        assert not out.exists()

    def test_bench_rejects_nan_seed_mass(self, tmp_path, capsys):
        assert run("bench-substructure", "--cycles", 3, "--q0", "nan",
                   "--out", tmp_path / "bench") == 1
        assert "q0 must be finite" in capsys.readouterr().err


class TestBadInputFiles:
    """Malformed parameter files, fit options and --out paths that cannot be
    written end in exit 1 and one line."""

    def simulate_args(self, grove_pipeline, tmp_path, params=None, hidden=None):
        _, trees, good_params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        argv = ["simulate", "--tree", tree, "--pa-map", pa_map,
                "--params", params or good_params, "--out", tmp_path / "sim"]
        if hidden is None:
            return argv + ["--q0", 12.0, "--rp", 6.4, "--pc", 0.14]
        return argv + ["--hidden", hidden]

    def one_error_line(self, capsys, argv):
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        return err[0]

    @pytest.mark.parametrize("mangle, message", [
        (lambda text: text[: len(text) // 2], "not valid JSON"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "allometry"}), "missing key 'allometry'"),
        (lambda text: json.dumps({**json.loads(text), "p_int": [1, 2]}), "'items'"),
        (lambda text: "[]", "list indices"),
    ])
    def test_bad_params_file(self, grove_pipeline, tmp_path, capsys, mangle, message):
        _, _, params = grove_pipeline
        bad = tmp_path / "direct_params.json"
        bad.write_text(mangle(params.read_text()))
        err = self.one_error_line(capsys, self.simulate_args(grove_pipeline, tmp_path, bad))
        assert err.startswith(f"fspm simulate: {bad}: ")
        assert message in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("doc, message", [
        ('{"q0": {"P2": 12.0}, "pc": 0.14', "not valid JSON"),
        ('{"q0": {"P2": 12.0}, "pc": 0.14}', "missing key 'rp'"),
        ('{"rp": 6.4, "pc": 0.14}', "missing key 'q0'"),
        ('{"q0": {"P2": 12.0}, "rp": 6.4}', "missing key 'pc'"),
        ('{"q0": 12.0, "rp": 6.4, "pc": 0.14}', "items"),
        ('{"q0": {"P2": 12.0}, "rp": "fast", "pc": 0.14}', "fast"),
    ])
    def test_bad_fit_result(self, grove_pipeline, tmp_path, capsys, doc, message):
        hidden = tmp_path / "fit_result.json"
        hidden.write_text(doc)
        argv = self.simulate_args(grove_pipeline, tmp_path, hidden=hidden)
        err = self.one_error_line(capsys, argv)
        assert err.startswith(f"fspm simulate: {hidden}: ")
        assert message in err
        assert not (tmp_path / "sim").exists()

    def test_nan_slw_in_params_file(self, grove_pipeline, tmp_path, capsys):
        _, _, params = grove_pipeline
        bad = tmp_path / "direct_params.json"
        bad.write_text(json.dumps({**json.loads(params.read_text()), "slw": float("nan")}))
        err = self.one_error_line(capsys, self.simulate_args(grove_pipeline, tmp_path, bad))
        assert err == f"fspm simulate: {bad}: slw must be > 0 and finite, got nan"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("which, mangle, message", [
        *[(which, lambda text: text[:200], "not valid JSON")
          for which in ("tree", "pa_map", "targets")],
        ("tree", lambda text: "{}", "missing key 'tree_id'"),
        ("tree", lambda text: text.replace('"age": 4,', '"age": 99,'),
         "age 99 is not the last GU cycle, 4"),
        ("tree", lambda text: text.replace('"age": 4,', '"age": "4",'),
         "age must be an integer, got '4'"),
        ("targets", lambda text: "{}", "missing key 'entries'"),
        ("tree", lambda text: "[]", "list indices"),
        ("targets", lambda text: "[]", "list indices"),
        ("pa_map", lambda text: "[]", "'list' object has no attribute 'items'"),
        ("pa_map", lambda text: '{"a000001": "main"}',
         "axis 'a000001': PA must be an integer, got 'main'"),
    ])
    def test_bad_json_input(self, grove_pipeline, tmp_path, capsys, which, mangle, message):
        _, trees, params = grove_pipeline
        files = dict(zip(("tree", "pa_map", "targets"), trees["P2"]))
        bad = tmp_path / files[which].name
        bad.write_text(mangle(files[which].read_text()))
        files[which] = bad
        argv = ["simulate", "--tree", files["tree"], "--pa-map", files["pa_map"],
                "--params", params, "--q0", 12.0, "--rp", 6.4, "--pc", 0.14,
                "--targets", files["targets"], "--out", tmp_path / "sim"]
        err = self.one_error_line(capsys, argv)
        assert err.startswith(f"fspm simulate: {bad}: {message}")
        assert not (tmp_path / "sim" / "run_manifest.json").exists()

    def test_targets_of_another_tree_write_nothing(self, grove_pipeline, tmp_path, capsys):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        argv = ["simulate", "--tree", tree, "--pa-map", pa_map, "--params", params,
                "--q0", 12.0, "--rp", 6.4, "--pc", 0.14,
                "--targets", trees["P1"][2], "--out", tmp_path / "sim"]
        err = self.one_error_line(capsys, argv)
        assert err == "fspm simulate: tree 'P2': targets are for tree 'P1'"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("column, value, message", [
        ("fresh_weight_g", "abc", "not a number: 'abc'"),
        ("length_cm", -1.0, "measurement must be finite and > 0, got -1.0"),
    ])
    # The tests that edit measurement rows read the document in both layouts
    # of its measurement tables, and expect the same line of each.
    def test_bad_measurement_cell_in_tree_json(self, tmp_path, capsys, column, value, message):
        tree = tmp_path / "tree.json"
        assert run(*ingest_args(SINGLE, tree)) == 0
        _, paths = edited_trees(tree, tmp_path, lambda doc: doc["measurements"]["internodes"][1]
                                .update({column: value}))
        for bad in paths.values():
            err = self.one_error_line(capsys, ["classify-pa", "--tree", bad, "--k", 3,
                                               "--out", tmp_path / "cls"])
            assert err == (f"fspm classify-pa: {bad}: measurements.internodes[1]: "
                           f"column {column!r}: {message}")
            assert not (tmp_path / "cls").exists()

    def test_weight_too_large_to_cluster(self, tmp_path, capsys):
        # Finite and > 0, so the tree reads; its squares would overflow the clustering.
        tree = tmp_path / "tree.json"
        assert run(*ingest_args(SINGLE, tree)) == 0

        def edit(doc):
            for row in doc["measurements"]["internodes"]:
                if (row["axis_id"], row["gu_ca"]) == ("A1", 3):
                    row["fresh_weight_g"] = 1e160

        _, paths = edited_trees(tree, tmp_path, edit)
        for bad in paths.values():
            err = self.one_error_line(capsys, ["classify-pa", "--tree", bad, "--k", 3,
                                               "--out", tmp_path / "cls"])
            assert err == ("fspm classify-pa: 3 values to cluster must stay below 4.469e+153 "
                           "in magnitude, got 1e+160")
            assert not (tmp_path / "cls").exists()

    @pytest.mark.parametrize("table, noun", [("internodes", "internode"),
                                             ("leaves", "leaf sample")])
    def test_repeated_measurement_row_in_tree_json(self, grove_pipeline, tmp_path, capsys,
                                                   table, noun):
        _, trees, _ = grove_pipeline
        doc, paths = edited_trees(trees["P2"][0], tmp_path, lambda doc: doc["measurements"][
            table].append(dict(doc["measurements"][table][0], fresh_weight_g=99.0)))
        rows = doc["measurements"][table]
        first = rows[0]
        key = ("P2", first["axis_id"], first["gu_ca"],
               first["rank_in_gu" if table == "internodes" else "sample_index"])
        for bad in paths.values():
            err = self.one_error_line(capsys, ["classify-pa", "--tree", bad, "--k", 3,
                                               "--out", tmp_path / "cls"])
            assert err == (f"fspm classify-pa: {bad}: measurements.{table}[{len(rows) - 1}]: "
                           f"{noun} {key} measured twice")
            assert not (tmp_path / "cls").exists()

    @pytest.mark.parametrize("table", ["internodes", "leaves"])
    @pytest.mark.parametrize("command", ["classify-pa", "estimate", "fit"])
    def test_measurement_row_on_a_missing_gu(self, grove_pipeline, tmp_path, capsys,
                                             command, table):
        # Every stage that reads a tree document rejects the row, naming the file.
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        doc, paths = edited_trees(tree, tmp_path, lambda doc: doc["measurements"][table].append(
            dict(doc["measurements"][table][0], axis_id="zz")))
        out = tmp_path / "out"
        row = len(doc["measurements"][table]) - 1
        gu_ca = doc["measurements"][table][0]["gu_ca"]
        for bad in paths.values():
            argv = {"classify-pa": ["classify-pa", "--tree", bad, "--k", 3],
                    "estimate": ["estimate", "--tree", bad, "--pa-map", pa_map],
                    "fit": ["fit", "--tree", bad, "--pa-map", pa_map, "--params", params,
                            "--n-starts", 0]}[command]
            err = self.one_error_line(capsys, [*argv, "--out", out])
            assert err == (f"fspm {command}: {bad}: measurements.{table}[{row}]: "
                           f"record references unknown GU ('zz', ca {gu_ca})")
            assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "fit"])
    def test_missing_gu_row_names_its_file_among_several_trees(
            self, grove_pipeline, tmp_path, capsys, command):
        _, trees, params = grove_pipeline
        doc, paths = edited_trees(trees["P3"][0], tmp_path,
                                  lambda doc: doc["measurements"]["leaves"][4].update(gu_ca=99))
        axis_id = doc["measurements"]["leaves"][4]["axis_id"]
        for bad in paths.values():
            argv = [command]
            for tree_id in ("P1", "P2", "P3", "P4"):
                argv += ["--tree", bad if tree_id == "P3" else trees[tree_id][0],
                         "--pa-map", trees[tree_id][1]]
            if command == "fit":
                argv += ["--params", params, "--n-starts", 0]
            err = self.one_error_line(capsys, [*argv, "--out", tmp_path / "out"])
            assert err == (f"fspm {command}: {bad}: measurements.leaves[4]: "
                           f"record references unknown GU ({axis_id!r}, ca 99)")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table, edit, message", [
        ("internodes", lambda tables: tables["internodes"].pop("gu_ca"),
         "missing column 'gu_ca'"),
        ("leaves", lambda tables: tables["leaves"].update(area_cm2=30.0),
         "column 'area_cm2' is not an array: 30.0"),
        ("internodes", lambda tables: tables["internodes"]["length_cm"].pop(),
         "column 'length_cm' holds 15 cells, column 'axis_id' 16"),
        ("leaves", lambda tables: tables.update(leaves=None),
         "not an object of columns or a list of rows: None"),
    ], ids=["missing-column", "not-an-array", "unequal-lengths", "null-table"])
    def test_malformed_measurement_table(self, tmp_path, capsys, table, edit, message):
        tree = tmp_path / "tree.json"
        assert run(*ingest_args(SINGLE, tree)) == 0
        doc = json.loads(tree.read_text())
        edit(doc["measurements"])
        tree.write_text(json.dumps(doc))
        err = self.one_error_line(capsys, ["classify-pa", "--tree", tree, "--k", 3,
                                           "--out", tmp_path / "cls"])
        assert err == f"fspm classify-pa: {tree}: measurements.{table}: {message}"
        assert not (tmp_path / "cls").exists()

    def test_broken_tree_rule_names_its_file_among_several_trees(self, grove_pipeline, tmp_path,
                                                                capsys):
        _, trees, _ = grove_pipeline
        doc = json.loads(trees["P2"][0].read_text())
        doc["axes"][1]["parent_axis_id"] = "Z"
        bad = tmp_path / "P2.json"
        bad.write_text(json.dumps(doc))
        argv = ["estimate", "--tree", trees["P1"][0], "--pa-map", trees["P1"][1],
                "--tree", bad, "--pa-map", trees["P2"][1], "--out", tmp_path / "out"]
        axis_id = doc["axes"][1]["axis_id"]
        assert self.one_error_line(capsys, argv) == (
            f"fspm estimate: {bad}: axis {axis_id!r} names unknown parent 'Z'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("place, key, value, message", [
        ("axes[0].gus[1]", "internode_count", 2.0, "not an integer: 2.0"),
        ("axes[0].gus[1]", "internode_count", True, "not an integer: True"),
        ("axes[0].gus[1]", "ca", "1", "not an integer: '1'"),
        ("axes[1]", "insertion_ca", 1.5, "not an integer: 1.5"),
        ("axes[0].gus[1]", "internode_count", MAX_INTERNODES_PER_GU + 1, "10001 > 10000"),
    ])
    @pytest.mark.parametrize("command", ["classify-pa", "simulate"])
    def test_bad_gu_or_axis_cell_in_tree_json(self, grove_pipeline, tmp_path, capsys,
                                              command, place, key, value, message):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        doc = json.loads(tree.read_text())
        row = doc["axes"][0]["gus"][1] if "gus" in place else doc["axes"][1]
        row[key] = value
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {"classify-pa": ["classify-pa", "--tree", bad, "--k", 3, "--out", out],
                "simulate": ["simulate", "--tree", bad, "--pa-map", pa_map, "--params", params,
                             "--q0", 12.0, "--rp", 6.4, "--pc", 0.14, "--out", out]}[command]
        err = self.one_error_line(capsys, argv)
        assert err == f"fspm {command}: {bad}: {place}: column {key!r}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("ca", [MAX_CYCLE, MAX_CYCLE + 1])
    def test_one_gu_tree_at_a_late_cycle(self, tmp_path, capsys, ca):
        # Past the bound, classify-pa used to write one cumulated target per cycle.
        gus = [{"ca": ca, "internode_count": 1, "leaf_scar_count": 1}]
        axes = [{"axis_id": "A", "parent_axis_id": None, "insertion_ca": None, "gus": gus}]
        internodes = {"axis_id": ["A"], "gu_ca": [ca], "rank_in_gu": [1],
                      "fresh_weight_g": [1.0], "length_cm": [1.0], "diameter_mm": [1.0]}
        leaves = {"axis_id": ["A"], "gu_ca": [ca], "sample_index": [1],
                  "fresh_weight_g": [1.0], "area_cm2": [10.0]}
        doc = {"tree_id": "T", "age": ca, "axes": axes,
               "measurements": {"internodes": internodes, "leaves": leaves}}
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(doc))
        argv = ["classify-pa", "--tree", tree, "--k", 1, "--out", tmp_path / "cls"]
        if ca == MAX_CYCLE:
            assert run(*argv) == 0
            targets = json.loads((tmp_path / "cls" / "targets.json").read_text())
            assert len(targets["cumulated"]) == MAX_CYCLE
        else:
            assert self.one_error_line(capsys, argv) == (
                f"fspm classify-pa: {tree}: axes[0].gus[0]: column 'ca': 1001 > 1000")
            assert not (tmp_path / "cls").exists()

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_nan_target_value(self, grove_pipeline, tmp_path, capsys, command):
        _, trees, params = grove_pipeline
        tree, pa_map, targets = trees["P2"]
        doc = json.loads(targets.read_text())
        doc["cumulated"]["2"]["cum_blade_mass"] = float("nan")
        bad = tmp_path / "targets.json"
        bad.write_text(json.dumps(doc))
        argv = [command, "--tree", tree, "--pa-map", pa_map, "--params", params,
                "--targets", bad, "--out", tmp_path / "out"]
        argv += ["--n-starts", 0] if command == "fit" else ["--q0", 12.0, "--rp", 6.4, "--pc", 0.14]
        err = self.one_error_line(capsys, argv)
        assert err == (f"fspm {command}: {bad}: cumulated['2']: "
                       "cum_blade_mass must be finite and >= 0, got nan")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cycles, mangle, message", [
        # Cycle 0 is no cycle: the targets file itself is rejected.
        (None, lambda d: d["cumulated"].update({"0": d["cumulated"]["1"]}),
         "{bad}: cumulated['0']: PA, CA and cycle keys must be >= 1"),
        (None, lambda d: d["cumulated"].update({"5": d["cumulated"]["4"]}),
         "tree 'P2': cumulated target for cycle 5 outside the simulated cycles 1..4"),
        (2, lambda d: d.update(entries={k: v for k, v in d["entries"].items()
                                        if int(k.split(",")[1]) <= 2}),
         "tree 'P2': cumulated target for cycle 3 outside the simulated cycles 1..2"),
        (2, lambda d: None, "tree 'P2': target group PA1/CA3 is not simulated"),
    ])
    def test_targets_outside_simulated_cycles(self, grove_pipeline, tmp_path, capsys,
                                              cycles, mangle, message):
        _, trees, params = grove_pipeline
        tree, pa_map, targets = trees["P2"]
        doc = json.loads(targets.read_text())
        mangle(doc)
        bad = tmp_path / "targets.json"
        bad.write_text(json.dumps(doc))
        argv = ["simulate", "--tree", tree, "--pa-map", pa_map, "--params", params,
                "--q0", 12.0, "--rp", 6.4, "--pc", 0.14, "--targets", bad,
                "--out", tmp_path / "sim"]
        if cycles is not None:
            argv += ["--cycles", cycles]
        err = self.one_error_line(capsys, argv)
        assert err == "fspm simulate: " + message.format(bad=bad)
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("raw, value", [
        ("2.7", "2.7"), ("true", "True"), ('"2"', "'2'"),
        # int() of these ended in an OverflowError traceback.
        ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"),
    ])
    def test_pa_that_is_not_a_json_integer(self, grove_pipeline, tmp_path, capsys, raw, value):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        doc = json.loads(pa_map.read_text())
        axis = next(a for a, pa in sorted(doc.items()) if pa == 2)
        doc[axis] = "PA"
        bad = tmp_path / "pa_map.json"
        bad.write_text(json.dumps(doc).replace('"PA"', raw))
        argv = ["simulate", "--tree", tree, "--pa-map", bad, "--params", params,
                "--q0", 12.0, "--rp", 6.4, "--pc", 0.14, "--out", tmp_path / "sim"]
        err = self.one_error_line(capsys, argv)
        assert err == f"fspm simulate: {bad}: axis {axis!r}: PA must be an integer, got {value}"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("fault", ["missing axis", "root PA 7", "root PA 2"])
    @pytest.mark.parametrize("command", ["estimate", "simulate", "fit", "export-skeleton"])
    def test_pa_map_that_does_not_classify_the_tree(self, grove_pipeline, tmp_path, capsys,
                                                    command, fault):
        # Every command applies a map the same way; estimate used to drop
        # an unmapped axis and fit sinks for a root of any PA.
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        doc = json.loads(pa_map.read_text())
        root = next(a["axis_id"] for a in json.loads(tree.read_text())["axes"]
                    if a["parent_axis_id"] is None)
        if fault == "missing axis":
            axis = max(doc)
            del doc[axis]
            message = f"axis {axis!r} has no PA assignment"
        elif fault == "root PA 7":
            doc[root] = 7
            message = f"axis {root!r}: PA 7 outside 1..5"
        else:
            doc[root] = 2
            message = f"root axis {root!r} must be PA 1, got 2"
        bad = tmp_path / "pa_map.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        model = ["--params", params, "--q0", 12.0, "--rp", 6.4, "--pc", 0.14]
        argv = {
            "estimate": ["--tree", trees["P1"][0], "--pa-map", trees["P1"][1],
                         "--tree", tree, "--pa-map", bad, "--out", out],
            "simulate": ["--tree", tree, "--pa-map", bad, *model, "--out", out],
            "fit": ["--tree", tree, "--pa-map", bad, "--params", params,
                    "--n-starts", 0, "--out", out],
            "export-skeleton": ["--tree", tree, "--pa-map", bad, *model, "--out", out],
        }[command]
        err = self.one_error_line(capsys, [command, *argv])
        assert err == f"fspm {command}: {bad}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "fit"])
    def test_pa_map_of_another_tree(self, grove_pipeline, tmp_path, capsys, command):
        # P4's map classifies every axis of P1 and more; accepted, it would
        # move the PA-2 allometry.
        _, trees, params = grove_pipeline
        p1_axes = {a["axis_id"] for a in json.loads(trees["P1"][0].read_text())["axes"]}
        p4_map = trees["P4"][1]
        extra = sorted(set(json.loads(p4_map.read_text())) - p1_axes)
        assert extra
        out = tmp_path / "out"
        argv = [command, "--tree", trees["P1"][0], "--pa-map", p4_map,
                "--tree", trees["P4"][0], "--pa-map", p4_map, "--out", out]
        if command == "fit":
            argv += ["--params", params, "--n-starts", 0]
        err = self.one_error_line(capsys, argv)
        assert err == f"fspm {command}: {p4_map}: PA map axis {extra[0]!r} is not in tree 'P1'"
        assert not out.exists()

    @pytest.mark.parametrize("cell, value, where", [
        (("slw",), True, "slw"),
        (("p_int", "2"), "0.7", "p_int['2']"),
        (("allometry", "1", "beta"), False, "allometry['1'].beta"),
        (("allometry", "3", "b"), "9", "allometry['3'].b"),
    ])
    def test_params_cell_that_is_not_a_json_number(self, grove_pipeline, tmp_path, capsys,
                                                   cell, value, where):
        _, _, params = grove_pipeline
        doc = json.loads(params.read_text())
        *path, key = cell
        parent = doc
        for step in path:
            parent = parent[step]
        parent[key] = value
        bad = tmp_path / "direct_params.json"
        bad.write_text(json.dumps(doc))
        err = self.one_error_line(capsys, self.simulate_args(grove_pipeline, tmp_path, bad))
        assert err == f"fspm simulate: {bad}: {where} must be a number, got {value!r}"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("doc, where, value", [
        ({"q0": {"P2": True}, "rp": 6.4, "pc": 0.14}, "q0['P2']", True),
        ({"q0": {"P2": 12.0}, "rp": "6.4", "pc": 0.14}, "rp", "6.4"),
        ({"q0": {"P2": 12.0}, "rp": 6.4, "pc": False}, "pc", False),
    ])
    def test_fit_result_cell_that_is_not_a_json_number(self, grove_pipeline, tmp_path,
                                                       capsys, doc, where, value):
        hidden = tmp_path / "fit_result.json"
        hidden.write_text(json.dumps(doc))
        argv = self.simulate_args(grove_pipeline, tmp_path, hidden=hidden)
        err = self.one_error_line(capsys, argv)
        assert err == f"fspm simulate: {hidden}: {where} must be a number, got {value!r}"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--seed", -1, "seed"), ("--n-starts", -1, "n_starts"),
    ])
    def test_fit_rejects_bad_option(self, grove_pipeline, tmp_path, capsys,
                                    flag, value, name):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        argv = ["fit", "--tree", tree, "--pa-map", pa_map, "--params", params,
                flag, value, "--out", tmp_path / "fit"]
        err = self.one_error_line(capsys, argv)
        assert err.startswith(f"fspm fit: {name} must be an integer >= 0")
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("flag, names", [
        ("--init-q0", "['q0:P1', 'q0:P2']"), ("--init-pc", "['pc']"),
    ])
    def test_fit_rejects_init_without_a_finite_log(self, grove_pipeline, tmp_path, capsys,
                                                   flag, names, value):
        _, trees, params = grove_pipeline
        argv = ["fit", "--params", params, flag, value, "--n-starts", 0,
                "--out", tmp_path / "fit"]
        for tid in ("P1", "P2"):
            argv += ["--tree", trees[tid][0], "--pa-map", trees[tid][1]]
        err = self.one_error_line(capsys, argv)
        assert err == f"fspm fit: init must be finite and inside the bounds for {names}"
        assert not (tmp_path / "fit").exists()

    def test_simulate_out_is_a_file(self, grove_pipeline, tmp_path, capsys):
        argv = self.simulate_args(grove_pipeline, tmp_path)
        out = tmp_path / "sim"
        out.write_text("keep")
        err = self.one_error_line(capsys, argv)
        assert err == f"fspm simulate: [Errno 17] File exists: '{out}'"
        assert out.read_text() == "keep"

    def test_export_skeleton_out_is_a_directory(self, grove_pipeline, tmp_path, capsys):
        argv = ["export-skeleton", *self.simulate_args(grove_pipeline, tmp_path)[1:]]
        out = tmp_path / "sim"
        out.mkdir()
        err = self.one_error_line(capsys, argv)
        assert err.startswith("fspm export-skeleton: [Errno 21] Is a directory")
        assert [p.name for p in tmp_path.iterdir()] == ["sim"]  # no temp file left
        assert not any(out.iterdir())

    def test_ingest_out_under_a_file(self, tmp_path, capsys):
        parent = tmp_path / "tree.json"
        parent.write_text("keep")
        err = self.one_error_line(capsys, ingest_args(SINGLE, parent / "x.json"))
        assert err == f"fspm ingest: [Errno 17] File exists: '{parent}'"
        assert parent.read_text() == "keep"

    @pytest.mark.parametrize("name", ["internodes.csv", "leaves.csv"])
    def test_ingest_row_on_a_missing_gu(self, tmp_path, capsys, name):
        # A blank line above the row: the fault names the row's physical line.
        src = tmp_path / "single"
        src.mkdir()
        for csv_file in SINGLE.iterdir():
            (src / csv_file.name).write_bytes(csv_file.read_bytes())
        header, first, *rest = (src / name).read_text().splitlines(keepends=True)
        (src / name).write_text("".join([header, "\n", first.replace(",A1,", ",zz,", 1), *rest]))
        out = tmp_path / "tree.json"
        err = self.one_error_line(capsys, ingest_args(src, out))
        assert err == (f"fspm ingest: {src / name}:3: "
                       "record references unknown GU ('zz', ca 1)")
        assert not out.exists()

    @pytest.mark.parametrize("name, line, column, raw", [
        ("internodes.csv", 3, "diameter_mm", "nan"),
        ("internodes.csv", 2, "fresh_weight_g", "inf"),
        ("leaves.csv", 2, "area_cm2", "NaN"),
    ])
    def test_non_finite_measurement(self, tmp_path, capsys, name, line, column, raw):
        src = tmp_path / "grove"
        src.mkdir()
        for csv_file in GROVE.iterdir():
            (src / csv_file.name).write_text(csv_file.read_text())
        rows = (src / name).read_text().splitlines(keepends=True)
        header = rows[0].strip().split(",")
        cells = rows[line - 1].rstrip("\n").split(",")
        cells[header.index(column)] = raw
        rows[line - 1] = ",".join(cells) + "\n"
        (src / name).write_text("".join(rows))
        out = tmp_path / "tree.json"
        err = self.one_error_line(capsys, ingest_args(src, out, tree_id="P1"))
        assert err == (f"fspm ingest: {src / name}:{line}: column {column!r}: "
                       f"measurement must be finite and > 0, got {raw}")
        assert not out.exists()

    @pytest.mark.parametrize("name, line, column, raw, message", [
        ("internodes.csv", 27, "diameter_mm", "inf",
         "column 'diameter_mm': measurement must be finite and > 0, got inf"),
        ("leaves.csv", 35, "gu_ca", "99", "record references unknown GU ('a000001', ca 99)"),
        ("gus.csv", 13, "internode_count", str(MAX_INTERNODES_PER_GU + 1),
         "column 'internode_count': 10001 > 10000"),
    ])
    def test_ingest_of_one_tree_checks_every_tree(self, tmp_path, capsys, name, line, column,
                                                  raw, message):
        # The bad row is P2's: ingesting P1 alone still reads and rejects it.
        src = tmp_path / "grove"
        src.mkdir()
        for csv_file in GROVE.iterdir():
            (src / csv_file.name).write_text(csv_file.read_text())
        rows = (src / name).read_text().splitlines(keepends=True)
        header = rows[0].strip().split(",")
        cells = rows[line - 1].rstrip("\n").split(",")
        assert cells[0] == "P2"
        cells[header.index(column)] = raw
        rows[line - 1] = ",".join(cells) + "\n"
        (src / name).write_text("".join(rows))
        out = tmp_path / "out" / "P1.json"
        err = self.one_error_line(capsys, ingest_args(src, out, tree_id="P1"))
        assert err == f"fspm ingest: {src / name}:{line}: {message}"
        assert not out.parent.exists()

class TestNotUtf8:
    """An input file that is not UTF-8 ends in exit 1 and one line naming it,
    with no position: the decoder reads in chunks."""

    @staticmethod
    def latin1(path, text):
        path.write_bytes(text.encode("latin-1"))

    def one_error_line(self, capsys, argv):
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        return err[0]

    @pytest.mark.parametrize("name", ["axes.csv", "gus.csv", "internodes.csv", "leaves.csv"])
    def test_measurement_csv(self, tmp_path, capsys, name):
        src = tmp_path / "single"
        src.mkdir()
        for csv_file in SINGLE.iterdir():
            (src / csv_file.name).write_bytes(csv_file.read_bytes())
        rows = (src / name).read_text().splitlines(keepends=True)
        rows.insert(1, "\n" * 50 + "# \xe9t\xe9\n")  # past the first line
        self.latin1(src / name, "".join(rows))
        out = tmp_path / "tree.json"
        err = self.one_error_line(capsys, ingest_args(src, out))
        assert err.startswith(f"fspm ingest: {src / name}: not UTF-8 text (")
        assert "position" not in err and "line" not in err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["tree", "pa_map", "targets", "params", "hidden"])
    def test_json_input(self, grove_pipeline, tmp_path, capsys, which):
        _, trees, params = grove_pipeline
        files = dict(zip(("tree", "pa_map", "targets"), trees["P2"]), params=params)
        files["hidden"] = tmp_path / "fit_result.json"
        files["hidden"].write_text('{"q0": {"P2": 12.0}, "rp": 6.4, "pc": 0.14}')
        bad = tmp_path / "bad" / files[which].name
        bad.parent.mkdir()
        self.latin1(bad, files[which].read_text().replace("{", '{"note": "\xe9", ', 1))
        files[which] = bad
        argv = ["simulate", "--tree", files["tree"], "--pa-map", files["pa_map"],
                "--params", files["params"], "--hidden", files["hidden"],
                "--targets", files["targets"], "--out", tmp_path / "sim"]
        err = self.one_error_line(capsys, argv)
        assert err == f"fspm simulate: {bad}: not UTF-8 text (invalid continuation byte)"
        assert not (tmp_path / "sim").exists()

    def test_tree_json_in_classify(self, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        assert run(*ingest_args(SINGLE, tree)) == 0
        self.latin1(tree, tree.read_text().replace('"T', '"\xe9T', 1))
        err = self.one_error_line(capsys, ["classify-pa", "--tree", tree, "--k", 3,
                                           "--out", tmp_path / "cls"])
        assert err.startswith(f"fspm classify-pa: {tree}: not UTF-8 text")
        assert not (tmp_path / "cls").exists()


class TestRuntimeErrors:
    """A model failure at run time exits 3 with one line, not a traceback."""

    @pytest.mark.parametrize("error", [
        ZeroDemandWithBiomass("cycle 2: 5.0 g to allocate but no demand"),
        SimulationFailed("tree 'P2': cycle 2: 5.0 g to allocate but no demand"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "export-skeleton"])
    def test_exit_3_with_one_line(self, grove_pipeline, tmp_path, capsys, monkeypatch,
                                  error, command):
        import fspm.cli

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(fspm.cli, "simulate", failing)
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(command, "--tree", tree, "--pa-map", pa_map, "--params", params,
                   "--q0", 12.0, "--rp", 6.4, "--pc", 0.14, "--out", out) == 3
        assert capsys.readouterr().err.splitlines() == [f"fspm {command}: {error}"]
        assert not out.exists()

    @pytest.mark.parametrize("command, ring_mode", [
        pytest.param("simulate", "uniform", id="simulate"),
        pytest.param("export-skeleton", "uniform", id="export-skeleton"),
        pytest.param("fit", "uniform", id="fit-uniform"),
        pytest.param("fit", "pipe", id="fit-pipe"),
    ])
    def test_overflowing_length_from_input(self, grove_pipeline, tmp_path, capsys, command,
                                           ring_mode):
        # beta = 400 sends PA 1's allometric length past the largest float.
        # The fit's residual plan fails where the simulator does: no numpy warning.
        _, trees, params = grove_pipeline
        doc = json.loads(Path(params).read_text())
        doc["allometry"]["1"]["beta"] = 400.0
        steep = tmp_path / "direct_params.json"
        steep.write_text(json.dumps(doc))
        tree, pa_map, _ = trees["P2"]
        if command == "fit":  # the grove fit, from its default init
            argv = ["--params", steep, "--n-starts", 0]
            for tree, pa_map, _ in trees.values():
                argv += ["--tree", tree, "--pa-map", pa_map]
            prefix = "fspm fit: tree 'P2': PA 1: allometric length "
        else:
            argv = ["--tree", tree, "--pa-map", pa_map, "--params", steep,
                    "--q0", 1e4, "--rp", 0.5, "--pc", 0.14]
            prefix = f"fspm {command}: PA 1: allometric length "
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(command, *argv, "--ring-mode", ring_mode, "--out", out) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(prefix)
        assert err[0].endswith(" ** 400.0 overflows")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "export-skeleton"])
    def test_zero_demand_from_input(self, late_root, tmp_path, capsys, command):
        # The root's first GU is at cycle 2: the seed mass has no organ to take it.
        dp = DirectParams(p_int={1: 0.5}, allometry={1: (2.0, 1 / 3)}, slw=0.02)
        (tmp_path / "tree.json").write_text(tree_to_json(late_root, MeasurementSet()))
        (tmp_path / "pa_map.json").write_text(pa_map_to_json({"A1": 1}))
        (tmp_path / "dp.json").write_text(dp.to_json())
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(command, "--tree", tmp_path / "tree.json", "--pa-map", tmp_path / "pa_map.json",
                   "--params", tmp_path / "dp.json", "--q0", 1.0, "--rp", 3.0, "--pc", 0.3,
                   "--out", out) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"fspm {command}: cycle 1: 1.0 g to allocate but no demand"
        ]
        assert not out.exists()


def with_value(src, dst, path, value):
    """Write the JSON document at ``src`` to ``dst`` with the leaf at ``path`` set."""
    doc = json.loads(Path(src).read_text())
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    Path(dst).write_text(json.dumps(doc))
    return dst


@pytest.mark.filterwarnings("error")
class TestNumbersBeyondFloats:
    """A JSON number a float cannot hold, sums that would overflow, and a fit
    or a model state that is not finite end in one line and exit 1 or 3: no
    traceback, no numpy warning."""

    def error_line(self, capsys, argv, code):
        capsys.readouterr()
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        return lines[0]

    def test_params_slw(self, grove_pipeline, tmp_path, capsys):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        bad = with_value(params, tmp_path / "direct_params.json", ["slw"], 10**400)
        argv = ["simulate", "--tree", tree, "--pa-map", pa_map, "--params", bad,
                "--q0", 12.0, "--rp", 6.4, "--pc", 0.14, "--out", tmp_path / "sim"]
        assert self.error_line(capsys, argv, 1) == (
            f"fspm simulate: {bad}: slw must be a number that a float can hold, "
            "got an integer of 401 digits")
        assert not (tmp_path / "sim").exists()

    def test_fit_result_q0(self, grove_pipeline, tmp_path, capsys):
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        hidden = tmp_path / "fit_result.json"
        hidden.write_text(json.dumps({"q0": {"P2": 10**400}, "rp": 6.4, "pc": 0.14}))
        argv = ["simulate", "--tree", tree, "--pa-map", pa_map, "--params", params,
                "--hidden", hidden, "--out", tmp_path / "sim"]
        assert self.error_line(capsys, argv, 1) == (
            f"fspm simulate: {hidden}: q0['P2'] must be a number that a float can hold, "
            "got an integer of 401 digits")

    def test_tree_measurement(self, grove_pipeline, tmp_path, capsys):
        _, trees, _ = grove_pipeline
        tree, _, _ = trees["P2"]
        _, paths = edited_trees(tree, tmp_path, lambda doc: doc["measurements"]["internodes"][0]
                                .update(fresh_weight_g=10**400))
        for bad in paths.values():
            argv = ["classify-pa", "--tree", bad, "--k", 3, "--out", tmp_path / "cls"]
            assert self.error_line(capsys, argv, 1) == (
                f"fspm classify-pa: {bad}: measurements.internodes[0]: column 'fresh_weight_g': "
                f"measurement must be finite and > 0, got {10**400}")
            assert not (tmp_path / "cls").exists()

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_target_beyond_floats(self, grove_pipeline, tmp_path, capsys, command):
        _, trees, params = grove_pipeline
        tree, pa_map, targets = trees["P2"]
        bad = with_value(targets, tmp_path / "targets.json",
                         ["entries", "1,1", "mean_internode_weight"], 10**400)
        argv = [command, "--tree", tree, "--pa-map", pa_map, "--params", params,
                "--targets", bad, "--out", tmp_path / "out"]
        argv += ["--n-starts", 0] if command == "fit" else ["--q0", 12.0, "--rp", 6.4, "--pc", 0.14]
        assert self.error_line(capsys, argv, 1) == (
            f"fspm {command}: {bad}: entries['1,1']: mean_internode_weight must be a number "
            "that a float can hold, got an integer of 401 digits")

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_large_integer_target_is_a_float(self, grove_pipeline, tmp_path, capsys, command):
        # 10**30 is beyond int64 but a float holds it: the targets are read
        # as floats, as if written 1e30.
        _, trees, params = grove_pipeline
        tree, pa_map, targets = trees["P2"]
        argv = [command, "--tree", tree, "--pa-map", pa_map, "--params", params]
        argv += ["--n-starts", 0] if command == "fit" else ["--q0", 12.0, "--rp", 6.4, "--pc", 0.14]
        outputs = {}
        for name, value in (("int", 10**30), ("float", 1e30)):
            doc = with_value(targets, tmp_path / f"{name}.json",
                             ["entries", "1,1", "mean_internode_weight"], value)
            capsys.readouterr()
            assert run(*argv, "--targets", doc, "--out", tmp_path / name) in (0, 2)
            assert "Traceback" not in capsys.readouterr().err
            outputs[name] = sorted((p.name, p.read_bytes()) for p in (tmp_path / name).iterdir()
                                   if p.name != "run_manifest.json")
        assert outputs["int"] == outputs["float"]
        if command == "simulate":
            mass = (tmp_path / "int" / "mass_per_gu.csv").read_text().splitlines()
            assert mass[1].startswith('"1,1",1e+30,')

    def test_fit_with_sse_not_finite_exits_3(self, grove_pipeline, tmp_path, capsys):
        # PA-1 allometry b = 5e-324 gives lengths so small that diameters
        # overflow: the SSE at the init is inf, which no fit may report as
        # converged.
        _, trees, params = grove_pipeline
        tiny = with_value(params, tmp_path / "direct_params.json", ["allometry", "1", "b"], 5e-324)
        argv = ["fit", "--params", tiny, "--n-starts", 0, "--out", tmp_path / "fit"]
        for tid in ("P1", "P2"):
            tree, pa_map, _ = trees[tid]
            argv += ["--tree", tree, "--pa-map", pa_map]
        assert self.error_line(capsys, argv, 3) == "fspm fit: tree 'P1': the weighted SSE is inf"
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("path, value, line", [
        (["p_int", "1"], 1e308, "fspm fit: tree 'P1': organ demand is not finite"),
        (["slw"], 5e-324, "fspm fit: tree 'P1': leaf surface is not finite at slw 5e-324 g/cm^2"),
    ], ids=["p_int", "slw"])
    def test_fit_plan_not_finite_exits_3(self, grove_pipeline, tmp_path, capsys, path, value,
                                         line):
        # The plan's fixed maps overflow while the fit problem is built: an
        # internode sink of 1e308, or leaf-surface weights of 1 / 5e-324.
        _, trees, params = grove_pipeline
        bad = with_value(params, tmp_path / "direct_params.json", path, value)
        argv = ["fit", "--params", bad, "--n-starts", 0, "--out", tmp_path / "fit"]
        for tid in ("P1", "P2"):
            tree, pa_map, _ = trees[tid]
            argv += ["--tree", tree, "--pa-map", pa_map]
        assert self.error_line(capsys, argv, 3) == line
        assert not (tmp_path / "fit").exists()

    def test_fit_leaf_surface_overflows_in_a_sweep_exits_3(self, grove_pipeline, tmp_path,
                                                          capsys, monkeypatch):
        # At slw 1e-305 the plan's leaf-surface weights are finite.  In the
        # first sweep P1's cycle-1 surface, about 6.4e305, underflows exp to
        # 0 and passes; its cycle-2 surface overflows, which fails the fit
        # before any tangent pass.
        _, trees, params = grove_pipeline
        bad = with_value(params, tmp_path / "direct_params.json", ["slw"], 1e-305)
        tangent_passes = []
        jacobian = calibrate._jacobian
        monkeypatch.setattr(calibrate, "_jacobian",
                            lambda *args: tangent_passes.append(args) or jacobian(*args))
        argv = ["fit", "--params", bad, "--n-starts", 0, "--out", tmp_path / "fit"]
        for tid in ("P1", "P2"):
            tree, pa_map, _ = trees[tid]
            argv += ["--tree", tree, "--pa-map", pa_map]
        assert self.error_line(capsys, argv, 3) == (
            "fspm fit: tree 'P1': cycle 2: leaf surface is not finite at slw 1e-305 g/cm^2")
        assert tangent_passes == []
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("command", ["simulate", "export-skeleton"])
    @pytest.mark.parametrize("path, value, line", [
        (["slw"], 5e-324, r"cycle 1: leaf surface of \S+ g of blades at slw 5e-324 g/cm\^2 "
                          r"is not finite"),
        (["allometry", "1", "b"], 5e-324,
         r"PA 1: diameter of an internode of \S+ g and length \S+ cm is not finite"),
        (["p_int", "1"], 1e308, r"cycle 1: organ demand is not finite \(inf\)"),
    ], ids=["slw", "b", "p_int"])
    def test_model_state_not_finite_exits_3(self, grove_pipeline, tmp_path, capsys, command,
                                            path, value, line):
        # A leaf surface, a diameter or a demand past the largest float is a
        # model failure: nothing is written.
        _, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P2"]
        bad = with_value(params, tmp_path / "direct_params.json", path, value)
        out = tmp_path / ("sim" if command == "simulate" else "skeleton.csv")
        argv = [command, "--tree", tree, "--pa-map", pa_map, "--params", bad,
                "--q0", 12.0, "--rp", 6.4, "--pc", 0.14, "--out", out]
        assert re.fullmatch(f"fspm {command}: {line}", self.error_line(capsys, argv, 3))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["direct_params.json"]

    @pytest.mark.parametrize("row, pa", [(17, 2), (24, 3)])
    def test_sink_sums_overflow_exits_1(self, grove_pipeline, tmp_path, capsys, row, pa):
        # An internode of 1e308 g in a top GU: the sink regression's sums
        # of squares would overflow.
        _, trees, _ = grove_pipeline
        _, paths = edited_trees(trees["P1"][0], tmp_path, lambda doc: doc["measurements"][
            "internodes"][row].update(fresh_weight_g=1e308))
        for bad in paths.values():
            argv = ["estimate", "--out", tmp_path / "est"]
            for tid, (tree, pa_map, _) in trees.items():
                argv += ["--tree", bad if tid == "P1" else tree, "--pa-map", pa_map]
            assert re.fullmatch(rf"fspm estimate: PA {pa} sink ratio: \d+ pairs of masses must "
                                rf"stay below \S+ g, got 5e\+307",
                                self.error_line(capsys, argv, 1))
            assert not (tmp_path / "est").exists()


# JSON values that replace one scalar of a document: each type, zero and
# negatives, a subnormal, the non-finite floats and numbers no float holds.
MUTATIONS = ["null", "true", '"x"', "-1", "0", "2.5", "1e-320", "Infinity", "-Infinity", "NaN",
             "1e400", str(10**400), "[]", "{}"]
# The upper bound of each bounded integer cell, by its key.
BOUNDS = {"age": MAX_CYCLE, "ca": MAX_CYCLE, "gu_ca": MAX_CYCLE, "insertion_ca": MAX_CYCLE,
          "internode_count": MAX_INTERNODES_PER_GU, "rank_in_gu": MAX_INTERNODES_PER_GU,
          "sample_index": 3}


def scalar_places(doc, sampled, place=()):
    """The place of each scalar of ``doc``; with ``sampled``, only of the
    first and last items of each list."""
    if isinstance(doc, (dict, list)):
        keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
        if sampled and isinstance(doc, list):
            keys = list(dict.fromkeys(keys[:1] + keys[-1:]))
        for key in keys:
            yield from scalar_places(doc[key], sampled, place + (key,))
    else:
        yield place


@pytest.mark.filterwarnings("error")
class TestJsonReaderMutations:
    def test_one_scalar_replaced(self, grove_pipeline):
        """Each reader of P2's files, in their indented and compact texts,
        returns or raises a ValidationError, whatever one scalar is replaced
        by; an integer cell also by its bound + 1.  The tree's lists are
        sampled at their first and last items."""
        _, trees, params = grove_pipeline
        tree, pa_map, targets = trees["P2"]
        readers = {tree: tree_from_json, pa_map: pa_map_from_json,
                   targets: TargetSeries.from_json, params: DirectParams.from_json}
        for path, reader in readers.items():
            doc = json.loads(path.read_text())
            for place in scalar_places(doc, sampled=reader is tree_from_json):
                parent = doc
                for key in place[:-1]:
                    parent = parent[key]
                value, parent[place[-1]] = parent[place[-1]], "MUTATED"
                bound = DEFAULT_P_MAX if reader is pa_map_from_json else BOUNDS.get(place[-1])
                mutations = MUTATIONS
                if type(value) is int and bound is not None:
                    mutations = MUTATIONS + [str(bound + 1)]
                for indent in (None, 2):
                    text = json.dumps(doc, indent=indent, sort_keys=True)
                    for mutation in mutations:
                        try:
                            reader(text.replace('"MUTATED"', mutation), path.name)
                        except ValidationError:
                            pass
                        except Exception as exc:
                            pytest.fail(f"{path.name} {list(place)} = {mutation}: {exc!r}")
                parent[place[-1]] = value


class TestSimulateCycles:
    def test_truncated_horizon(self, grove_pipeline):
        base, trees, params = grove_pipeline
        tree, pa_map, _ = trees["P3"]
        out = base / "sim_trunc"
        code = run("simulate", "--tree", tree, "--pa-map", pa_map,
                   "--params", params, "--q0", 12.0, "--rp", 6.4, "--pc", 0.14,
                   "--cycles", 2, "--out", out)
        assert code == 0
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 cycles


class TestFitComparisonRoundTrip:
    def test_exported_rmse_tiny_at_fitted_params(self, tmp_path):
        import csv as csv_mod

        dp = DirectParams(p_int={1: 0.561}, allometry={1: (5.0, 0.3)}, slw=0.0287)
        rules = GrowthRules(p_max=1, internodes_per_gu=2)
        t = generate_topology(rules, 4, "s1")
        trace = simulate(HiddenParams(7.0, 4.5, 0.2), dp, t)
        (tmp_path / "dp.json").write_text(dp.to_json())
        (tmp_path / "t.json").write_text(tree_to_json(t, MeasurementSet()))
        (tmp_path / "pa.json").write_text(pa_map_to_json({"a000001": 1}))
        (tmp_path / "tg.json").write_text(targets_from_trace(trace, dp).to_json())
        assert run("fit", "--tree", tmp_path / "t.json", "--pa-map", tmp_path / "pa.json",
                   "--targets", tmp_path / "tg.json", "--params", tmp_path / "dp.json",
                   "--init-q0", 10.0, "--init-rp", 6.0, "--init-pc", 0.3,
                   "--n-starts", 1, "--out", tmp_path / "fit") == 0
        fitted = json.loads((tmp_path / "fit" / "fit_result.json").read_text())
        assert run("simulate", "--tree", tmp_path / "t.json",
                   "--pa-map", tmp_path / "pa.json", "--params", tmp_path / "dp.json",
                   "--hidden", tmp_path / "fit" / "fit_result.json",
                   "--targets", tmp_path / "tg.json", "--out", tmp_path / "sim") == 0
        assert fitted["converged"] is True
        for family in ("diameter_per_gu", "mass_per_gu", "cum_internode", "cum_blade"):
            with open(tmp_path / "sim" / f"{family}.csv", newline="") as fh:
                rows = list(csv_mod.DictReader(fh))
            rel_sq = [
                ((float(r["simulated"]) - float(r["measured"]))
                 / max(abs(float(r["measured"])), 1e-3)) ** 2
                for r in rows
            ]
            rmse = (sum(rel_sq) / len(rel_sq)) ** 0.5
            assert rmse < 1e-3, f"{family}: relative RMSE {rmse}"


class TestBench:
    def test_bench_writes_report(self, tmp_path):
        out = tmp_path / "bench"
        assert run("bench-substructure", "--cycles", 12, "--pmax", 3,
                   "--branching", 2, "--out", out) == 0
        doc = json.loads((out / "bench.json").read_text())
        assert doc["organ_count_analytic"] > doc["cohorts"]
        assert doc["factored_seconds"] < 5.0


class TestSharedParser:
    """``main`` parses every call with one parser, which keeps no state."""

    def test_repeated_flags_do_not_carry_over(self, grove_pipeline, tmp_path, capsys,
                                              monkeypatch):
        import fspm.cli

        loaded = []
        load_tree = fspm.cli._load_tree

        def recording(path):
            loaded.append(path)
            return load_tree(path)

        monkeypatch.setattr(fspm.cli, "_load_tree", recording)
        _, trees, _ = grove_pipeline
        pairs = []
        for tree, pa_map, _ in trees.values():
            pairs += ["--tree", tree, "--pa-map", pa_map]
        assert run("estimate", *pairs, "--out", tmp_path / "four") == 0
        assert len(loaded) == 4
        # One grove tree alone is too few to estimate from.
        tree, pa_map, _ = trees["P2"]
        capsys.readouterr()
        assert run("estimate", "--tree", tree, "--pa-map", pa_map, "--out", tmp_path / "one") == 1
        assert loaded[4:] == [str(tree)]
        assert "got 1" in capsys.readouterr().err

    def test_valid_call_after_a_usage_error(self, tmp_path, capsys):
        assert run("ingest", "--axes", SINGLE / "axes.csv") == 1
        assert "usage" in capsys.readouterr().err
        assert run(*ingest_args(SINGLE, tmp_path / "tree.json")) == 0
        assert (tmp_path / "tree.json").exists()

    def test_build_parser_returns_a_fresh_parser(self):
        from fspm.cli import build_parser

        assert build_parser() is not build_parser()


class TestConsoleScript:
    def test_fspm_log_applies_on_every_call(self, tmp_path, monkeypatch):
        # logging.basicConfig configures only the first call in a process.
        cli_logger = logging.getLogger("fspm.cli")
        package_logger = logging.getLogger("fspm")
        saved = package_logger.level
        try:
            for value, level in (("error", logging.ERROR), ("debug", logging.DEBUG)):
                monkeypatch.setenv("FSPM_LOG", value)
                assert run(*ingest_args(SINGLE, tmp_path / value / "tree.json")) == 0
                assert cli_logger.getEffectiveLevel() == level
        finally:
            package_logger.setLevel(saved)

    def test_fspm_log_env_controls_verbosity(self, tmp_path, src_env):
        import subprocess
        import sys

        tree = tmp_path / "tree.json"
        assert run(*ingest_args(SINGLE, tree)) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "fspm.cli", "classify-pa", "--tree", str(tree),
             "--k", "3", "--out", str(tmp_path / "cls")],
            capture_output=True, text=True, env=dict(src_env, FSPM_LOG="info"),
        )
        assert proc.returncode == 0
        assert "cluster means" in proc.stderr
