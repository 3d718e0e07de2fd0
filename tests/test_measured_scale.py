"""Output bytes of a generated measured-scale batch, pinned.

The benchmark's seeded generator ``benchmarks/largetree.py`` is read as it
stands, never edited, and writes the four CSVs of two small trees.  The
measurement path (``ingest --tree-id``, ``classify-pa``, a pooled
``estimate``) must turn them into the same bytes after any rewrite of its
internals.  The digests were recorded with CPython 3.11, whose ``sum()`` of
floats adds left to right.
"""
import hashlib
import importlib.util
from pathlib import Path

from fspm.cli import main

LARGETREE = Path(__file__).resolve().parents[1] / "benchmarks" / "largetree.py"
TREES = (("L1", 6), ("L2", 5))

DIGESTS = {
    "L1.json": "3dd64dcaec454dceb406161843211d6e6b77ffb9b7b50927b2a1adac03b8e0c4",
    "L2.json": "8000446e3850bfd6b93e89aa088c577e9f8be585342ee13ea69269bfa8c5eec9",
    "cls_L1/pa_map.json": "c28ad8f978cc4410a7600df77c08be705ce865506b34661eddc355a77ffef8aa",
    "cls_L1/targets.json": "1f1245239e5437f5d1fc91c6bbf0900825cb46b536ab324a8df0141431a0f993",
    "cls_L2/pa_map.json": "989ac1c95b7dc0c24b11d4a82cefd36a901846edb0729f4b3bb06c9c92d552bf",
    "cls_L2/targets.json": "e9572c856d244d470a9e50d13547000ae7a79c76d371626c8b40441f022690c7",
    "est/direct_params.json": "79af616fe60cca1a162223894b883441b7b516d0a76dfa27f8b940fc61eaa1f6",
}


def load_largetree():
    spec = importlib.util.spec_from_file_location("_fspm_bench_largetree", LARGETREE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measurement_path_output_bytes(tmp_path):
    src = tmp_path / "csv"
    load_largetree().write(src, 0, TREES)
    tree_args = []
    for tree_id, _ in TREES:
        tree = tmp_path / f"{tree_id}.json"
        assert main([str(a) for a in (
            "ingest", "--axes", src / "axes.csv", "--gus", src / "gus.csv",
            "--internodes", src / "internodes.csv", "--leaves", src / "leaves.csv",
            "--tree-id", tree_id, "--out", tree)]) == 0
        cls = tmp_path / f"cls_{tree_id}"
        assert main(["classify-pa", "--tree", str(tree), "--k", "4", "--out", str(cls)]) == 0
        tree_args += ["--tree", str(tree), "--pa-map", str(cls / "pa_map.json")]
    assert main(["estimate", *tree_args, "--out", str(tmp_path / "est")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DIGESTS}
    assert digests == DIGESTS
