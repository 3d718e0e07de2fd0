"""Output bytes of a generated measured-scale batch, pinned.

The benchmark's seeded generator ``benchmarks/largetree.py`` is read as it
stands, never edited, and writes the four CSVs of two small trees.  The
measurement path (``ingest --tree-id``, ``classify-pa``, a pooled
``estimate``) and the model outputs on top of it (a pipe-mode ``simulate``
against each tree's targets and a seeded ``export-skeleton``) must turn them
into the same bytes after any rewrite of their internals.  The digests were
recorded with CPython 3.11, whose ``sum()`` of floats adds left to right.
"""
import hashlib
import importlib.util
from pathlib import Path

from fspm.cli import main

LARGETREE = Path(__file__).resolve().parents[1] / "benchmarks" / "largetree.py"
TREES = (("L1", 6), ("L2", 5))
HIDDEN = ["--q0", "12", "--rp", "6.4", "--pc", "0.14"]

DIGESTS = {
    "L1.json": "ba5ee8fd32a5caefb0d60a0e27929b6b9ff460c49d9cff3972ea1f123c64ab5c",
    "L2.json": "fbdc80ea8588e412de7568a273aae2f44614acf6c638672bd17d622cd4176fd8",
    "cls_L1/pa_map.json": "c28ad8f978cc4410a7600df77c08be705ce865506b34661eddc355a77ffef8aa",
    "cls_L1/targets.json": "1f1245239e5437f5d1fc91c6bbf0900825cb46b536ab324a8df0141431a0f993",
    "cls_L2/pa_map.json": "989ac1c95b7dc0c24b11d4a82cefd36a901846edb0729f4b3bb06c9c92d552bf",
    "cls_L2/targets.json": "e9572c856d244d470a9e50d13547000ae7a79c76d371626c8b40441f022690c7",
    "est/direct_params.json": "79af616fe60cca1a162223894b883441b7b516d0a76dfa27f8b940fc61eaa1f6",
    "sim_L1/organs.csv": "90904639b9362182e997d1145544a322f9c29c5bc6f5164a96c3c1d5e0b4f4f0",
    "sim_L1/trace.csv": "ef2be8cbc953ebdeaed0611a49d075a4258ac07a91685599c8434a4cf9bca600",
    "sim_L1/diameter_per_gu.csv": "ab093f38126e318df19ca740e1ed4731ec61f49aa6601050bbccde9909d8a82a",
    "sim_L1/mass_per_gu.csv": "9d5d79a66fd151ef8dbdb7fb83b2679241151167d1ac5fdc345a837f5ffbd667",
    "sim_L1/cum_internode.csv": "9ca506ff3f3b2db4c745ed024368cbcdae1dd723567eabd3de335d7360c790b6",
    "sim_L1/cum_blade.csv": "b4c256eba60b14565326196c98eda6ac91738a656005559042e5c0b9bdb648b5",
    "sim_L2/organs.csv": "dfcf5f49ad5a3172b39015febed75255c48427f8add619097fd69435ef3ac5ae",
    "sim_L2/trace.csv": "552ad07792a773bb245467278518b86c61f99155b484959351ac232cf0b9bf0c",
    "sim_L2/diameter_per_gu.csv": "0fc8e7d7767ddbefc790976985c58f06db195f88a08965e0f61121e23e2d2e37",
    "sim_L2/mass_per_gu.csv": "3e1ce8e8acb4a017da8f8520e3f5cfa0b8b6b084f41a74a8d21b031d519dd80c",
    "sim_L2/cum_internode.csv": "35a3f6efa7f066b3a8667735004d76f572fb2bd9c9a26b3c97e8a4ba3f7093d7",
    "sim_L2/cum_blade.csv": "ab386a6e36862750ddbce724368efa06012e28857fd2554fe847bd9ed9b58c45",
    "L1_skeleton.csv": "ddd43f6b8bbf4e43e559690cc275c87bdd7bec73605d61574c6b89c8e67988b1",
    "L2_skeleton.csv": "2d7c014a284fade64cab4e457e5d5e8c1d4994e81d1d66637f62e6102c936c07",
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
    params = tmp_path / "est" / "direct_params.json"
    assert main(["estimate", *tree_args, "--out", str(tmp_path / "est")]) == 0
    for tree_id, _ in TREES:
        common = ["--tree", str(tmp_path / f"{tree_id}.json"),
                  "--pa-map", str(tmp_path / f"cls_{tree_id}" / "pa_map.json"),
                  "--params", str(params), *HIDDEN, "--ring-mode", "pipe"]
        targets = tmp_path / f"cls_{tree_id}" / "targets.json"
        assert main(["simulate", *common, "--targets", str(targets),
                     "--out", str(tmp_path / f"sim_{tree_id}")]) == 0
        assert main(["export-skeleton", *common, "--seed", "7",
                     "--out", str(tmp_path / f"{tree_id}_skeleton.csv")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DIGESTS}
    assert digests == DIGESTS
