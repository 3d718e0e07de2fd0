"""Tests of the benchmark harness itself (not part of the fspm suite).

    python3 -m pytest -q benchmarks/tests
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
RUN = BENCH / "run.py"
sys.path[:0] = [str(REPO / "src"), str(BENCH)]

import largetree  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def harness(*args, cwd=REPO):
    proc = subprocess.run([sys.executable, str(RUN), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["roundtrip-fit", "large-tree"])
def test_traced_counts_repeat_and_outputs_match_untraced(workload):
    # Within a run every traced unit's fit results and skeletons must equal
    # the untraced ones byte for byte, or the harness counts a failure.
    runs = [result_of(harness("--workload", workload, "--seed", 0, "--seconds", 0,
                              "--trace", 1, "--small")) for _ in range(2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == set(run.per_layer_units())
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["engine.simulate_calls"] > 0


def test_host_meter_leaves_its_probes_out_and_disarms():
    meter = run.HostMeter()
    before = signal.getsignal(signal.SIGALRM)
    with meter.timing() as timed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.probes) >= 4  # one before, one after, and the alarms in between
    in_window = sum(meter.probes[1:-1])
    assert timed["work_s"] == pytest.approx(0.2 - in_window, abs=0.01)
    assert timed["seconds"] > 0


def test_acceptance_fit_makes_9256_simulate_calls(tmp_path):
    run.import_fspm()
    wl = workloads.RoundtripFit()
    wl.setup(0, tmp_path)
    assert wl.units[0] == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert wl.run(tmp_path, 0) == [True]
    m = tracing.layer_metrics(tracer.spans, 1.0)
    assert m["engine.simulate_calls"] == 9256
    assert m["calibrate.sims_in_jacobian_share"] > 0.5


def test_generator_is_seeded_and_matches_branching_rule():
    assert largetree.generate(3) == largetree.generate(3)
    assert largetree.generate(3) != largetree.generate(4)
    for age, internodes in ((10, 4520), (8, 1696)):
        assert largetree.internode_count(age) == internodes
        gus = sum(age - first + 1 for *_, first in largetree.axes_of(age))
        assert gus * largetree.INTERNODES_PER_GU == internodes
    assert len(largetree.axes_of(10)) == 835 and len(largetree.axes_of(8)) == 379


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "large-tree",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
