"""fspm benchmark: one workload in one process, untraced or traced.

    python3 benchmarks/run.py --workload roundtrip-fit --seed 0 --seconds 35 --trace 0

Sets the workload up, then runs passes for ``--seconds``: at least two, and
no more once the next would end after ``--seconds``.  A pass is every unit
of the workload once: two fits, or one CLI batch; every pass of a run does
the same work.  Set-up (re-import fspm, rebuild the inputs) runs several
times first and again before each pass, so no pass starts with another
pass's state.  Every timing is taken with a ``HostMeter``, which also
measures the host's speed while the work runs and gives the work's time at
a fixed reference speed: ``wall_s`` sums each unit's median over the passes,
``setup_s`` is the median set-up.  In a traced run every unit runs
untraced, then traced.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics named in
``BENCHMARK.json`` with ``--trace 1``.  A fuller record (provenance, input
checksums, every timing) goes to ``benchmarks/out/``, and the spans of a
traced run next to it.
"""
from __future__ import annotations

import os

# One process, no BLAS worker threads: the numbers describe fspm, not a pool.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402  (a toolchain import, kept out of setup_s)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 10  # before the first pass
PASS_SETUPS = 2  # before each pass
MIN_PASSES = 2  # so that every timing is the median of at least two samples


def import_fspm() -> None:
    """Import fspm from scratch, and only from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "fspm" or n.startswith("fspm.")]:
        del sys.modules[name]
    import fspm
    import fspm.cli  # noqa: F401

    if Path(fspm.__file__).resolve().parent != SRC / "fspm":
        raise ImportError(f"fspm imported from {fspm.__file__}, not from {SRC}")


def provenance(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    head = REPO / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = REPO / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    source = hashlib.sha256()
    for path in sorted((SRC / "fspm").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


PROBE_INTERVAL_S = 0.02  # wall time between two host-speed probes
PROBE_REF_S = 2.5e-4  # about the probe's time on a quiet 2-vCPU Xeon host
PROBE_ARRAY = numpy.linspace(0.0, 1.0, 48)


def probe() -> None:
    """A fixed loop of small-array numpy calls, the kind of work fspm does.

    No fspm code runs in it, so no change to fspm moves it.
    """
    a = PROBE_ARRAY
    for _ in range(60):
        a = numpy.maximum(a * 1.01 - 0.001, 0.0)
        float(a.sum())


class HostMeter:
    """Times work together with the host's speed while the work runs.

    On a shared host the same work can take twice as long in one minute as
    in the next, and the slow phases outlast a run.  So while a timing is
    open, a SIGALRM handler times ``probe`` every ``PROBE_INTERVAL_S`` of
    wall time, in the one thread the work runs in; one more probe runs just
    before the timing and one just after.  ``clock`` leaves out the
    handler's own time, so neither the work's time nor the tracer's spans
    include it.  A timing's ``seconds`` is the work's time at reference
    speed: its raw time times the mean of ``PROBE_REF_S / probe time`` over
    its probes.  A slow phase of the host slows the work and the probe
    alike and cancels out; a change to fspm moves the work alone.
    """

    def __init__(self) -> None:
        self.spent = 0.0  # seconds spent in probes
        self.probes: list[float] = []
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _probe(self, *_signal) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    @contextlib.contextmanager
    def timing(self):
        """Yield a dict that, on exit, holds ``work_s``, ``probe_s`` and ``seconds``."""
        timed = {}
        first = len(self.probes)
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = self.clock()
        try:
            yield timed
        finally:
            work = self.clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()
            probes = self.probes[first:]
            speed = statistics.fmean(PROBE_REF_S / p for p in probes)
            timed.update(work_s=work, probe_s=statistics.median(probes), seconds=work * speed)


def run_unit(workload, unit, work: Path, meter: HostMeter,
             tracer=None) -> tuple[dict, list[bool], dict[str, bytes]]:
    out = work / "unit"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with tracer.installed() if tracer else contextlib.nullcontext():
        with meter.timing() as timed:
            ops = workload.run(out, unit)
    return timed, ops, workloads.artifacts(out)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size inputs, for the harness's own tests")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](small=args.small)
    work = OUT / f"work-{args.workload}-{os.getpid()}"

    inputs = {}
    meter = HostMeter()

    def setup() -> dict:
        with meter.timing() as timed:
            import_fspm()
            inputs.update(workload.setup(args.seed, work / "inputs"))
        return timed

    try:
        setups = [setup() for _ in range(SETUP_REPEATS)]
        # traced? -> unit index -> timing of each run of that unit
        walls = {False: {}, True: {}}
        layer_passes, spans, ops = [], [], []
        reference = {}
        deadline = time.perf_counter() + args.seconds
        while True:
            pass_started = time.perf_counter()
            setups.extend(setup() for _ in range(PASS_SETUPS))
            tracer = tracing.Tracer(meter.clock) if args.trace else None
            for k, unit in enumerate(workload.units):
                for traced in (False, True) if args.trace else (False,):
                    timed, unit_ops, produced = run_unit(
                        workload, unit, work, meter, tracer if traced else None)
                    walls[traced].setdefault(k, []).append(timed)
                    if reference.setdefault(k, produced) != produced:
                        unit_ops.append(False)  # tracing or a rerun changed an output byte
                    ops.extend(unit_ops)
            if tracer:
                traced_work = sum(t[-1]["work_s"] for t in walls[True].values())
                layer_passes.append(tracing.layer_metrics(tracer.spans, traced_work))
                t_ref = tracer.spans[0][3] if tracer.spans else 0.0
                spans.append([[s[0], s[1], s[2], round(s[3] - t_ref, 7),
                               round(s[4] - t_ref, 7), s[5]] for s in tracer.spans])
            now = time.perf_counter()
            if len(walls[False][0]) >= MIN_PASSES and 2 * now - pass_started > deadline:
                break  # another pass like this one would end after the deadline
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def pass_seconds(traced: bool) -> float:
        return sum(statistics.median(t["seconds"] for t in ts) for ts in walls[traced].values())

    if args.trace:
        layers = tracing.median_metrics(layer_passes)
        layers["trace.wall_s"] = pass_seconds(True)
        layers["trace.untraced_wall_s"] = pass_seconds(False)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        metrics = {name: metric(layers[name], unit) for name, unit in per_layer_units().items()}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": metric(pass_seconds(False), "s"),
            "setup_s": metric(statistics.median(t["seconds"] for t in setups), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
    failed = sum(1 for ok in ops if not ok)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-small' if args.small else ''}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "small": args.small, "seconds": args.seconds,
        "provenance": provenance(args.seed), "inputs": inputs,
        "probe": {"interval_s": PROBE_INTERVAL_S, "ref_s": PROBE_REF_S,
                  "median_s": statistics.median(meter.probes)},
        "setup": setups, "unit": walls[False], "traced_unit": walls[True],
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
