"""Benchmark command: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload sparse_pipeline --seed 1 --seconds 40 --trace 0

Runs from the root of a graphon-kit source tree (imports ``src/graphon_kit``).
Prints one JSON object as the last line of stdout and writes the full record
to ``BENCH_<workload>_s<seed>[_trace].json`` in the current directory.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median wall time of
one op), ``peak_rss_mb`` (the process's ru_maxrss) and ``setup_s`` (process
start to the end of one untimed warm-up op); each time is scaled to the
reference speed by the reference times taken just before and after it (see
reference_s). An op that raises or fails a check counts in ``failed`` and
makes ``correct`` false. ``--trace 1`` runs each op
untraced and then traced on the same seeds, and reports the per-layer metrics
(medians over the traced ops) and ``trace.overhead_s`` (median traced minus
untraced time).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One worker thread and one BLAS thread: pool x BLAS threads stays within
# nproc on any machine, and ops do not contend with each other for cores.
PINS = {"GRAPHON_KIT_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)  # before numpy is imported

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
END_TO_END = (("op_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def process_age() -> float:
    """Seconds since this process started (clock-tick resolution)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_T0 = process_age()


def per_layer_names() -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def op_seeds(seed: int, index: int, count: int) -> list:
    import numpy as np
    return [int(v) for v in np.random.SeedSequence([seed, index]).generate_state(count)]


# Time of reference_s() at which op_s and setup_s read as plain wall time.
REF_NOMINAL_S = 0.2


def reference_s() -> float:
    """Wall time of a fixed mix of interpreter-bound Python, memory-bound
    numpy and small BLAS work, i.e. how fast the machine runs right now.

    On a shared machine the same work can run a third slower or more for
    minutes at a time. A run times this before every op and once after the
    last, and each op's time is multiplied by REF_NOMINAL_S / the mean of
    the two reference times around it, so a slow spell is cancelled where
    it happens. A change to graphon-kit moves the scaled time one for one."""
    import numpy as np
    t = time.perf_counter()
    acc, d = 0, {}
    for i in range(300_000):
        d[i % 997] = d.get(i % 997, 0) + i
        acc += i * i % 7
    x = np.arange(500_000, dtype=float)
    y = np.empty_like(x)            # in place: the reference adds ~8 MB at most
    for _ in range(32):
        np.multiply(x, 1.0001, out=y)
        np.add(y, 1.0, out=y)
        acc += float(np.sqrt(y, out=y).sum())
    m = np.ones((120, 120))
    for _ in range(200):
        m = (m @ m) / 120.0
    return time.perf_counter() - t


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` at the reference speed, judged by the references around it."""
    return wall * REF_NOMINAL_S / ((ref_before + ref_after) / 2.0)


def discard(out) -> None:
    """Remove the op's files, if it wrote any."""
    if isinstance(out, dict) and "dir" in out:
        shutil.rmtree(out["dir"], ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    import numpy as np
    import scipy
    import graphon_kit  # noqa: F401  (import cost belongs to set-up)
    import workloads
    from layertrace import Tracer

    # a terminated run still removes its temporary files (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    wl = workloads.WORKLOADS[workload](sizes[workload], tmp)
    tracer = Tracer() if trace else None
    times = {False: [], True: []}   # (wall time, index of the round) of ops that passed
    layers = []
    errors = []
    attempted = failed = 0

    def attempt(seeds, traced=False):
        """Run, time and check one op; its wall time, or None if it failed."""
        nonlocal attempted, failed
        attempted += 1
        out = None
        try:
            if traced:
                tracer.install()
            try:
                t = time.perf_counter()
                out = wl.op(seeds)
                dt = time.perf_counter() - t
            finally:
                if traced:
                    tracer.uninstall()
                    layers.append(tracer.take())
            fails = wl.check(seeds, out)
        except Exception:
            fails = [traceback.format_exc(limit=3)]
        finally:
            discard(out)
        if fails:
            failed += 1
            errors.append({"seeds": seeds, "failures": fails})
            return None
        return dt

    try:
        wl.setup()
        # the warm-up op's inputs do not depend on --seed, so its cost (part
        # of setup_s) is the same in every run; its reference time is not
        # part of set-up
        t = time.perf_counter()
        ref_setup = reference_s()
        ref_in_setup = time.perf_counter() - t
        attempt(op_seeds(0, 0, wl.seeds_per_op))
        setup_wall = AGE_AT_T0 + time.perf_counter() - T0 - ref_in_setup

        # A round is one op, or in a traced run the same op untraced and then
        # traced, after a reference time. No round starts that would end past
        # the deadline, so a run lasts about --seconds however long its ops take.
        rounds = []
        refs = []
        start = time.perf_counter()
        for index in itertools.count(1):
            elapsed = time.perf_counter() - start
            if rounds and elapsed + statistics.median(rounds) > seconds and (
                    times[False] or elapsed > 2 * seconds):
                break
            refs.append(reference_s())
            seeds = op_seeds(seed, index, wl.seeds_per_op)
            for traced in (False, True) if trace else (False,):
                dt = attempt(seeds, traced)
                if dt is not None:
                    times[traced].append((dt, index - 1))
            rounds.append(time.perf_counter() - start - elapsed)
        refs.append(reference_s())
    finally:
        getattr(wl, "close", lambda: None)()
        shutil.rmtree(tmp, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": sizes[workload], "attempted": attempted, "failed": failed,
        "errors": errors, "tally": getattr(wl, "tally", {}),
        "op_times_s": [dt for dt, _ in times[False]],
        "traced_op_times_s": [dt for dt, _ in times[True]],
        "reference_s": refs, "setup_reference_s": ref_setup, "setup_wall_s": setup_wall,
        "env": {"pins": PINS, "nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "machine": platform.machine()},
    }
    if trace:
        merged = {}
        for key in sorted({k for d in layers for k in d}):
            merged[key] = statistics.median(d.get(key, 0.0) for d in layers)
        untraced = dict((i, dt) for dt, i in times[False])
        overheads = [dt - untraced[i] for dt, i in times[True] if i in untraced]
        if overheads:
            merged["trace.overhead_s"] = statistics.median(overheads)
        merged.update(getattr(wl, "layer_metrics", dict)())
        record["layers_median_per_op"] = merged
        metrics = {name: {"value": float(merged.get(name, 0.0)), "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        values = {"peak_rss_mb": rss_mb,
                  "setup_s": scaled(setup_wall, ref_setup, refs[0])}
        if times[False]:
            values["op_s"] = statistics.median(
                scaled(dt, refs[i], refs[i + 1]) for dt, i in times[False])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END if name in values}
    record["metrics"] = metrics
    record["result"] = {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return record


def emit(record: dict) -> None:
    """Write the full record to BENCH_*.json and print the result line."""
    trace = "_trace" if record["trace"] else ""
    with open(f"BENCH_{record['workload']}_s{record['seed']}{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if record["errors"]:
        print(json.dumps(record["errors"][:3], indent=1), file=sys.stderr)
    print(json.dumps(record["result"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sparse_pipeline", "planted_search", "cut_and_align"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graphon_kit" / "__init__.py").is_file():
        print(f"error: no graphon-kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads
    emit(run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.SIZES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
