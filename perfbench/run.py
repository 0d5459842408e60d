"""ufolab benchmark: one command for the train, sweep and score workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                       # self-test, then every workload
    python3 perfbench/run.py --selftest            # only the self-test of the checks

Run it from the root of a source checkout; it imports ``ufolab`` from
``src/``.  Every metric is printed by name with its unit and the sample
count behind it.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The exit code is 0 only when every operation and correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"  # 1 and 2 threads gave the same train step time on 2 cores
SETUP_REPEATS = 5  # before the timed loop, and as many again after it
WORKLOAD_NAMES = ("train", "sweep", "score")
_IMPORT_PROBE = ("import time, numpy; t = time.perf_counter(); import ufolab; "
                 "print(time.perf_counter() - t)")


def _pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library mapped into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        rev = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def import_seconds() -> float:
    """Cold ``import ufolab`` (NumPy already loaded) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class SetupTimer:
    """Repeated set-ups of one workload; their medians make ``setup_s``.

    Half the repeats run before the timed loop and half after it, so that
    a slow spell of the machine at either end weighs less.
    """

    def __init__(self, setup, seed: int, work: Path):
        self.setup, self.seed, self.work = setup, seed, work
        self.imports: list[float] = []
        self.totals: list[float] = []
        self.stages: list[dict] = []

    def repeat(self, n: int):
        ctx = None
        for _ in range(n):
            self.imports.append(import_seconds())
            where = self.work / f"setup{len(self.totals)}"
            where.mkdir()
            stages: dict = {}
            t0 = time.perf_counter()
            ctx = self.setup(self.seed, where, stages)
            self.totals.append(time.perf_counter() - t0)
            self.stages.append(stages)
        return ctx

    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.totals)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    from checks import Tally
    from workloads import WORKLOADS, OpClock

    setup, run, op_ms = WORKLOADS[name]
    env = environment(seed)
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    timer = SetupTimer(setup, seed, work)
    ctx = timer.repeat(SETUP_REPEATS)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    tally = Tally()
    clock = OpClock(tally, tracer)
    crashed = None
    result = {"human": [], "work_per_s": 0.0}
    try:
        result = run(ctx, seconds, clock)
    except Exception:  # the program under test failed; report it as a failed operation
        crashed = traceback.format_exc()
    del ctx
    timer.repeat(SETUP_REPEATS)
    setup_s = timer.seconds()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = {"setup_s": setup_s, "op_ms_mean": op_ms(clock), "work_per_s": result["work_per_s"],
           "peak_rss_mb": peak_rss_mb}
    human = [("setup_s", setup_s, "s", f"{len(timer.totals)} imports + set-ups, medians")]
    human += result["human"]
    human += [("peak_rss_mb", peak_rss_mb, "MB", 1)]
    human += [(k, e2e[k], unit, len(clock.records)) for k, unit in (("op_ms_mean", "ms"), ("work_per_s", "1/s"))]

    if tracer is not None:
        from tracing import layer_metrics

        traced_ops = sum(1 for _, _, tr in clock.records if tr)
        layer = layer_metrics(tracer, traced_ops)
        on, off = op_ms(clock, True), op_ms(clock, False)
        layer["trace.overhead_ms"] = on - off
        layer["trace.overhead_pct"] = 100.0 * (on - off) / off if off else 0.0
        layer["setup.import_ms"] = 1e3 * statistics.median(timer.imports)
        for k in ("build", "data", "write"):
            layer[f"setup.{k}_ms"] = 1e3 * statistics.median(st.get(k, 0.0) for st in timer.stages)
        tracer.write_spans(work / "spans.csv")
        wanted = spec["per_layer"]
        samples = traced_ops
    else:
        layer = {}
        wanted = spec["end_to_end"]
        samples = None
    values = {**e2e, **layer}
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in values]

    print(f"workload: {name}  seed: {seed}  seconds: {seconds:g}  trace: {int(trace)}")
    print("env: " + json.dumps(env, sort_keys=True))
    for metric, value, unit, n in human:
        print(f"  {metric:<28} {_fmt(value):>14} {unit:<6} n={n}")
    if tracer is not None:
        # every layer metric, also those BENCHMARK.json leaves out because they are 0 on its workloads
        units = {m["name"]: m["unit"] for m in wanted}
        print(f"  per-layer, per traced operation (n={samples}):")
        for key in sorted(layer):
            print(f"  {key:<34} {_fmt(float(layer[key])):>14} {units.get(key) or ('ms' if key.endswith('_ms') else 'count')}")
    print(f"  ops_attempted {tally.attempted}  ops_failed {tally.n_failed}")
    for op, msgs in sorted(tally.failed.items())[:10]:
        for msg in msgs[:3]:
            print(f"  FAILED op {op}: {msg}")
    if crashed:
        print(crashed, file=sys.stderr)
    if missing:
        print(f"  metrics not produced: {missing}", file=sys.stderr)

    correct = crashed is None and tally.n_failed == 0 and not missing
    attempted = max(tally.attempted, 1)
    failed = tally.n_failed + (1 if crashed and not tally.failed else 0)
    (work / "result.json").write_text(json.dumps({
        "workload": name, "trace": int(trace), "env": env, "correct": correct,
        "attempted": attempted, "failed": failed, "human": human, "metrics": metrics,
        "failures": {str(k): v for k, v in tally.failed.items()}, "crash": crashed,
        "records": clock.records, "setup_imports": timer.imports, "setup_totals": timer.totals}, indent=1))
    for r in range(len(timer.totals)):
        shutil.rmtree(work / f"setup{r}", ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_selftest() -> int:
    from checks import selftest
    from workloads import REFERENCE, pool_clip

    missed = selftest(json.loads(REFERENCE.read_text("utf-8")), pool_clip)
    for label in missed:
        print(f"selftest: check did not catch: {label}")
    print(f"selftest: {'ok' if not missed else 'FAILED'}")
    return 0 if not missed else 1


def run_all(args) -> int:
    """Self-test, then each workload in its own process (so peak RSS is its own)."""
    status = run_selftest()
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    print(f"all workloads: {'ok' if status == 0 else 'FAILED'}")
    return 0 if status == 0 else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ufolab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no ufolab sources under {SRC} (run from a source checkout)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="only run the self-test of the checks")
    args = parser.parse_args(argv)

    _pin_threads()
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return run_selftest()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
