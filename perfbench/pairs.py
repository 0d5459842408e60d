"""Compare two source checkouts with the benchmark in alternating pairs.

    python3 perfbench/pairs.py PARENT_DIR CHANGE_DIR --workload train --pairs 10

Both checkouts must hold the same ``perfbench/`` and BENCHMARK.json, so both
sides run identical benchmark code.  Pair ``k`` runs both sides on seed
``first_seed + k``; even pairs run the parent first, odd pairs the change.
For every end-to-end metric it prints each side's median and quartiles, how
many pairs the change won, and a verdict:

- ``gain``: the change won at least nine tenths of the pairs and the medians
  differ by more than the parent's own quartile spread;
- ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: the parent's spread is wider than the bound and not every
  change run beats every parent run;
- ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_digest(root: Path) -> str:
    h = hashlib.sha256((root / "BENCHMARK.json").read_bytes())
    for path in sorted((root / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", seconds, "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {root.name:<20} seed {seed}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    return result


def verdict(spec: dict, parent: list[float], change: list[float]) -> tuple[str, int]:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    if wins >= 0.9 * len(parent) and abs(mc - mp) > q[2] - q[0] and sign * (mc - mp) > 0:
        return "gain", wins
    if sign * (mc - mp) < -spec["bound"] * mp:
        return "regressed", wins
    if (q[2] - q[0]) > spec["bound"] * mp and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", wins
    return "no change", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    if bench_digest(roots[0]) != bench_digest(roots[1]):
        print("pairs: the two checkouts hold different benchmark code", file=sys.stderr)
        return 2
    spec = json.loads((roots[1] / "BENCHMARK.json").read_text("utf-8"))
    seconds = str(spec["run_seconds"])
    results: tuple[list, list] = ([], [])
    for k in range(args.pairs):
        seed = args.first_seed + k
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            results[side].append(run_once(roots[side], args.workload, seed, seconds))

    print(f"workload {args.workload}, {args.pairs} pairs, seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
    for m in spec["end_to_end"]:
        p = [r["metrics"][m["name"]]["value"] for r in results[0]]
        c = [r["metrics"][m["name"]]["value"] for r in results[1]]
        qp, qc = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        word, wins = verdict(m, p, c)
        print(f"  {m['name']:<18} parent {qp[1]:.5g} [{qp[0]:.5g}, {qp[2]:.5g}]  change {qc[1]:.5g} "
              f"[{qc[0]:.5g}, {qc[2]:.5g}] {m['unit']}  change won {wins}/{args.pairs}: {word}")
    failed = [sum(r["failed"] for r in side) for side in results]
    print(f"  ops failed: parent {failed[0]}, change {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
