"""Regenerate score_reference.json: the metric values every pool clip must score.

    python3 perfbench/make_reference.py

For each clip of the score pool it stores [flicker, sc, bc, oft, excluded]
twice: as rendered ("moving", scored against itself) and made static from its
first frame ("static", scored against the moving clip).  Any score corpus is
an index-aligned selection of these rows, so the score workload can check its
report for every seed.  Regenerate only on purpose: the file is the oracle
that later changes to ``metrics`` are held to.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ufolab import evaluate_set, make_static_video  # noqa: E402

from checks import REF_FIELDS  # noqa: E402
from workloads import POOL_SEED, POOL_SIZE, REFERENCE, pool_clip  # noqa: E402


def main() -> int:
    moving = [pool_clip(j) for j in range(POOL_SIZE)]
    static = [make_static_video(c.data[0], c.frames, fps=c.fps, meta=c.meta) for c in moving]
    doc = {"pool_size": POOL_SIZE, "pool_seed": POOL_SEED, "fields": list(REF_FIELDS)}
    for kind, clips in (("moving", moving), ("static", static)):
        report = evaluate_set(clips, baselines=moving)
        doc[kind] = [[row[k] for k in REF_FIELDS] for row in report.rows]
    head = json.dumps({k: doc[k] for k in ("pool_size", "pool_seed", "fields")})[:-1]
    body = [f'"{kind}": [\n' + ",\n".join(json.dumps(r) for r in doc[kind]) + "\n]"
            for kind in ("moving", "static")]
    REFERENCE.write_text(head + ",\n" + ",\n".join(body) + "}\n", encoding="utf-8")
    print(f"wrote {REFERENCE} ({POOL_SIZE} pool clips)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
