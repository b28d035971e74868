"""Summarize a traced run's span file, one row per span name.

    python3 perfbench/spans.py perfbench/out/spans-task_chain.json

Per name: calls per op, mean duration and mean self time in ms, and how
many of the calls per op ran on the op's own thread (the blocking path).
Only spans inside an op's window count.
"""

from __future__ import annotations

import json
import sys


def summarize(path: str) -> list:
    with open(path) as f:
        data = json.load(f)
    spans = [dict(zip(data["fields"], row)) for row in data["spans"]]
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    ops = len({s["op"] for s in spans if s["op"] >= 0}) or 1
    rows = {}
    for i, span in enumerate(spans):
        if span["op"] < 0:
            continue
        row = rows.setdefault(span["name"], [0, 0, 0.0, 0.0])
        duration = span["end"] - span["start"]
        row[0] += 1
        row[1] += span["on_path"]
        row[2] += duration
        row[3] += duration - child[i]
    return [
        (name, calls / ops, on_path / ops, total / calls * 1e3, own / calls * 1e3)
        for name, (calls, on_path, total, own) in sorted(rows.items())
    ]


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    print(f"{'span':40s} {'calls/op':>9s} {'on path':>8s} {'ms':>8s} {'self ms':>8s}")
    for name, per_op, on_path, mean_ms, self_ms in summarize(argv[1]):
        print(f"{name:40s} {per_op:9.3f} {on_path:8.3f} {mean_ms:8.3f} {self_ms:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
