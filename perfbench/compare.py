"""Compare two benchmark result files metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Result files are the ``.perfbench-out/<workload>-seed<n>-trace<t>.json``
records ``run.py`` writes.  The two must come from the same workload and
trace mode and from the same build (mode, backend and Python version);
otherwise the comparison is refused with exit code 2.  End-to-end metrics
are judged against their bound in ``BENCHMARK.json``; exit code 1 means at
least one got worse by more than its bound.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def compare(base: dict, new: dict, bounds: dict) -> int:
    for key in ("workload", "trace", "build"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} differs "
                  f"({base[key]!r} vs {new[key]!r})")
            return 2
    worse = 0
    for name, (better, bound) in bounds.items():
        if name not in base["metrics"]:
            continue
        old, now = base["metrics"][name], new["metrics"][name]
        change = (now - old) / old if old else 0.0
        loss = -change if better == "higher" else change
        verdict = "ok"
        if bound is not None and loss > bound:
            verdict, worse = "WORSE", worse + 1
        print(f"{name:<34}{old:>14.6g}{now:>14.6g}{change:>+9.1%}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}
    return compare(records[0], records[1], bounds)


if __name__ == "__main__":
    sys.exit(main())
