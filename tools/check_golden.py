#!/usr/bin/env python3
"""Golden-number gate for the deterministic bench snapshots.

bench_fig7_prototype_timeline and bench_chaos_soak report virtual-time
figures that depend only on the code and the seeds. This compares the
`benchmarks` rows of a fresh run exactly against the committed snapshot
(the `context` block is not compared):

    python3 tools/check_golden.py /tmp/BENCH_fig7_ci.json BENCH_fig7.json

Exit 0 = identical, 1 = a row added, missing or different (each printed),
2 = bad usage. Moving one of these numbers means refreshing the snapshot on
purpose and saying why in CHANGES.md.
"""

import json
import sys


def rows(path):
    with open(path, encoding="utf-8") as f:
        return {row["name"]: row for row in json.load(f)["benchmarks"]}


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} <fresh.json> <committed.json>", file=sys.stderr)
        return 2
    fresh, golden = rows(argv[1]), rows(argv[2])
    problems = [f"missing row {name}" for name in golden if name not in fresh]
    problems += [f"unexpected row {name}" for name in fresh if name not in golden]
    problems += [f"row {name} differs:\n  committed {want}\n  fresh     {fresh[name]}"
                 for name, want in golden.items() if name in fresh and fresh[name] != want]
    for problem in problems:
        print(f"check_golden: {problem}")
    identical = sum(1 for name, want in golden.items() if fresh.get(name) == want)
    print(f"check_golden: {'FAIL' if problems else 'ok'} — "
          f"{identical}/{len(golden)} rows of {argv[2]} identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
