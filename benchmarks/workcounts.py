"""Exact work-count gate over the sweep benchmark.

    python3 sweepbench/run.py --workload all --seed 0 --seconds 1 \\
        --trace 1 | tail -n 1 > /tmp/sweepbench.json
    python3 benchmarks/workcounts.py /tmp/sweepbench.json

The argument is the last stdout line of a traced ``sweepbench/run.py``
run over every workload.  The gate passes when that run is ``correct``
(every result equals its digest pin) and every per-layer metric whose
unit is ``count`` or ``bytes`` equals its pin in
``benchmarks/workcounts.json``.  These metrics count work rather than
time it, so a slower host cannot move them.  They do depend on the
trace generator, so the pins hold for seed 0 on Python 3.11 with numpy
2.4.6.  A change that moves a count on purpose replaces the pin file
with the ``measured`` object this script prints on a mismatch, and says
why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PINS = Path(__file__).with_name("workcounts.json")
UNITS = ("count", "bytes")


def work_counts(result: dict) -> dict:
    """``workload.metric -> value`` of every count and byte metric."""
    return {
        name: int(entry["value"]) if entry["value"] == int(entry["value"])
        else entry["value"]
        for name, entry in sorted(result["metrics"].items())
        if entry["unit"] in UNITS
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    result = json.loads(Path(argv[0]).read_text())
    pinned = json.loads(PINS.read_text())
    measured = work_counts(result)
    problems = []
    if result.get("correct") is not True:
        problems.append(
            f"correct is {result.get('correct')!r}: {result.get('failed')} "
            f"of {result.get('attempted')} results differ from their pins")
    for name in sorted(pinned.keys() | measured.keys()):
        if pinned.get(name) != measured.get(name):
            problems.append(f"{name}: pinned {pinned.get(name)}, "
                            f"measured {measured.get(name)}")
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        print("measured " + json.dumps(measured, indent=1), file=sys.stderr)
        return 1
    print(f"work counts: all {len(pinned)} equal {PINS.name}; "
          f"{result['attempted']} results equal their digest pins")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
