"""Record the scan flags the benchmark compares against.

    python3 bench/record_reference.py

Runs every scan workload at its full and its smoke resolution with the
package in ``src/`` and writes the R/S/T flags to ``reference_flags.json``.
Run it only on the commit whose answers are the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spinmoment  # noqa: E402
from workloads import REFERENCE_FILE, WORKLOADS, ScanWorkload  # noqa: E402


def main() -> int:
    ref = {}
    for w in WORKLOADS.values():
        if w.kind != "scan":
            continue
        for smoke in (False, True):
            (item,) = w.make_items(0, smoke)
            ref[item.key] = ScanWorkload.flags(ScanWorkload.call(spinmoment, item))
            print(f"recorded {item.key}")
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
