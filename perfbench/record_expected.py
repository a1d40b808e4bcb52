#!/usr/bin/env python3
"""Record the answers the offline workloads are checked against.

Solves every item the offline workloads can pick and writes
``expected.json`` beside this file.  Run it only when the model's answers
are meant to change::

    PYTHONPATH=src python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys

from repro.core.execution import clear_caches

import workloads


def main() -> int:
    expected = {}
    for item in workloads.offline_pool():
        clear_caches()
        result = workloads.run_item(item, *workloads.resolve(item))
        expected[workloads.item_key(item)] = workloads.answer(item, result)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{len(expected)} answers written to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
