#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes well under a minute.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, with tracing off and on, and asserts that
each run emits exactly the metrics BENCHMARK.json declares, with their units.
At this size the statistical check has little power, so program correctness
is left to the full-size runs. Asserts that the output check flags every cell
against a deliberately wrong pinned bit table and every cell whose error is
moved far from the true one, and that an operating point cut by its CPU limit
counts all of its cells as failed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

SMOKE = {
    "sweep_grid": run.GridWorkload((("observations", 10, tuple(run.POLICIES)),
                                    ("blocklength", 50, tuple(run.POLICIES))), trials=20),
    "simulate_identity": run.SimulateWorkload(trials=200, dense=False),
    "simulate_dense": run.SimulateWorkload(trials=50, dense=True),
}


def main() -> int:
    imported = run.import_senselink()
    from checks import check_cell, load_pinned_bits

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(SMOKE) == sorted(run.WORKLOADS)
    for name in SMOKE:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run.run(name, 0, 1.0, trace, imported, workloads=SMOKE)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            assert got == want, (name, section, set(got) ^ set(want))
            assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1

            pinned = load_pinned_bits(name)
            wrong = {key: (bits or 0) + 1 for key, bits in pinned.items()}
            cells = details["keyed_rows"]
            flagged = [check_cell(key, row, config, wrong) for key, row, config in cells]
            assert flagged and all(flagged), f"{name}: wrong pinned bits not flagged"
            for key, row, config in cells:
                moved = replace(row, trials=2000, error=1.0 if row.error < 0.5 else 0.0)
                assert check_cell(key, moved, config, pinned), f"{name}: moved error passed"
        print(f"ok {name}")

    grid = replace(SMOKE["sweep_grid"], points=(("snr-db", 40.0, ("adaptive", "brute")),),
                   cpu_limit=1.0)
    result, details = run.run("sweep_grid", 0, 1.0, False, imported,
                              workloads={"sweep_grid": grid})
    assert result["failed"] == 2 and not result["correct"], details["problems"]
    print("ok a point that exceeds its CPU limit counts as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
