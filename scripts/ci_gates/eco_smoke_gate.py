#!/usr/bin/env python3
"""Gate the rar-bench-eco/1 document of the eco-smoke job.

The steady-state edit-and-resolve speedup over a cold re-solve must
clear the checked-in floor with the session outcome identical to the
cold run — including under the RAR_FAULTS degradation matrix, where
solve-cache replays bypass injection and only the cold legs slow down.

Usage: eco_smoke_gate.py BENCH_ECO_JSON FLOOR_JSON
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        raise SystemExit(f"usage: {argv[0]} BENCH_ECO_JSON FLOOR_JSON")
    d = json.load(open(argv[1]))
    assert d["schema"] == "rar-bench-eco/1", d
    assert d["host"]["cores"] >= 1, d["host"]
    floor = json.load(open(argv[2]))
    e = d["eco"]
    assert e["gates"] == floor["eco_gates"], e
    assert e["engine"] == "grar", e
    assert e["identical"] is True, (
        "session resolve diverged from the cold re-solve")
    assert e["cold_solve_s"] > 0 and e["resolve_s"], e
    need = floor["eco_speedup_min_ratio"]
    sp, cold_s, med_s, circ = (
        e["speedup"], e["cold_solve_s"], e["median_resolve_s"], e["circuit"])
    assert sp >= need, (
        f"eco speedup {sp:.2f}x < required {need:.2f}x "
        f"(cold {cold_s:.1f} s, median resolve {med_s:.3f} s)")
    print(f"{circ}: cold {cold_s:.1f} s, median resolve {med_s:.3f} s -> "
          f"{sp:.2f}x (floor {need:.2f}x), identical")


if __name__ == "__main__":
    main(sys.argv)
