#!/usr/bin/env python3
"""Gate a rar-bench-eco/3 document (BENCH_eco.json).

Checks the schema and its field set. The steady-state edit-and-resolve
speedup over a cold re-solve must clear the checked-in floor with the
session outcome identical to the cold run — including under the
RAR_FAULTS degradation matrix, where solve-cache replays bypass
injection and only the cold legs slow down. host.src_digest must name
the checkout's sources (src_digest.py), so a document written before a
source change fails. CI runs it on a fresh `bench/main.exe eco`
document and, in the lint job, on the checked-in one.

Usage: eco_smoke_gate.py BENCH_ECO_JSON FLOOR_JSON
"""

import json
import sys

from src_digest import check_host

ECO = {"circuit", "gates", "engine", "stage_make_s", "cold_solve_s",
       "warmup_resolve_s", "resolve_s", "mean_resolve_s",
       "median_resolve_s", "speedup", "identical", "counters"}


def main(argv):
    if len(argv) != 3:
        raise SystemExit(f"usage: {argv[0]} BENCH_ECO_JSON FLOOR_JSON")
    d = json.load(open(argv[1]))
    assert d["schema"] == "rar-bench-eco/3", d["schema"]
    assert set(d) == {"schema", "host", "total_s", "eco"}, sorted(d)
    check_host(d["host"])
    floor = json.load(open(argv[2]))
    e = d["eco"]
    assert set(e) == ECO, sorted(e)
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
