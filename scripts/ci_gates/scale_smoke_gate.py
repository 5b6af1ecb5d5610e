#!/usr/bin/env python3
"""Gate the rar-bench-scale/2 document of the scale-smoke job.

The 100k-gate classic-FEAS leg and the 100k-gate G-RAR leg must each
finish under the checked-in wall-clock ceilings, with the per-phase
breakdown, span totals and hot-path counters present and non-zero.

Usage: scale_smoke_gate.py BENCH_SCALE_JSON FLOOR_JSON
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        raise SystemExit(f"usage: {argv[0]} BENCH_SCALE_JSON FLOOR_JSON")
    d = json.load(open(argv[1]))
    assert d["schema"] == "rar-bench-scale/2", d
    assert d["host"]["cores"] >= 1, d["host"]
    floor = json.load(open(argv[2]))
    cap = floor["scale_total_max_s"]
    feas_s = d["feas_s"]
    assert 0 < feas_s <= cap, (
        f"FEAS scale smoke took {feas_s:.1f} s > {cap:.0f} s ceiling")
    curve = d["curve"]
    assert len(curve) == 2, "expected FEAS + G-RAR rows"
    e = curve[0]
    assert e["gates"] == floor["scale_gates"], e
    assert e["path"] == "classic_feas", e
    assert e["phases"]["generate_s"] > 0 and e["phases"]["retime_s"] > 0, e
    assert e["spans"].get("classic/feas", 0) > 0, e["spans"]
    assert e["registers_after"] > 0 and e["period_after_ns"] > 0, e
    g = curve[1]
    gcap = floor["grar_scale_max_s"]
    assert g["gates"] == floor["grar_scale_gates"], g
    assert g["path"] == "grar", g
    grar_run_s = g["phases"]["run_s"]
    assert 0 < grar_run_s <= gcap, (
        f"G-RAR scale smoke took {grar_run_s:.1f} s > {gcap:.0f} s ceiling")
    # the default G-RAR solve is one max-flow closure: Dinic phases and
    # augmentations, no simplex pivots
    assert g["counters"]["maxflow_phases"] > 0, g["counters"]
    assert g["counters"]["maxflow_augmentations"] > 0, g["counters"]
    assert g["n_slaves"] > 0 and g["p_ns"] > 0, g
    circ, total, spans = e["circuit"], d["total_s"], sorted(e["spans"])
    grar_s = d["grar_s"]
    print(f"{circ}: feas {feas_s:.1f} s (ceiling {cap:.0f} s), "
          f"grar {grar_s:.1f} s (ceiling {gcap:.0f} s), "
          f"{total:.1f} s total, spans {spans}")


if __name__ == "__main__":
    main(sys.argv)
