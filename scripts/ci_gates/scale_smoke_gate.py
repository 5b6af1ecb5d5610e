#!/usr/bin/env python3
"""Gate a rar-bench-scale/5 document (BENCH_scale.json).

Checks the schema and the field set of every row (one G-RAR row per
circuit size), then finds the row of the gated size: its run_s must
finish under the checked-in wall-clock ceiling, its peak RSS must stay
under the checked-in memory ceiling, and the span totals and hot-path
counters must be present and non-zero. Stage classification's summed
batch unions (stage_sweep_nodes) must stay at most half its summed
cones (stage_cone_nodes), a host-independent check that sinks are
classified in shared batches. host.src_digest must name the checkout's
sources (src_digest.py), so a document written before a source change
fails. CI runs it on a fresh `bench/main.exe scale` document and, in
the lint job, on the checked-in one.

Usage: scale_smoke_gate.py BENCH_SCALE_JSON FLOOR_JSON
"""

import json
import sys

from src_digest import check_host

ROW = {"circuit", "gates", "phases", "spans", "counters", "p_ns",
       "n_slaves", "edl_count", "total_area", "peak_rss_mb"}


def main(argv):
    if len(argv) != 3:
        raise SystemExit(f"usage: {argv[0]} BENCH_SCALE_JSON FLOOR_JSON")
    d = json.load(open(argv[1]))
    assert d["schema"] == "rar-bench-scale/5", d["schema"]
    assert set(d) == {"schema", "host", "curve"}, sorted(d)
    check_host(d["host"])
    rows = {}
    for r in d["curve"]:
        assert set(r) == ROW, sorted(r)
        assert set(r["phases"]) == {"generate_s", "run_s"}, r["phases"]
        assert all(v > 0 for v in r["phases"].values()), r["phases"]
        assert r["peak_rss_mb"] is None or r["peak_rss_mb"] > 0, r
        assert r["gates"] not in rows, f"duplicate row {r['gates']}"
        rows[r["gates"]] = r
    floor = json.load(open(argv[2]))
    g = rows[floor["grar_scale_gates"]]
    gcap = floor["grar_scale_max_s"]
    grar_s = g["phases"]["run_s"]
    assert grar_s <= gcap, (
        f"G-RAR scale row took {grar_s:.1f} s > {gcap:.0f} s ceiling")
    rss_cap = floor["grar_scale_max_rss_mb"]
    rss = g["peak_rss_mb"]
    assert rss is not None and rss <= rss_cap, (
        f"G-RAR scale row peaked at {rss} MB > {rss_cap} MB ceiling")
    # the default G-RAR solve is one max-flow closure: Dinic phases and
    # augmentations, no simplex pivots
    assert g["counters"]["maxflow_phases"] > 0, g["counters"]
    assert g["counters"]["maxflow_augmentations"] > 0, g["counters"]
    # stage classification sweeps batches of sinks: the summed batch
    # unions stay at most half the summed cones of the sinks classified
    # by cone, which per-sink cone walks (union = cone) would not meet
    c = g["counters"]
    for k in ("stage_sinks_pruned", "stage_cone_nodes", "stage_sweep_nodes"):
        assert c.get(k, 0) > 0, (k, c)
    assert c["stage_sweep_nodes"] <= c["stage_cone_nodes"] / 2, (
        f"stage swept {c['stage_sweep_nodes']} nodes for "
        f"{c['stage_cone_nodes']} cone nodes: batches share too little")
    assert g["n_slaves"] > 0 and g["p_ns"] > 0, g
    print(f"{g['circuit']}: grar {grar_s:.1f} s (ceiling {gcap:.0f} s), "
          f"peak RSS {rss} MB (ceiling {rss_cap} MB), {len(rows)} rows")


if __name__ == "__main__":
    main(sys.argv)
