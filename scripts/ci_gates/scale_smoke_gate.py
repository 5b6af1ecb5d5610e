#!/usr/bin/env python3
"""Gate a rar-bench-scale/3 document (BENCH_scale.json).

Checks the schema and the field set of every row, then finds the
100k-gate rows by (path, gates): the classic-FEAS row's
generate_s + retime_s and the G-RAR row's run_s must each finish
under their checked-in wall-clock ceilings, with the span totals and
hot-path counters present and non-zero. CI runs it on a fresh
`bench/main.exe scale` document and, in the lint job, on the
checked-in one.

Usage: scale_smoke_gate.py BENCH_SCALE_JSON FLOOR_JSON
"""

import json
import sys

ROW = {"circuit", "gates", "path", "phases", "spans", "counters",
       "peak_rss_mb"}
STATS = {
    "classic_feas": {"period_before_ns", "period_after_ns",
                     "registers_before", "registers_after"},
    "grar": {"p_ns", "n_slaves", "edl_count", "total_area"},
}
PHASE = {"classic_feas": "retime_s", "grar": "run_s"}


def main(argv):
    if len(argv) != 3:
        raise SystemExit(f"usage: {argv[0]} BENCH_SCALE_JSON FLOOR_JSON")
    d = json.load(open(argv[1]))
    assert d["schema"] == "rar-bench-scale/3", d["schema"]
    assert set(d) == {"schema", "host", "curve"}, sorted(d)
    host = d["host"]
    assert set(host) == {"cores", "jobs_effective", "git_rev"}, host
    assert host["cores"] >= 1 and host["jobs_effective"] >= 1, host
    rows = {}
    for r in d["curve"]:
        path = r["path"]
        assert set(r) == ROW | STATS[path], sorted(r)
        assert set(r["phases"]) == {"generate_s", PHASE[path]}, r["phases"]
        assert all(v > 0 for v in r["phases"].values()), r["phases"]
        assert r["peak_rss_mb"] is None or r["peak_rss_mb"] > 0, r
        assert (path, r["gates"]) not in rows, f"duplicate row {path}/{r['gates']}"
        rows[(path, r["gates"])] = r
    floor = json.load(open(argv[2]))
    e = rows[("classic_feas", floor["scale_gates"])]
    cap = floor["scale_total_max_s"]
    feas_s = e["phases"]["generate_s"] + e["phases"]["retime_s"]
    assert feas_s <= cap, (
        f"FEAS scale row took {feas_s:.1f} s > {cap:.0f} s ceiling")
    assert e["spans"].get("classic/feas", 0) > 0, e["spans"]
    assert e["registers_after"] > 0 and e["period_after_ns"] > 0, e
    g = rows[("grar", floor["grar_scale_gates"])]
    gcap = floor["grar_scale_max_s"]
    grar_s = g["phases"]["run_s"]
    assert grar_s <= gcap, (
        f"G-RAR scale row took {grar_s:.1f} s > {gcap:.0f} s ceiling")
    # the default G-RAR solve is one max-flow closure: Dinic phases and
    # augmentations, no simplex pivots
    assert g["counters"]["maxflow_phases"] > 0, g["counters"]
    assert g["counters"]["maxflow_augmentations"] > 0, g["counters"]
    assert g["n_slaves"] > 0 and g["p_ns"] > 0, g
    print(f"{e['circuit']}: feas {feas_s:.1f} s (ceiling {cap:.0f} s), "
          f"grar {grar_s:.1f} s (ceiling {gcap:.0f} s, "
          f"peak RSS {g['peak_rss_mb']} MB), {len(rows)} rows")


if __name__ == "__main__":
    main(sys.argv)
