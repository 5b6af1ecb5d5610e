#!/usr/bin/env python3
"""Gate the --trace/--metrics outputs of the build-and-test job.

Validates the metrics object embedded in a rar-run/1 document (counter
presence and non-zero hot-path counters) and the rar-trace/1 Chrome
trace: balanced B/E spans per tid, monotonic timestamps, and the
engine -> LP build/solver -> STA nesting on the driving domain.

Usage: trace_gate.py RUN_TRACED_JSON TRACE_JSON
"""

import json
import sys


def gate_metrics(path):
    d = json.load(open(path))
    assert d["schema"] == "rar-run/1", d
    m = d["metrics"]
    c = m["counters"]
    for key in ("netsimplex_pivots", "maxflow_phases",
                "maxflow_augmentations", "spfa_relaxations",
                "ssp_augmentations", "sta_pin_relaxations",
                "wd_memo_hits", "wd_memo_misses", "solver_fallbacks"):
        assert key in c, f"missing counter {key}: {sorted(c)}"
    # the default G-RAR solve is the max-flow closure engine
    assert c["maxflow_augmentations"] > 0, c
    assert c["sta_pin_relaxations"] > 0, c
    assert "gauges" in m, m
    print("metrics:", {k: v for k, v in sorted(c.items())})


def gate_trace(path):
    t = json.load(open(path))
    assert t["schema"] == "rar-trace/1", t.get("schema")
    evs = t["traceEvents"]
    assert evs, "empty trace"
    for e in evs:
        assert e["ph"] in ("B", "E") and e["ts"] >= 0, e
    # timestamps merge in nondecreasing order
    ts = [e["ts"] for e in evs]
    assert ts == sorted(ts), "trace timestamps not monotonic"
    # per-tid spans balance in LIFO order
    stacks = {}
    for e in evs:
        s = stacks.setdefault(e["tid"], [])
        if e["ph"] == "B":
            s.append(e["name"])
        else:
            assert s and s[-1] == e["name"], f"unbalanced at {e}"
            s.pop()
    assert all(not s for s in stacks.values()), f"open spans: {stacks}"
    # engine -> solver -> STA nesting on the driving domain
    names = {e["name"] for e in evs}
    assert any(n.startswith("engine/") for n in names), names
    assert "difflp/solve" in names, names
    assert "rgraph/build" in names, names
    assert any(n.startswith("solver/") for n in names), names
    assert any(n.startswith("sta/") for n in names), names
    # LP build and solver spans must always nest inside an engine
    # span; STA also runs during benchmark preparation (clock-period
    # derivation, before any engine), so for sta/* we require that at
    # least one span is engine-nested rather than all.
    main_tid = next(e["tid"] for e in evs if e["name"].startswith("engine/"))
    stack = []
    sta_nested = False
    for e in evs:
        if e["tid"] != main_tid:
            continue
        if e["ph"] == "B":
            in_engine = any(n.startswith("engine/") for n in stack)
            if (e["name"].startswith("solver/")
                    or e["name"] in ("difflp/solve", "rgraph/build")):
                assert in_engine, (
                    e["name"] + " opened outside an engine span")
            if e["name"].startswith("sta/") and in_engine:
                sta_nested = True
            stack.append(e["name"])
        else:
            stack.pop()
    assert sta_nested, "no sta/* span nested inside an engine span"
    print(f"trace: {len(evs)} events, spans {sorted(names)}")


def main(argv):
    if len(argv) != 3:
        raise SystemExit(f"usage: {argv[0]} RUN_TRACED_JSON TRACE_JSON")
    gate_metrics(argv[1])
    gate_trace(argv[2])


if __name__ == "__main__":
    main(sys.argv)
