#!/usr/bin/env python3
"""Gate a rar-bench-eval/4 document (BENCH_eval.json).

Checks the schema and its field set, gates the G-RAR pipeline kernel
against the checked-in floor (a >2x regression fails the build) and
holds the armed-deadline and armed-tracing overheads under their caps.
host.src_digest must name the checkout's sources (src_digest.py), so a
document written before a source change fails. CI runs it on a fresh
`bench/main.exe eval` document and, in the lint job, on the checked-in
one.

Usage: bench_smoke_gate.py BENCH_EVAL_JSON FLOOR_JSON
"""

import json
import sys

from src_digest import check_host

KERNELS = {
    "g/table_vii/engine_simplex",
    "g/table_vii/engine_closure",
    "g/table_viii/sim_50_cycles",
    "g/smoke/grar_pipeline",
}


def main(argv):
    if len(argv) != 3:
        raise SystemExit(f"usage: {argv[0]} BENCH_EVAL_JSON FLOOR_JSON")
    d = json.load(open(argv[1]))
    assert d["schema"] == "rar-bench-eval/4", d["schema"]
    assert set(d) == {"schema", "host", "kernels", "overhead"}, sorted(d)
    check_host(d["host"])
    ns = {k["name"]: k["ns_per_run"] for k in d["kernels"]}
    assert set(ns) == KERNELS, sorted(ns)
    assert all(v > 0 for v in ns.values()), ns
    floor = json.load(open(argv[2]))
    assert floor["schema"] == "rar-bench-smoke-floor/1", floor
    name = floor["kernel"]
    measured = ns[name]
    limit = 2.0 * floor["ns_per_run_floor"]
    assert measured <= limit, (
        f"{name} regressed: {measured:.0f} ns/run > "
        f"2x floor ({limit:.0f} ns/run)")
    print(f"{name}: {measured:.0f} ns/run (limit {limit:.0f})")
    overhead = d["overhead"]
    caps = {
        "deadline_overhead_ratio": floor["deadline_overhead_max_ratio"],
        "trace_overhead_ratio": floor["trace_overhead_max_ratio"],
    }
    assert set(overhead) == set(caps), sorted(overhead)
    for label, cap in caps.items():
        ratio = overhead[label]
        assert 0 < ratio <= cap, (
            f"{label} {ratio:.3f}x exceeds the {cap:.2f}x budget")
        print(f"{label}: {ratio:.3f}x (cap {cap:.2f}x)")


if __name__ == "__main__":
    main(sys.argv)
