#!/usr/bin/env python3
"""Gate the machine-readable CLI outputs of the build-and-test job.

Checks the rar-tables/1 document written by `rar table --format json`,
the rar-run/1 document written by `rar run --format json` (which must
not carry a metrics object unless --metrics was passed), the Table VIII
document written by `rar table 8 --format json` (every row holds nine
error-rate percentages), and the VCD waveform written by `rar trace`
(a header and at least one value change).

Usage: cli_smoke_gate.py TABLE_JSON RUN_JSON TABLE8_JSON TRACE_VCD
"""

import json
import sys


def gate_table(path):
    d = json.load(open(path))
    assert d["schema"] == "rar-tables/1", d
    assert d["number"] == 4 and d["columns"] and d["rows"], d


def gate_run(path):
    d = json.load(open(path))
    assert d["schema"] == "rar-run/1", d
    assert d["approach"] == "grar" and "total_area" in d["outcome"], d
    assert "metrics" not in d, "metrics must be opt-in via --metrics"


def gate_error_rates(path):
    d = json.load(open(path))
    assert d["schema"] == "rar-tables/1", d
    assert d["number"] == 8 and len(d["columns"]) == 10, d
    rows = [r["cells"] for r in d["rows"] if "cells" in r]
    circuits = [r for r in rows if r[0] != "average"]
    assert circuits, f"no circuit rows: {d['rows']}"
    for r in rows:
        rates = r[1:]
        assert len(rates) == 9, f"{r[0]}: {len(rates)} error-rate cells"
        for x in rates:
            assert isinstance(x, (int, float)) and 0 <= x <= 100, (r[0], x)


def gate_vcd(path):
    lines = open(path).read().splitlines()
    for key in ("$timescale", "$enddefinitions", "$dumpvars"):
        assert any(l.startswith(key) for l in lines), f"VCD lacks {key}"
    assert any(l.startswith("$var wire 1 ") for l in lines), "VCD declares no wires"
    body = lines[lines.index("$end", lines.index("$dumpvars")) + 1:]
    changes = [l for l in body if l[:1] in ("0", "1") and len(l) > 1]
    assert any(l.startswith("#") for l in body) and changes, \
        "VCD has no timestamped value change"


def main(argv):
    if len(argv) != 5:
        raise SystemExit(
            f"usage: {argv[0]} TABLE_JSON RUN_JSON TABLE8_JSON TRACE_VCD")
    gate_table(argv[1])
    gate_run(argv[2])
    gate_error_rates(argv[3])
    gate_vcd(argv[4])
    print("cli smoke: table, run, Table VIII and VCD outputs well-formed")


if __name__ == "__main__":
    main(sys.argv)
