#!/usr/bin/env python3
"""Gate the record stream of `rar eco CIRCUIT --edits SCRIPT --verify-cold`.

The command exits non-zero when a batch fails or diverges from its cold
re-solve, so the CI step checks the exit status itself; this gate then
requires exactly one rar-run/1 record per batch of the edit script.
Batches are counted by the script grammar of `Transform.Edit.parse_script`:
one edit per line, `#` starts a comment, `commit` closes a non-empty batch
and a trailing partial batch is closed implicitly.

Usage: eco_cli_gate.py RECORDS_JSONL EDIT_SCRIPT
"""

import json
import sys


def count_batches(path):
    batches = 0
    pending = False
    for line in open(path):
        toks = line.split("#", 1)[0].split()
        if toks == ["commit"]:
            if pending:
                batches += 1
            pending = False
        elif toks:
            pending = True
    return batches + (1 if pending else 0)


def main():
    records_path, script_path = sys.argv[1:3]
    batches = count_batches(script_path)
    assert batches >= 2, f"{script_path}: {batches} batch(es), want several"
    records = [json.loads(l) for l in open(records_path) if l.strip()]
    assert len(records) == batches, (
        f"{len(records)} records for {batches} batches")
    for i, r in enumerate(records):
        assert r["schema"] == "rar-run/1", f"record {i}: {r.get('schema')}"
        assert "total_area" in r["outcome"], f"record {i}: no outcome"
    print(f"eco cli gate: {batches} batches, {len(records)} rar-run/1 records")


if __name__ == "__main__":
    main()
