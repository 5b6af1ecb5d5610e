#!/usr/bin/env python3
"""Gate the record stream of `rar eco CIRCUIT --edits SCRIPT --verify-cold
--metrics`.

The command exits non-zero when a batch fails or diverges from its cold
re-solve, so the CI step checks the exit status itself; this gate then
requires exactly one rar-run/1 record per batch of the edit script.
Batches are split by the script grammar of `Transform.Edit.parse_script`:
one edit per line, `#` starts a comment, `commit` closes a non-empty batch
and a trailing partial batch is closed implicitly.

Each record's cumulative `eco_solutions_reused` counter (resolves that
reused the session's last LP solution) must not rise on a batch with a
`rewire` or a `c` edit, which change the LP, and must rise on the
script's last batch, which the script makes an edit that leaves the LP
as it was.

Usage: eco_cli_gate.py RECORDS_JSONL EDIT_SCRIPT
"""

import json
import sys


def batches_of(path):
    """The script's batches, each the list of its edits' first words."""
    batches = []
    pending = []
    for line in open(path):
        toks = line.split("#", 1)[0].split()
        if toks == ["commit"]:
            if pending:
                batches.append(pending)
            pending = []
        elif toks:
            pending.append(toks[0])
    return batches + ([pending] if pending else [])


def main():
    records_path, script_path = sys.argv[1:3]
    batches = batches_of(script_path)
    assert len(batches) >= 2, f"{script_path}: {len(batches)} batch(es), want several"
    records = [json.loads(l) for l in open(records_path) if l.strip()]
    assert len(records) == len(batches), (
        f"{len(records)} records for {len(batches)} batches")
    reused = []
    for i, r in enumerate(records):
        assert r["schema"] == "rar-run/1", f"record {i}: {r.get('schema')}"
        assert "total_area" in r["outcome"], f"record {i}: no outcome"
        counters = r.get("metrics", {}).get("counters", {})
        assert "eco_solutions_reused" in counters, (
            f"record {i}: no eco_solutions_reused counter (run with --metrics)")
        reused.append(counters["eco_solutions_reused"])
    for i in range(1, len(batches)):
        rose = reused[i] > reused[i - 1]
        if "rewire" in batches[i] or "c" in batches[i]:
            assert not rose, (
                f"batch {i + 1} ({', '.join(batches[i])}) reused a solution "
                "though it changes the LP")
    assert reused[-1] > reused[-2], (
        f"the last batch ({', '.join(batches[-1])}) did not reuse the "
        "session's solution")
    print(f"eco cli gate: {len(batches)} batches, {len(records)} rar-run/1 "
          f"records, reused solutions per record {reused}")


if __name__ == "__main__":
    main()
