#!/usr/bin/env python3
"""The source digest a BENCH document's host.src_digest must equal.

src_digest implements the encoding EXPERIMENTS.md ("Runtime and
parallel evaluation") gives. bench/main.ml stamps the same digest when
it writes a document, so a document written before a source change
fails check_host.

Usage: src_digest.py   (prints the checkout's digest)
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def src_digest(root=ROOT):
    files = []
    for top in ("lib", "bin", "bench"):
        for dirpath, dirnames, filenames in os.walk(root / top):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in filenames:
                if name.startswith("."):
                    continue
                if name == "dune" or name.endswith((".ml", ".mli")):
                    rel = Path(dirpath, name).relative_to(root).as_posix()
                    files.append(rel)
    h = hashlib.md5()
    for rel in sorted(files, key=lambda p: p.encode()):
        data = (root / rel).read_bytes()
        h.update(f"{rel}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def check_host(host):
    """Assert the host object's field set and that its stamp names the
    checkout's sources."""
    assert set(host) == {"cores", "jobs_effective", "src_digest"}, host
    assert host["cores"] >= 1 and host["jobs_effective"] >= 1, host
    tree = src_digest()
    assert host["src_digest"] == tree, (
        f"stale document: host.src_digest {host['src_digest']} is not the "
        f"digest {tree} of lib/, bin/ and bench/; rewrite it with "
        f"bench/main.exe")


if __name__ == "__main__":
    if len(sys.argv) != 1:
        raise SystemExit(f"usage: {sys.argv[0]}")
    print(src_digest())
