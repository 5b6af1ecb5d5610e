#!/usr/bin/env python3
"""Smoke-test the edge-triggered -> latch-based conversion front end.

For each circuit in CIRCUITS:

  1. `rar convert C --check N` — converts the edge-triggered form into
     the master/slave two-phase netlist and proves bounded-simulation
     equivalence over N (>= 256) seeded random vectors;
  2. repeats the conversion under --jobs 1/2/4 and requires the emitted
     ".bench" bytes to be identical — the conversion must be
     deterministic regardless of the evaluation pool;
  3. `rar run C.conv --approach grar --format json` — G-RAR retimes the
     converted circuit end to end, gated on the rar-run/1 outcome
     schema (slaves/masters placed, positive area and period, no
     resiliency violations);
  4. `rar run C.conv --approach grar --solver ns --format json` — the
     same G-RAR run under network simplex, the paper's solver, gated
     on the same outcome schema and on a clean solve (no solver
     fallback events).

One circuit additionally runs the --phases 3 decomposition and retimes
the .conv3 form under the three-phase resiliency clocking.

One leg feeds a large text through the ".bench" parser: `rar generate
-g 20000` writes a file, `rar convert --bench FILE` converts it under
--jobs 1/2/4 (with a LARGE_CHECK-cycle equivalence check at one job),
and the three outputs must be byte-identical.

Run as the convert-smoke step of the build-and-test CI job. Requires bin/rar_cli.exe to be built
(RAR_EXE overrides the path).
"""

import json
import os
import subprocess
import sys
import tempfile

EXE = os.environ.get("RAR_EXE", "_build/default/bin/rar_cli.exe")
CIRCUITS = ["s1196", "s1423", "s5378"]
CHECK_VECTORS = int(os.environ.get("RAR_CONVERT_CHECK", "256"))
THREE_PHASE_CIRCUIT = "s1196"
LARGE_GATES = 20000
LARGE_CHECK = 64


def run(*args, check=True):
    cmd = [EXE, *args]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if check and r.returncode != 0:
        raise SystemExit(
            f"command failed ({r.returncode}): {' '.join(cmd)}\n"
            f"stdout: {r.stdout}\nstderr: {r.stderr}")
    return r


def gate_outcome(doc, circuit, approach):
    assert doc["schema"] == "rar-run/1", doc
    assert doc["approach"] == approach, doc
    assert doc["circuit"] == circuit, doc
    o = doc["outcome"]
    assert o["n_slaves"] > 0 and o["n_masters"] > 0, o
    assert o["total_area"] > 0 and o["period"] > 0, o
    assert o["violations"] == [], (
        f"{circuit}: retimed design violates the resiliency window: "
        f"{o['violations']}")
    return o


def convert_deterministic(tmp, circuit, phases):
    """Convert under several pool sizes; return the identical bytes."""
    blobs = {}
    for jobs in (1, 2, 4):
        out = os.path.join(tmp, f"{circuit}.p{phases}.j{jobs}.bench")
        args = ["convert", circuit, "--phases", str(phases),
                "--jobs", str(jobs), "-o", out]
        if jobs == 1:
            args += ["--check", str(CHECK_VECTORS)]
        r = run(*args)
        if jobs == 1:
            assert f"equivalence: {CHECK_VECTORS} cycles" in r.stdout, r.stdout
        blobs[jobs] = open(out, "rb").read()
    assert blobs[1] == blobs[2] == blobs[4], (
        f"{circuit}: conversion bytes differ across --jobs 1/2/4")
    assert blobs[1], f"{circuit}: empty conversion output"
    return blobs[1]


def convert_bench_file(tmp):
    """Generate a large .bench file and convert it from text under
    several pool sizes; return the identical bytes."""
    src = os.path.join(tmp, f"gen{LARGE_GATES}.bench")
    run("generate", "-g", str(LARGE_GATES), src)
    blobs = {}
    for jobs in (1, 2, 4):
        out = os.path.join(tmp, f"gen{LARGE_GATES}.j{jobs}.bench")
        args = ["convert", "--bench", src, "--jobs", str(jobs), "-o", out]
        if jobs == 1:
            args += ["--check", str(LARGE_CHECK)]
        r = run(*args)
        if jobs == 1:
            assert f"equivalence: {LARGE_CHECK} cycles" in r.stdout, r.stdout
        blobs[jobs] = open(out, "rb").read()
    assert blobs[1] == blobs[2] == blobs[4], (
        f"gen{LARGE_GATES}: conversion bytes differ across --jobs 1/2/4")
    assert blobs[1], f"gen{LARGE_GATES}: empty conversion output"
    return blobs[1]


def main():
    if not os.path.exists(EXE):
        raise SystemExit(f"{EXE} not built; run `dune build bin/rar_cli.exe`")
    with tempfile.TemporaryDirectory() as tmp:
        for circuit in CIRCUITS:
            blob = convert_deterministic(tmp, circuit, phases=2)
            print(f"{circuit}: {len(blob)} bytes, identical across "
                  f"--jobs 1/2/4, {CHECK_VECTORS}-vector equivalence")

            r = run("run", f"{circuit}.conv", "--approach", "grar",
                    "--format", "json")
            o = gate_outcome(json.loads(r.stdout), f"{circuit}.conv", "grar")
            print(f"{circuit}.conv: grar slaves={o['n_slaves']} "
                  f"masters={o['n_masters']} edl={o['ed_count']} "
                  f"area={o['total_area']:.1f}")

            r = run("run", f"{circuit}.conv", "--approach", "grar",
                    "--solver", "ns", "--format", "json")
            doc = json.loads(r.stdout)
            o = gate_outcome(doc, f"{circuit}.conv", "grar")
            assert "solver_events" not in doc, doc["solver_events"]
            print(f"{circuit}.conv: grar --solver ns slaves={o['n_slaves']} "
                  f"edl={o['ed_count']} area={o['total_area']:.1f}")

        # one three-phase leg: decomposition + G-RAR under the
        # three-phase resiliency-window rule
        circuit = THREE_PHASE_CIRCUIT
        convert_deterministic(tmp, circuit, phases=3)
        r = run("run", f"{circuit}.conv3", "--approach", "grar",
                "--format", "json")
        o = gate_outcome(json.loads(r.stdout), f"{circuit}.conv3", "grar")
        print(f"{circuit}.conv3: grar slaves={o['n_slaves']} "
              f"masters={o['n_masters']} edl={o['ed_count']}")

        blob = convert_bench_file(tmp)
        print(f"gen{LARGE_GATES}.bench: {len(blob)} bytes, identical across "
              f"--jobs 1/2/4, {LARGE_CHECK}-cycle equivalence")
    print("convert smoke: all gates passed")


if __name__ == "__main__":
    main()
