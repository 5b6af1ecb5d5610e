#!/usr/bin/env python3
"""Smoke-test `rar serve` end to end over a Unix socket.

Drives a mixed request batch against a live daemon — a valid run,
malformed JSON, a bad netlist, an unknown circuit, a zero-budget
deadline, and (in a second daemon armed via RAR_FAULTS) an injected
pool-worker crash — and asserts that every request gets a well-formed
`rar-serve/1` response, that repeating an identical request is served
from the cross-request caches (each warm replay is exactly one hit and
no miss in the circuit, stage and session caches; the cold/warm
wall-clock ratio is printed, not gated), and that the daemon drains
and exits 0 on `shutdown` and on SIGTERM.

Run as the serve-smoke step of the build-and-test CI job; the Client class doubles as a minimal
example of the wire protocol (see README.md, "Running the server").
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

EXE = os.environ.get("RAR_EXE", "_build/default/bin/rar_cli.exe")
WARM_REPLAYS = 3
# Caches a warm replay must hit once each (the library cache is keyed
# by "builtin" and warm from the first request on, so it is not gated).
REPLAY_CACHES = ("circuits", "stages", "sessions")

BAD_NETLIST = "# not a netlist\nINPUT(\n"


class Client:
    """Newline-delimited JSON client for the rar-serve/1 protocol."""

    def __init__(self, sock_path):
        self.sock = socket.socket(socket.AF_UNIX)
        self.sock.connect(sock_path)
        self.io = self.sock.makefile("rw", encoding="utf-8")

    def rpc(self, obj=None, raw=None):
        line = raw if raw is not None else json.dumps(obj)
        self.io.write(line + "\n")
        self.io.flush()
        reply = self.io.readline()
        assert reply, "daemon closed the connection without replying"
        resp = json.loads(reply)
        assert resp.get("schema") == "rar-serve/1", resp
        assert resp.get("status") in ("ok", "error"), resp
        assert "wall_s" in resp, resp
        return resp

    def close(self):
        self.io.close()
        self.sock.close()


def start_daemon(extra_env=None):
    sock_path = os.path.join(
        tempfile.mkdtemp(prefix="rar-serve-"), "rar.sock")
    env = dict(os.environ)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen([EXE, "serve", "--socket", sock_path], env=env)
    deadline = time.time() + 60
    while not os.path.exists(sock_path):
        if proc.poll() is not None:
            sys.exit(f"daemon exited early with {proc.returncode}")
        if time.time() > deadline:
            proc.kill()
            sys.exit("daemon never created its socket")
        time.sleep(0.05)
    return proc, sock_path


def expect_error(resp, kind):
    assert resp["status"] == "error", resp
    assert resp["error"]["kind"] == kind, resp
    assert resp["error"]["message"], resp


def metrics(client):
    m = client.rpc({"schema": "rar-req/1", "id": "m", "verb": "metrics"})
    assert m["status"] == "ok", m
    return m["result"]


def run_req(rid, circuit, **extra):
    req = {"schema": "rar-req/1", "id": rid, "circuit": circuit}
    req.update(extra)
    return req


def clean_daemon_pass():
    proc, sock_path = start_daemon()
    c = Client(sock_path)

    r = c.rpc({"schema": "rar-req/1", "id": "ping", "verb": "ping"})
    assert r["status"] == "ok" and r["result"]["pong"] is True, r

    # Every degraded request must come back as a structured error with
    # the request id echoed, while the daemon keeps serving.
    r = c.rpc(raw='{"schema": "rar-req/1", "id": 1,')
    expect_error(r, "parse")

    r = c.rpc({"schema": "rar-req/1", "id": "bad-verb", "verb": "frobnicate"})
    expect_error(r, "bad_request")
    assert r["id"] == "bad-verb", r

    r = c.rpc({"schema": "rar-req/1", "id": "bad-net", "bench": BAD_NETLIST})
    expect_error(r, "bad_netlist")

    r = c.rpc(run_req("no-such", "no_such_circuit"))
    expect_error(r, "unknown_circuit")

    # A typo'd field must be a hard error, not a silently disarmed
    # guard ("deadline_s" for "deadline").
    r = c.rpc(run_req("typo", "s1196", deadline_s=0.0))
    expect_error(r, "bad_request")

    # Zero-budget deadline: trips at the first guard sample site.  Uses
    # a different circuit than the timing pass below so the cold timing
    # there is not pre-warmed by this request's prepared/stage caching.
    r = c.rpc(run_req("dl", "s9234", deadline=0.0))
    expect_error(r, "timeout")

    # Cold solve, then identical repeats served from the caches. The
    # gate is the cache counters: every warm replay must find its
    # prepared circuit, stage and warm session (one hit each, no miss).
    # The wall-clock ratio is printed for the record only; on a 2-core
    # host it swings with load (a cold s38417 G-RAR run takes about
    # 1 s, mostly stage analysis).
    t0 = time.time()
    r = c.rpc(run_req("cold", "s38417"))
    cold_s = time.time() - t0
    assert r["status"] == "ok", r
    cold_outcome = r["result"]["outcome"]

    before = metrics(c)["caches"]
    warm_s = float("inf")
    for i in range(WARM_REPLAYS):
        t0 = time.time()
        r = c.rpc(run_req(f"warm{i}", "s38417"))
        warm_s = min(warm_s, time.time() - t0)
        assert r["status"] == "ok", r
        assert r["result"]["outcome"] == cold_outcome, (
            "warm replay diverged from the cold solve")
    stats = metrics(c)

    for name in REPLAY_CACHES:
        gained = {k: stats["caches"][name][k] - before[name][k]
                  for k in ("hits", "misses")}
        assert gained == {"hits": WARM_REPLAYS, "misses": 0}, (
            f"{name} cache over {WARM_REPLAYS} warm replays: {gained}")
    speedup = cold_s / max(warm_s, 1e-9)
    print(f"serve-smoke: cold {cold_s:.3f} s, warm {warm_s:.4f} s "
          f"-> {speedup:.1f}x, each warm replay one hit in "
          f"{', '.join(REPLAY_CACHES)} (cache hits "
          f"{stats['cache_hits_total']})")

    r = c.rpc({"schema": "rar-req/1", "id": "bye", "verb": "shutdown"})
    assert r["status"] == "ok", r
    rc = proc.wait(timeout=60)
    assert rc == 0, f"daemon exited {rc} after shutdown verb"
    c.close()


def poolkill_daemon_pass():
    # The whole daemon runs under injected pool-worker crashes; a cold
    # solve dies inside the engine, surfaces as a structured
    # worker_crashed error, and the daemon itself keeps serving.
    proc, sock_path = start_daemon({"RAR_FAULTS": "11:poolkill"})
    c = Client(sock_path)

    r = c.rpc(run_req("killed", "s1196"))
    expect_error(r, "worker_crashed")

    r = c.rpc({"schema": "rar-req/1", "id": "alive", "verb": "ping"})
    assert r["status"] == "ok" and r["result"]["pong"] is True, r

    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=60)
    assert rc == 0, f"daemon exited {rc} after SIGTERM"
    c.close()
    print("serve-smoke: poolkill request degraded to worker_crashed, "
          "daemon survived and drained on SIGTERM")


def main():
    clean_daemon_pass()
    poolkill_daemon_pass()
    print("serve-smoke: OK")


if __name__ == "__main__":
    main()
