#!/usr/bin/env python3
"""End-to-end lifecycle test for the hardened serve path: hot zone reload
and graceful drain under live traffic.

Drives one real `rdns_tool serve` process and checks the two lifecycle
guarantees from DESIGN.md §15:

  1. **Hot zone reload with zero dropped queries**: while a background
     flooder keeps the server busy, a reload is triggered twice — once via
     `GET /reload` on the admin endpoint, once via SIGHUP — and a paced
     probe client sends sequential PTR queries throughout, each of which
     must be answered (the old frozen view serves until the new epoch is
     published; no query ever falls into a gap).

  2. **Graceful drain on SIGTERM**: a burst of queries is queued on the
     server's sockets and SIGTERM lands immediately after. Every queued
     query must still be answered (the workers consume the kernel backlog
     before exiting), the process must exit 0, and the summary must
     account for every datagram.

Afterwards the artifacts are audited: the journal and the metrics JSONL
stream must be schema-valid and untruncated (every line complete, final
newline present) and the journal must carry serve.start, serve.reload,
serve.drain and serve.stop events.

Stdlib only; invoked by ctest with the rdns_tool path as argv[1].
"""

import argparse
import http.client
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

WORLD_ARGS = ["--orgs", "3", "--seed", "11", "--scale", "0.05"]
DATE = "2021-01-02"
SERVE_BANNER = re.compile(r"^serving on 127\.0\.0\.1:(\d+) with (\d+) workers")
ADMIN_BANNER = re.compile(r"^admin on 127\.0\.0\.1:(\d+)")
RELOAD_LINE = re.compile(r"zone reload #(\d+) complete")
CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_metrics_schema.py")


def fail(message):
    sys.stderr.write(f"FAIL: {message}\n")
    sys.exit(1)


def encode_qname(name):
    wire = b""
    for label in name.split("."):
        raw = label.encode("ascii")
        wire += struct.pack("B", len(raw)) + raw
    return wire + b"\x00"


def ptr_query(txid, last_octet):
    # 10.40.0.0/16 is the first announced prefix of every make_internet_world
    # (org slots start at 40), so these queries always route to a zone and
    # earn a reply — never the unannounced-space timeout.
    header = struct.pack(">HHHHHH", txid & 0xFFFF, 0x0100, 1, 0, 0, 0)
    qname = f"{last_octet & 0xFF}.0.40.10.in-addr.arpa"
    return header + encode_qname(qname) + struct.pack(">HH", 12, 1)  # PTR, IN


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8", "replace")
    finally:
        conn.close()


def run_checker(path, *flags):
    proc = subprocess.run([sys.executable, CHECKER, path, *flags],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"check_metrics_schema.py {' '.join(flags)} {path}: {proc.stdout}")


def assert_untruncated(path, what):
    """A crashed or hard-killed writer leaves a partial last line; a drained
    one never does. Every line must be complete JSON and end in a newline."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob:
        fail(f"{what} is empty")
    if not blob.endswith(b"\n"):
        fail(f"{what} is truncated: no final newline")
    for i, line in enumerate(blob.decode("utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{what} line {i} is not complete JSON ({e}): {line[:80]!r}")


class StdoutReader(threading.Thread):
    """Drains the server's stdout so reload confirmations can be awaited
    while the main thread keeps querying."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.lines = []
        self.lock = threading.Lock()
        self.start()

    def run(self):
        for line in self.stream:
            with self.lock:
                self.lines.append(line.rstrip("\n"))

    def snapshot(self):
        with self.lock:
            return list(self.lines)

    def wait_for(self, regex, timeout_s):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in self.snapshot():
                m = regex.search(line)
                if m:
                    return m
            time.sleep(0.05)
        return None


class Flooder(threading.Thread):
    """Open-loop background load: keeps the serving loop busy so lifecycle
    transitions happen under traffic, not in a quiet lab."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.port = port
        self.stop_flag = threading.Event()
        self.sent = 0
        self.start()

    def run(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        txid = 0
        while not self.stop_flag.is_set():
            try:
                sock.sendto(ptr_query(txid, txid), ("127.0.0.1", self.port))
            except OSError:
                break
            self.sent += 1
            txid += 1
            if txid % 64 == 0:
                time.sleep(0.001)  # busy, not saturating
        sock.close()

    def stop(self):
        self.stop_flag.set()
        self.join(timeout=5)


def probe_sequential(port, count, what):
    """`count` sequential queries, each awaiting its reply: the zero-drop
    assertion for reload windows. Returns the observed replies."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(5)
    answered = 0
    for i in range(count):
        query = ptr_query(0x4000 + i, i)
        sock.sendto(query, ("127.0.0.1", port))
        try:
            reply, _ = sock.recvfrom(4096)
        except socket.timeout:
            fail(f"{what}: query {i} of {count} got no reply (dropped)")
        if len(reply) < 12 or struct.unpack(">H", reply[:2])[0] != (0x4000 + i) & 0xFFFF:
            fail(f"{what}: query {i} got a mismatched reply")
        answered += 1
    sock.close()
    return answered


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("tool", help="path to the rdns_tool binary")
    opts = parser.parse_args()

    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        journal = os.path.join(work, "journal.jsonl")
        metrics_jsonl = os.path.join(work, "metrics.jsonl")

        # L3 answer-shedding stays off: this test floods on purpose, and the
        # zero-drop guarantees under test are about lifecycle transitions,
        # not the overload fuse (bench_serve_overload covers that).
        server = subprocess.Popen(
            [opts.tool, "serve"] + WORLD_ARGS +
            ["--date", DATE, "--hour", "14", "--port", "0", "--threads", "2",
             "--admin-port", "0", "--shed-l3", "0",
             "--metrics-interval", "0.25", "--metrics-out", metrics_jsonl,
             "--journal-out", journal],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        flood = None
        # fail() raises SystemExit, so the cleanup is a finally: the flooder
        # stops and the server is killed and reaped on every way out.
        try:
            banner = server.stdout.readline()
            match = SERVE_BANNER.match(banner)
            if not match:
                fail(f"unparseable serve banner: {banner!r}")
            port = int(match.group(1))
            admin_line = server.stdout.readline()
            admin_match = ADMIN_BANNER.match(admin_line)
            if not admin_match:
                fail(f"unparseable admin banner: {admin_line!r}")
            admin_port = int(admin_match.group(1))
            reader = StdoutReader(server.stdout)

            flood = Flooder(port)
            probe_sequential(port, 20, "warmup")

            # -- hot reload #1: via the admin endpoint ----------------------
            status, body = http_get(admin_port, "/reload")
            if status != 200 or "reload" not in body:
                fail(f"GET /reload: status {status}, body {body!r}")
            # Zero-drop window: query continuously while the rebuild runs.
            while True:
                probe_sequential(port, 10, "during HTTP reload")
                if reader.wait_for(RELOAD_LINE, 0.01):
                    break
            probe_sequential(port, 20, "after HTTP reload")

            # -- hot reload #2: via SIGHUP ----------------------------------
            server.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 120
            done = None
            while time.monotonic() < deadline:
                probe_sequential(port, 10, "during SIGHUP reload")
                done = reader.wait_for(re.compile(r"zone reload #2 complete"), 0.01)
                if done:
                    break
            if not done:
                fail("SIGHUP reload never completed")
            probe_sequential(port, 20, "after SIGHUP reload")

            # -- graceful drain: SIGTERM lands on a loaded server -----------
            drain_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            drain_sock.settimeout(5)
            burst = 100
            for i in range(burst):
                drain_sock.sendto(ptr_query(0x7000 + i, i), ("127.0.0.1", port))
            server.send_signal(signal.SIGTERM)  # burst already queued in-kernel
            got = 0
            try:
                while got < burst:
                    drain_sock.recvfrom(4096)
                    got += 1
            except socket.timeout:
                pass
            drain_sock.close()
            if got < burst:
                fail(f"drain flushed only {got}/{burst} queued replies")

            flood.stop()
            server.wait(timeout=60)
            out = "\n".join(reader.snapshot())
        finally:
            if flood:
                flood.stop()
            if server.poll() is None:
                server.kill()
            server.wait()
        if server.returncode != 0:
            fail(f"server exited {server.returncode} on SIGTERM: {out}")

        summary = next((l for l in out.splitlines() if l.startswith("served ")), None)
        if summary is None:
            fail(f"server printed no summary line: {out!r}")
        if "drops:" not in out:
            fail(f"summary is missing the drop-cause breakdown: {out!r}")

        # -- artifacts: schema-valid AND untruncated ------------------------
        assert_untruncated(journal, "journal")
        assert_untruncated(metrics_jsonl, "metrics stream")
        run_checker(journal, "--journal")
        run_checker(metrics_jsonl, "--snapshots", "--require-manifest")
        with open(journal, "r", encoding="utf-8") as f:
            types = [json.loads(l).get("type") for l in f if l.strip()]
        for expected in ("manifest", "serve.start", "serve.reload",
                         "serve.drain", "serve.stop"):
            if expected not in types:
                fail(f"journal is missing a {expected} event")
        if types.count("serve.reload") != 2:
            fail(f"expected 2 serve.reload events, saw {types.count('serve.reload')}")

    print(f"OK: two hot reloads (HTTP + SIGHUP) with zero dropped probes, "
          f"graceful drain flushed {burst}/{burst} queued replies, exit 0, "
          f"artifacts untruncated and schema-valid ({flood.sent} flood datagrams)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
