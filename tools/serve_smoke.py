#!/usr/bin/env python3
"""CI smoke client for `dkc serve`.

Drives a freshly started server through the full protocol surface
(updates -> queries -> error replies, a hostile deeply nested line
included -> snapshot -> a refused `improve` -> concurrent writers ->
shutdown), validates every reply as JSON, writes all reply lines to a
file for external `python3 -m json.tool` validation, and — on a second
invocation with ``--verify-restart`` — asserts that a restarted server
reproduced the pre-shutdown epoch and |S| via snapshot + log replay, and
that its `solution` reply is byte-identical to the live server's. With
``--replica-catchup`` it checks that a `dkc replica` tailing the server
reached the server's epoch and serves the same `solution` bytes.

Usage:
    serve_smoke.py --port P --replies OUT.jsonl [phase flags]

Phases:
    --drive         run the update/query/snapshot sequence and print
                    "EPOCH <e> SIZE <s>" (captured by the CI script)
    --verify-restart EPOCH SIZE
                    after a restart: assert stats report exactly this
                    epoch/|S|, then shut the server down
    --replica-catchup PORT
                    apply a few updates to the server on --port, wait until
                    the replica on PORT reports the server's epoch, and
                    require the two raw `solution` lines to match byte for
                    byte
    --shutdown      shut the server down

    --solution-line FILE
                    with --drive: save the raw `solution` reply line of the
                    final epoch; with --verify-restart: require the
                    restarted server's line to equal it byte for byte. The
                    live server renders that reply from page fragments
                    cached over earlier epochs, the restarted one from
                    scratch.
"""

import argparse
import json
import socket
import sys
import threading
import time

# Serialises reply-file writes from concurrent clients, one line at a time.
REPLIES_LOCK = threading.Lock()


class Client:
    def __init__(self, port: int, replies_path: str):
        deadline = time.time() + 30.0
        last_err = None
        while time.time() < deadline:
            try:
                self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
                break
            except OSError as e:  # server still starting
                last_err = e
                time.sleep(0.2)
        else:
            raise SystemExit(f"could not connect to 127.0.0.1:{port}: {last_err}")
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")
        self.replies = open(replies_path, "a", encoding="utf-8")

    def call(self, request: dict) -> dict:
        return self.call_raw(request)[1]

    def call_raw(self, request: dict) -> tuple:
        """The reply line exactly as received, and its parsed value."""
        return self.send_line(json.dumps(request))

    def send_line(self, text: str) -> tuple:
        """Sends one request line verbatim; returns the reply as call_raw."""
        self.file.write(text + "\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise SystemExit(f"connection closed while awaiting reply to {text[:80]!r}")
        with REPLIES_LOCK:
            self.replies.write(line if line.endswith("\n") else line + "\n")
            self.replies.flush()
        reply = json.loads(line)  # every reply must be valid JSON
        return line, reply

    def solution_line(self, epoch: int) -> str:
        line, sol = self.call_raw({"cmd": "query", "what": "solution"})
        if sol.get("ok") is not True or sol["epoch"] != epoch:
            raise SystemExit(f"solution at epoch {epoch} expected: {line}")
        assert sol["size"] == len(sol["cliques"]), "torn solution reply"
        return line

    def call_ok(self, request: dict) -> dict:
        reply = self.call(request)
        if reply.get("ok") is not True:
            raise SystemExit(f"request {request} failed: {reply}")
        return reply


def drive(client: Client, solution_path) -> None:
    # 1. Baseline stats.
    stats = client.call_ok({"cmd": "query", "what": "stats"})
    k = stats["k"]
    size0 = stats["size"]
    assert stats["epoch"] == 0, f"fresh server must start at epoch 0: {stats}"

    # 2. Updates: delete a batch of edges among low node ids, re-insert.
    victims = [(i, i + 1) for i in range(0, 20, 2)]
    dels = [{"op": "delete", "u": u, "v": v} for (u, v) in victims]
    r1 = client.call_ok({"cmd": "update", "updates": dels})
    assert r1["epoch"] >= 1 and r1["applied"] + r1["skipped"] == len(dels), r1
    ins = [{"op": "insert", "u": u, "v": v} for (u, v) in victims]
    r2 = client.call_ok({"cmd": "update", "updates": ins})
    assert r2["epoch"] > r1["epoch"], (r1, r2)

    # 2b. Grow the graph past its first 1024-node page (below the default
    #     growth cap of 115 + 1023) with a triangle of fresh nodes, so the
    #     solution spans two pages and later epochs reuse the far page's
    #     cached text.
    far = [(1100, 1101), (1101, 1102), (1100, 1102)]
    grow = [{"op": "insert", "u": u, "v": v} for (u, v) in far]
    r3 = client.call_ok({"cmd": "update", "updates": grow})
    g = client.call_ok({"cmd": "query", "what": "group_of", "node": 1100})
    assert g["members"] == [1100, 1101, 1102], (r3, g)

    # 3. Queries at a consistent epoch.
    sol = client.call_ok({"cmd": "query", "what": "solution"})
    assert sol["size"] == len(sol["cliques"]), "torn solution reply"
    for clique in sol["cliques"]:
        assert len(clique) == k, f"clique of wrong size in {sol}"
    if sol["cliques"]:
        member = sol["cliques"][0][0]
        g = client.call_ok({"cmd": "query", "what": "group_of", "node": member})
        assert g["members"] is not None and member in g["members"], g

    # 4. Error paths are structured replies, not dropped connections.
    bad = client.call({"cmd": "update", "updates": [{"op": "warp", "u": 1, "v": 2}]})
    assert bad.get("ok") is False and "error" in bad, bad

    # 4b. So is a hostile line nested far past the parser's depth cap: the
    #     server answers it and keeps serving, on this connection and new ones.
    _, deep = client.send_line("[" * 200_000)
    assert deep.get("ok") is False and "nesting" in deep.get("error", ""), deep
    client.call_ok({"cmd": "query", "what": "stats"})
    fresh = Client(client.sock.getpeername()[1], client.replies.name)
    fresh.call_ok({"cmd": "query", "what": "stats"})
    fresh.sock.close()
    fresh.replies.close()

    # 5. Snapshot persists and truncates the log.
    snap = client.call_ok({"cmd": "snapshot"})
    assert snap["durable"] is True, f"snapshot must be durable with --state-dir: {snap}"

    # 6. A post-snapshot tail that only the update log will carry.
    tail = [{"op": "delete", "u": 1, "v": 2}, {"op": "insert", "u": 1, "v": 2}]
    client.call_ok({"cmd": "update", "updates": tail})

    # 7. There is no improvement verb: the local search is a pass of the
    #    bootstrap solve. `improve` is an unknown command, refused without
    #    touching the state, and the connection keeps serving.
    pre = client.call_ok({"cmd": "query", "what": "stats"})
    imp = client.call({"cmd": "improve", "steps": 64})
    assert imp.get("ok") is False and "unknown command" in imp.get("error", ""), imp
    post = client.call_ok({"cmd": "query", "what": "stats"})
    assert (post["epoch"], post["size"]) == (pre["epoch"], pre["size"]), (pre, post)

    # 8. Concurrent writers: requests queued while the writer applies a
    #    round merge into the next one (one epoch, one journal record),
    #    while every client still gets its own outcome. The restart check
    #    then replays whatever merged rounds formed.
    concurrent_writers(client)

    final = client.call_ok({"cmd": "query", "what": "stats"})
    line = client.solution_line(final["epoch"])
    if solution_path:
        with open(solution_path, "w", encoding="utf-8", newline="") as f:
            f.write(line)
    client.call_ok({"cmd": "shutdown"})
    print(f"EPOCH {final['epoch']} SIZE {final['size']}")
    sys.stderr.write(f"drive ok: epoch={final['epoch']} |S|={final['size']} (k={k}, |S0|={size0})\n")


def concurrent_writers(client: Client, writers: int = 4, pairs: int = 25) -> None:
    """Each writer, on its own connection, deletes and re-inserts its own
    edges (disjoint across writers, node ids < 115) `pairs` times."""
    edges = [[(20 + 20 * t + 2 * j, 21 + 20 * t + 2 * j) for j in range(5)] for t in range(writers)]
    # Make every edge present first, so each delete and insert applies.
    setup = [{"op": "insert", "u": u, "v": v} for mine in edges for (u, v) in mine]
    client.call_ok({"cmd": "update", "updates": setup})
    port = client.sock.getpeername()[1]
    barrier = threading.Barrier(writers)
    acks = [[] for _ in range(writers)]
    failures = []

    def writer(t: int) -> None:
        try:
            c = Client(port, client.replies.name)
            barrier.wait()
            for i in range(pairs):
                u, v = edges[t][i % len(edges[t])]
                for op in ("delete", "insert"):
                    r = c.call({"cmd": "update", "updates": [{"op": op, "u": u, "v": v}]})
                    if r.get("ok") is not True or r.get("applied") != 1:
                        raise AssertionError(f"writer {t}: {op} ({u}, {v}) not applied: {r}")
                    acks[t].append(r["epoch"])
            c.sock.close()
            c.replies.close()
        except BaseException as e:  # reported on the main thread
            failures.append(e)
            barrier.abort()  # release writers still waiting to start

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(writers)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if failures:
        raise SystemExit(f"concurrent writers failed: {failures[0]}")
    for t, epochs in enumerate(acks):
        assert len(epochs) == 2 * pairs, f"writer {t} lost acks: {len(epochs)}"
        assert all(a < b for a, b in zip(epochs, epochs[1:])), f"writer {t} epochs not increasing: {epochs}"
    total = sum(len(e) for e in acks)
    rounds = len({e for epochs in acks for e in epochs})
    sys.stderr.write(f"concurrent writers ok: {total} acks in {rounds} rounds\n")


def verify_restart(client: Client, epoch: int, size: int, solution_path) -> None:
    stats = client.call_ok({"cmd": "query", "what": "stats"})
    assert stats["epoch"] == epoch, f"restart lost epochs: {stats['epoch']} != {epoch}"
    assert stats["size"] == size, f"restart changed |S|: {stats['size']} != {size}"
    line = client.solution_line(epoch)
    assert json.loads(line)["size"] == size, line
    if solution_path:
        with open(solution_path, encoding="utf-8", newline="") as f:
            live = f.read()
        if line != live:
            at = next((i for i, (a, b) in enumerate(zip(line, live)) if a != b), None)
            at = min(len(line), len(live)) if at is None else at
            raise SystemExit(
                f"restarted solution differs from the live one at byte {at}:\n"
                f"  live:      {live[max(0, at - 40):at + 40]!r}\n"
                f"  restarted: {line[max(0, at - 40):at + 40]!r}"
            )
    client.call_ok({"cmd": "shutdown"})
    same = ", solution bytes identical" if solution_path else ""
    sys.stderr.write(f"restart ok: epoch={epoch} |S|={size} reproduced{same}\n")


def replica_catchup(client: Client, replica_port: int, timeout: float = 60.0) -> None:
    # Updates after the replica started: it must follow the live tail, not
    # only its bootstrap fetch. Delete then re-insert, so the graph ends
    # where it began.
    edges = [(i, i + 1) for i in range(60, 80, 2)]
    for op in ("delete", "insert"):
        client.call_ok({"cmd": "update", "updates": [{"op": op, "u": u, "v": v} for u, v in edges]})
    epoch = client.call_ok({"cmd": "query", "what": "stats"})["epoch"]
    replica = Client(replica_port, client.replies.name)
    deadline = time.time() + timeout
    while True:
        seen = replica.call_ok({"cmd": "query", "what": "stats"})["epoch"]
        if seen == epoch:
            break
        if seen > epoch:
            raise SystemExit(f"replica at epoch {seen} ran past the primary's {epoch}")
        if time.time() > deadline:
            raise SystemExit(f"replica stuck at epoch {seen}, primary at {epoch}")
        time.sleep(0.1)
    primary_line = client.solution_line(epoch)
    replica_line = replica.solution_line(epoch)
    if replica_line != primary_line:
        raise SystemExit(
            f"replica solution differs from the primary's at epoch {epoch}:\n"
            f"  primary: {primary_line[:160]!r}\n  replica: {replica_line[:160]!r}"
        )
    replica.sock.close()
    replica.replies.close()
    sys.stderr.write(f"replica catch-up ok: epoch={epoch}, solution bytes identical\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--replies", required=True)
    parser.add_argument("--drive", action="store_true")
    parser.add_argument("--verify-restart", nargs=2, type=int, metavar=("EPOCH", "SIZE"))
    parser.add_argument("--replica-catchup", type=int, metavar="PORT")
    parser.add_argument("--shutdown", action="store_true")
    parser.add_argument("--solution-line", metavar="FILE")
    args = parser.parse_args()
    client = Client(args.port, args.replies)
    if args.drive:
        drive(client, args.solution_line)
    elif args.verify_restart:
        verify_restart(client, *args.verify_restart, args.solution_line)
    elif args.replica_catchup:
        replica_catchup(client, args.replica_catchup)
    elif args.shutdown:
        client.call_ok({"cmd": "shutdown"})
    else:
        parser.error("pick --drive, --verify-restart, --replica-catchup or --shutdown")


if __name__ == "__main__":
    main()
