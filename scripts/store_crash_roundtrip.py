#!/usr/bin/env python3
"""Kill a live store writer mid-stream, reopen, fsck: nothing acked is lost.

The CI ``store-durability`` lane's process-level test (the in-process
fault injections live in ``tests/store/test_recovery.py`` and
``tests/qss/test_restart_invisible.py``).  Two rounds, two children.

**A log writer.**  A child process appends the demo history to a
change-log store with the ``"always"`` fsync policy, acknowledging each
append on stdout *after* it is durable.  The parent SIGKILLs the child
mid-write -- no atexit, no flush, no lock release -- then:

1. steals the dead child's lock (the stale-pid path a crashed CLI
   one-shot exercises),
2. runs ``fsck`` and repairs whatever the kill tore,
3. verifies every acknowledged change set survived, and that every
   surviving ``Ot(D)`` equals the in-memory ground truth,
4. shears the recovered log's tail by hand (a torn in-flight frame) and
   proves recovery converges again.

**A polling QSS server.**  A second child (this script, run with
``--qss-child``) is a store-backed ``QSSServer`` polling a scripted
source that replays the demo history, one ``run_until`` call per day;
it announces each call before making it and acknowledges it, with the
notifications it returned, after.  The parent lets a few calls through
and SIGKILLs the child inside the next one, then reopens the store,
subscribes again and checks the restart contract of docs/qss.md: the
resumed polling times are exactly the acknowledged polls (or one call
more, when the kill fell after that call's manifest write), every
acknowledged notification is the uninterrupted run's, and the resumed
server delivers every later one -- nothing missed.

Exit status 0 means the durability contract held.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

KILL_AFTER_ACKS = 6  # SIGKILL the child once this many appends are durable

CHILD_SOURCE = """
import sys
sys.path.insert(0, {src!r})
from repro.sources.generators import demo_world
from repro.store import ChangeLogStore

db, history = demo_world(days=60)
store = ChangeLogStore({root!r}, fsync_policy="always")
log = store.create("demo", db)
for index, (when, change_set) in enumerate(history.entries()):
    log.append(when, change_set)
    print(f"ACK {{index}}", flush=True)
print("DONE", flush=True)
"""


def fail(message: str) -> None:
    print(f"CRASH ROUNDTRIP FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run_child_and_kill(root: Path) -> int:
    """Start the writer, kill it after KILL_AFTER_ACKS acks; return acks."""
    child = subprocess.Popen(
        [sys.executable, "-c",
         CHILD_SOURCE.format(src=str(REPO_ROOT / "src"), root=str(root))],
        stdout=subprocess.PIPE, text=True)
    acked = -1
    try:
        for line in child.stdout:
            if line.startswith("ACK "):
                acked = int(line.split()[1])
            if acked + 1 >= KILL_AFTER_ACKS:
                os.kill(child.pid, signal.SIGKILL)
                break
            if line.startswith("DONE"):
                fail("child finished before the kill; raise the history "
                     "length")
    finally:
        child.stdout.close()
        child.wait()
    if acked < 0:
        fail("child never acknowledged a durable append")
    print(f"killed writer pid {child.pid} after {acked + 1} durable "
          f"append(s)")
    return acked


def verify(root: Path, acked: int) -> None:
    from repro.sources.generators import demo_world
    from repro.store import ChangeLogStore

    db, history = demo_world(days=60)

    # The dead child's LOCK names a pid that no longer exists; opening
    # rw must steal it, truncate any torn tail, and serve reads.
    with ChangeLogStore(root) as store:
        report = store.fsck(repair=True)
        if not report["ok"]:
            fail(f"fsck could not repair the killed store: {report}")
        log = store.log("demo")
        survived = len(log)
        if survived < acked + 1:
            fail(f"only {survived} change set(s) survived, but {acked + 1} "
                 f"were acknowledged as durable before the kill")
        expected_times = history.timestamps()[:survived]
        if log.timestamps() != expected_times:
            fail("recovered timestamps diverge from the written prefix")
        for when in expected_times:
            if not log.snapshot_at(when).same_as(
                    history.snapshot_at(db, when)):
                fail(f"Ot(D) at {when} diverges after recovery")
    print(f"recovered {survived} change set(s), every Ot(D) exact "
          f"({acked + 1} were acked)")

    # Round two: shear the tail mid-frame (the torn write SIGKILL alone
    # rarely produces, since acked frames are already on disk).
    segment = sorted((root / "demo").glob("seg-*.log"))[-1]
    segment.write_bytes(segment.read_bytes()[:-5])
    with ChangeLogStore(root) as store:
        report = store.fsck(repair=True)
        if not report["ok"]:
            fail(f"fsck could not repair the sheared tail: {report}")
        log = store.log("demo")
        survivors = log.timestamps()
        if survivors != history.timestamps()[:len(survivors)]:
            fail("post-shear recovery is not a prefix of the history")
        if len(survivors) < survived - 1:
            fail(f"shearing one frame lost {survived - len(survivors)} "
                 f"record(s)")
    print(f"torn-tail repair kept {len(survivors)} change set(s) "
          f"(one frame sheared)")


# ---------------------------------------------------------------------------
# The second child: a polling QSS server
# ---------------------------------------------------------------------------

QSS_DAYS = 24       # calls in an uninterrupted run (one poll each)
KILL_IN_CALL = 7    # SIGKILL the child inside this call (1-based)


class ReplaySource:
    """The demo history replayed by date: the world as of ``now``."""

    def __init__(self) -> None:
        from repro.sources.generators import demo_world
        self.origin, self.history = demo_world(days=QSS_DAYS)
        self.now = None

    def advance(self, when) -> None:
        from repro.timestamps import parse_timestamp
        self.now = parse_timestamp(when)

    def export(self):
        return self.history.snapshot_at(self.origin, self.now)


def deadline(call: int):
    """The end of the ``call``-th day; its one poll is at 6:00am."""
    from repro.timestamps import parse_timestamp
    return parse_timestamp("1Jan97").plus(days=call)


def qss_server(store, calls_done: int):
    """A server whose clock stands after ``calls_done`` calls, the
    wrapper registered and the subscription made (or resumed)."""
    from repro import QSSServer, Subscription, Wrapper
    server = QSSServer(start=deadline(calls_done), deliver_empty=True,
                       store=store)
    server.register_wrapper("demo", Wrapper(ReplaySource(), name="root"))
    state = server.subscribe(Subscription(
        "Items", "every day at 6:00am", "select root.item",
        "select Items.item<cre at T> where T > t[-1]"), "demo")
    return server, state


def run_call(server, call: int) -> list:
    return [[str(n.polling_time), n.poll_index,
             sorted(str(row.items) for row in n.result)]
            for n in server.run_until(deadline(call))]


def qss_child(root: str) -> None:
    server, _ = qss_server(root, 0)
    for call in range(1, QSS_DAYS + 1):
        print(f"RUN {call}", flush=True)
        print("ACK " + json.dumps(run_call(server, call)), flush=True)
    print("DONE", flush=True)


def run_qss_child_and_kill(root: Path) -> list:
    """Kill the server inside call KILL_IN_CALL; return the acked calls."""
    child = subprocess.Popen(
        [sys.executable, __file__, "--qss-child", str(root)],
        stdout=subprocess.PIPE, text=True)
    acked: list = []
    try:
        for line in child.stdout:
            if line.startswith("ACK "):
                acked.append(json.loads(line[4:]))
            elif line == f"RUN {KILL_IN_CALL}\n":
                os.kill(child.pid, signal.SIGKILL)
                break
            elif line.startswith("DONE"):
                fail("QSS child finished before the kill")
    finally:
        child.stdout.close()
        child.wait()
    if len(acked) != KILL_IN_CALL - 1:
        fail(f"QSS child acknowledged {len(acked)} call(s) before call "
             f"{KILL_IN_CALL}")
    print(f"killed QSS server pid {child.pid} inside call {KILL_IN_CALL}, "
          f"{len(acked)} call(s) acknowledged")
    return acked


def verify_qss(root: Path, acked: list) -> None:
    from repro.store import ChangeLogStore, close_store
    from repro.timestamps import Timestamp

    reference_server, reference_state = qss_server(None, 0)
    reference = [run_call(reference_server, call)
                 for call in range(1, QSS_DAYS + 1)]
    if acked != reference[:len(acked)]:
        fail("an acknowledged call differs from the uninterrupted run's")

    # What the dead server left: its lock (stolen here), maybe a torn
    # tail, and the manifest as of the last call that returned.
    with ChangeLogStore(root) as store:
        report = store.fsck(repair=True)
        if not report["ok"]:
            fail(f"fsck could not repair the killed QSS store: {report}")
        recorded = [Timestamp(ticks) for ticks in
                    store.subscriptions()["Items"]["polling_times"]]
    if len(recorded) not in (len(acked), len(acked) + 1) or \
            recorded != reference_state.polling_times[:len(recorded)]:
        fail(f"recorded polling times {recorded} are not the "
             f"{len(acked)} acknowledged poll(s) (or one call more)")

    server, state = qss_server(str(root), len(recorded))
    if state.polling_times != recorded:
        fail("subscribing again did not resume the recorded polling times")
    resumed = [run_call(server, call)
               for call in range(len(recorded) + 1, QSS_DAYS + 1)]
    if resumed != reference[len(recorded):]:
        fail("the resumed server's notifications differ from the "
             "uninterrupted run's: a change was missed or misreported")
    if not server.doems.doem("Items").same_as(
            reference_server.doems.doem("Items")):
        fail("the resumed DOEM differs from the uninterrupted run's")
    server.close()
    close_store(root)
    print(f"resumed at poll {len(recorded) + 1}: {len(acked)} acked + "
          f"{len(resumed)} resumed call(s) equal the uninterrupted run, "
          f"DOEM exact")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="store-crash-") as scratch:
        started = time.perf_counter()
        root = Path(scratch) / "store"
        acked = run_child_and_kill(root)
        verify(root, acked)
        root = Path(scratch) / "qss-store"
        verify_qss(root, run_qss_child_and_kill(root))
        elapsed = time.perf_counter() - started
        print(f"crash roundtrip OK in {elapsed:.2f}s")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--qss-child"]:
        qss_child(sys.argv[2])
    else:
        main()
