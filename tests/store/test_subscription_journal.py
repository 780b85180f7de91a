"""The subscription manifest's journal: a poll is one appended record.

``<root>/SUBSCRIPTIONS`` is a snapshot with a generation ``g``;
``<root>/SUBSCRIPTIONS.polls`` journals the polls recorded since, one
CRC-framed record per call.  A call that only adds polling times
appends; anything else, or a journal grown past the snapshot, rewrites
the snapshot under ``g + 1`` and cuts the journal (docs/storage.md, "The
subscription manifest").
"""

from __future__ import annotations

import copy
import json
import math
import os
import stat

import pytest

from repro import COMPLEX, OEMDatabase, QSSServer, Subscription, Wrapper
from repro.cli import main as cli
from repro.errors import StoreCorruptionError
from repro.obs.trace import get_tracer
from repro.store import ChangeLogStore, SegmentScan, SegmentWriter, \
    close_store
from repro.store.segment import HEADER_SIZE, MAGIC
from repro.timestamps import parse_timestamp

DAY = 86_400
T0 = parse_timestamp("30Dec96 11:30pm").ticks

RECORDS = {
    "Restaurants": {
        "name": "Restaurants", "frequency": "every night at 11:30pm",
        "polling_query": "select guide.restaurant",
        "filter_query": "select Restaurants.restaurant<cre at T> "
                        "where T > t[-1]",
        "polling_name": "Restaurants", "user": "local", "wrapper": "guide",
        "doem_key": "Restaurants", "polling_times": [T0, T0 + DAY]},
    "Idle": {"name": "Idle", "wrapper": "guide", "doem_key": "Idle",
             "polling_times": []},
}


def polled(records: dict, *ticks: int, names=None) -> dict:
    """``records`` with ``ticks`` added to the polling times of
    ``names`` (all of them by default), as a server records them."""
    updated = copy.deepcopy(records)
    for name in names or updated:
        updated[name]["polling_times"].extend(ticks)
    return updated


def journal(store: ChangeLogStore):
    return store.path / "SUBSCRIPTIONS.polls"


def snapshot(store: ChangeLogStore) -> dict:
    return json.loads((store.path / "SUBSCRIPTIONS").read_text())


def journal_records(store: ChangeLogStore) -> list[dict]:
    return [json.loads(payload) for payload in SegmentScan(journal(store))]


@pytest.fixture
def store(tmp_path):
    with ChangeLogStore(tmp_path / "st") as handle:
        yield handle


@pytest.fixture
def syscalls(monkeypatch):
    """Counts of ``os.replace`` and of fsyncs on files and directories."""
    counts = {"replace": 0, "file_fsync": 0, "dir_fsync": 0}
    real_replace, real_fsync = os.replace, os.fsync

    def replace(*args, **kwargs):
        counts["replace"] += 1
        return real_replace(*args, **kwargs)

    def fsync(fd):
        kind = "dir_fsync" if stat.S_ISDIR(os.fstat(fd).st_mode) \
            else "file_fsync"
        counts[kind] += 1
        return real_fsync(fd)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    return counts


class TestAppend:
    def test_a_poll_is_one_grouped_record(self, store):
        store.record_subscriptions(RECORDS)
        assert snapshot(store)["g"] == 1
        later = polled(RECORDS, T0 + 2 * DAY, names=["Restaurants"])
        later = polled(later, T0 + 2 * DAY, T0 + 3 * DAY, names=["Idle"])
        store.record_subscriptions(later)
        assert journal_records(store) == [
            {"g": 1, "polls": {str(T0 + 2 * DAY): ["Restaurants", "Idle"],
                               str(T0 + 3 * DAY): ["Idle"]}}]
        assert snapshot(store)["subscriptions"] == RECORDS
        assert store.subscriptions() == later
        store.close()
        for mode in ("ro", "rw"):
            with ChangeLogStore(store.path, mode) as reopened:
                assert reopened.subscriptions() == later

    def test_a_steady_state_poll_cycle(self, store, syscalls):
        records = polled(RECORDS, T0 + 2 * DAY)
        store.record_subscriptions(RECORDS)
        store.record_subscriptions(records)  # creates the journal
        assert (syscalls["file_fsync"], syscalls["dir_fsync"]) == (2, 2)
        for day in range(3, 6):
            before = dict(syscalls)
            records = polled(records, T0 + day * DAY)
            store.record_subscriptions(records)
            assert syscalls["replace"] == before["replace"]
            assert syscalls["dir_fsync"] == before["dir_fsync"]
            assert syscalls["file_fsync"] == before["file_fsync"] + 1
        assert store.subscriptions() == records

    def test_a_server_poll_cycle_pays_one_fsync(self, tmp_path, syscalls):
        """A quiet poll appends no change set: its whole cost on disk is
        the journal record."""
        server = quiet_server(tmp_path / "st", "30Dec96", "S")
        try:
            server.run_until("2Jan97")  # creates the history, rewrites
            server.run_until("3Jan97")  # creates the journal
            for day in ("4Jan97", "5Jan97", "6Jan97"):
                before = dict(syscalls)
                server.run_until(day)
                assert {kind: syscalls[kind] - before[kind]
                        for kind in syscalls} == \
                    {"replace": 0, "file_fsync": 1, "dir_fsync": 0}
        finally:
            server.close()
            close_store(tmp_path / "st")
        with ChangeLogStore(tmp_path / "st", "ro") as reader:
            assert len(reader.subscriptions()["S"]["polling_times"]) == 7

    def test_the_write_is_traced_with_its_mode(self, store):
        tracer = get_tracer()
        with tracer.capture() as captured:
            store.record_subscriptions(RECORDS)
            store.record_subscriptions(polled(RECORDS, T0 + 2 * DAY))
        assert [(s.name, s.attrs) for s in captured.spans
                if s.name == "store.subscriptions"] == [
            ("store.subscriptions", {"mode": "rewrite"}),
            ("store.subscriptions", {"mode": "append"})]

    def test_nothing_new_writes_nothing(self, store):
        store.record_subscriptions(RECORDS)
        before = store.stats()
        store.record_subscriptions(copy.deepcopy(RECORDS))
        assert store.stats() == before
        assert not journal(store).exists()


class QuietSource:
    """One restaurant that never changes."""

    def advance(self, when):
        pass

    def export(self):
        db = OEMDatabase(root="guide")
        db.create_node("r0", COMPLEX)
        db.add_arc("guide", "restaurant", "r0")
        db.create_node("a0", "Janta")
        db.add_arc("r0", "name", "a0")
        return db


def quiet_server(path, start: str, *names: str) -> QSSServer:
    server = QSSServer(start=start, store=path)
    server.register_wrapper("guide", Wrapper(QuietSource(), name="guide"))
    for name in names:
        server.subscribe(Subscription(
            name, "every day at 9:00am", "select guide.restaurant",
            f"select {name}.restaurant<cre at T> where T > t[-1]"), "guide")
    return server


class TestRewrite:
    @pytest.mark.parametrize("change", [
        lambda records: {"Idle": records["Idle"]},                # dropped
        lambda records: {**records, "New": dict(records["Idle"],
                                                name="New")},     # added
        lambda records: {**records, "Idle": dict(records["Idle"],
                                                 wrapper="other")},
        lambda records: {**records, "Idle": dict(                 # unsorted
            records["Idle"], polling_times=records["Idle"]["polling_times"]
            + [T0 + 9 * DAY, T0 + 8 * DAY])},
        lambda records: {**records, "Restaurants": dict(          # rewritten
            records["Restaurants"], polling_times=[T0 - DAY]
            + records["Restaurants"]["polling_times"][1:] + [T0 + 9 * DAY])},
    ])
    def test_anything_but_added_polls_rewrites(self, store, change):
        store.record_subscriptions(RECORDS)
        store.record_subscriptions(polled(RECORDS, T0 + 2 * DAY))
        assert len(journal_records(store)) == 1
        changed = change(polled(RECORDS, T0 + 2 * DAY))
        store.record_subscriptions(changed)
        assert snapshot(store) == {"format": 1, "g": 2,
                                   "subscriptions": changed}
        assert journal(store).read_bytes() == MAGIC  # cut back
        assert store.subscriptions() == changed
        store.close()
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == changed

    def test_a_crash_between_the_rewrite_and_the_cut(self, store,
                                                     monkeypatch):
        """The new snapshot holds every poll; the journal's records of
        the old generation are not replayed on top of it."""
        store.record_subscriptions(RECORDS)
        records = polled(RECORDS, T0 + 2 * DAY)
        store.record_subscriptions(records)
        records = polled(records, T0 + 3 * DAY)
        store.record_subscriptions(records)
        stale = journal(store).read_bytes()
        real_replace = os.replace

        def renamed_then_crashed(source, target):
            real_replace(source, target)
            raise OSError("crashed after the rename")

        monkeypatch.setattr(os, "replace", renamed_then_crashed)
        grown = {**polled(records, T0 + 4 * DAY),
                 "New": dict(RECORDS["Idle"], name="New")}
        with pytest.raises(OSError):
            store.record_subscriptions(grown)
        monkeypatch.setattr(os, "replace", real_replace)
        assert journal(store).read_bytes() == stale  # never cut
        assert snapshot(store)["g"] == 2
        # The writer reads the disk again, as a restart does.
        assert store.subscriptions() == grown
        store.close()
        for mode in ("ro", "rw"):
            with ChangeLogStore(store.path, mode) as reopened:
                assert reopened.subscriptions() == grown
        with ChangeLogStore(store.path) as writer:
            resumed = polled(grown, T0 + 5 * DAY)
            writer.record_subscriptions(resumed)
            assert [record["g"] for record in journal_records(writer)] \
                == [1, 1, 2]
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == resumed

    def test_a_dropped_name_does_not_come_back(self, store):
        both = polled(RECORDS, T0 + 2 * DAY)
        store.record_subscriptions(RECORDS)
        store.record_subscriptions(both)  # journals a poll of Idle too
        only = {"Restaurants": both["Restaurants"]}
        store.record_subscriptions(only)
        later = polled(only, T0 + 3 * DAY)
        store.record_subscriptions(later)
        store.close()
        for mode in ("ro", "rw"):
            with ChangeLogStore(store.path, mode) as reopened:
                assert reopened.subscriptions() == later

    def test_a_name_unsubscribed_from_a_server(self, tmp_path):
        path = tmp_path / "st"
        server = quiet_server(path, "30Dec96", "Kept", "Dropped")
        server.run_until("1Jan97")
        server.run_until("2Jan97")  # both journaled
        server.unsubscribe("Dropped")
        server.run_until("4Jan97")  # Kept journaled alone
        kept = list(server.subscriptions.get("Kept").polling_times)
        server.close()
        close_store(path)
        with ChangeLogStore(path, "ro") as reader:
            assert list(reader.subscriptions()) == ["Kept"]
            assert reader.subscriptions()["Kept"]["polling_times"] == \
                [when.ticks for when in kept]
        again = quiet_server(path, "4Jan97", "Kept")
        try:
            assert again.subscriptions.get("Kept").polling_times == kept
            assert "Dropped" not in again.store.subscriptions()
        finally:
            again.close()
            close_store(path)

    def test_a_journal_that_outgrows_its_snapshot(self, store):
        store.record_subscriptions(RECORDS)
        records, rewrites = RECORDS, 0
        for day in range(2, 200):
            records = polled(records, T0 + day * DAY)
            generation = snapshot(store)["g"]
            store.record_subscriptions(records)
            rewrites += snapshot(store)["g"] != generation
            assert journal(store).stat().st_size \
                <= (store.path / "SUBSCRIPTIONS").stat().st_size
        assert 0 < rewrites < 40
        assert store.subscriptions() == records


class TestGrowth:
    @pytest.mark.parametrize("names, most", [(16, 20), (1, 40)])
    def test_rewrites_grow_logarithmically(self, tmp_path, monkeypatch,
                                           names, most):
        """10,000 polls, recorded as a server records them: a call per
        tick, each subscription polled once in it.  A rewrite comes when
        the journal has caught up with the snapshot, which holds every
        poll so far, so the polls between rewrites grow with the polls
        already made.  The bytes written per poll stay flat."""
        monkeypatch.setattr(os, "fsync", lambda fd: None)  # counted, not timed
        real_replace, replaced = os.replace, []

        def replace(*args):
            replaced.append(args)
            return real_replace(*args)

        monkeypatch.setattr(os, "replace", replace)
        records = {f"S{index:02d}": dict(RECORDS["Restaurants"],
                                         name=f"S{index:02d}",
                                         polling_times=[])
                   for index in range(names)}
        rewrites, bytes_at = [], {}
        with ChangeLogStore(tmp_path / "st") as store:
            for tick in range(10_000 // names):
                for record in records.values():
                    record["polling_times"] = \
                        record["polling_times"] + [T0 + tick * DAY]
                before = len(replaced)
                store.record_subscriptions(
                    {name: dict(record) for name, record in records.items()})
                if len(replaced) > before and tick:
                    rewrites.append((tick + 1) * names)
                bytes_at[(tick + 1) * names] = store.stats()["bytes_written"]
            assert store.subscriptions() == records
        assert len(rewrites) <= most
        # Each gap between rewrites is a fixed share of the polls made.
        gaps = [later - earlier
                for earlier, later in zip(rewrites, rewrites[1:])]
        assert all(gap >= earlier / 8
                   for gap, earlier in zip(gaps[3:], rewrites[3:]))
        assert len(rewrites) <= 8 * math.log2(10_000)
        polls = sorted(bytes_at)
        early = next(p for p in polls if p >= 1_000)
        per_poll = [bytes_at[p] / p for p in (early, polls[-1])]
        assert per_poll[1] <= 2 * per_poll[0]


class TestTornJournal:
    def make(self, store) -> tuple[dict, dict]:
        store.record_subscriptions(RECORDS)
        first = polled(RECORDS, T0 + 2 * DAY)
        store.record_subscriptions(first)
        second = polled(first, T0 + 3 * DAY)
        store.record_subscriptions(second)
        store.close()
        return first, second

    @pytest.mark.parametrize("shear", [1, 5, 30])
    def test_reads_as_its_durable_prefix(self, store, shear):
        first, _ = self.make(store)
        data = journal(store).read_bytes()
        journal(store).write_bytes(data[:-shear])
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == first
            report = reader.fsck()
            assert not report["ok"]
            assert any("SUBSCRIPTIONS.polls: torn tail" in problem
                       for problem in report["problems"])
        assert journal(store).read_bytes() == data[:-shear]  # ro left it
        with ChangeLogStore(store.path) as writer:
            assert writer.subscriptions() == first
            durable = SegmentScan(journal(store))
            list(durable)
            assert journal(store).stat().st_size == durable.good_bytes
            assert durable.torn is None
            assert writer.stats()["recovered_tails"] == 1
            resumed = polled(first, T0 + 4 * DAY)
            writer.record_subscriptions(resumed)
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == resumed
            assert reader.fsck()["ok"]

    def test_fsck_repair_cuts_to_the_durable_prefix(self, store, capsys):
        first, _ = self.make(store)
        data = journal(store).read_bytes()
        journal(store).write_bytes(data[:-3])
        assert cli(["store", "fsck", str(store.path)]) == 1
        out = capsys.readouterr().out
        assert "problem: SUBSCRIPTIONS.polls: torn tail" in out
        assert cli(["store", "fsck", str(store.path), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired: SUBSCRIPTIONS.polls: cut to" in out
        assert cli(["store", "fsck", str(store.path)]) == 0
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == first

    @pytest.mark.parametrize("content", [b"", MAGIC[:5]])
    def test_a_journal_whose_creation_was_cut_short(self, store, content):
        store.record_subscriptions(RECORDS)
        store.close()
        journal(store).write_bytes(content)
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == RECORDS
            assert not reader.fsck()["ok"]
        with ChangeLogStore(store.path) as writer:
            assert writer.subscriptions() == RECORDS
            later = polled(RECORDS, T0 + 2 * DAY)
            writer.record_subscriptions(later)  # starts it again
            assert journal(store).read_bytes().startswith(MAGIC)
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == later
            assert reader.fsck()["ok"]

    def test_bad_magic_with_bytes_after_it(self, store, capsys):
        _, second = self.make(store)
        data = journal(store).read_bytes()
        journal(store).write_bytes(b"NOTMAGIC" + data[HEADER_SIZE:])
        for mode in ("ro", "rw"):
            with ChangeLogStore(store.path, mode) as fresh:
                with pytest.raises(StoreCorruptionError) as refused:
                    fresh.subscriptions()
                assert "SUBSCRIPTIONS.polls" in str(refused.value)
        assert cli(["store", "fsck", str(store.path)]) == 1
        assert "bad segment magic" in capsys.readouterr().out
        # The records after the damage are acknowledged polls, each behind
        # its own CRC: the repair leaves them for an operator to restore.
        damaged = journal(store).read_bytes()
        assert cli(["store", "fsck", str(store.path), "--repair"]) == 1
        assert journal(store).read_bytes() == damaged
        journal(store).write_bytes(MAGIC + damaged[HEADER_SIZE:])  # by hand
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == second
            assert reader.fsck()["ok"]

    def test_a_record_that_does_not_decode_is_not_repaired(self, store):
        self.make(store)
        store.close()
        with ChangeLogStore(store.path) as writer:
            writer.subscriptions()
            writer._journal.append(b'{"g": 1, "polls": {"1": ["Nobody"]}}')
        for repair in (False, True):
            with ChangeLogStore(store.path, "rw" if repair else "ro") as fresh:
                report = fresh.fsck(repair=repair)
                assert not report["ok"]
                assert any("unreadable journal record" in problem
                           for problem in report["problems"])


class TestReaders:
    def test_a_reader_sees_journaled_polls(self, store):
        reader = ChangeLogStore(store.path, "ro")
        store.record_subscriptions(RECORDS)
        records = RECORDS
        for day in range(2, 6):
            records = polled(records, T0 + day * DAY)
            store.record_subscriptions(records)
            assert reader.subscriptions() == records
        assert reader.info()["subscriptions"]["Idle"] == {
            "wrapper": "guide", "doem_key": "Idle", "polls": 4,
            "last_poll": "4Jan97 23:30"}
        reader.close()

    def test_never_an_old_snapshot_with_a_newer_journal(self, store):
        """What a reader sees if the writer rewrites between its read of
        the snapshot and its read of the journal: the old snapshot,
        without the newer generation's polls."""
        store.record_subscriptions(RECORDS)
        old = (store.path / "SUBSCRIPTIONS").read_bytes()
        grown = {**RECORDS, "New": dict(RECORDS["Idle"], name="New")}
        store.record_subscriptions(grown)
        store.record_subscriptions(polled(grown, T0 + 2 * DAY))
        assert [record["g"] for record in journal_records(store)] == [2]
        (store.path / "SUBSCRIPTIONS").write_bytes(old)
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == RECORDS

    def test_info_and_top_count_journaled_polls(self, store, capsys):
        store.record_subscriptions(RECORDS)
        store.record_subscriptions(polled(RECORDS, T0 + 2 * DAY))
        store.close()
        assert cli(["store", "info", str(store.path)]) == 0
        out = capsys.readouterr().out
        assert "3 poll(s), last 1Jan97 23:30" in out
        assert "1 poll(s), last 1Jan97 23:30" in out
        assert cli(["top", "--once", "--store", str(store.path)]) == 0
        assert "3 poll(s), last 1Jan97 23:30" in capsys.readouterr().out


class TestOlderStores:
    def test_a_manifest_without_a_journal_opens_and_resumes(self, store):
        """A store written before the journal: a snapshot with no
        generation, no journal file."""
        (store.path / "SUBSCRIPTIONS").write_text(
            json.dumps({"format": 1, "subscriptions": RECORDS}))
        store.close()
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == RECORDS
        with ChangeLogStore(store.path) as writer:
            later = polled(RECORDS, T0 + 2 * DAY)
            writer.record_subscriptions(later)
            assert journal_records(writer) == [
                {"g": 0, "polls": {str(T0 + 2 * DAY): ["Restaurants",
                                                       "Idle"]}}]
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == later

    def test_a_server_resumes_from_one(self, tmp_path):
        path = tmp_path / "st"

        first = quiet_server(path, "30Dec96", "S")
        first.run_until("1Jan97")
        first.run_until("2Jan97")  # journaled
        times = list(first.subscriptions.get("S").polling_times)
        first.close()
        close_store(path)
        # Rewrite the manifest as an older store kept it.
        with ChangeLogStore(path) as writer:
            records = writer.subscriptions()
        (path / "SUBSCRIPTIONS").write_text(
            json.dumps({"format": 1, "subscriptions": records}))
        (path / "SUBSCRIPTIONS.polls").unlink()
        second = quiet_server(path, "2Jan97", "S")
        try:
            assert second.subscriptions.get("S").polling_times == times
            second.run_until("4Jan97")
            assert len(second.subscriptions.get("S").polling_times) == \
                len(times) + 2
        finally:
            second.close()
            close_store(path)
        with ChangeLogStore(path, "ro") as reader:
            assert len(reader.subscriptions()["S"]["polling_times"]) == \
                len(times) + 2


class TestFaults:
    """One ``OSError`` per step of a write, in the running process."""

    @pytest.fixture
    def first(self, store):
        store.record_subscriptions(RECORDS)
        first = polled(RECORDS, T0 + 2 * DAY)
        store.record_subscriptions(first)
        return first

    @staticmethod
    def failing(*args):
        raise OSError("injected failure")

    def test_a_failed_fsync_cuts_the_record_back(self, store, first,
                                                 monkeypatch):
        before = journal(store).read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", self.failing)
            with pytest.raises(OSError):
                store.record_subscriptions(polled(first, T0 + 3 * DAY))
        assert journal(store).read_bytes() == before
        assert store.subscriptions() == first
        later = polled(first, T0 + 3 * DAY)
        store.record_subscriptions(later)  # the retry
        store.close()
        with ChangeLogStore(store.path, "ro") as reader:
            assert reader.subscriptions() == later

    def test_a_failed_creation_leaves_no_journal(self, store, monkeypatch):
        store.record_subscriptions(RECORDS)
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", self.failing)
            with pytest.raises(OSError):
                store.record_subscriptions(polled(RECORDS, T0 + 2 * DAY))
        assert not journal(store).exists()
        assert store.subscriptions() == RECORDS

    def test_a_failed_cut_makes_the_handle_read_the_disk(self, store, first,
                                                         monkeypatch):
        """The record is whole on disk, so a reread finds it."""
        later = polled(first, T0 + 3 * DAY)
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", self.failing)
            patch.setattr(SegmentWriter, "truncate", self.failing)
            with pytest.raises(OSError):
                store.record_subscriptions(later)
        assert store.subscriptions() == later
        store.record_subscriptions(polled(later, T0 + 4 * DAY))
        assert store.subscriptions() == polled(later, T0 + 4 * DAY)

    def test_a_failed_rewrite_makes_the_handle_read_the_disk(
            self, store, first, monkeypatch):
        grown = {**first, "New": dict(RECORDS["Idle"], name="New")}
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", self.failing)
            with pytest.raises(OSError):
                store.record_subscriptions(grown)
        assert store.subscriptions() == first  # the rename never happened
        store.record_subscriptions(grown)
        assert store.subscriptions() == grown
        assert journal(store).read_bytes() == MAGIC
