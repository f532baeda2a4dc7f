"""The telemetry stream: event schema, JSONL persistence, rendering.

The schema assertions here are the contract ``docs/runtime.md``
documents — external consumers parse the JSONL file, so field names are
load-bearing.
"""

from __future__ import annotations

import io
import json

from repro.runtime import (
    ProcessPoolScheduler,
    RetryPolicy,
    Task,
    TelemetryLog,
)
from tests.test_runtime_scheduler import raising_worker, square_worker

#: Required fields per event type (beyond the universal event/ts pair).
EVENT_SCHEMA = {
    "study_start": {"jobs", "units", "datasets", "seed"},
    "unit_start": {"unit", "kind", "attempt"},
    "unit_retry": {"unit", "attempt", "backoff_s", "error"},
    "unit_finish": {"unit", "kind", "status", "attempts", "wall_s",
                    "packets", "bytes", "cache"},
    "study_finish": {"wall_s", "units_ok", "units_failed"},
}


def _run(worker, telemetry, jobs=2, retry=None, n=3):
    tasks = [Task(key=f"u{i}", payload={"n": i}, kind="demo") for i in range(n)]
    ProcessPoolScheduler(worker, jobs=jobs, retry=retry, telemetry=telemetry).run(tasks)


class TestEventSchema:
    def test_every_event_carries_its_required_fields(self, tmp_path):
        telemetry = TelemetryLog(path=tmp_path / "events.jsonl")
        _run(
            raising_worker,
            telemetry,
            retry=RetryPolicy(max_retries=1, backoff=0.01),
        )
        _run(square_worker, telemetry, jobs=1)
        seen = set()
        for record in telemetry.events:
            assert {"event", "ts"} <= set(record)
            required = EVENT_SCHEMA[record["event"]]
            assert required <= set(record), record
            seen.add(record["event"])
        assert {"unit_start", "unit_retry", "unit_finish", "study_finish"} <= seen

    def test_unit_finish_copies_worker_counters(self):
        telemetry = TelemetryLog()
        _run(square_worker, telemetry, n=2)
        finishes = telemetry.unit_events("unit_finish")
        assert len(finishes) == 2
        by_unit = {record["unit"]: record for record in finishes}
        assert by_unit["u1"]["packets"] == 1
        assert by_unit["u1"]["bytes"] == 0
        assert by_unit["u1"]["status"] == "ok"
        assert by_unit["u1"]["attempts"] == 1
        assert by_unit["u1"]["wall_s"] >= 0

    def test_jsonl_file_is_line_parseable_and_appended(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry = TelemetryLog(path=path)
        _run(square_worker, telemetry, n=2)
        telemetry.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == [
            r["event"] for r in telemetry.events
        ]
        # Append-only: a second log on the same path extends the file.
        more = TelemetryLog(path=path)
        more.emit("study_start", jobs=1, units=0, datasets=[], seed=0)
        more.close()
        assert len(path.read_text().strip().splitlines()) == len(lines) + 1


class TestRendering:
    def test_progress_lines_are_narrated_to_the_stream(self):
        stream = io.StringIO()
        telemetry = TelemetryLog(progress=True, stream=stream)
        _run(square_worker, telemetry, n=2)
        out = stream.getvalue()
        assert "[runtime] u0 started" in out
        assert "[runtime] u0 ok in " in out
        assert "2 ok, 0 failed" in out

    def test_non_progress_log_stays_silent(self):
        stream = io.StringIO()
        telemetry = TelemetryLog(progress=False, stream=stream)
        _run(square_worker, telemetry, n=2)
        assert stream.getvalue() == ""

    def test_timing_table_has_one_row_per_unit(self):
        telemetry = TelemetryLog()
        _run(square_worker, telemetry, n=3)
        table = telemetry.timing_table()
        assert table.columns == [
            "unit", "status", "attempts", "wall_s", "packets", "bytes", "cache"
        ]
        assert sorted(row[0] for row in table.rows) == ["u0", "u1", "u2"]
        rendered = table.render()
        assert "Runtime" in rendered and "u2" in rendered


class TestFollowEvents:
    """The live tail (``read_events(follow=True)``) behind ``daemon tail``."""

    def _tail(self, path, **kwargs):
        from repro.runtime.telemetry import follow_events

        return follow_events(path, poll_interval=0.01, **kwargs)

    def test_tail_picks_up_appended_events(self, tmp_path):
        import threading
        import time

        path = tmp_path / "events.jsonl"

        def writer():
            with open(path, "a", encoding="utf-8") as handle:
                for i in range(3):
                    handle.write(json.dumps({"event": "tick", "n": i}) + "\n")
                    handle.flush()
                    time.sleep(0.03)

        thread = threading.Thread(target=writer)
        thread.start()
        got = []
        for record in self._tail(path, timeout=5.0):
            got.append(record)
            if len(got) == 3:
                break
        thread.join()
        assert [r["n"] for r in got] == [0, 1, 2]

    def test_truncated_trailing_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "events.jsonl"
        done = []
        tail = self._tail(path, stop=lambda: bool(done))
        with open(path, "a", encoding="utf-8") as handle:
            # A mid-write snapshot: one whole line plus a partial one.
            handle.write('{"event": "whole", "n": 1}\n{"event": "par')
            handle.flush()
            assert next(tail)["event"] == "whole"
            # The partial line completes on a later poll — one event,
            # parsed whole, never mangled.
            handle.write('tial", "n": 2}\n')
            handle.flush()
            assert next(tail) == {"event": "partial", "n": 2}
        done.append(True)
        assert list(tail) == []

    def test_stop_still_drains_events_already_on_disk(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"}\nnot json\n')
        # stop() is true from the start; the final drain still delivers
        # what the (now dead) writer left, skipping the malformed line.
        got = list(self._tail(path, stop=lambda: True))
        assert [r["event"] for r in got] == ["a", "b"]

    def test_timeout_ends_a_tail_with_no_writer(self, tmp_path):
        import time

        start = time.monotonic()
        got = list(self._tail(tmp_path / "never.jsonl", timeout=0.05))
        assert got == []
        assert time.monotonic() - start < 2.0

    def test_read_events_follow_flag_delegates_to_the_tail(self, tmp_path):
        from repro.runtime.telemetry import read_events

        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "a"}\n')
        tail = read_events(path, follow=True, stop=lambda: True)
        assert [r["event"] for r in tail] == ["a"]

    def test_stop_ends_tail_even_against_a_busy_writer(self, tmp_path):
        """A writer that never goes quiet must not pin a stopped tail.

        The HTTP service tails its own request log: every poll the tail
        makes can itself generate more events, so "wait for the file to
        be quiet, then check stop" would never terminate.  stop() is
        checked after each drained read, not only on quiescence.
        """
        import threading
        import time

        path = tmp_path / "events.jsonl"
        stop = threading.Event()
        writer_done = threading.Event()

        def chatty_writer() -> None:
            with open(path, "a", encoding="utf-8") as handle:
                n = 0
                while not writer_done.is_set():
                    handle.write(f'{{"event": "spam", "n": {n}}}\n')
                    handle.flush()
                    n += 1
                    time.sleep(0.001)

        thread = threading.Thread(target=chatty_writer, daemon=True)
        thread.start()
        try:
            got = []
            started = time.monotonic()
            for record in self._tail(path, timeout=30.0, stop=stop.is_set):
                got.append(record)
                if len(got) >= 5:
                    stop.set()
            elapsed = time.monotonic() - started
            assert len(got) >= 5
            assert elapsed < 10.0, "stopped tail kept following a busy writer"
        finally:
            writer_done.set()
            thread.join(timeout=5.0)
