"""The benchmark's workloads, driven from outside the program.

A workload is one study input -- datasets, scale and tap windows -- pushed
through the whole pipeline the way an analyst drives it.  Every workload
runs the same operations, so every end-to-end metric means the same thing
on each; the workloads differ in the traffic they feed them.

* set-up: generate the traces and seed a store (``run_study`` with
  ``out_dir`` and ``store_dir``), then start ``repro-study serve`` on the
  store and wait until ``/health`` answers.  Done several times; the
  median is ``setup_s``.
* cold study: ``run_study`` into a fresh store, then render every table,
  figure and the data-quality section (``study_pkts_per_s``).
* warm study: ``run_study`` against the seeded store, rendering again
  (``warm_study_ms``).
* ingest: ``analyze_dataset(engine="stream")`` over the set-up's traces
  with no store (``ingest_pkts_per_s``).  The generator does no work here.
* serve: bursts of cache hits from one closed-loop client
  (``serve_hit_*``) and bursts of rebuilds forced with ``cache_bypass=1``
  from two concurrent closed-loop clients (``serve_cold_*``).  Analysts
  wait on each reply, so the loops are closed; at most two clients,
  because the machine has two cores.

The operations run interleaved in short cycles until the run's seconds
are spent.  This machine's vCPUs each switch between a fast and a slow
state every few seconds (a fixed loop takes 6.5 or 9.5 ms), so a median
over a run flips between the two states from run to run.  Each metric
therefore reports the run's fast state: the 10th percentile of its
per-operation samples (the 90th for rates), taken across the whole run.

Every output is checked: study digests (every table and figure rendered),
ingest digests, hit bodies against bypass bodies, the ``X-Cache`` header,
HTTP status, and the server's graceful exit on SIGTERM.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import study  # looked up per call, so the tracer's patches apply
from repro.gen.topology import Role
from repro.pcap.reader import read_pcap
from repro.service import ReproService
from repro.service.cache import store_state_token

import stats
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


@dataclass(frozen=True)
class Workload:
    """One study input; the seed comes from the command line."""

    name: str
    datasets: tuple[str, ...]
    scale: float
    max_windows: int | None
    why: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "d1-headers", ("D1",), 0.002, 16,
            "headers only (68-byte snaplen): the same layers used packet-heavy, "
            "with several times fewer bytes per packet than the payload workloads",
        ),
        Workload(
            "d4-flows", ("D4",), 0.003, 12,
            "full payloads and the largest flow population per packet: flow "
            "table, TCP state and application analyzers dominate ingest",
        ),
        Workload(
            "d0d3-two-datasets", ("D0", "D3"), 0.002, 10,
            "two full-payload datasets (bulk NFS/NCP in D0): byte-proportional "
            "generation, and every report and service rebuild loads two analyses",
        ),
    )
}

#: Tables of the study digest, as in ``tests/test_stream_study.py``.
STUDY_TABLES = (1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)

#: Cacheable endpoints the serve phases cycle through.
SERVE_PATHS = (
    "/studies",
    "/query?by=category",
    "/query?by=proto&locality=ent-ent",
    "/cdf?field=total_bytes",
    "/cdf?field=duration&proto=tcp",
    "/tables/load",
    "/tables/retransmission",
    "/tables/quality",
    "/tables/2",
    "/tables/3",
)

#: Tables the in-process service probe builds (trace runs).
SERVICE_TABLES = ("2", "3", "load", "retransmission", "quality")

#: Warm studies per cycle (each is short next to a cold study).
WARM_PER_CYCLE = 2

#: Fewest cycles in a run, whatever its seconds.
MIN_CYCLES = 3

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: The hit tail reported, and a burst long enough to leave ten samples beyond it.
HIT_TAIL = 95.0
HIT_BURST = stats.min_samples(HIT_TAIL)

#: Concurrent clients of a cold burst; each requests every path once, so a
#: burst's median has ten samples beyond it.
COLD_CLIENTS = 2


def study_digest(results) -> str:
    """SHA-256 over every rendered table and figure and the data quality."""
    digest = hashlib.sha256()
    for number in STUDY_TABLES:
        digest.update(results.render_table(number).encode())
    for number in range(1, 11):
        digest.update(results.render_figure(number).encode())
    digest.update(results.render_data_quality().encode())
    return digest.hexdigest()


def ingest_digest(analyses: dict) -> str:
    """SHA-256 over Tables 2 and 3, the data quality and the conn count."""
    results = study.StudyResults(config=study.StudyConfig(), analyses=analyses)
    digest = hashlib.sha256()
    for number in (2, 3):
        digest.update(results.render_table(number).encode())
    digest.update(results.render_data_quality().encode())
    digest.update(str(sum(len(a.conns) for a in analyses.values())).encode())
    return digest.hexdigest()


def ingest(traces: dict, known_scanners: tuple[int, ...]) -> dict:
    """One streaming pass over every dataset's traces, with no store."""
    return {
        name: study.analyze_dataset(name, dataset, known_scanners, engine="stream")
        for name, dataset in traces.items()
    }


def packets_of(analyses: dict) -> int:
    return sum(analysis.total_packets for analysis in analyses.values())


class Ledger:
    """Operations attempted and failed, naming the first few failures."""

    KEEP = 20  # failures named; the rest are only counted

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < self.KEEP:
                self.problems.append(what)
        return ok

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: self.KEEP - len(self.problems)])


class Client:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def get(self, path: str) -> tuple[int, str | None, bytes, float]:
        """``(status, X-Cache, body, seconds)``; raises on a broken connection."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        started = time.perf_counter()
        try:
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            body = response.read()
        except (http.client.HTTPException, OSError):
            self.close()
            raise
        return (
            response.status,
            response.getheader("X-Cache"),
            body,
            time.perf_counter() - started,
        )

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def bypass(path: str) -> str:
    return path + ("&" if "?" in path else "?") + "cache_bypass=1"


class Server:
    """A ``repro-study serve`` subprocess on one store."""

    def __init__(self, store_dir: Path, log_path: Path, env: dict) -> None:
        self.log_path = log_path
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.core.cli", "serve",
                 "--store-dir", str(store_dir), "--port", "0"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
                env=env,
            )
        try:
            self.port = self._wait_for_port(deadline=time.monotonic() + 60)
            client = Client(self.port)
            status = client.get("/health")[0]
            client.close()
            if status != 200:
                raise RuntimeError(f"/health answered {status}")
        except BaseException:
            self.kill()
            raise

    def _wait_for_port(self, deadline: float) -> int:
        marker = b"listening on http://"
        while time.monotonic() < deadline:
            text = self.log_path.read_bytes()
            at = text.find(marker)
            if at >= 0 and b"\n" in text[at:]:
                address = text[at + len(marker):].split(b" ", 1)[0]
                return int(address.rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {self.proc.returncode}: {text.decode(errors='replace')}"
                )
            time.sleep(0.002)
        raise RuntimeError("server did not start listening within 60 s")

    def cpu_seconds(self) -> float:
        """The server's user + system CPU time so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> bool:
        """SIGTERM, then wait; True when the server drained and exited 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=20) == 0
        except subprocess.TimeoutExpired:
            self.kill()
            return False

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class PipelineRun:
    """One workload at one seed, in one working directory."""

    def __init__(
        self, workload: Workload, seed: int, workdir: Path, pins: dict | None = None
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ledger = Ledger()
        #: Expected digests: the pins at the pinned seed, else the first seen.
        self.expected: dict[str, str] = dict(pins or {})
        self.env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self.server: Server | None = None
        self.setup_dir: Path | None = None
        self.traces: dict = {}
        self.known_scanners: tuple[int, ...] = ()
        self.references: dict[str, bytes] = {}
        self.clients: list[Client] = []
        #: Set by the first broken connection; no later request is sent, so a
        #: dead or hung server costs one timeout, not one per request.
        self.server_lost = False
        #: The traced run's coarse spans, folded by call path.
        self.spans: list[tuple[int, str, int, float]] = []

    # -- bookkeeping -------------------------------------------------------

    def check_digest(self, kind: str, digest: str, what: str) -> bool:
        expected = self.expected.setdefault(kind, digest)
        return self.ledger.record(
            digest == expected, f"{what}: {kind} digest {digest[:16]} != {expected[:16]}"
        )

    def _attempt(self, what: str, op):
        """Run ``op`` as one operation; an exception counts as its failure."""
        try:
            return op()
        except Exception as exc:  # the benchmark must report, not crash
            self.ledger.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def _study(self, store_dir: Path, out_dir: Path | None = None):
        return study.run_study(
            seed=self.seed,
            scale=self.workload.scale,
            datasets=self.workload.datasets,
            max_windows=self.workload.max_windows,
            store_dir=str(store_dir),
            out_dir=str(out_dir) if out_dir is not None else None,
        )

    # -- set-up ------------------------------------------------------------

    def setup(self, index: int) -> float:
        """Generate traces, seed a store and start the service on it;
        returns the seconds taken.  The previous set-up is torn down."""
        self.teardown()
        target = self.workdir / f"setup-{index}"
        started = time.perf_counter()
        results = self._study(target / "store", out_dir=target / "traces")
        self.server = Server(target / "store", target / "serve.log", self.env)
        seconds = time.perf_counter() - started
        self.ledger.record(True, "setup")
        self.setup_dir = target
        self.traces = results.traces
        self.known_scanners = tuple(
            host.ip for host in results.enterprise.servers(Role.SCANNER)
        )
        self.check_digest("study", study_digest(results), "setup study")
        self.check_digest("ingest", ingest_digest(results.analyses), "setup analyses")
        self.references = {}
        client = Client(self.server.port)
        try:
            for path in SERVE_PATHS:
                status, cache, body, _ = client.get(bypass(path))
                self.ledger.record(
                    status == 200 and cache == "bypass", f"{path}: {status} {cache}"
                )
                self.references[path] = body
                status, cache, body, _ = client.get(path)  # fills the cache
                self.ledger.record(
                    status == 200 and body == self.references[path],
                    f"{path}: first cached reply differs",
                )
        finally:
            client.close()
        return seconds

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.ledger.record(self.server.stop(), "server did not exit 0 on SIGTERM")
            self.server = None
        if self.setup_dir is not None:
            shutil.rmtree(self.setup_dir, ignore_errors=True)
            self.setup_dir = None

    # -- study phases ------------------------------------------------------

    def cold_study(self) -> tuple[float, int] | None:
        """One cold study into a fresh store: ``(seconds, packets)``."""
        store_dir = self.workdir / "cold-store"
        shutil.rmtree(store_dir, ignore_errors=True)

        def op():
            started = time.perf_counter()
            results = self._study(store_dir)
            digest = study_digest(results)
            seconds = time.perf_counter() - started
            ok = self.check_digest("study", digest, "cold study")
            return (seconds, packets_of(results.analyses)) if ok else None

        try:
            return self._attempt("cold study", op)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def warm_study(self) -> float | None:
        """One study against the seeded store, rendered: seconds."""

        def op():
            started = time.perf_counter()
            digest = study_digest(self._study(self.setup_dir / "store"))
            seconds = time.perf_counter() - started
            return seconds if self.check_digest("study", digest, "warm study") else None

        return self._attempt("warm study", op)

    def ingest_pass(self) -> tuple[float, int] | None:
        """One streaming pass over the set-up's traces: ``(seconds, packets)``."""

        def op():
            started = time.perf_counter()
            analyses = ingest(self.traces, self.known_scanners)
            seconds = time.perf_counter() - started
            ok = self.check_digest("ingest", ingest_digest(analyses), "ingest pass")
            return (seconds, packets_of(analyses)) if ok else None

        return self._attempt("ingest pass", op)

    def peak_pass(self) -> float | None:
        """One streaming pass in a fresh process: its peak RSS in MB."""

        def op():
            job = self.workdir / "peak-job.pkl"
            with open(job, "wb") as fh:
                pickle.dump({"traces": self.traces, "known_scanners": self.known_scanners}, fh)
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "peak.py"), str(job)],
                capture_output=True, text=True, env=self.env, timeout=120, check=True,
            )
            report = json.loads(done.stdout.strip().splitlines()[-1])
            ok = self.check_digest("ingest", report["digest"], "peak pass")
            return report["maxrss_kb"] / 1024.0 if ok else None

        return self._attempt("peak pass", op)

    def read_pass(self) -> tuple[float, int]:
        """Read every trace record once: ``(seconds, bytes)``."""
        paths = [trace.path for dataset in self.traces.values() for trace in dataset.traces]
        started = time.perf_counter()
        for path in paths:
            for _ in read_pcap(path, materialize=False):
                pass
        return time.perf_counter() - started, sum(os.path.getsize(p) for p in paths)

    # -- serve phases ------------------------------------------------------

    def _serve_loop(
        self, client: Client, targets: list[tuple[str, bytes]], start: int, until,
        expect: str, ledger: Ledger, samples: list[float] | None,
    ) -> int:
        """Closed loop over ``(path, expected body)`` targets until
        ``until(requests done)`` says stop; returns the requests done."""
        done = 0
        while not self.server_lost and not until(done):
            path, reference = targets[(start + done) % len(targets)]
            done += 1
            try:
                status, cache, body, seconds = client.get(path)
            except (http.client.HTTPException, OSError) as exc:
                self.server_lost = True
                ledger.record(False, f"{path}: {type(exc).__name__}: {exc}")
                break
            ok = ledger.record(
                status == 200 and cache == expect and body == reference,
                f"{path}: status {status}, X-Cache {cache}, body match {body == reference}",
            )
            if ok and samples is not None:
                samples.append(seconds)
        return done

    def _targets(self, cold: bool) -> list[tuple[str, bytes]]:
        return [
            (bypass(path) if cold else path, self.references[path])
            for path in SERVE_PATHS
        ]

    def hit_burst(self) -> tuple[float, float] | None:
        """:data:`HIT_BURST` cache hits on one connection: (p50, p95) seconds."""
        samples: list[float] = []
        self._serve_loop(self.clients[0], self._targets(cold=False), 0,
                         lambda done: done >= HIT_BURST, "hit", self.ledger, samples)
        if len(samples) < HIT_BURST:
            return None
        return stats.percentile(samples, 50), stats.percentile(samples, HIT_TAIL)

    def cold_burst(self) -> tuple[float, float] | None:
        """Every path once per client, the clients concurrent: the burst's
        median latency in seconds and its requests per second."""
        targets = self._targets(cold=True)
        ledgers = [Ledger() for _ in range(COLD_CLIENTS)]
        samples: list[list[float]] = [[] for _ in range(COLD_CLIENTS)]

        def client_loop(k: int) -> None:
            self._serve_loop(self.clients[1 + k], targets, k * len(targets) // COLD_CLIENTS,
                             lambda done: done >= len(targets), "bypass",
                             ledgers[k], samples[k])

        threads = [threading.Thread(target=client_loop, args=(k,)) for k in range(COLD_CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        for ledger in ledgers:
            self.ledger.merge(ledger)
        pooled = [sample for client_samples in samples for sample in client_samples]
        if len(pooled) < COLD_CLIENTS * len(targets):
            return None
        return stats.percentile(pooled, 50), len(pooled) / wall

    # -- whole runs ----------------------------------------------------------

    def measure(self, seconds: float) -> dict[str, float]:
        """Interleaved cycles of every operation until ``seconds`` are
        spent; returns the end-to-end metrics but ``setup_s``."""
        self.clients = [Client(self.server.port) for _ in range(1 + COLD_CLIENTS)]
        samples: dict[str, list[float]] = {
            name: [] for name in (
                "study_pkts_per_s", "warm_study_ms", "ingest_pkts_per_s",
                "serve_hit_p50_ms", "serve_hit_p95_ms", "serve_cold_rps",
                "serve_cold_p50_ms",
            )
        }

        def hits() -> None:
            burst = self.hit_burst()
            if burst is not None:
                samples["serve_hit_p50_ms"].append(burst[0] * 1e3)
                samples["serve_hit_p95_ms"].append(burst[1] * 1e3)

        cycles = 0
        started = time.perf_counter()
        while cycles < MIN_CYCLES or time.perf_counter() - started < seconds:
            cold = self.cold_study()
            if cold is not None:
                samples["study_pkts_per_s"].append(cold[1] / cold[0])
            hits()
            for _ in range(WARM_PER_CYCLE):
                warm = self.warm_study()
                if warm is not None:
                    samples["warm_study_ms"].append(warm * 1e3)
            hits()
            burst = self.cold_burst()
            if burst is not None:
                samples["serve_cold_p50_ms"].append(burst[0] * 1e3)
                samples["serve_cold_rps"].append(burst[1])
            hits()
            passed = self.ingest_pass()
            if passed is not None:
                samples["ingest_pkts_per_s"].append(passed[1] / passed[0])
            hits()
            cycles += 1
        rates = ("study_pkts_per_s", "ingest_pkts_per_s", "serve_cold_rps")
        return {
            name: stats.fast_state(values, higher_is_better=name in rates)
            for name, values in samples.items()
        }

    def trace(self, seconds: float) -> dict[str, float]:
        """Traced pipeline passes; returns the per-layer metrics."""
        tracer = Tracer()
        untraced: list[float] = []
        traced: list[float] = []
        service = ReproService(self.setup_dir / "store")
        probes: dict[str, list[float]] = {
            "analyses": [], "tables": [], "token": [], "hit_cpu": [], "cold_cpu": [],
        }
        hits = lookups = read_s = read_bytes = 0
        passes = 0
        started = time.perf_counter()
        while passes == 0 or time.perf_counter() - started < seconds:
            # Alternate which cold study runs first, so neither side always
            # finds the page cache and allocator in the other's wake.
            for with_trace in ((False, True) if passes % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install_seams()
                try:
                    result = self.cold_study()
                finally:
                    tracer.uninstall()
                if result is not None:
                    (traced if with_trace else untraced).append(result[0])
            tracer.install_seams()
            try:
                for _ in range(WARM_PER_CYCLE):
                    self.warm_study()
                self.ingest_pass()
            finally:
                tracer.uninstall()
            seconds_read, bytes_read = self.read_pass()
            read_s += seconds_read
            read_bytes += bytes_read

            for _ in range(3):
                t0 = time.perf_counter()
                service.analyses()
                t1 = time.perf_counter()
                for name in SERVICE_TABLES:
                    service.build_table(name)
                t2 = time.perf_counter()
                probes["analyses"].append((t1 - t0) * 1e3)
                probes["tables"].append((t2 - t1) * 1e3)
            for _ in range(200):
                t0 = time.perf_counter()
                store_state_token(service.store.root)
                probes["token"].append((time.perf_counter() - t0) * 1e6)

            for kind, cold, count in (("hit_cpu", False, 500), ("cold_cpu", True, 20)):
                client = Client(self.server.port)
                ledger = Ledger()
                try:
                    cpu0 = self.server.cpu_seconds()
                    self._serve_loop(client, self._targets(cold), 0,
                                     lambda done: done >= count,
                                     "bypass" if cold else "hit", ledger, None)
                    cpu = self.server.cpu_seconds() - cpu0
                finally:
                    client.close()
                self.ledger.merge(ledger)
                probes[kind].append(cpu / count)
                if not cold:
                    hits += count - ledger.failed
                    lookups += count
            passes += 1

        self.spans = tracer.span_tree()
        metrics = tracer.layer_metrics(passes)
        metrics.update({
            "pcap.read_s": read_s / passes,
            "pcap.bytes_read": read_bytes / passes,
            "analysis.ingest_peak_mb": self.peak_pass() or 0.0,
            "service.analyses_ms": statistics.median(probes["analyses"]),
            "service.build_table_ms": statistics.median(probes["tables"]),
            "service.store_state_token_us": statistics.median(probes["token"]),
            "service.server_cpu_us_per_hit": statistics.median(probes["hit_cpu"]) * 1e6,
            "service.server_cpu_ms_per_cold": statistics.median(probes["cold_cpu"]) * 1e3,
            "service.hit_ratio": hits / max(1, lookups),
            "trace.overhead_pct": (
                (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
                if traced and untraced else 0.0
            ),
        })
        return metrics


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    trace: bool = False,
    pins: dict | None = None,
) -> dict:
    """Run one workload; returns ``correct``, ``attempted``, ``failed``,
    the raw ``metrics``, the first ``problems`` found and, traced, the
    folded ``spans``."""
    workdir.mkdir(parents=True, exist_ok=True)
    run = PipelineRun(workload, seed, workdir, pins)
    try:
        setup_times = [run.setup(index) for index in range(1 if trace else SETUPS)]
        if trace:
            metrics = run.trace(seconds)
        else:
            metrics = run.measure(seconds)
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        run.teardown()
    return {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": metrics,
        "problems": run.ledger.problems,
        "spans": run.spans,
    }
