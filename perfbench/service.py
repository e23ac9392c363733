"""The ``service-mixed`` workload: a memo server under a read-heavy mix.

A ``repro serve --jobs 1`` subprocess starts on an empty archive and
graph cache; set-up ends when ``/healthz`` answers.  The seeding pass
then submits 16 campaigns of 1 graph x 2 kernels x 2 frameworks x 2
modes = 8 cells at scale 7 (disjoint cell sets, so each executes
exactly 8 cells).  Two closed-loop client threads, one ``ServiceClient``
each, then draw submissions from a plan fixed by the seed: 9 in 10 are
re-submissions of a seeded campaign (all hits), 1 in 10 repeats a seeded
campaign with a fresh request ``seed`` (8 misses that execute, journal,
archive and index).

Checks: every re-submission executes nothing and returns cell payloads
byte-identical to the seeding pass; every miss returns 8 ok, verified
cells; the server's ``cells_executed`` equals 8 cells per seeded and per
miss campaign, so every miss executed exactly once.

The load generator also counts ``HTTPConnection.connect`` calls, the
``POST /submit`` requests it sends and the tracebacks the server writes
to stderr.  The client's silent reconnects and resubmissions hide these
transport errors from ``failed``, so they are reported on their own.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time
from pathlib import Path

from common import (
    ROOT, aggregate_cells, cell_trial_means_ms, geomean, median,
    percentile, read_ready, shared_layers, spawn, stop,
)

sys.path.insert(0, str(ROOT / "src"))
from repro.errors import ServiceError  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

HERE = Path(__file__).resolve().parent
SCALE = 7
SEED_CAMPAIGNS = 16
CLIENTS = 2
#: One request in every BLOCK is a miss.
BLOCK = 10
CELLS_PER_CAMPAIGN = 8
KERNEL_PAIRS = (("bfs", "sssp"), ("cc", "pr"), ("bc", "tc"))
FRAMEWORK_PAIRS = (("gap", "suitesparse"), ("galois", "nwgraph"), ("graphit", "gkc"))
GRAPHS = ("road", "twitter", "web", "kron", "urand")


def seeded_campaigns(seed: int) -> list[dict]:
    """16 campaigns with pairwise disjoint cells, measured under ``seed``.

    Campaign ``i`` takes graph ``i mod 5``, kernel pair ``i mod 3`` and
    framework pair ``(i div 3) mod 3``: no two share a cell, and every
    seed gets the same kernel mix, so seeds vary the graphs, sources and
    request order but not the kind of work.
    """
    return [
        {
            "graphs": [GRAPHS[i % 5]],
            "kernels": list(KERNEL_PAIRS[i % 3]),
            "frameworks": list(FRAMEWORK_PAIRS[(i // 3) % 3]),
            "modes": ["baseline", "optimized"],
            "scale": SCALE,
            "seed": seed,
        }
        for i in range(SEED_CAMPAIGNS)
    ]


class Plan:
    """The seeded request plan both client threads draw from, in order.

    Requests come in blocks of ten: one miss at a seeded position, nine
    re-submissions.  Campaigns are taken in seeded permutations, so each
    is re-submitted and repeated about equally often.
    """

    def __init__(self, seed: int, campaigns: list[dict]) -> None:
        self._rng = random.Random(seed)
        self._campaigns = campaigns
        self._seed = seed
        self._misses = 0
        self._order: list[int] = []
        self._block: list[bool] = []
        self._lock = threading.Lock()

    def next(self) -> tuple[bool, int, dict]:
        with self._lock:
            if not self._order:
                self._order = self._rng.sample(range(len(self._campaigns)), len(self._campaigns))
            if not self._block:
                self._block = [False] * BLOCK
                self._block[self._rng.randrange(BLOCK)] = True
            index = self._order.pop()
            request = self._campaigns[index]
            miss = self._block.pop()
            if miss:
                self._misses += 1
                request = {**request, "seed": self._seed + self._misses}
            return miss, index, request


class Server:
    """One ``repro serve`` subprocess on fresh directories."""

    def __init__(self, run_dir: Path, traced: bool) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        self.spans_path = run_dir / "spans.json"
        self.stderr_path = run_dir / "server.stderr"
        serve = [
            "serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
            "--archive-dir", str(run_dir / "archive"),
            "--cache-dir", str(run_dir / "graph-cache"),
        ]
        if traced:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       "--out", str(self.spans_path), "--", *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        start = time.perf_counter()
        with open(self.stderr_path, "w") as stderr:
            self.process = spawn(command, stderr=stderr)
        try:
            line = read_ready(self.process, "listening on", timeout=120)
            self.port = int(line.strip().rsplit(":", 1)[1])
            self._wait_healthz(deadline=time.monotonic() + 30)
        except BaseException:
            stop(self.process, timeout=0)
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthz(self, deadline: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("the server never answered /healthz")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def shutdown(self) -> None:
        """Ask the server to stop; kill it if it cannot be asked."""
        grace = 60
        if self.process.poll() is None:
            try:
                with ServiceClient("127.0.0.1", self.port, timeout=30) as client:
                    client.shutdown()
            except (ServiceError, ValueError):
                grace = 0
        stop(self.process, timeout=grace)

    def transport_errors(self) -> int:
        return self.stderr_path.read_text(errors="replace").count("Traceback")


def submit(client: ServiceClient, request: dict) -> dict:
    """One timed submission: latency, first-event latency and its events."""
    start = time.perf_counter()
    first = None
    events = []
    for event in client.submit(request):
        if first is None:
            first = time.perf_counter()
        events.append(event)
    end = time.perf_counter()
    return {"latency_s": end - start, "first_s": first - start, "events": events}


def cell_events(events: list[dict]) -> list[dict]:
    return [event for event in events if event.get("event") == "cell"]


def done_event(events: list[dict]) -> dict:
    return events[-1] if events and events[-1].get("event") == "done" else {}


def check_fresh(events: list[dict], what: str, errors: list[str]) -> bool:
    """A campaign of misses: 8 ok, verified cells.  Returns whether it was.

    Neither the ``done`` event's ``executed`` count nor the cells'
    ``cached`` flags are used: when the client silently resubmits, the
    second attempt finds the cells the first attempt started in flight
    or already archived.  The server's ``cells_executed`` total is what
    checks that every miss executed exactly once.
    """
    before = len(errors)
    cells = cell_events(events)
    if len(cells) != CELLS_PER_CAMPAIGN or not done_event(events):
        errors.append(f"{what}: {len(cells)} cells, events {events[-1:]}")
    for event in cells:
        result = event["result"]
        if result["status"] != "ok" or not result["verified"]:
            errors.append(f"{what}: cell {event['cell']} is {result['status']}")
    return len(errors) == before


def seed_pass(port: int, campaigns: list[dict], errors: list[str]) -> dict:
    """Submit every seeded campaign once.

    Returns the canonical JSON of each cell's payload, by cell key, the
    executed results and the number of campaigns that failed a check.
    """
    payloads: dict[tuple, str] = {}
    results = []
    bad = 0
    with ServiceClient("127.0.0.1", port, timeout=120) as client:
        for request in campaigns:
            events = submit(client, request)["events"]
            bad += not check_fresh(events, "seeding campaign", errors)
            for event in cell_events(events):
                payloads[tuple(event["cell"])] = json.dumps(event["result"], sort_keys=True)
                results.append(event["result"])
    return {"payloads": payloads, "results": results, "bad": bad}


class TransportCounter:
    """Counts ``HTTPConnection.connect`` calls and ``POST /submit`` requests sent.

    ``ServiceClient`` reconnects and resubmits silently, so a submission
    that reached the server twice still yields one clean event stream;
    these counts are how the benchmark sees it happen.
    """

    def __init__(self) -> None:
        self.connects = 0
        self.submit_requests = 0
        self._lock = threading.Lock()
        self._connect = http.client.HTTPConnection.connect
        self._request = http.client.HTTPConnection.request

    def __enter__(self) -> "TransportCounter":
        connect, request = self._connect, self._request

        def counted_connect(conn):
            with self._lock:
                self.connects += 1
            return connect(conn)

        def counted_request(conn, method, url, *args, **kwargs):
            result = request(conn, method, url, *args, **kwargs)
            if method == "POST" and url == "/submit":
                with self._lock:
                    self.submit_requests += 1
            return result

        http.client.HTTPConnection.connect = counted_connect
        http.client.HTTPConnection.request = counted_request
        return self

    def __exit__(self, *exc) -> bool:
        http.client.HTTPConnection.connect = self._connect
        http.client.HTTPConnection.request = self._request
        return False


def load(port: int, plan: Plan, seconds: float) -> dict:
    """Closed loop: CLIENTS threads submit back to back for ``seconds``."""
    records: list[tuple[bool, int, dict]] = []
    failures: list[str] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client_loop() -> None:
        with ServiceClient("127.0.0.1", port, timeout=120) as client:
            while time.perf_counter() < deadline:
                miss, index, request = plan.next()
                try:
                    record = submit(client, request)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    with lock:
                        failures.append(f"{type(exc).__name__}: {exc}")
                    continue
                with lock:
                    records.append((miss, index, record))

    with TransportCounter() as transport:
        start = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 150)
        wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load-generator thread did not finish")
    return {"records": records, "failures": failures, "wall_s": wall,
            "connects": transport.connects,
            "submit_requests": transport.submit_requests}


def check_load(loaded: dict, seeded: dict, errors: list[str]) -> int:
    """Validate every submission; returns how many failed a check."""
    bad = 0
    for miss, index, record in loaded["records"]:
        before = len(errors)
        events = record["events"]
        cells = cell_events(events)
        done = done_event(events)
        if miss:
            check_fresh(events, f"miss campaign {index}", errors)
        else:
            if done.get("executed") != 0 or len(cells) != CELLS_PER_CAMPAIGN:
                errors.append(f"re-submission {index} executed {done.get('executed')}")
            for event in cells:
                payload = json.dumps(event["result"], sort_keys=True)
                if payload != seeded["payloads"].get(tuple(event["cell"])):
                    errors.append(f"hit cell {event['cell']} differs from the seeding pass")
        bad += len(errors) > before
    return bad


def phase(run_dir: Path, seed: int, seconds: float, traced: bool, errors: list[str]) -> dict:
    """Start a server, seed it, load it for ``seconds``, check, stop it."""
    server = Server(run_dir, traced)
    try:
        campaigns = seeded_campaigns(seed)
        seeded = seed_pass(server.port, campaigns, errors)
        loaded = load(server.port, Plan(seed, campaigns), seconds)
        bad = check_load(loaded, seeded, errors)
        misses = sum(1 for miss, *_ in loaded["records"] if miss)
        with ServiceClient("127.0.0.1", server.port, timeout=30) as client:
            status = client.status()
        planned = CELLS_PER_CAMPAIGN * (SEED_CAMPAIGNS + misses)
        if status["cells_executed"] != planned:
            errors.append(
                f"server executed {status['cells_executed']} cells, planned {planned}"
            )
        rss = server.peak_rss_mb()
    finally:
        server.shutdown()
    errors.extend(loaded["failures"][:5])
    records = loaded["records"]
    submitted = len(records) + len(loaded["failures"])
    executed = [
        event["result"] for miss, _, r in records if miss for event in cell_events(r["events"])
    ]
    hits = [r["latency_s"] for miss, _, r in records if not miss]
    miss_lat = [r["latency_s"] for miss, _, r in records if miss]
    out = {
        "setup_s": server.setup_s,
        "campaign_s": median(r["latency_s"] for *_, r in records),
        "trial_geomean_ms": geomean(cell_trial_means_ms(seeded["results"] + executed)),
        "peak_rss_mb": rss,
        "hit_p50_ms": 1000 * percentile(hits, 50),
        "hit_p99_ms": 1000 * percentile(hits, 99),
        "miss_p50_ms": 1000 * percentile(miss_lat, 50),
        "miss_p90_ms": 1000 * percentile(miss_lat, 90),
        "submits_per_s": len(records) / loaded["wall_s"],
        "first_event_ms": 1000 * median(r["first_s"] for *_, r in records),
        "connects_per_submit": loaded["connects"] / submitted,
        "transport_errors": server.transport_errors(),
        "posts_per_submit": loaded["submit_requests"] / submitted,
        "hit_rate": status["hit_rate"],
        "cells_executed": status["cells_executed"],
        "attempted": submitted + len(campaigns),
        "failed": len(loaded["failures"]) + bad + seeded["bad"],
        "samples": {
            "setup_s": 1,
            "campaign_s": len(records),
            "trial_geomean_ms": len(seeded["results"]) + len(executed),
            "hit_p50_ms": len(hits),
            "hit_p99_ms": len(hits),
            "miss_p50_ms": len(miss_lat),
            "miss_p90_ms": len(miss_lat),
            "submits_per_s": len(records),
            "first_event_ms": len(records),
        },
        "seed_counters": [
            sum(result[key] for result in seeded["results"])
            for key in ("edges_examined", "rounds", "iterations")
        ],
    }
    if traced:
        out["trace"] = json.loads(server.spans_path.read_text())
    return out


def layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    """Server-side layer figures per executed job, plus client figures."""
    trace = traced["trace"]
    totals = trace["totals"]
    jobs = totals["service.executor"]["calls"]

    def span(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0) / jobs

    cells = aggregate_cells(trace["cell_records"])
    per_job = {key: value / jobs for key, value in cells.items()}
    executor_wall = span("service.executor", "wall_s")
    return {
        "cli.import_s": trace["import_s"],
        "cli.scipy_stats_imported": int(trace["scipy_stats_imported"]),
        **shared_layers(span, per_job),
        "graphs.cache_hits": trace["cache_hits"] / jobs,
        "graphs.cache_misses": trace["cache_misses"] / jobs,
        # The seeding pass's totals: the same 128 cells on every server.
        "frameworks.edges_examined": traced["seed_counters"][0],
        "frameworks.rounds": traced["seed_counters"][1],
        "frameworks.iterations": traced["seed_counters"][2],
        "pool.spawn_s": totals.get("pool.spawn", {}).get("self_s", 0.0),
        "pool.respawns": totals.get("pool.respawn", {}).get("calls", 0),
        "executor.overhead_s": executor_wall - per_job["cell_wall_s"],
        "service.hit_rate": traced["hit_rate"],
        "service.cells_executed": traced["cells_executed"],
        "service.executor_s": executor_wall,
        "client.first_event_ms": traced["first_event_ms"],
        "client.connects_per_submit": traced["connects_per_submit"],
        "client.server_transport_errors": traced["transport_errors"],
        "client.posts_per_submit": traced["posts_per_submit"],
        "client.hit_p50_ms": traced["hit_p50_ms"],
        "client.hit_p99_ms": traced["hit_p99_ms"],
        "client.miss_p50_ms": traced["miss_p50_ms"],
        "client.miss_p90_ms": traced["miss_p90_ms"],
        "client.submits_per_s": traced["submits_per_s"],
        "client.hit_samples": traced["samples"]["hit_p50_ms"],
        "client.miss_samples": traced["samples"]["miss_p50_ms"],
        "trace.campaign_s": traced["campaign_s"],
        "trace.overhead_s": traced["campaign_s"] - untraced["campaign_s"],
        # Executor time outside the wrapped layers and the cells it ran.
        "trace.unattributed_s": span("service.executor") - per_job["cell_wall_s"],
        "trace.campaigns": jobs,
    }


def run(args, run_dir: Path, setups: int) -> dict:
    """Run the workload; returns the raw figures ``run.py`` reports."""
    errors: list[str] = []
    if args.trace:
        untraced = phase(run_dir / "untraced", args.seed, args.seconds / 3, False, errors)
        traced = phase(run_dir / "traced", args.seed, args.seconds * 2 / 3, True, errors)
        if untraced["seed_counters"] != traced["seed_counters"]:
            errors.append("work counters differ between traced and untraced servers")
        return {"figures": traced, "layers": layer_metrics(untraced, traced),
                "spans": traced["trace"]["spans"], "errors": errors,
                "attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"]}
    setup = []
    for probe in range(setups - 1):
        server = Server(run_dir / f"setup-{probe}", traced=False)
        setup.append(server.setup_s)
        server.shutdown()
    main = phase(run_dir / "main", args.seed, args.seconds, False, errors)
    setup.append(main["setup_s"])
    main["setup_s"] = median(setup)
    main["samples"]["setup_s"] = len(setup)
    return {"figures": main, "layers": None, "errors": errors,
            "attempted": main["attempted"], "failed": main["failed"]}
