"""The serve_mixed workload: HTTP clients against an in-process service.

A ``MiningService(workers=2)`` serves the mine_dense and mine_tall
inputs through ``make_server`` on loopback. Two clients, each on one
keep-alive connection, run a closed loop in rounds: in a round each
client runs one session of queries (SESSION, in that order), and
between rounds, with both clients idle, the host is calibrated. Every
query's class is fixed before it is sent; the seed picks the inputs
and the filtered thresholds, and no thread timing can turn one class
into another:

* ``hit`` — dense at 0.6, cached before the clock starts (exact hit);
* ``filtered`` — tall at 0.82..0.92, projected from the tall@0.8 entry
  cached before the clock starts;
* ``cold`` — tall just below 0.8, each threshold lower than every one
  its client asked before. The two clients' cold queries use different
  ``block_size`` values, which changes the cache key but not the
  arithmetic, so neither client's entries can cover the other's, and
  each client waits for its own cold answer before sending the next.

The responses are kept (one copy per distinct answer) and checked
against FP-Growth after the clock stops.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .common import (
    Report,
    at_least,
    calibrate,
    chess,
    flatten_tree,
    host_seconds,
    itemsets_of_doc,
    median,
    oracle,
    peak_rss_mb,
    quantile,
    reset_peak_rss,
    rss_note,
    time_serialization,
)
from .mining import fold

DENSE_ROWS, TALL_ROWS = 160, 200_000
HIT_SUPPORT = 0.6  # dense: 48,849 itemsets, a 1.5 MB body
WARM_SUPPORT = 0.8  # tall: the looser entry filtered queries project from
FILTERED_SUPPORTS = (0.82, 0.84, 0.86, 0.88, 0.9, 0.92)  # bodies under 10 KB
COLD_STEP = 4  # transactions between a client's successive cold thresholds
SESSION = ("cold",) + ("hit",) * 3 + ("filtered",) * 1
CLIENTS = 2
SETUP_REPEATS = 5
SOURCE_OF = {"hit": "cache", "filtered": "cache_filtered", "cold": "cold"}
RESULT_KEY = b', "result": '


@dataclass
class Answer:
    """One completed query as the client saw it."""

    cls: str
    abs_support: int
    rtt: float
    status: int
    source: Optional[str] = None
    server_s: float = 0.0
    nbytes: int = 0
    error: str = ""


@dataclass
class Client:
    """One closed-loop client: its schedule, connection and answers."""

    index: int
    port: int
    seed: int
    tall_n: int
    sessions: List[List[Answer]] = field(default_factory=list)
    # one full response per distinct (class, threshold, result digest)
    bodies: Dict[Tuple[str, int, str], bytes] = field(default_factory=dict)
    cold_count: int = 0

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng([self.seed, self.index])
        self.block_size = 256 >> self.index
        self.warm_abs = int(np.ceil(WARM_SUPPORT * self.tall_n))
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def _query(self, cls: str) -> Answer:
        if cls == "hit":
            doc = {"dataset": "dense", "min_support": HIT_SUPPORT}
            abs_support = -1  # filled from the response
        elif cls == "filtered":
            frac = FILTERED_SUPPORTS[self.rng.integers(len(FILTERED_SUPPORTS))]
            doc = {"dataset": "tall", "min_support": float(frac)}
            abs_support = -1
        else:
            self.cold_count += 1
            abs_support = self.warm_abs - COLD_STEP * self.cold_count
            doc = {"dataset": "tall", "min_support": abs_support, "block_size": self.block_size}
        body = json.dumps(doc).encode()
        t0 = time.perf_counter()
        try:
            self.conn.request("POST", "/v1/mine", body, {"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            payload = resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return Answer(cls, abs_support, time.perf_counter() - t0, status=0)
        rtt = time.perf_counter() - t0
        answer = Answer(cls, abs_support, rtt, resp.status, nbytes=len(payload))
        if resp.status != 200:
            return answer
        head, result = split_response(payload)
        answer.source = head["source"]
        answer.server_s = head["elapsed_seconds"]
        answer.abs_support = head["abs_support"]
        key = (cls, answer.abs_support, hashlib.sha256(result).hexdigest())
        if key not in self.bodies:
            self.bodies[key] = payload
        return answer

    def session(self) -> None:
        """One session: the SESSION classes in order. A query that
        raises is kept as a failed answer, so it is counted."""
        answers = []
        for cls in SESSION:
            try:
                answers.append(self._query(cls))
            except Exception as exc:  # noqa: BLE001 - any client fault is a failed query
                self.conn.close()
                answers.append(Answer(cls, -1, 0.0, status=0, error=repr(exc)))
        self.sessions.append(answers)


def split_response(payload: bytes) -> Tuple[Dict, bytes]:
    """``(envelope without result, result bytes)`` of a /v1/mine body.

    The envelope the server writes today ends with the (large) result
    document, so the fast path parses only the small head before it and
    takes the result bytes as they are. Any other layout falls back to
    parsing the whole body and re-encoding the result canonically. The
    bytes only key the set of distinct answers; the correctness check
    parses each kept body in full.
    """
    cut = payload.find(RESULT_KEY)
    if cut >= 0 and payload.endswith(b"}"):
        try:
            head = json.loads(payload[:cut] + b"}")
            if {"source", "elapsed_seconds", "abs_support"} <= head.keys():
                return head, payload[cut + len(RESULT_KEY):-1]
        except ValueError:
            pass
    doc = json.loads(payload)
    result = doc.pop("result")
    return doc, json.dumps(result, sort_keys=True).encode()


class Server:
    """A service plus its HTTP server thread, ready when constructed."""

    def __init__(self, dense, tall, capacity: int) -> None:
        from repro.service import MiningService
        from repro.service.httpd import make_server

        self.service = MiningService(
            workers=2,
            queue_depth=8,
            cache_bytes=512 * 1024 * 1024,
            flight_capacity=capacity,
            maintenance_interval=None,
        )
        self.service.register_dataset("dense", dense, provenance="synthetic")
        self.service.register_dataset("tall", tall, provenance="synthetic")
        self.service.preload()
        self.httpd = make_server(self.service)
        self.port = self.httpd.port
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        while self.get("/v1/readyz")[0] != 200:
            time.sleep(0.001)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def post(self, doc: Dict) -> Dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request("POST", "/v1/mine", json.dumps(doc).encode(), {"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = resp.read()
        finally:
            conn.close()
        if resp.status != 200:
            raise RuntimeError(f"warm-up query {doc} answered {resp.status}: {payload[:200]!r}")
        return json.loads(payload)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=30)
        self.service.close()


def run(seed: int, seconds: float, trace: bool) -> Tuple[Report, bool]:
    from repro.obs import Tracer

    report = Report()
    dense = chess(DENSE_ROWS, seed)
    tall = chess(TALL_ROWS, seed)
    report.note(
        f"inputs: dense chess analog {dense.n_transactions} tx, tall chess analog "
        f"{tall.n_transactions} tx, seed {seed}; {CLIENTS} keep-alive clients, closed loop, "
        f"session = {len(SESSION)} queries ({', '.join(f'{SESSION.count(c)} {c}' for c in SOURCE_OF)})"
    )

    reset_peak_rss()

    # set-up: service, datasets pinned, server bound, first readyz 200
    capacity = 64 + int(seconds * 200)
    setups, servers = [], []
    tracer = Tracer()

    def start() -> None:
        with tracer.activate():
            servers.append(Server(dense, tall, capacity))

    for _ in range(SETUP_REPEATS):
        if servers:
            servers[-1].close()
        setups.append(host_seconds(start, "bitset"))
    server = servers[-1]
    report.put("setup_s", median([host for _, host in setups]), len(setups))
    report.note(f"raw: setup {median([raw for raw, _ in setups]) * 1000:.1f} ms")
    loads = [s.duration for s in tracer.finished() if s.name == "service.dataset_load"]
    report.put("registry.load_s", median(loads), len(loads))

    try:
        return _measure(server, report, dense, tall, seed, seconds, trace)
    finally:
        server.close()


def _rounds(clients: List[Client], seconds: float) -> Tuple[List[float], List[float]]:
    """Rounds until ``seconds`` pass: every client runs one session at
    once, and the host is calibrated between rounds while the clients
    wait. Returns the round wall times and the calibrations (one more
    than rounds). The first round is a warm-up and is not returned."""
    walls, calib = [], [calibrate("serial")]
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        threads = [threading.Thread(target=c.session) for c in clients]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        walls.append(time.perf_counter() - t0)
        calib.append(calibrate("serial"))
    return walls[1:], calib[1:]


def _measure(server: Server, report: Report, dense, tall, seed, seconds, trace):
    # Cache the two entries the hit and filtered classes read from.
    hit_doc = server.post({"dataset": "dense", "min_support": HIT_SUPPORT})
    server.post({"dataset": "tall", "min_support": WARM_SUPPORT})

    clients = [Client(i, server.port, seed, tall.n_transactions) for i in range(CLIENTS)]
    try:
        walls, calib = _rounds(clients, seconds)
    finally:
        for c in clients:
            c.conn.close()
    peak = peak_rss_mb()

    sessions = [s for c in clients for s in c.sessions[1:]]  # drop warm-ups
    answers = [a for s in sessions for a in s]
    everything = [a for c in clients for s in c.sessions for a in s]
    report.attempted = len(everything)
    report.failed = sum(1 for a in everything if a.status != 200)
    relative = [w / ((calib[i] + calib[i + 1]) / 2) for i, w in enumerate(walls)]
    span_s = sum(walls)
    report.put("round_calib", median(relative), len(relative))
    report.put("round_s", median(walls), len(walls))
    report.put("peak_rss_mb", peak, 1)
    report.note(rss_note())

    by_cls = {c: [a for a in answers if a.status == 200 and a.cls == c] for c in SOURCE_OF}
    report.note(
        "answers per class: "
        + ", ".join(f"{c} {len(v)}" for c, v in by_cls.items())
        + f"; refused or failed {report.failed}"
    )
    client_s = sum(a.rtt for v in by_cls.values() for a in v) or 1.0
    report.note(
        "share of client time: "
        + ", ".join(f"{c} {sum(a.rtt for a in v) / client_s:.1%}" for c, v in by_cls.items())
    )
    for text in sorted({a.error for a in everything if a.error}):
        report.note(f"client error: {text}")

    # correctness, outside timing
    problems, counts = _check(clients, everything, dense, tall, hit_doc)
    report.note(f"itemsets per answer: {counts} (every distinct answer checked against FP-Growth)")
    for text in problems:
        report.note(f"WRONG ANSWER: {text}")

    report.note(f"raw: round {median(walls):.4f} s, host.calib_s {median(calib):.4f} s, {len(walls)} rounds")
    if trace:
        _per_layer(report, server, by_cls, answers, hit_doc, calib, span_s)
    return report, not problems


def _check(clients: List[Client], answers: List[Answer], dense, tall, hit_doc) -> Tuple[List[str], str]:
    problems = []
    for a in answers:
        if a.status == 200 and a.source != SOURCE_OF[a.cls]:
            problems.append(f"{a.cls} query at {a.abs_support} answered from {a.source}")
    bodies = {k: v for c in clients for k, v in c.bodies.items()}
    if not bodies:
        return problems + ["no query was answered"], "none"
    lowest_tall = min(s for (cls, s, _) in bodies if cls != "hit")
    expected = {
        "dense": oracle(dense, HIT_SUPPORT),
        "tall": oracle(tall, lowest_tall),
    }
    if itemsets_of_doc(hit_doc["result"]) != expected["dense"]:
        problems.append("warm-up dense answer differs from FP-Growth")
    counts = {}
    for (cls, abs_support, _), raw in bodies.items():
        doc = json.loads(raw)["result"]
        got = itemsets_of_doc(doc)
        want = at_least(expected["dense" if cls == "hit" else "tall"], abs_support)
        counts.setdefault(cls, set()).add(len(got))
        if got != want or doc["min_support"] != abs_support:
            problems.append(
                f"{cls} answer at {abs_support}: {len(got)} itemsets, FP-Growth {len(want)}"
            )
    return problems, "; ".join(f"{cls} {min(v)}..{max(v)}" for cls, v in sorted(counts.items()))


def _per_layer(report: Report, server: Server, by_cls, answers, hit_doc, calib, span_s) -> None:
    from repro.core.itemset import MiningResult

    ms = 1000.0
    hit_rtt = [a.rtt for a in by_cls["hit"]]
    report.put("hit_p50_ms", median(hit_rtt) * ms, len(hit_rtt))
    report.put("hit_p90_ms", quantile(hit_rtt, 0.9) * ms, len(hit_rtt))
    if len(hit_rtt) < 100:
        report.note(f"hit_p90_ms rests on {len(hit_rtt)} hits (< 100)")
    report.put("filtered_p50_ms", median([a.rtt for a in by_cls["filtered"]]) * ms, len(by_cls["filtered"]))
    report.put("cold_p50_s", median([a.rtt for a in by_cls["cold"]]), len(by_cls["cold"]))
    report.put("qps", len(answers) / span_s, len(answers))
    report.put("error_rate", report.failed / max(report.attempted, 1), report.attempted)
    for cls, items in by_cls.items():
        report.put(f"http.overhead_ms.{cls}", median([a.rtt - a.server_s for a in items]) * ms, len(items))
        report.put(f"http.response_bytes.{cls}", median([a.nbytes for a in items]), len(items))
    n = max(len(answers), 1)
    report.put("cache.hit_ratio", len(by_cls["hit"]) / n, n)
    report.put("cache.filtered_ratio", len(by_cls["filtered"]) / n, n)

    service = server.service
    stats = service.stats()
    report.put("cache.bytes", stats["cache"]["resident_bytes"], 1)
    wait = service.metrics.histogram("service.queue_wait_seconds")
    report.put("scheduler.queue_wait_s", wait.quantile(0.5) if wait.count else 0.0, wait.count)
    report.put("scheduler.coalesced", service.metrics.counter("service.coalesced"), 1)
    report.put("scheduler.rejected", service.metrics.counter("service.rejected"), 1)

    # Per-query span trees from the flight recorder.
    listing = json.loads(server.get("/v1/debug/queries")[1])["queries"]
    filter_s, layers = [], []
    for summary in listing:
        if summary["status"] != "ok":
            continue
        detail = json.loads(server.get(f"/v1/debug/queries/{summary['query_id']}")[1])
        spans = flatten_tree(detail["span_tree"])
        filter_s += [s["duration"] for s in spans if s["name"] == "service.cache_filter"]
        if summary["source"] == "cold" and summary["dataset"] == "tall":
            layers.append(fold(spans, {}, {}))
    report.put("cache.filter_s", median(filter_s), len(filter_s))
    for key in sorted({k for r in layers for k in r} - {"bitset.device_bytes"}):
        report.put(key, median([r.get(key, 0.0) for r in layers]), len(layers))
    kernel = median([r.get("count.kernel_s", 0.0) for r in layers])
    ands = median([r.get("count.word_ands", 0.0) for r in layers])
    report.put("count.word_ands_per_s", ands / kernel if kernel else 0.0, len(layers))

    time_serialization(report, MiningResult.from_dict(hit_doc["result"]))
    report.put("host.calib_s", median(calib), len(calib))
    share = median([a.rtt - a.server_s for a in by_cls["hit"]]) / median(hit_rtt)
    report.note(f"share: http.overhead_ms.hit is {share:.1%} of the exact-hit latency (chosen for >= 90%)")
