"""The three library workloads: mine_dense, mine_tall and mine_sim.

Each workload pins its dataset (set-up), then runs rounds until the
time is up. A round calls ``mine()`` once per configuration of the
workload, in an order drawn from the seed, so host drift lands on every
configuration alike. The first round is a warm-up and is discarded.
With tracing on, every second round runs under a ``repro.obs.Tracer``
and the spans the program already emits are folded into per-layer
self times; the untraced rounds between them keep giving the
untraced figures and the tracing overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .common import (
    Report,
    calibrate,
    chess,
    host_seconds,
    median,
    oracle,
    peak_rss_mb,
    reset_peak_rss,
    rss_note,
    self_times,
    time_serialization,
    timed,
)

Config = Tuple[str, Dict]


@dataclass(frozen=True)
class MineWorkload:
    rows: int
    min_support: float
    configs: Sequence[Config]
    calib: str = "interp"  # reference kind, see common.calibrate
    setup_batch: int = 1  # set-ups timed together in one setup_s sample


WORKLOADS: Dict[str, MineWorkload] = {
    # chess analog at 5% scale: the trie and level loop do the work
    "mine_dense": MineWorkload(
        rows=160,
        min_support=0.7,
        configs=(("mine_s", {}), ("mine_s.equivalence", {"plan": "equivalence"})),
        setup_batch=16,
    ),
    # 200k chess rows: counting and the bitset layout do the work
    "mine_tall": MineWorkload(
        rows=200_000,
        min_support=0.75,
        configs=(
            ("mine_s", {}),
            ("mine_s.hybrid", {"layout": "hybrid"}),
            ("mine_s.sharded", {"shards": 4}),
            ("mine_s.parallel", {"engine": "parallel", "workers": 2}),
        ),
        calib="bitset",
    ),
    # full-scale chess: the GPU simulator and the fleet do the work
    "mine_sim": MineWorkload(
        rows=3196,
        min_support=0.85,
        configs=(
            ("mine_s.simulated", {"engine": "simulated"}),
            ("mine_s.multigpu", {"engine": "multigpu", "devices": 4}),
        ),
        setup_batch=4,
    ),
}

# set-up samples up front: at least SETUP_REPEATS and SETUP_SECONDS'
# worth; one more after every round
SETUP_REPEATS, SETUP_SECONDS = 5, 1.0


@dataclass
class Round:
    """One call per configuration, with the calibrations around them."""

    times: Dict[str, float]
    calib: List[float]  # before the first call and after every call
    layers: Dict[str, float]

    @property
    def seconds(self) -> float:
        return sum(self.times.values())

    @property
    def relative(self) -> float:
        """Round time in host reference units: each call divided by the
        mean of the calibrations just before and just after it."""
        return sum(
            t / ((self.calib[i] + self.calib[i + 1]) / 2)
            for i, t in enumerate(self.times.values())
        )


def _setup_sample(name: str, db, spec: MineWorkload, tracer=None) -> Tuple[float, float]:
    """``(raw, normalized)`` seconds to pin ``db`` as the service does:
    transpose, hybrid split, profile. ``spec.setup_batch`` fresh
    registries are loaded in one timed stretch, so a set-up of about a
    millisecond is not lost in timer and host jitter; the figures are
    per set-up."""
    from repro.service.registry import DatasetRegistry

    registries = []
    for _ in range(spec.setup_batch):
        registries.append(DatasetRegistry(layout="hybrid"))
        registries[-1].add(name, db, provenance="synthetic")

    def load() -> None:
        for registry in registries:
            registry.get(name)

    if tracer is None:
        raw, host = host_seconds(load, spec.calib)
    else:
        with tracer.activate():
            raw, host = host_seconds(load, spec.calib)
    return raw / spec.setup_batch, host / spec.setup_batch


# figures of one call that a round reports once, not summed over its calls
NOT_SUMMED = ("split.parts", "bitset.device_bytes", "loop.generations", "trie.frequent_ratio")


def fold(spans: List[Dict], counters: Dict[str, int], options: Dict) -> Dict[str, float]:
    """Per-layer figures of one traced ``mine()`` call.

    ``spans`` are span dicts as the program emitted them; ``counters``
    are the call's ``RunMetrics`` counters (empty when not at hand).
    """
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    equivalence = options.get("plan") == "equivalence"
    n_words = 0
    parts = 1
    for span, self_s in self_times(spans):
        name, attrs = span["name"], span.get("attrs") or {}
        if name == "transpose":
            n_words = int(attrs.get("n_words", n_words))
            add("bitset.hybrid_build_s" if attrs.get("layout") == "hybrid" else "bitset.transpose_s", self_s)
        elif name == "candidate_gen":
            add("trie.candidate_gen_s", self_s)
        elif name == "prune":
            add("trie.prune_s", self_s)
        elif name == "kernel_launch":
            add("count.kernel_s", self_s)
            add("count.launches", 1)
        elif name == "kernel_exec":
            add("gpusim.kernel_exec_s", self_s)
            add("gpusim.launches", 1)
        elif name == "fleet_launch":
            add("split.overhead_s", self_s)
            add("fleet.makespan_modeled_s", float(attrs.get("modeled_makespan_seconds", 0.0)))
        elif name == "transfer" and str(attrs.get("kind", "")).startswith(("shard_", "fleet_")):
            add("split.overhead_s", self_s)
        elif name == "service.degraded":
            add("split.degradations", 1)
        elif name == "generation":
            add("loop.generations", 1)
            add("plan.prefix_s" if equivalence else "loop.self_s", self_s)
        elif name == "mining_run":
            add("loop.self_s", self_s)
            parts = max(parts, *(int(attrs.get(k) or 1) for k in ("shards", "workers", "devices")))
    # Candidates and the complete-intersection work they imply:
    # generation k counts `candidates` k-itemsets over n_words words.
    gens = [s.get("attrs") or {} for s in spans if s["name"] == "generation"]
    candidates = sum(int(a.get("candidates", 0)) for a in gens)
    frequent = sum(int(a.get("frequent", 0)) for a in gens)
    out["trie.candidates"] = float(candidates)
    out["trie.frequent_ratio"] = frequent / candidates if candidates else 0.0
    out["count.word_ands"] = float(
        sum(int(a.get("candidates", 0)) * int(a["k"]) * n_words for a in gens if int(a.get("k", 1)) >= 2)
    )
    out["split.parts"] = float(parts)
    out["bitset.device_bytes"] = float(counters.get("bitset_bytes_device", 0))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Report, bool]:
    from repro.core.api import mine
    from repro.obs import Tracer

    spec = WORKLOADS[workload]
    report = Report()
    db = chess(spec.rows, seed)
    report.note(
        f"input: chess analog, {db.n_transactions} tx x {db.n_items} items, "
        f"min_support {spec.min_support}, seed {seed}"
    )
    reset_peak_rss()

    setup_tracer = Tracer() if trace else None
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        setups.append(_setup_sample(workload, db, spec, setup_tracer))
    rng = np.random.default_rng(seed)
    reference = None
    mismatches: List[str] = []

    def one_round(traced: bool):
        """Each configuration once, a calibration before and after each."""
        nonlocal reference
        order = [spec.configs[i] for i in rng.permutation(len(spec.configs))]
        times: Dict[str, float] = {}
        calib = [calibrate(spec.calib)]
        layers: Dict[str, float] = {}
        result = None
        for label, options in order:
            tracer = Tracer() if traced else None
            if tracer is None:
                dt, result = timed(mine, db, spec.min_support, **options)
            else:
                with tracer.activate():
                    dt, result = timed(mine, db, spec.min_support, **options)
                spans = [s.to_dict() for s in tracer.finished()]
                figures = fold(spans, result.metrics.counters, options)
                figures["gpusim.modeled_s"] = float(result.metrics.modeled_seconds or 0.0)
                for key, value in figures.items():
                    if key in NOT_SUMMED:
                        layers[key] = max(layers.get(key, 0.0), value)
                    else:
                        layers[key] = layers.get(key, 0.0) + value
            times[label] = dt
            calib.append(calibrate(spec.calib))
            report.attempted += 1
            answer = result.as_dict()
            if reference is None:
                reference = answer
            elif answer != reference:
                mismatches.append(f"{label} differs from the first answer")
        return Round(times, calib, layers), result

    one_round(False)  # warm-up: imports, allocator, pool start-up paths
    rounds: List[Round] = []
    traced_rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not rounds or (trace and not traced_rounds):
        traced = trace and len(rounds) > len(traced_rounds)
        one, last = one_round(traced)
        (traced_rounds if traced else rounds).append(one)
        setups.append(_setup_sample(workload, db, spec, setup_tracer))
    # Peak memory of one call per configuration, each started from a
    # trimmed heap: the peak across a whole run also held whatever free
    # heap earlier calls left behind, and read 178-196 MB on mine_tall
    # from one set of runs to the next.
    peaks = []
    for label, options in spec.configs:
        reset_peak_rss()
        answer = mine(db, spec.min_support, **options).as_dict()
        peaks.append(peak_rss_mb())
        report.attempted += 1
        if answer != reference:
            mismatches.append(f"{label} differs from the first answer (peak-memory call)")
    peak = max(peaks)

    report.put("setup_s", median([host for _, host in setups]), len(setups))
    report.put("round_calib", median([r.relative for r in rounds]), len(rounds))
    report.put("peak_rss_mb", peak, 1)
    report.note(rss_note(per_call=True))

    # correctness, outside timing: every answer equals FP-Growth's
    expected = oracle(db, spec.min_support)
    if reference != expected:
        mismatches.append(
            f"answers ({len(reference)} itemsets) differ from FP-Growth ({len(expected)})"
        )
    report.note(f"itemsets: {len(reference)} (FP-Growth: {len(expected)})")
    for text in mismatches:
        report.note(f"WRONG ANSWER: {text}")
    report.failed = len(mismatches)

    raw = [r.seconds for r in rounds]
    report.note(
        f"raw: round {median(raw):.4f} s, host.calib_s {median([c for r in rounds for c in r.calib]):.4f} s, "
        f"{len(rounds)} rounds; setup {median([raw for raw, _ in setups]) * 1000:.3f} ms"
        f" ({spec.setup_batch} per sample)"
    )
    if trace:
        report.put("error_rate", report.failed / report.attempted, report.attempted)
        report.put("round_s", median(raw), len(raw))
        for label, _ in spec.configs:
            report.put(label, median([r.times[label] for r in rounds]), len(rounds))
        report.put(
            "trace.overhead_frac",
            median([r.relative for r in traced_rounds]) / median([r.relative for r in rounds]) - 1.0,
            len(traced_rounds),
        )
        layer_rounds = [r.layers for r in traced_rounds]
        for key in sorted({k for r in layer_rounds for k in r}):
            report.put(key, median([r.get(key, 0.0) for r in layer_rounds]), len(layer_rounds))
        kernel = median([r.get("count.kernel_s", 0.0) for r in layer_rounds])
        ands = median([r.get("count.word_ands", 0.0) for r in layer_rounds])
        report.put("count.word_ands_per_s", ands / kernel if kernel else 0.0, len(layer_rounds))
        loads = [s.duration for s in setup_tracer.finished() if s.name == "service.dataset_load"]
        report.put("registry.load_s", median(loads), len(loads))
        time_serialization(report, last)
        report.put("host.calib_s", median([c for r in rounds for c in r.calib]), len(rounds))
        _note_shares(report, workload, [r.seconds for r in traced_rounds], layer_rounds)
    return report, not mismatches


def _note_shares(report: Report, workload: str, round_s: List[float], layers: List[Dict[str, float]]) -> None:
    """Print the layer split the workload was chosen for."""
    total = median(round_s)

    def share(*keys: str) -> float:
        return sum(median([r.get(k, 0.0) for r in layers]) for k in keys) / total

    if workload == "mine_dense":
        report.note(
            f"share: trie.* {share('trie.candidate_gen_s', 'trie.prune_s'):.1%} "
            f"(chosen for >= 80%), count.kernel_s {share('count.kernel_s'):.1%} (<= 5%)"
        )
    elif workload == "mine_tall":
        report.note(
            f"share: count.kernel_s + bitset.transpose_s + bitset.hybrid_build_s "
            f"{share('count.kernel_s', 'bitset.transpose_s', 'bitset.hybrid_build_s'):.1%} (chosen for >= 50%)"
        )
    elif workload == "mine_sim":
        report.note(f"share: gpusim.kernel_exec_s {share('gpusim.kernel_exec_s'):.1%} (chosen for >= 90%)")


