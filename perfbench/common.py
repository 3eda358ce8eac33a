"""Shared pieces of the benchmark: inputs, oracle, timing and span folding.

Nothing here imports :mod:`repro` at module load; :func:`import_repro`
puts the checkout's ``src`` on the path and refuses any other copy of
the package, so the benchmark always measures the code it sits next to.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The chess analog's schema (per-slot value skews, endgame templates)
# comes from its generator seed, and the frequent-itemset count swings
# from 49k to 860k across schema seeds at the same threshold. The schema
# is therefore pinned to the generator's own default; the benchmark
# seed permutes item labels and transaction order, which changes every
# input byte but not the amount of mining work.
SCHEMA_SEED = 11

Itemsets = Dict[Tuple[int, ...], int]

# Metric name -> unit; mirrored (with bounds and directions) in BENCHMARK.json
END_TO_END = {"setup_s": "s", "round_calib": "calib", "peak_rss_mb": "MB"}
PER_LAYER = {
    "round_s": "s",
    **{f"mine_s{v}": "s" for v in ("", ".equivalence", ".hybrid", ".sharded", ".parallel", ".simulated", ".multigpu")},
    "hit_p50_ms": "ms", "hit_p90_ms": "ms", "filtered_p50_ms": "ms", "cold_p50_s": "s",
    "qps": "1/s", "error_rate": "fraction",
    "bitset.transpose_s": "s", "bitset.hybrid_build_s": "s", "bitset.device_bytes": "bytes",
    "trie.candidate_gen_s": "s", "trie.prune_s": "s", "trie.candidates": "count",
    "trie.frequent_ratio": "fraction",
    "count.kernel_s": "s", "count.launches": "count", "count.word_ands": "count",
    "count.word_ands_per_s": "1/s", "plan.prefix_s": "s",
    "split.parts": "count", "split.overhead_s": "s", "split.degradations": "count",
    "gpusim.kernel_exec_s": "s", "gpusim.launches": "count", "gpusim.modeled_s": "s",
    "fleet.makespan_modeled_s": "s",
    "loop.generations": "count", "loop.self_s": "s",
    "result.itemsets": "count", "result.to_dict_s": "s", "result.json_s": "s",
    "result.json_bytes": "bytes",
    "cache.hit_ratio": "fraction", "cache.filtered_ratio": "fraction", "cache.filter_s": "s",
    "cache.bytes": "bytes",
    "scheduler.queue_wait_s": "s", "scheduler.coalesced": "count", "scheduler.rejected": "count",
    "registry.load_s": "s",
    **{f"http.overhead_ms.{c}": "ms" for c in ("hit", "filtered", "cold")},
    **{f"http.response_bytes.{c}": "bytes" for c in ("hit", "filtered", "cold")},
    "trace.overhead_frac": "fraction", "host.calib_s": "s",
}

UNITS = {**END_TO_END, **PER_LAYER}


class BenchmarkError(RuntimeError):
    """A wrong answer, a refused operation or a missing program."""


def import_repro():
    """Import the checkout's own ``repro`` package or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {src}")
    return repro


# -- inputs ---------------------------------------------------------------


def permuted(db, seed: int):
    """``db`` with item labels and transaction order permuted by ``seed``."""
    from repro.datasets.transaction_db import TransactionDatabase

    rng = np.random.default_rng(seed)
    relabel = rng.permutation(db.n_items).astype(np.int32)
    lengths = np.diff(db.offsets)
    row_of = np.repeat(np.arange(db.n_transactions), lengths)
    items = relabel[db.items_flat]
    order = np.lexsort((items, row_of))  # sort items within each row
    items = items[order]
    # new transaction order: gather rows of the permutation
    perm = rng.permutation(db.n_transactions)
    starts = db.offsets[:-1][perm]
    new_lengths = lengths[perm]
    new_offsets = np.zeros(db.n_transactions + 1, dtype=np.int64)
    np.cumsum(new_lengths, out=new_offsets[1:])
    gather = np.repeat(starts - new_offsets[:-1], new_lengths) + np.arange(
        new_offsets[-1]
    )
    return TransactionDatabase.from_arrays(items[gather], new_offsets, db.n_items)


def chess(n_transactions: int, seed: int):
    """Chess analog with ``n_transactions`` rows, permuted by ``seed``."""
    from repro.datasets.synthetic import make_chess_analog

    return permuted(make_chess_analog(n_transactions, seed=SCHEMA_SEED), seed)


# -- correctness ----------------------------------------------------------


def oracle(db, min_support) -> Itemsets:
    """Frequent itemsets by FP-Growth, which shares no bitset or trie code."""
    from repro.core.api import mine

    return mine(db, min_support, algorithm="fpgrowth").as_dict()


def at_least(itemsets: Itemsets, abs_support: int) -> Itemsets:
    """The part of a looser answer that is frequent at ``abs_support``."""
    return {k: v for k, v in itemsets.items() if v >= abs_support}


def itemsets_of_doc(doc: Mapping) -> Itemsets:
    """Itemsets of a ``MiningResult.to_dict`` document."""
    return {tuple(items): support for items, support in doc["itemsets"]}


# -- timing ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _serial_reference() -> Dict[Tuple[int, ...], int]:
    """12,000 fixed itemsets of 4-10 items: the serialization reference."""
    rng = np.random.default_rng(0)
    result: Dict[Tuple[int, ...], int] = {}
    while len(result) < 12_000:
        items = rng.choice(75, int(rng.integers(4, 11)), replace=False)
        result[tuple(sorted(int(v) for v in items))] = int(rng.integers(100, 160))
    return result


def calibrate(kind: str = "interp") -> float:
    """Seconds for a fixed reference computation on this host.

    ``interp``: tuple/set/dict churn (like the trie and the simulator),
    small bit operations and JSON encoding. ``bitset``: the same plus an
    equal part of memory-bound work, gathers, AND-reduces and popcounts
    over a 75 x 6,250-word table, like the counting kernel on mine_tall.
    ``serial``: only serialization, a fixed 12,000-itemset result turned
    into sorted ``[items, support]`` lists and encoded as JSON, like an
    exact cache hit. A slow host phase stretches these kinds of work
    differently, so each workload is divided by the reference that
    matches its calls. Timed around every call and reported as
    ``host.calib_s``; the ``*_calib`` metrics and ``setup_s`` are times
    divided by it.
    """
    if kind == "serial":
        result = _serial_reference()
        gc.collect()
        t0 = time.perf_counter()
        json.dumps({"itemsets": [[list(k), v] for k, v in sorted(result.items())]}).encode()
        return time.perf_counter() - t0
    bitset = kind == "bitset"
    rng = np.random.default_rng(0)
    sets = [tuple(int(v) for v in sorted(rng.choice(40, 5, replace=False))) for _ in range(3000)]
    rows = rng.integers(0, 2**32, size=(16, 8192), dtype=np.uint64).astype(np.uint32)
    if bitset:
        table = rng.integers(0, 2**32, size=(75, 6250), dtype=np.uint64).astype(np.uint32)
        picks = rng.integers(0, 75, size=(160, 4))
    gc.collect()
    t0 = time.perf_counter()
    seen, counts = set(), {}
    for items in sets:
        for j in range(len(items)):
            sub = items[:j] + items[j + 1:]
            if sub in seen:
                counts[sub] = counts.get(sub, 0) + 1
            else:
                seen.add(sub)
    for i in range(15):
        int(np.unpackbits(np.bitwise_and(rows[i], rows[i + 1]).view(np.uint8)).sum())
    json.dumps([[list(items), 5] for items in sets * 3])
    if bitset:
        words = np.bitwise_and.reduce(table[picks], axis=1)
        int(np.unpackbits(words.view(np.uint8)).sum())
    return time.perf_counter() - t0


# Reference seconds that ``setup_s`` is scaled to: a set-up that took
# as long as ``calibrate(kind)`` reports NOMINAL_CALIB_S[kind].
# Roughly the reference's time on the build host, so the figure reads
# as seconds there; any fixed value would do.
NOMINAL_CALIB_S = {"interp": 0.02, "bitset": 0.05}


def host_seconds(fn, kind: str = "interp") -> Tuple[float, float]:
    """``(raw, normalized)`` seconds of one ``fn()`` call.

    ``normalized`` is the call divided by the mean of the reference
    timed just before and just after it, times NOMINAL_CALIB_S: the
    call's seconds on a host where the reference takes that long. It
    follows the program and not the host's speed phase.
    """
    before = calibrate(kind)
    raw, _ = timed(fn)
    after = calibrate(kind)
    return raw, raw / ((before + after) / 2) * NOMINAL_CALIB_S[kind]


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call, after a full collection."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _child_pids() -> List[int]:
    """Processes whose parent is this one, zombies included (Linux /proc)."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The parallel engine's shared memory starts multiprocessing's
    resource tracker, which outlives its parent: orphaned, it lingers
    (as a zombie nobody reaps) after the run. It is closed the way
    multiprocessing closes it; any other child gets SIGTERM, then
    SIGKILL after ``grace_s`` seconds, and is reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    pids = _child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (0 for an empty sample)."""
    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else 0.0


_PEAK_RESET = False


def reset_peak_rss() -> bool:
    """Start the peak-RSS count here, with the inputs already built.

    Generating the 200k-row analog peaks near 440 MB in per-row
    temporaries, which would hide the program's own memory. After a
    collection, the freed heap is handed back to the system
    (``malloc_trim``) and the kernel's high-water mark is reset to the
    current RSS (``/proc/self/clear_refs``), so the peak read later is
    the resident inputs plus what the program allocates. Returns False
    where either is unavailable; :func:`peak_rss_mb` then falls back to
    the process-lifetime peak.
    """
    global _PEAK_RESET
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except (OSError, AttributeError):
        return False
    _PEAK_RESET = True
    return True


def peak_rss_mb() -> float:
    """Peak resident set in MiB since :func:`reset_peak_rss` (inputs included)."""
    if _PEAK_RESET:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_note(per_call: bool = False) -> str:
    if _PEAK_RESET and per_call:
        return (
            "peak_rss_mb is the largest peak of one untimed call per configuration, each "
            "from a trimmed heap (VmHWM after a reset); it includes the resident input database"
        )
    if _PEAK_RESET:
        return (
            "peak_rss_mb is the peak since the inputs were built (VmHWM after a reset); "
            "it includes the resident input databases but not the generator's temporaries"
        )
    return "peak_rss_mb is the process-lifetime peak (no reset available); it includes input generation"


def time_serialization(report: "Report", result) -> None:
    """Time ``to_dict`` and ``json.dumps`` of ``result`` from outside."""
    doc_s, docs = zip(*(timed(result.to_dict) for _ in range(3)))
    json_s, texts = zip(*(timed(json.dumps, docs[0]) for _ in range(3)))
    report.put("result.itemsets", len(result), 1)
    report.put("result.to_dict_s", median(doc_s), 3)
    report.put("result.json_s", median(json_s), 3)
    report.put("result.json_bytes", len(texts[0]), 1)


# -- spans ----------------------------------------------------------------


def self_times(spans: Iterable[Mapping]) -> List[Tuple[Mapping, float]]:
    """Each span dict paired with its self time (duration − children)."""
    spans = list(spans)
    child: Dict[int, float] = {}
    for s in spans:
        if s.get("parent") is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s.get("duration") or 0.0)
    return [
        (s, max(0.0, (s.get("duration") or 0.0) - child.get(s.get("id"), 0.0)))
        for s in spans
    ]


def flatten_tree(nodes: Iterable[Mapping]) -> List[Mapping]:
    """Flight-recorder span tree -> flat span dicts (ids kept)."""
    out: List[Mapping] = []
    stack = list(nodes)
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.get("children") or [])
    return out


# -- output ---------------------------------------------------------------


class Report:
    """Metric values of one run, printed as the benchmark's last line."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, float | str]] = {}
        self.samples: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = {"value": float(value), "unit": UNITS[name]}
        self.samples[name] = samples

    def note(self, text: str) -> None:
        self.notes.append(text)

    def emit(self, workload: str, correct: bool, names: Mapping[str, str]) -> None:
        """Print ``names`` (name -> unit); a layer the workload bypasses reads 0."""
        metrics = {}
        for name, unit in names.items():
            metric = metrics[name] = self.metrics.get(name, {"value": 0.0, "unit": unit})
            print(f"{name:28s} {metric['value']:>14.6g} {unit:9s} n={self.samples.get(name, 0)}")
        print(f"# workload {workload}")
        for text in self.notes:
            print(f"# {text}")
        print(
            json.dumps(
                {
                    "correct": bool(correct),
                    "attempted": int(self.attempted),
                    "failed": int(self.failed),
                    "metrics": metrics,
                }
            ),
            flush=True,
        )
