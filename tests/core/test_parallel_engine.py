"""Unit tests for ``engine="parallel"``: the vectorized engine counting
its tiles on worker threads."""

import multiprocessing.util
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import HybridLayout, hybrid_extend_rows, hybrid_supports
from repro.bitset.ops import TILE_BUDGET_BYTES, extend_words, support_words
from repro.cli import main as cli_main
from repro.core.api import mine
from repro.core.config import GPAprioriConfig
from repro.core.gpapriori import gpapriori_mine
from repro.core.itemset import RunMetrics
from repro.core.support import (
    MAX_AUTO_WORKERS,
    TileThreads,
    VectorizedEngine,
    make_engine,
    resolve_workers,
)
from repro.datasets import TransactionDatabase
from repro.errors import BitsetError, ConfigError, MiningError
from repro.service import MiningService

# 66 candidates: above MIN_PARALLEL_CANDIDATES, so they go to threads
ALL_PAIRS = np.array([[i, j] for i in range(12) for j in range(i + 1, 12)])


def make_pair(db, workers=2, **cfg_over):
    """A (vectorized, parallel) engine pair over the same matrix."""
    matrix = BitsetMatrix.from_database(db)
    vec = VectorizedEngine(GPAprioriConfig(), RunMetrics())
    vec.setup(matrix)
    cfg = GPAprioriConfig(engine="parallel", workers=workers, **cfg_over)
    eng = make_engine(cfg, RunMetrics())
    eng.setup(matrix)
    return vec, eng


def dispatched(eng) -> bool:
    """Whether any launch so far ran its tiles on the worker threads."""
    return eng.metrics.counters.get("parallel.tiles", 0) > 0


@pytest.fixture
def pool_pair(small_db):
    vec, eng = make_pair(small_db, workers=2)
    yield vec, eng
    eng.close()


class TestResolveWorkers:
    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_auto_is_positive_and_capped(self):
        n = resolve_workers(0)
        assert 1 <= n <= MAX_AUTO_WORKERS

    def test_config_rejects_negative(self):
        with pytest.raises(ConfigError, match="workers"):
            GPAprioriConfig(workers=-1)

    def test_config_rejects_bool(self):
        with pytest.raises(ConfigError, match="workers"):
            GPAprioriConfig(workers=True)


class TestDispatch:
    def test_make_engine_dispatch(self):
        eng = make_engine(GPAprioriConfig(engine="parallel"), RunMetrics())
        assert isinstance(eng, VectorizedEngine)
        assert eng.n_workers == resolve_workers(0)
        assert make_engine(GPAprioriConfig(), RunMetrics()).n_workers == 1

    def test_count_complete_matches_vectorized(self, pool_pair):
        vec, eng = pool_pair
        assert np.array_equal(
            eng.count_complete(ALL_PAIRS), vec.count_complete(ALL_PAIRS)
        )
        assert dispatched(eng)

    def test_extend_retain_chain_matches_vectorized(self, pool_pair):
        vec, eng = pool_pair
        assert np.array_equal(eng.count_extend(ALL_PAIRS), vec.count_extend(ALL_PAIRS))
        keep = np.arange(0, ALL_PAIRS.shape[0], 2)
        eng.retain(keep)
        vec.retain(keep)
        deeper = np.array([[i, 11] for i in range(keep.size)])
        assert np.array_equal(eng.count_extend(deeper), vec.count_extend(deeper))
        assert dispatched(eng)

    def test_extend_many_tiles_matches_vectorized(self, small_db, monkeypatch):
        # a tiny tile budget forces many tiles per worker, so the
        # round-robin shares and per-worker scratch reuse are exercised
        monkeypatch.setattr("repro.bitset.ops.TILE_BUDGET_BYTES", 64)
        for layout in ("dense", "hybrid"):
            cfg = GPAprioriConfig(plan="equivalence", layout=layout)
            ref = gpapriori_mine(small_db, 3, config=cfg)
            got = gpapriori_mine(
                small_db, 3, config=cfg.with_(engine="parallel", workers=3)
            )
            assert got.as_dict() == ref.as_dict()
            assert got.metrics.counters["parallel.tiles"] > 3

    def test_identical_modeled_costs(self, pool_pair):
        vec, eng = pool_pair
        vec.count_complete(ALL_PAIRS)
        eng.count_complete(ALL_PAIRS)
        assert eng.metrics.modeled_breakdown == pytest.approx(
            vec.metrics.modeled_breakdown
        )

    def test_tile_counters(self, pool_pair):
        _, eng = pool_pair
        eng.count_complete(ALL_PAIRS)
        c = eng.metrics.counters
        assert c["parallel.tiles"] >= 2  # sharded across both workers
        assert eng.metrics.registry.gauge("parallel.workers") == 2

    def test_small_generation_stays_in_process(self, pool_pair):
        _, eng = pool_pair
        eng.count_complete(np.array([[0, 1], [2, 3]]))
        assert not dispatched(eng)

    def test_empty_generations(self, pool_pair):
        _, eng = pool_pair
        assert eng.count_complete(np.empty((0, 2), dtype=np.int64)).size == 0
        assert eng.count_extend(np.empty((0, 2), dtype=np.int64)).size == 0
        eng.retain(np.empty(0, dtype=np.int64))


class TestValidation:
    def test_count_before_setup(self):
        eng = make_engine(GPAprioriConfig(engine="parallel"), RunMetrics())
        with pytest.raises(MiningError, match="setup"):
            eng.count_complete(np.array([[0]]))

    def test_out_of_range_item(self, pool_pair):
        _, eng = pool_pair
        with pytest.raises(BitsetError):
            eng.count_complete(np.array([[0, 99]]))

    def test_bad_pairs_shape(self, pool_pair):
        _, eng = pool_pair
        with pytest.raises(MiningError, match="\\(n, 2\\)"):
            eng.count_extend(np.array([[1, 2, 3]]))

    def test_extend_prefix_row_out_of_range(self, pool_pair):
        _, eng = pool_pair
        eng.count_extend(ALL_PAIRS)
        eng.retain(np.arange(4))
        with pytest.raises(MiningError, match="prefix row"):
            eng.count_extend(np.array([[4, 0]]))  # only rows 0-3 cached

    def test_retain_without_extend(self, pool_pair):
        _, eng = pool_pair
        with pytest.raises(MiningError, match="retain"):
            eng.retain(np.array([0]))

    def test_retain_bad_index_is_mining_error_and_recoverable(self, pool_pair):
        vec, eng = pool_pair
        sup = eng.count_extend(ALL_PAIRS)
        with pytest.raises(MiningError, match="out of range"):
            eng.retain(np.array([0, ALL_PAIRS.shape[0]]))
        # the failed retain must not have consumed the pending state:
        eng.retain(np.array([0, 1]))
        vec.count_extend(ALL_PAIRS)
        vec.retain(np.array([0, 1]))
        deeper = np.array([[0, 5], [1, 7]])
        assert np.array_equal(eng.count_extend(deeper), vec.count_extend(deeper))
        assert sup.shape[0] == ALL_PAIRS.shape[0]


class TestFallback:
    @pytest.mark.parametrize(
        "n_ok,error,shift",
        [
            (0, RuntimeError("can't start new thread"), 3),
            (1, RuntimeError("can't start new thread"), 11),
            (1, OSError("no threads"), 23),
        ],
        ids=["first-thread", "second-thread", "oserror"],
    )
    def test_submit_failure_degrades_in_process(
        self, small_db, monkeypatch, n_ok, error, shift
    ):
        """A thread that cannot be started leaves its share to the
        calling thread, and the engine stops dispatching."""
        real_submit = ThreadPoolExecutor.submit
        submitted = []

        def failing_submit(self, fn, *args, **kwargs):
            # like a failed thread start: the work item is queued, and
            # an already-running worker may pick it up, but submit raises
            future = real_submit(self, fn, *args, **kwargs)
            submitted.append(future)
            if len(submitted) > n_ok:
                raise error
            return future

        monkeypatch.setattr(ThreadPoolExecutor, "submit", failing_submit)
        vec, eng = make_pair(small_db, workers=3)
        # a candidate order no other test counts, so a share left
        # uncounted cannot pass on stale memory holding right answers
        cands = np.roll(list(combinations(range(12), 3)), shift, axis=0)
        try:
            got = eng.count_complete(cands)
            assert np.array_equal(got, vec.count_complete(cands))
            assert eng.metrics.counters["parallel.pool_failures"] == 1
            labels = {"site": "parallel.submit", "from": "pool", "to": "in_process"}
            registry = eng.metrics.registry
            assert registry.counter("service.degraded.events", labels=labels) == 1
            tiles = eng.metrics.counters["parallel.tiles"]
            assert np.array_equal(
                eng.count_complete(ALL_PAIRS), vec.count_complete(ALL_PAIRS)
            )
            assert eng.metrics.counters["parallel.tiles"] == tiles  # not retried
        finally:
            eng.close()

    def test_workers_one_never_forks(self, small_db):
        _, eng = make_pair(small_db, workers=1)
        try:
            eng.count_complete(ALL_PAIRS)
            assert eng.n_workers == 1 and not dispatched(eng)
        finally:
            eng.close()


class TestLifecycle:
    def test_finalize_stops_threads(self, small_db):
        _, eng = make_pair(small_db, workers=2)
        eng.count_complete(ALL_PAIRS)
        eng.count_extend(ALL_PAIRS)
        eng.retain(np.arange(40))
        eng.count_extend(np.array([[i, 11] for i in range(40)]))
        executor = eng._threads._executor
        assert executor is not None
        eng.finalize()
        assert eng._threads._executor is None
        with pytest.raises(RuntimeError, match="shutdown"):
            executor.submit(int)

    def test_close_is_idempotent(self, small_db):
        _, eng = make_pair(small_db, workers=2)
        eng.count_complete(ALL_PAIRS)
        eng.close()
        eng.close()

    def test_counting_after_close_still_correct(self, small_db):
        """A closed engine starts new threads rather than crashing."""
        vec, eng = make_pair(small_db, workers=2)
        eng.count_complete(ALL_PAIRS)
        eng.close()
        try:
            assert np.array_equal(
                eng.count_complete(ALL_PAIRS), vec.count_complete(ALL_PAIRS)
            )
        finally:
            eng.close()


class TestEndToEnd:
    @pytest.mark.parametrize("plan", ["complete", "equivalence"])
    def test_mining_matches_vectorized(self, small_db, plan):
        ref = gpapriori_mine(small_db, 6, config=GPAprioriConfig(plan=plan))
        got = gpapriori_mine(
            small_db,
            6,
            config=GPAprioriConfig(engine="parallel", workers=2, plan=plan),
        )
        assert got.as_dict() == ref.as_dict()
        assert got.metrics.modeled_breakdown == pytest.approx(
            ref.metrics.modeled_breakdown
        )

    def test_cli_engine_and_workers_flags(self, capsys):
        rc = cli_main(
            [
                "mine",
                "--dataset",
                "chess",
                "--scale",
                "0.02",
                "--min-support",
                "0.9",
                "--engine",
                "parallel",
                "--workers",
                "2",
            ]
        )
        assert rc == 0
        assert "frequent itemsets" in capsys.readouterr().out

    def test_cli_engine_flag_rejects_other_algorithms(self, capsys):
        rc = cli_main(
            [
                "mine",
                "--dataset",
                "chess",
                "--scale",
                "0.02",
                "--algorithm",
                "borgelt",
                "--engine",
                "parallel",
            ]
        )
        assert rc == 2
        assert "--engine" in capsys.readouterr().err


def _child_pids() -> set:
    """Live processes whose parent is this one (empty without /proc)."""
    me, out = os.getpid(), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == me:
                out.add(int(stat.parent.name))
        except (OSError, IndexError, ValueError):
            continue
    return out


def _shm_segments() -> set:
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("psm_*")} if shm.is_dir() else set()


class TestNoProcessLeft:
    """Threads replace the old fork pool: a parallel mine starts no
    child process, no multiprocessing resource tracker and no
    shared-memory segment, so nothing can outlive the run."""

    @pytest.fixture
    def started(self, monkeypatch):
        started = []

        def recording(name, real):
            def wrapper(*args, **kwargs):
                started.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(os, "fork", recording("fork", os.fork))
        monkeypatch.setattr(
            multiprocessing.util,
            "spawnv_passfds",
            recording("spawn", multiprocessing.util.spawnv_passfds),
        )
        monkeypatch.setattr(
            shared_memory.SharedMemory,
            "__init__",
            recording("shared_memory", shared_memory.SharedMemory.__init__),
        )
        return started

    def test_mine_and_service_query_start_no_process(self, small_db, started):
        children, segments = _child_pids(), _shm_segments()
        clean = mine(small_db, 8).as_dict()
        got = mine(small_db, 8, engine="parallel", workers=2)
        assert got.as_dict() == clean
        assert got.metrics.counters["parallel.tiles"] > 0  # threads did run
        with MiningService(workers=1) as svc:
            svc.register_dataset("d", small_db)
            response = svc.query("d", 8, engine="parallel", workers=2)
            assert response.result.as_dict() == clean
        assert started == []
        assert _child_pids() <= children
        assert _shm_segments() <= segments


class TestThreadedTiles:
    """The threaded tile bodies against the single-thread loops, on
    many small tiles and every hybrid mix (all-dense to all-sparse)."""

    @pytest.fixture
    def matrix(self):
        rng = np.random.default_rng(5)
        rows = [rng.choice(40, size=rng.integers(1, 12), replace=False) for _ in range(300)]
        return BitsetMatrix.from_database(TransactionDatabase(rows, n_items=40))

    @pytest.fixture
    def threads(self, monkeypatch):
        monkeypatch.setattr("repro.bitset.ops.TILE_BUDGET_BYTES", 3 * 256)
        threads = TileThreads(3, RunMetrics())
        yield threads
        threads.close()

    def test_dense_paths(self, matrix, threads):
        rng = np.random.default_rng(6)
        cands = rng.integers(0, 40, size=(500, 3))
        assert np.array_equal(
            support_words(matrix.words, cands, threads), support_words(matrix.words, cands)
        )
        pairs = rng.integers(0, 40, size=(500, 2))
        for got, want in zip(
            extend_words(matrix.words, matrix.words, pairs, threads),
            extend_words(matrix.words, matrix.words, pairs),
        ):
            assert np.array_equal(got, want)
        assert threads.metrics.counters["parallel.tiles"] > 3

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.2, 1.1])
    def test_hybrid_paths(self, matrix, threads, threshold):
        layout = HybridLayout.from_matrix(matrix, threshold)
        rng = np.random.default_rng(7)
        cands = rng.integers(0, 40, size=(500, 3))
        assert np.array_equal(
            hybrid_supports(layout, cands, threads), hybrid_supports(layout, cands)
        )
        pairs = rng.integers(0, 40, size=(500, 2))
        prefix = extend_words(matrix.words, matrix.words, pairs)[0]
        for base in (None, prefix):
            want = hybrid_extend_rows(layout, base, pairs)
            got = hybrid_extend_rows(layout, base, pairs, threads)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_workers_allocate_no_tile_sized_array(self):
        """The traced peak of a threaded call is the scratch the calling
        thread hands out (two uint32 tiles and one uint8 tile per worker)
        plus small arrays; one more tile allocated in a worker exceeds it."""
        rng = np.random.default_rng(9)
        words = rng.integers(0, 2**32, size=(40, 4096), dtype=np.uint32)
        cands = rng.integers(0, 40, size=(4000, 3))
        threads = TileThreads(2, RunMetrics())
        want = support_words(words, cands)
        tile_bytes = TILE_BUDGET_BYTES // 2
        try:
            support_words(words, cands, threads)  # start the thread untraced
            tracemalloc.start()
            try:
                got = support_words(words, cands, threads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            threads.close()
        assert np.array_equal(got, want)
        assert peak < 2 * 2.25 * tile_bytes + tile_bytes // 2

    def test_more_workers_than_cores_under_fast_switching(self, matrix, monkeypatch):
        """Workers write disjoint slices of one output; with eight
        threads and a tiny switch interval, any overlap or lost tile
        would change the answer."""
        monkeypatch.setattr("repro.bitset.ops.TILE_BUDGET_BYTES", 8 * 256)
        threads = TileThreads(8, RunMetrics())
        cands = np.random.default_rng(8).integers(0, 40, size=(2000, 2))
        want = support_words(matrix.words, cands)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(support_words(matrix.words, cands, threads), want)
        finally:
            sys.setswitchinterval(interval)
            threads.close()
