"""The GPApriori mining driver (host side of paper Section IV).

Flow, matching the paper:

1. transpose the database into the static bitset table and install it
   on the (simulated) device — the only full-database transfer;
2. count generation 1 with the support kernel, keep frequent items in
   the candidate trie;
3. repeat: generate (k+1)-candidates by the trie leaf/sibling join,
   ship the candidate buffer to the device, launch the support kernel,
   fetch supports, prune the trie level — until a generation is empty.

The driver is plan- and engine-agnostic; every combination of
{complete, equivalence} x {vectorized, simulated} mines identical
itemsets (asserted in the integration tests).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_support
from ..bitset.bitset import BitsetMatrix
from ..bitset.hybrid import HybridLayout, auto_dense_threshold
from ..errors import MiningError
from ..faults.injection import inject
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..obs import mining_run, span
from ..trie.generation import generate_candidates
from ..trie.trie import CandidateTrie
from .config import GPAprioriConfig
from .itemset import MiningResult, RunMetrics
from .plans import make_plan
from .support import make_engine, resolve_workers

__all__ = ["gpapriori_mine"]


def gpapriori_mine(
    db,
    min_support,
    config: GPAprioriConfig | None = None,
    device: DeviceProperties = TESLA_T10,
    max_k: int | None = None,
    matrix: BitsetMatrix | None = None,
    hybrid: HybridLayout | None = None,
) -> MiningResult:
    """Mine all frequent itemsets of ``db`` with GPApriori.

    Parameters
    ----------
    db:
        A :class:`~repro.datasets.transaction_db.TransactionDatabase`.
    min_support:
        Fractional support ratio in (0, 1] or absolute count >= 1.
    config:
        Kernel/plan/engine configuration; defaults to the paper's tuned
        settings (block 256, preload on, unroll 4, complete
        intersection, vectorized engine).
    device:
        Device sheet for the simulator and the cost model.
    max_k:
        Optional cap on itemset length (None = run to exhaustion).
    matrix:
        Optional pre-built vertical bitset matrix of ``db``. The
        mining service's dataset registry pins one per dataset so the
        O(db) transpose happens once per dataset, not once per query;
        it must match ``db``'s dimensions and ``config.aligned``.
    hybrid:
        Optional pre-built :class:`~repro.bitset.hybrid.HybridLayout`
        of ``db`` (the registry's pinned classification). Requires
        ``config.layout`` of ``"hybrid"`` or ``"auto"`` and is used
        as-is — the caller decided the threshold when building it.
        Without it, a non-dense ``config.layout`` classifies the
        (possibly pinned) matrix here: ``"hybrid"`` always installs
        the hybrid table, ``"auto"`` only when it actually saves
        device bytes.

    Returns
    -------
    MiningResult
        Frequent itemsets with absolute supports, plus wall-clock,
        modeled hardware costs, and per-generation candidate counts.
    """
    config = config or GPAprioriConfig()
    min_count = check_support(min_support, db.n_transactions, MiningError)
    if max_k is not None and max_k < 1:
        raise MiningError(f"max_k must be >= 1, got {max_k}")

    metrics = RunMetrics(algorithm="gpapriori")

    run_attrs = dict(
        engine=config.engine,
        plan=config.plan,
        n_transactions=db.n_transactions,
        n_items=db.n_items,
    )
    if config.engine == "parallel":
        run_attrs["workers"] = resolve_workers(config.workers)
    if config.engine == "multigpu":
        from .fleet import resolve_devices

        run_attrs["devices"] = resolve_devices(config.devices)
    if config.sharded:
        run_attrs["shards"] = config.shards or "auto"
        if config.memory_budget_bytes is not None:
            run_attrs["memory_budget_bytes"] = config.memory_budget_bytes
    if matrix is not None:
        if matrix.n_transactions != db.n_transactions or matrix.n_items != db.n_items:
            raise MiningError(
                f"pinned matrix shape ({matrix.n_items} items x "
                f"{matrix.n_transactions} transactions) does not match the "
                f"database ({db.n_items} x {db.n_transactions})"
            )
        if config.aligned and not matrix.is_aligned():
            raise MiningError(
                "config.aligned=True but the pinned matrix is not 64-byte aligned"
            )
    if hybrid is not None:
        if config.layout == "dense":
            raise MiningError(
                "hybrid= requires config.layout='hybrid' or 'auto'"
            )
        if (
            hybrid.n_transactions != db.n_transactions
            or hybrid.n_items != db.n_items
        ):
            raise MiningError(
                f"pinned hybrid layout shape ({hybrid.n_items} items x "
                f"{hybrid.n_transactions} transactions) does not match the "
                f"database ({db.n_items} x {db.n_transactions})"
            )
    if config.layout != "dense":
        run_attrs["layout"] = config.layout
        if config.dense_threshold is not None:
            run_attrs["dense_threshold"] = config.dense_threshold

    with inject(config.faults), mining_run("gpapriori", metrics, **run_attrs):
        layout = hybrid
        with span(
            "transpose",
            aligned=config.aligned,
            pinned=matrix is not None or hybrid is not None,
        ) as sp:
            if layout is None:
                if matrix is None:
                    matrix = BitsetMatrix.from_database(db, aligned=config.aligned)
                if config.layout != "dense":
                    threshold = (
                        config.dense_threshold
                        if config.dense_threshold is not None
                        else auto_dense_threshold(
                            matrix.n_transactions, matrix.n_words
                        )
                    )
                    built = HybridLayout.from_matrix(matrix, threshold)
                    if config.layout == "hybrid" or built.bytes_saved > 0:
                        layout = built
            if layout is not None:
                sp.set(
                    n_items=layout.n_items,
                    n_words=layout.n_words,
                    bytes=layout.device_bytes,
                    layout="hybrid",
                    dense_items=layout.n_dense,
                    sparse_items=layout.n_sparse,
                )
            else:
                sp.set(
                    n_items=matrix.n_items,
                    n_words=matrix.n_words,
                    bytes=matrix.nbytes,
                )
        engine = make_engine(config, metrics, device)
        if layout is not None:
            reg = metrics.registry
            reg.set_gauge("layout.dense_items", layout.n_dense)
            reg.set_gauge("layout.sparse_items", layout.n_sparse)
            reg.set_gauge("layout.device_bytes", layout.device_bytes)
            reg.set_gauge("layout.bytes_saved", layout.bytes_saved)
        install_bytes = layout.device_bytes if layout is not None else matrix.nbytes
        with span("install", bytes=install_bytes):
            if layout is not None:
                engine.setup(None, hybrid=layout)
            else:
                engine.setup(matrix)
        plan = make_plan(config.plan)

        trie = CandidateTrie()
        found: dict[tuple, int] = {}

        # ---- generation 1: every item is a candidate.
        n_items = db.n_items
        with span("generation", k=1, candidates=n_items) as gen_sp:
            cands = np.arange(n_items, dtype=np.int32).reshape(-1, 1)
            metrics.generations.append(n_items)
            supports = plan.count(engine, cands, {})
            frequent_mask = supports >= min_count
            with span("prune", k=1):
                for i in np.nonzero(frequent_mask)[0]:
                    trie.insert((int(i),), int(supports[i]))
                    found[(int(i),)] = int(supports[i])
                prefix_index = plan.after_prune(engine, cands, frequent_mask, {})
            gen_sp.set(frequent=int(frequent_mask.sum()))

        # ---- generations k >= 2.
        k = 1
        while frequent_mask.any():
            if max_k is not None and k >= max_k:
                break
            with span("generation", k=k + 1) as gen_sp:
                cands = generate_candidates(trie, k)
                gen_sp.set(candidates=int(cands.shape[0]))
                if cands.shape[0] == 0:
                    break
                metrics.generations.append(int(cands.shape[0]))
                supports = plan.count(engine, cands, prefix_index)
                frequent_mask = supports >= min_count
                with span("prune", k=k + 1):
                    for i, row in enumerate(cands):
                        node = trie.find(row.tolist())
                        if node is None:  # pragma: no cover - generation inserted it
                            raise MiningError("generated candidate missing from trie")
                        node.support = int(supports[i])
                    trie.prune_level(k + 1, min_count)
                    for i in np.nonzero(frequent_mask)[0]:
                        found[tuple(int(x) for x in cands[i])] = int(supports[i])
                    prefix_index = plan.after_prune(
                        engine, cands, frequent_mask, prefix_index
                    )
                gen_sp.set(frequent=int(frequent_mask.sum()))
            k += 1

        engine.finalize()

    return MiningResult(
        itemsets=found,
        n_transactions=db.n_transactions,
        min_support=min_count,
        metrics=metrics,
    )
