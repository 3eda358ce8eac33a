"""Fault-harness overhead: disabled ``fault_point`` vs. no hook at all.

The injection hooks are compiled into hot paths permanently — simulator
allocation, every host/device transfer, every kernel launch, tile
thread submission, scheduler workers — on the argument that the disabled path
(one module-global read plus an ``is None`` test) is free. This bench
holds that argument to a number: the same simulated-engine mine is
timed with the hooks stubbed out entirely and with the real disabled
harness in place, interleaved to cancel drift, and the median overhead
must stay under 2%.
"""

import pathlib
import time

import repro.core.support as support_mod
import repro.gpusim.kernel as kernel_mod
import repro.gpusim.memory as memory_mod
import repro.service.scheduler as scheduler_mod
from repro.bench import render_table
from repro.core.api import mine
from repro.datasets import dataset_analog
from repro.faults import active_session

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DATASET = "T40I10D100K"
SCALE = 0.002
MIN_SUPPORT = 0.12
ROUNDS = 7
OVERHEAD_BUDGET = 0.02

HOOKED_MODULES = (memory_mod, kernel_mod, support_mod, scheduler_mod)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_disabled_harness_overhead_under_budget():
    assert active_session() is None, "a chaos session would skew the bench"
    db = dataset_analog(DATASET, scale=SCALE)

    def workload():
        # the simulated engine visits every gpusim fault site:
        # alloc per buffer, htod/dtoh per transfer, launch per kernel
        mine(db, MIN_SUPPORT, engine="simulated")

    real_hooks = {mod: mod.fault_point for mod in HOOKED_MODULES}

    def noop_fault_point(site, **attrs):
        return None

    def stubbed():
        for mod in HOOKED_MODULES:
            mod.fault_point = noop_fault_point
        try:
            workload()
        finally:
            for mod, hook in real_hooks.items():
                mod.fault_point = hook

    stubbed(), workload()  # warmup both paths
    stub_s, real_s = [], []
    for _ in range(ROUNDS):  # interleave to cancel drift
        stub_s.append(_timed(stubbed))
        real_s.append(_timed(workload))

    # min-of-N is the standard low-noise estimator for this comparison
    best_stub, best_real = min(stub_s), min(real_s)
    overhead = best_real / best_stub - 1.0

    report = render_table(
        ["variant", "best of %d (s)" % ROUNDS, "overhead"],
        [
            ["hooks stubbed out", f"{best_stub:.4f}", "-"],
            ["disabled harness", f"{best_real:.4f}", f"{100.0 * overhead:+.2f}%"],
        ],
    )
    print("\n" + report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fault_overhead.txt").write_text(report + "\n")

    assert overhead < OVERHEAD_BUDGET, (
        f"disabled fault harness costs {100 * overhead:.2f}% "
        f"(budget {100 * OVERHEAD_BUDGET:.0f}%): "
        f"stubbed {best_stub:.4f}s vs hooked {best_real:.4f}s"
    )
