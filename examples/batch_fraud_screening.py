#!/usr/bin/env python3
"""Batch fraud screening through the SPG serving engine.

While ``fraud_detection.py`` investigates a single flagged transaction,
this example runs the screening pipeline a payment provider would run: for
every transaction of the last day, check whether it closes a simple cycle
of bounded length inside the recent time window.  A transaction ``u -> v``
closes a cycle of length ``<= L`` exactly when a simple path ``v -> u`` of
length ``<= L - 1`` exists, so screening is one SPG query per transaction —
a *batch* of queries against one graph, which is exactly the workload
:class:`repro.service.SPGEngine` is built for:

* repeated account pairs hit the result cache instead of re-running EVE;
* transactions received by the same account share one backward pass
  (the batch planner groups queries by target);
* per-query latency and hit-rate statistics come for free.

Screening runs on a rolling schedule: every few hours the pipeline
re-screens the whole trailing day (earlier transactions again, plus the new
ones).  Each sweep is also answered with the plain sequential loop the seed
used, to show the serving layer's speedup on identical answers.

Run with::

    python examples/batch_fraud_screening.py
"""

from __future__ import annotations

import time

from repro import build_spg
from repro.datasets import generate_transaction_network
from repro.service import SPGEngine

MAX_CYCLE_LENGTH = 6
WINDOW_DAYS = 7.0
SCREEN_SINCE_DAY = 29.0        # screen transactions of the last day
HORIZON_DAYS = 30.0


def main() -> None:
    network = generate_transaction_network(
        num_accounts=300,
        num_transactions=2500,
        num_fraud_rings=3,
        ring_size=4,
        horizon_days=HORIZON_DAYS,
        fraud_window_days=2.0,
        seed=77,
    )
    print(f"Transaction network: {network.num_accounts} accounts, "
          f"{len(network.transactions)} transactions over {HORIZON_DAYS:g} days")
    print(f"Planted fraud rings: {network.fraud_rings}")

    # One *pooled* window graph covers every screened transaction: all
    # transactions from WINDOW_DAYS before the screening period up to the
    # horizon.  This is what makes the job a single batch against one graph
    # (and is how a daily screening job would pool its input); unlike
    # repro.cycles.FraudScreener, which rebuilds an exact per-transaction
    # preceding window, cycles here may involve transactions from anywhere
    # inside the pooled window.
    window_start = SCREEN_SINCE_DAY - WINDOW_DAYS
    window_graph = network.snapshot(
        start_time=window_start,
        end_time=HORIZON_DAYS,
        name="screening-window",
    )
    recent = [
        txn for txn in network.transactions
        if txn.timestamp >= SCREEN_SINCE_DAY
        and window_graph.has_edge(txn.source, txn.target)
    ]
    # Cycle through u -> v  ==  simple path v -> u of length <= L - 1.
    queries = [(txn.target, txn.source, MAX_CYCLE_LENGTH - 1) for txn in recent]

    # Rolling screening: every 6 simulated hours, re-screen the whole
    # trailing day (everything screened so far plus the newly arrived
    # transactions).  The sequential baseline recomputes each sweep cold;
    # the engine serves repeats from its cache.
    sweep_times = [SCREEN_SINCE_DAY + 0.25 * step for step in range(1, 5)]
    sweeps = [
        [q for txn, q in zip(recent, queries) if txn.timestamp <= cutoff]
        for cutoff in sweep_times
    ]

    # The demo queries are ~0.1 ms each, so a thread pool's hand-offs
    # would drown the numbers; run the executor inline.  Large workloads
    # (see benchmarks/bench_service_throughput.py) leave this at the
    # default.
    engine = SPGEngine(window_graph, cache_size=4096, executor_backend="serial")
    sequential_seconds = 0.0
    batch_seconds = 0.0
    report = None
    for sweep in sweeps:
        started = time.perf_counter()
        sequential = [build_spg(window_graph, s, t, k) for s, t, k in sweep]
        sequential_seconds += time.perf_counter() - started

        started = time.perf_counter()
        report = engine.run_batch(sweep)
        batch_seconds += time.perf_counter() - started

        assert [outcome.edges for outcome in report] == [r.edges for r in sequential]

    print(f"\nScreened {len(queries)} transactions from day "
          f"{SCREEN_SINCE_DAY:g} onwards (cycles up to {MAX_CYCLE_LENGTH} hops, "
          f"pooled window day {window_start:g}-{HORIZON_DAYS:g})")
    suspicious = [
        (txn, outcome) for txn, outcome in zip(recent, report)
        if outcome.ok and outcome.edges
    ]
    print(f"Transactions closing a short cycle: {len(suspicious)}")
    flagged: set = set()
    for txn, outcome in suspicious:
        accounts = sorted(outcome.result.vertices | {txn.source, txn.target})
        flagged.update(accounts)
        print(f"  day {txn.timestamp:5.2f}  "
              f"{txn.source:>4} -> {txn.target:<4}  "
              f"cycle-graph edges: {len(outcome.edges) + 1:3d}  "
              f"accounts: {accounts}")

    true_accounts = network.fraud_accounts()
    true_positives = len(flagged & true_accounts)
    precision = true_positives / len(flagged) if flagged else 0.0
    recall = true_positives / len(true_accounts) if true_accounts else 0.0
    print(f"\nFlagged accounts: {sorted(flagged)}")
    print(f"Precision vs planted rings: {precision:.0%}")
    print(f"Recall    vs planted rings: {recall:.0%}")

    stats = engine.stats_snapshot()
    print("\nServing-layer statistics "
          f"({len(sweeps)} rolling sweeps, {stats['queries_served']} queries total):")
    print(f"  sequential loops: {sequential_seconds * 1000:7.1f} ms")
    print(f"  engine batches  : {batch_seconds * 1000:7.1f} ms "
          f"({sequential_seconds / max(batch_seconds, 1e-9):.1f}x speedup)")
    print(f"  cache hit rate  : {stats['hit_rate']:.0%} "
          f"({stats['cache_hits']} of {stats['queries_served']} queries)")
    print(f"  shared backward passes reused: {report.reused_backward_passes} "
          f"({report.shared_groups} target groups of {report.planned_groups})")
    print(f"  latency p50/p95: {stats['p50_ms']:.2f} / {stats['p95_ms']:.2f} ms")


if __name__ == "__main__":
    main()
