"""Slot-simulator workloads: one operation is one simulated slot."""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import statistics
from time import perf_counter

import numpy as np

from repro.core import (
    FreeRiderAllocator,
    GlobalProportionalAllocator,
    PeerwiseProportionalAllocator,
)
from repro.core.allocation import enforce_feasibility_rows
from repro.sim import BernoulliDemand, PeerConfig, Simulation, StreamingMetrics, sparse_population_sim

from probes import rate

#: Slots the sparse population's request schedule covers; a run stops
#: before it runs out, so every measured slot has requesters.
SPARSE_SCHEDULE_SLOTS = 8192
#: Peers of the subset on which the reference engine is feasible.
REFERENCE_PEERS = 128


def served_digest(result) -> str:
    """Digest of the per-peer served totals, for bit-identity across engines."""
    return hashlib.sha256(np.ascontiguousarray(result.summary["rate_sum"]).tobytes()).hexdigest()


class _SimWorkload:
    pass_slots = 32
    schedule_slots = math.inf  # slots for which the input has requesters

    def __init__(self, seed: int, spans, tmp: str):
        self.seed = seed
        self.spans = spans
        self.sim: Simulation | None = None

    def build(self, engine: str = "auto", workers: int | None = None) -> Simulation:
        raise NotImplementedError

    def setup(self) -> None:
        start = perf_counter()
        self.sim = self.build()
        self.build_s = perf_counter() - start
        self.auto_workers = len(multiprocessing.active_children())

    def exhausted(self) -> bool:
        return self.sim.t + self.pass_slots > self.schedule_slots

    def round(self):
        start = perf_counter()
        result = self.sim.run(self.pass_slots, history="none")
        elapsed = perf_counter() - start
        # Bandwidth is conserved: users receive what peers gave, and peers
        # cannot give more than their capacity.
        served = float(result.summary["rate_sum"].sum())
        capacity = float(result.summary["capacity_sum"].sum())
        ok = math.isfinite(served) and 0.0 < served <= capacity * (1 + 1e-9)
        return [elapsed / self.pass_slots * 1e3], self.pass_slots, 0 if ok else 1

    def close(self) -> None:
        if self.sim is not None:
            self.sim.close()

    def fingerprint(self) -> dict:
        return {"sim_backend": self.sim.backend, "sim_auto_workers": self.auto_workers}

    def _engine_probe(self, sim: Simulation) -> tuple[float, str]:
        """Slot time (us) of a fresh engine, the median of three passes after
        one warm-up pass, and the digests of what it served."""
        digests, us = "", []
        with sim:
            for _ in range(4):
                start = perf_counter()
                result = sim.run(self.pass_slots, history="none")
                us.append((perf_counter() - start) / self.pass_slots * 1e6)
                digests += served_digest(result)
        return statistics.median(us[1:]), digests

    def engines(self) -> dict[str, dict]:
        """``metric stem -> Simulation keywords`` for every engine feasible here."""
        wmax = max(1, min(4, len(os.sched_getaffinity(0))))
        return {
            "sim.sparse": {"engine": "sparse"},
            "sim.procs_w1": {"engine": "procs", "workers": 1},
            "sim.procs_wmax": {"engine": "procs", "workers": wmax},
        }

    def layer_metrics(self, busy, count, n_ops) -> tuple[dict[str, float], bool]:
        """Every feasible engine on this input, side by side with the one
        ``auto`` chose; identical served totals are part of correctness."""
        metrics = {
            "sim.build_s": self.build_s,
            "sim.bytes_per_peer": self.sim.memory_bytes() / self.sim.n,
            "sim.auto_workers": float(self.auto_workers),
        }
        digests = set()
        for stem, kwargs in self.engines().items():
            metrics[f"{stem}.slot_us"], digest = self._engine_probe(self.build(**kwargs))
            digests.add(digest)
        # The reference loop is O(n^2) Python: run it on the first peers
        # only, against the batched engine on the same subset.
        configs = self.sim.configs[:REFERENCE_PEERS]
        metrics["sim.reference.slot_us"], ref = self._engine_probe(
            Simulation(configs, seed=self.seed, engine="reference")
        )
        _, fast = self._engine_probe(Simulation(configs, seed=self.seed, engine="batched"))
        return metrics, len(digests) == 1 and ref == fast


class SimDense(_SimWorkload):
    """The regime of every paper figure: n=1024, Equation (2), dense credit
    matrix, every 32nd peer a free rider (the engine's slow partition)."""

    n = 1024

    def build(self, engine: str = "auto", workers: int | None = None) -> Simulation:
        configs = [
            PeerConfig(
                capacity=100.0 + (i % 32) * 25.0,
                demand=BernoulliDemand(0.5),
                allocator=FreeRiderAllocator() if i % 32 == 31 else PeerwiseProportionalAllocator(),
            )
            for i in range(self.n)
        ]
        return Simulation(configs, seed=self.seed, engine=engine, workers=workers)

    def engines(self) -> dict[str, dict]:
        return {"sim.batched": {"engine": "batched"}, **super().engines()}

    def layer_metrics(self, busy, count, n_ops):
        metrics, identical = super().layer_metrics(busy, count, n_ops)
        n = self.n
        rng = np.random.default_rng(self.seed)
        ledgers = rng.random((n, n))
        requesting = rng.random(n) < 0.5
        capacities = 100.0 + rng.random(n) * 800.0
        indices = np.arange(n)
        proposals = ledgers * 3.0
        eq2, eq3 = PeerwiseProportionalAllocator(), GlobalProportionalAllocator()
        streaming = StreamingMetrics(n, 1 << 30)
        rates_t = proposals.sum(axis=0)
        metrics.update({
            "core.eq2_rows_us": 1e6 / rate(
                lambda: eq2.allocate_rows(indices, capacities, requesting, ledgers, capacities, 0)
            ),
            "core.eq3_rows_us": 1e6 / rate(
                lambda: eq3.allocate_rows(indices, capacities, requesting, ledgers, capacities, 0)
            ),
            "core.feasibility_rows_us": 1e6 / rate(
                lambda: enforce_feasibility_rows(proposals, capacities, requesting)
            ),
            "sim.metrics_update_us": 1e6 / rate(
                lambda: streaming.update_dense(0, rates_t, requesting, capacities)
            ),
        })
        return metrics, identical


class SimSparse(_SimWorkload):
    """10^5 peers, 64 request cohorts, 16 givers: per-slot work follows the
    active set and the ledgers stay sparse."""

    pass_slots = 64  # one rotation through the cohorts
    schedule_slots = SPARSE_SCHEDULE_SLOTS

    def build(self, engine: str = "auto", workers: int | None = None) -> Simulation:
        return sparse_population_sim(
            n=100_000, cohorts=64, givers=16, slots=SPARSE_SCHEDULE_SLOTS,
            seed=self.seed, engine=engine, workers=workers,
        )
