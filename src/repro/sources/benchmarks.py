"""Benchmark suites: active probes of compute, network, and I/O health.

LANL runs "a suite of custom tests ... system-wide, on 10 minute
intervals across all relevant components and subsystems"; NERSC
"regularly runs a suite of custom benchmarks that exercise compute,
network, and I/O functionality, and publishes performance over time"
(Figure 2).  CSCS/KAUST/NCSA run similar suites (Section III-A).

Each benchmark computes a figure of merit from the machine's *current*
state — so injected faults (slow OST, congestion, frequency caps,
memory pressure) show up as FOM drops exactly the way real benchmark
tracking surfaces problems.  The :class:`BenchmarkSuite` collector runs
all benchmarks on its interval, publishes ``bench.fom`` /
``bench.runtime_s`` series, and emits TEST events (pass/fail against a
fraction-of-nominal threshold) for the dashboard and SEC paths.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cluster.topology import NoRouteError
from ..core.events import Event, EventKind, Severity
from ..core.metric import SeriesBatch
from ..core.soa import name_column
from .base import Collector, CollectorOutput

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = [
    "Benchmark",
    "ComputeBenchmark",
    "MemoryBenchmark",
    "NetworkBenchmark",
    "IoBenchmark",
    "MetadataBenchmark",
    "BenchmarkSuite",
    "default_suite",
]


@dataclass(frozen=True, slots=True)
class BenchResult:
    name: str
    fom: float            # higher is better
    runtime_s: float
    nominal: float

    @property
    def fraction_of_nominal(self) -> float:
        return self.fom / self.nominal if self.nominal else float("nan")


class Benchmark(abc.ABC):
    """One benchmark with a nominal (healthy-machine) figure of merit."""

    def __init__(self, name: str, nominal_fom: float,
                 nominal_runtime_s: float) -> None:
        self.name = name
        self.nominal_fom = float(nominal_fom)
        self.nominal_runtime_s = float(nominal_runtime_s)

    @abc.abstractmethod
    def efficiency(self, machine: "Machine",
                   rng: np.random.Generator) -> float:
        """Current machine efficiency for this benchmark, in (0, 1]."""

    def run(self, machine: "Machine", rng: np.random.Generator) -> BenchResult:
        eff = float(np.clip(self.efficiency(machine, rng), 1e-3, 1.0))
        noise = rng.normal(1.0, 0.01)
        fom = self.nominal_fom * eff * max(noise, 0.5)
        runtime = self.nominal_runtime_s / max(eff, 1e-3)
        return BenchResult(self.name, fom, runtime, self.nominal_fom)


class ComputeBenchmark(Benchmark):
    """DGEMM-class: sensitive to frequency caps and hung/down nodes."""

    def __init__(self, sample_nodes: int = 16) -> None:
        super().__init__("dgemm", nominal_fom=1000.0, nominal_runtime_s=120.0)
        self.sample_nodes = sample_nodes

    def efficiency(self, machine, rng):
        store = machine.nodes
        usable = np.nonzero(store.up & ~store.hung)[0]
        if len(usable) == 0:
            return 1e-3
        picks = rng.choice(
            usable, size=min(self.sample_nodes, len(usable)), replace=False
        )
        # flops scale ~ f; drawn on idle nodes so contention-free
        return float(store.pstate_frac[picks].mean())


class MemoryBenchmark(Benchmark):
    """STREAM-class: collapses when nodes run out of free memory."""

    def __init__(self, sample_nodes: int = 16) -> None:
        super().__init__("stream", nominal_fom=200.0, nominal_runtime_s=60.0)
        self.sample_nodes = sample_nodes

    def efficiency(self, machine, rng):
        store = machine.nodes
        usable = np.nonzero(store.up & ~store.hung)[0]
        if len(usable) == 0:
            return 1e-3
        picks = rng.choice(
            usable, size=min(self.sample_nodes, len(usable)), replace=False
        )
        # the benchmark needs a working set; severe memory pressure
        # (leak faults) forces it into a degraded small-array mode
        free = store.mem_free_gb[picks]
        frac_ok = float((free >= 8.0).mean())
        return max(0.05, frac_ok)


class NetworkBenchmark(Benchmark):
    """Allreduce/pingpong-class: slowed by congestion on probe paths."""

    def __init__(self, sample_pairs: int = 12) -> None:
        super().__init__("allreduce", nominal_fom=500.0,
                         nominal_runtime_s=90.0)
        self.sample_pairs = sample_pairs

    def efficiency(self, machine, rng):
        topo = machine.topo
        util = machine.network.link_util
        nodes = topo.nodes
        slowdowns = []
        for _ in range(self.sample_pairs):
            i, j = rng.choice(len(nodes), size=2, replace=False)
            try:
                route = topo.route(nodes[i], nodes[j])
            except NoRouteError:
                slowdowns.append(0.05)   # partitioned path
                continue
            worst = max((util[k] for k in route), default=0.0)
            # messages share links with production traffic
            slowdowns.append(max(0.05, 1.0 - 0.9 * worst))
        return float(np.mean(slowdowns)) if slowdowns else 1.0


class IoBenchmark(Benchmark):
    """IOR-class: reads through every OST; slow OSTs drag the stripe."""

    def __init__(self) -> None:
        super().__init__("ior_read", nominal_fom=100.0,
                         nominal_runtime_s=180.0)

    def efficiency(self, machine, rng):
        fs = machine.fs
        base = fs.base_io_latency_s
        lats = np.array(
            [fs.probe_io_latency(i) for i in range(fs.n_ost)]
        )
        # striped I/O completes when the slowest OST completes
        return float(np.clip(base / lats.max(), 0.0, 1.0))


class MetadataBenchmark(Benchmark):
    """mdtest-class: create/stat/unlink rate against the MDS."""

    def __init__(self) -> None:
        super().__init__("mdtest", nominal_fom=50.0, nominal_runtime_s=60.0)

    def efficiency(self, machine, rng):
        fs = machine.fs
        lat = np.mean([fs.probe_md_latency() for _ in range(5)])
        return float(np.clip(fs.base_md_latency_s / lat, 0.0, 1.0))


class BenchmarkSuite(Collector):
    """Periodic suite runner (LANL 10-min / NERSC tracked benchmarks)."""

    metrics = ("bench.fom", "bench.runtime_s")

    def __init__(
        self,
        benchmarks: Sequence[Benchmark] | None = None,
        interval_s: float = 600.0,
        pass_threshold: float = 0.8,
        seed: int = 0,
    ) -> None:
        super().__init__("benchmark_suite", interval_s)
        self.benchmarks = (
            list(benchmarks) if benchmarks is not None else default_suite()
        )
        self.pass_threshold = float(pass_threshold)
        self._rng = np.random.default_rng(seed)
        self.history: list[BenchResult] = []
        # both sweeps' column: a result is named after its benchmark
        self._names = name_column([b.name for b in self.benchmarks])

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        results = [b.run(machine, self._rng) for b in self.benchmarks]
        self.history.extend(results)
        out = CollectorOutput(
            batches=[
                SeriesBatch.sweep(
                    "bench.fom", now, self._names, [r.fom for r in results]
                ),
                SeriesBatch.sweep(
                    "bench.runtime_s", now, self._names,
                    [r.runtime_s for r in results],
                ),
            ]
        )
        for r in results:
            passed = r.fraction_of_nominal >= self.pass_threshold
            out.events.append(
                Event(
                    time=now,
                    component=r.name,
                    kind=EventKind.TEST,
                    severity=Severity.INFO if passed else Severity.WARNING,
                    message=(
                        f"benchmark {r.name} "
                        f"{'passed' if passed else 'DEGRADED'}: "
                        f"fom={r.fom:.1f} "
                        f"({100 * r.fraction_of_nominal:.0f}% of nominal)"
                    ),
                    fields={
                        "fom": r.fom,
                        "nominal": r.nominal,
                        "fraction": r.fraction_of_nominal,
                        "passed": passed,
                    },
                )
            )
        return out


def default_suite() -> list[Benchmark]:
    """The compute/memory/network/IO/metadata suite the sites describe."""
    return [
        ComputeBenchmark(),
        MemoryBenchmark(),
        NetworkBenchmark(),
        IoBenchmark(),
        MetadataBenchmark(),
    ]
