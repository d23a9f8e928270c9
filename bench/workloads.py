"""The four workloads: what is built, what the measured loop does, and the
oracles that decide whether the outputs were correct.

Stacks are assembled only through :mod:`repro.sites` — the seed feeds
``SiteConfig.seed`` and the request generator, and the program sees only
the built config.  Every workload is a closed loop with one client in one
process: ticks run back to back on the simulated clock, so throughput is
work completed per wall-second at the stated size.

Why each workload and size exists is recorded in ``bench/README.md`` and,
in one line each, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from repro.analysis.streaming import (
    StreamingOutlierDetector,
    StreamingRateWatch,
    StreamingStats,
)
from repro.obs.chaos import crash_and_recover
from repro.sites import Federation, SiteConfig, build_site, paper_sites
from repro.sources.counters import NodeCounterCollector
from repro.sources.sedc import SedcCollector

from harness import Ops, Requests, check_delivery, clock, dir_bytes
from trace import instrument_federation, instrument_pipeline, instrument_store

__all__ = ["WORKLOADS", "Workload"]


def _dragonfly(groups: int, chassis: int, blades: int, per_router: int):
    return dict(groups=groups, chassis_per_group=chassis,
                blades_per_chassis=blades, nodes_per_router=per_router)


_SMOKE_SHAPE = _dragonfly(1, 3, 8, 4)           # 96 nodes
#: how far back probes and federated requests look: ten simulated minutes
_LOOKBACK_S = 600.0


def _fleet_series(store):
    """The fleet metrics — one series per node or per link — and each
    one's components."""
    fleet = sorted({k.metric for k in store.keys()
                    if k.metric.startswith(("node.", "link."))})
    return fleet, {m: store.components(m) for m in fleet}


class Workload:
    """One workload: ``setup`` builds and warms the stack, ``window`` is
    the budgeted measured loop, ``after`` runs the single-shot operations
    and read probes that follow it, ``verify`` applies the oracles."""

    name = ""
    #: fewest loop units a time-boxed window may run
    at_least = 1

    def __init__(self, seed: int, smoke: bool, workdir, canary) -> None:
        self.seed = seed
        self.workdir = workdir
        self.canary = canary
        self.size = self.SMOKE if smoke else self.FULL
        self.rng = random.Random(seed)
        self.reqs = Requests(canary)
        self.pipelines: list = []
        #: single-shot operations the harness timed, seconds by metric name
        self.timed: dict[str, float] = {}
        #: other single-shot figures (counts, bytes), by metric name
        self.extra: dict[str, float] = {}
        #: set by the runner for the traced pass (re-instrument hooks)
        self.tracer = None

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def _warm(self, step, n: int) -> None:
        """``n`` set-up ticks, with canary readings between them so that
        set-up time can be host-normalised like everything else."""
        for _ in range(n):
            self.canary.maybe()
            step()

    def instrument(self, tracer) -> None:
        for p in self.pipelines:
            instrument_pipeline(tracer, p)

    def prepare(self) -> None:
        """Untimed work between set-up and the window; default none."""

    def window(self, budget, ticks) -> None:
        raise NotImplementedError

    def after(self, ticks) -> None:
        """Post-window operations; default none."""

    def verify(self, ops: Ops) -> None:
        self.reqs.verify(ops)
        for p in self.pipelines:
            check_delivery(ops, p.site or self.name, p)
        ops.fail("requests rejected by admission control",
                 sum(p.frontend.stats().rejected for p in self.pipelines))

    def close(self) -> None:
        for p in self.pipelines:
            p.executor.shutdown()
            store = p.tsdb
            for shard in getattr(store, "shards", [store]):
                if getattr(shard, "disk", None) is not None:
                    shard.disk.close()
        self.pipelines = []

    # -- shared pieces -------------------------------------------------------

    def _timed(self, name: str, layer: str, fn, *args):
        """A single-shot harness-issued operation: timed and, when the
        run is traced, spanned."""
        t0 = clock()
        if self.tracer is not None:
            out = self.tracer.run(layer, fn, *args)
        else:
            out = fn(*args)
        self.timed[name] = clock() - t0
        return out

    def _drill_and_tail(self, p, metrics, comps, now: float, n: int,
                        drill_t0: float, tail_s: float):
        """``n`` seeded-random drill-downs (60 s ``mean`` from
        ``drill_t0``) and raw tails (last ``tail_s``), as ``(kind, call,
        oracle)`` triples."""
        # oracles reach the store through the pipeline when they run:
        # crash_and_recover replaces it, and the recovered store must
        # still reproduce every answer given before the crash
        fe = p.frontend
        out = []
        for _ in range(n):
            m = self.rng.choice(metrics)
            c = self.rng.choice(comps[m])
            out.append((
                "drill",
                lambda m=m, c=c: fe.downsample(m, c, drill_t0, now, 60.0,
                                               "mean"),
                lambda m=m, c=c: p.tsdb.downsample(m, c, drill_t0, now, 60.0,
                                                   "mean", prune=False),
            ))
            out.append((
                "tail",
                lambda m=m, c=c: fe.query(m, c, now - tail_s, now),
                lambda m=m, c=c: p.tsdb.query(m, c, now - tail_s, now),
            ))
        return out

    @staticmethod
    def _aggregate(p, metric: str, comps, t0: float, now: float,
                   step: float, agg: str):
        return (
            "agg",
            lambda: p.frontend.aggregate_across(metric, comps, t0, now, step,
                                                agg),
            lambda: p.tsdb.aggregate_across(metric, comps, t0, now, step,
                                            agg),
        )

    def _wave(self, triples) -> None:
        self.reqs.begin_wave()
        for kind, call, oracle in triples:
            self.reqs.issue(kind, call, oracle)
        self.reqs.end_wave()


class Sweep27k(Workload):
    """The paper's largest synchronized whole-system sweep."""

    name = "sweep-27k"
    at_least = 10
    FULL = dict(shape=_dragonfly(72, 6, 16, 4), warm=4, wave_every=3,
                subset=1024, drills=32)
    SMOKE = dict(shape=_SMOKE_SHAPE, warm=2, wave_every=3, subset=32,
                 drills=8, units=6)
    _METRICS = (NodeCounterCollector.metrics
                + ("node.temp_c", "node.power_w", "node.energy_j"))

    def setup(self) -> None:
        # no pre-job health gate: on every job start it re-checks each of
        # the ~27,600 free nodes (~3 s) from inside machine.step, which
        # monitor time excludes by definition — it would only eat the box
        cfg = SiteConfig(**self.size["shape"], metric_interval_s=60.0,
                         tick_s=60.0, with_health_gate=False, seed=self.seed)
        # two collectors, not the full complement: see README "sizes"
        p = build_site(cfg, overrides={"collectors": [
            NodeCounterCollector(60.0), SedcCollector(60.0)]})
        p.add_streaming(StreamingStats())
        p.add_streaming(StreamingOutlierDetector(
            ("node.power_w", "node.temp_c", "node.cpu_util")))
        p.add_streaming(StreamingRateWatch("node.energy_j",
                                           max_rate_per_s=1e9))
        self._warm(p.step, self.size["warm"])
        self.pipelines = [p]

    def window(self, budget, ticks) -> None:
        p = self.pipelines[0]
        nodes = list(p.machine.nodes.names)
        comps = {m: nodes for m in self._METRICS}
        n = 0
        while budget.more(n, self.at_least):
            ticks.tick(p.step)
            n += 1
            if n % self.size["wave_every"] == 0:
                # a read probe over the unsealed heads: what a user sees
                # asking about a node, or a job's nodes, minutes after
                # collection.  It looks back ten minutes — less than any
                # window holds — so its cost does not grow with the box.
                now = p.machine.now
                t0 = now - _LOOKBACK_S
                subset = self.rng.sample(nodes, self.size["subset"])
                m = self._METRICS[n % len(self._METRICS)]
                self._wave([
                    self._aggregate(p, m, subset, t0, now, 60.0, "mean"),
                    self._aggregate(p, m, subset, t0, now, 300.0, "max"),
                    *self._drill_and_tail(p, self._METRICS, comps, now,
                                          self.size["drills"], t0, 300.0),
                ])


class DurableSeal(Workload):
    """The durable write path, then checkpoint, crash and recovery."""

    name = "durable-seal"
    FULL = dict(shape=_dragonfly(4, 3, 8, 4), warm=3, chunk=128,
                hot_bytes=512 << 10, wave_every=16, drills=128,
                tail=20, post=10, copies=256)
    SMOKE = dict(shape=_SMOKE_SHAPE, warm=2, chunk=8, hot_bytes=16 << 10,
                 wave_every=4, drills=4, tail=3, post=2, copies=16, units=1)

    def setup(self) -> None:
        cfg = SiteConfig(**self.size["shape"], metric_interval_s=60.0,
                         tick_s=60.0, transport="partitioned", shards=4,
                         chunk_size=self.size["chunk"],
                         store_dir=str(self.workdir / "store"),
                         hot_bytes=self.size["hot_bytes"], seed=self.seed)
        p = build_site(cfg)
        self._warm(p.step, self.size["warm"])
        self.pipelines = [p]

    def prepare(self) -> None:
        self._fleet, self._comps = _fleet_series(self.pipelines[0].tsdb)

    def window(self, budget, ticks) -> None:
        """Whole seal cycles: every series on the collection cadence
        seals once per ``chunk`` ticks, all in the same tick, so a window
        of whole cycles holds the same share of seal storms every run.
        Every ``wave_every`` ticks a small read wave — drill-downs over
        the last half hour, tails over the last quarter — lands beside
        the durable writes."""
        p = self.pipelines[0]
        cycles = 0
        while budget.more(cycles, self.at_least):
            for i in range(self.size["chunk"]):
                ticks.tick(p.step)
                if (i + 1) % self.size["wave_every"] == 0:
                    now = p.machine.now
                    self._wave(self._drill_and_tail(
                        p, self._fleet, self._comps, now,
                        self.size["drills"], now - 1800.0, 900.0))
            cycles += 1

    def after(self, ticks) -> None:
        p = self.pipelines[0]
        size = self.size
        self._timed("storage.snapshot_s", "storage.snapshot",
                    p.tsdb.snapshot)
        for _ in range(size["tail"]):      # a WAL tail past the manifest
            ticks.tick(p.step)

        keys = self.rng.sample(p.tsdb.keys(), size["copies"])
        self._t_crash = p.machine.now
        self._copies = {
            (k.metric, k.component): p.tsdb.query(k.metric, k.component)
            for k in keys
        }
        stored_before = p.ledger.stored_total()
        moved, report = self._timed("storage.recover_s", "storage.recover",
                                    crash_and_recover, p)
        self.extra["storage.crash_unsynced_points"] = float(moved)
        self._recovered = (report.points, moved, stored_before)
        if self.tracer is not None:
            # recovery swapped pipeline.tsdb for a rebuilt store
            instrument_store(self.tracer, p.tsdb)
        for _ in range(size["post"]):
            ticks.tick(p.step)
        p.bus.flush()
        p.tsdb.flush()

        # read the copied series back through the serving plane: the two
        # hours before the crash (one to two spilled chunks plus the
        # replayed head), whatever the window's length was
        fe, now = p.frontend, p.machine.now
        for m, c in self._copies:
            self.reqs.issue(
                "readback",
                lambda: fe.query(m, c, self._t_crash - 7200.0, now))
        self.extra["storage.disk_bytes_per_point"] = (
            dir_bytes(self.workdir / "store") / p.tsdb.stats().samples)

    def verify(self, ops: Ops) -> None:
        super().verify(ops)
        points, moved, stored_before = self._recovered
        ops.check(points + moved == stored_before,
                  f"recovered {points} + crash-unsynced {moved} != stored "
                  f"before the crash {stored_before}")
        store = self.pipelines[0].tsdb
        for (m, c), copy in self._copies.items():
            got = store.query(m, c, -np.inf, self._t_crash + 1e-6)
            n = len(got)
            ops.check(
                n <= len(copy)
                and np.array_equal(got.times, copy.times[:n])
                and np.array_equal(got.values, copy.values[:n],
                                   equal_nan=True),
                f"recovered series {m}@{c} is not a bit-equal prefix of "
                "its pre-crash copy")


class DashWave(Workload):
    """The read path, with a write landing between dashboard waves."""

    name = "dash-wave"
    at_least = 5
    FULL = dict(shape=_dragonfly(7, 3, 8, 4), chunk=128, hot_bytes=512 << 10,
                history=300, drills=32)
    SMOKE = dict(shape=_SMOKE_SHAPE, chunk=8, hot_bytes=16 << 10,
                 history=16, drills=8, units=3)
    _AGG_METRICS = ("node.power_w", "node.cpu_util")

    def setup(self) -> None:
        cfg = SiteConfig(**self.size["shape"], metric_interval_s=60.0,
                         tick_s=60.0, transport="flat", shards=4,
                         chunk_size=self.size["chunk"],
                         store_dir=str(self.workdir / "store"),
                         hot_bytes=self.size["hot_bytes"], seed=self.seed)
        p = build_site(cfg)
        self._warm(p.step, self.size["history"])
        self.pipelines = [p]

    def prepare(self) -> None:
        p = self.pipelines[0]
        # the fleet metrics' sealed history decodes to more than the
        # 32 MiB chunk cache holds, so cycling the cold sweep over them
        # defeats its LRU
        self._fleet, self._comps = _fleet_series(p.tsdb)
        self._render = p.dashboard().render
        if self.tracer is not None:
            self._render = self.tracer.traced(self._render, "viz.render")

    def window(self, budget, ticks) -> None:
        p = self.pipelines[0]
        fe, store = p.frontend, p.tsdb
        fleet, render = self._fleet, self._render
        node_metrics = [m for m in fleet if m.startswith("node.")]
        rounds = 0
        while budget.more(rounds, self.at_least):
            ticks.tick(p.step)
            now = p.machine.now
            m = self._AGG_METRICS[rounds % 2]
            reads = [
                self._aggregate(p, m, None, now - 3600.0, now, 60.0, "mean"),
                self._aggregate(p, m, None, 0.0, now, 600.0, "max"),
                *self._drill_and_tail(p, node_metrics, self._comps, now,
                                      self.size["drills"], 0.0, 900.0),
            ]
            cold = fleet[rounds % len(fleet)]
            self._wave([
                ("render", lambda: render(now), None),
                *reads,
                # aggregates and drill-downs again, unchanged: result-cache
                # hits, revalidated against the epoch the tick just moved
                *(("cached", call, oracle) for kind, call, oracle in reads
                  if kind != "tail"),
                ("cold",
                 lambda m=cold, now=now: fe.query_components(
                     m, None, 0.0, now),
                 lambda m=cold, now=now: store.query_components(
                     m, None, 0.0, now)),
            ])
            rounds += 1


class Fed10Site(Workload):
    """Ten small heterogeneous stacks on one clock: everything is paid
    per batch and per tick, not per point."""

    name = "fed-10site"
    at_least = 60
    FULL = dict(warm=120, wave_every=40)
    SMOKE = dict(warm=6, wave_every=12, units=24)
    _METRICS = ("node.power_w", "node.cpu_util", "node.temp_c")

    def __init__(self, seed, smoke, workdir, canary) -> None:
        super().__init__(seed, smoke, workdir, canary)
        self.fed = None
        self._asked: list[tuple] = []    # every federated request issued

    def setup(self) -> None:
        self.fed = Federation([
            dataclasses.replace(c, seed=c.seed + self.seed)
            for c in paper_sites()
        ])
        # ten simulated minutes: the look-back of every federated request,
        # so request cost does not grow with how far the time box gets
        self._warm(self.fed.step, self.size["warm"])
        self.pipelines = list(self.fed.pipelines.values())

    def instrument(self, tracer) -> None:
        instrument_federation(tracer, self.fed)

    def window(self, budget, ticks) -> None:
        fed = self.fed
        ask = fed.frontend().aggregate_across
        steps = 0
        while budget.more(steps, self.at_least):
            ticks.tick(fed.step)
            steps += 1
            if steps % self.size["wave_every"] == 0:
                now = fed.now
                t0 = now - _LOOKBACK_S
                wave = []
                for m in self._METRICS:
                    for step, agg in ((60.0, "mean"), (300.0, "max")):
                        self._asked.append((m, t0, now, step))
                        wave.append((
                            "fed",
                            lambda m=m, step=step, agg=agg: ask(
                                m, None, t0, now, step, agg),
                            None,
                        ))
                self._wave(wave)

    def verify(self, ops: Ops) -> None:
        """Federated ``max`` and ``count`` must equal the fold of the
        per-site front ends' own answers, bucket by bucket."""
        super().verify(ops)
        ask = self.fed.frontend().aggregate_across
        for m, t0, t1, step in self._asked[::10]:
            for agg, fold in (("max", max), ("count", float.__add__)):
                got = ask(m, None, t0, t1, step, agg)
                want: dict[float, float] = {}
                for p in self.pipelines:
                    b = p.frontend.aggregate_across(m, None, t0, t1, step,
                                                    agg)
                    for t, v in zip(b.times.tolist(), b.values.tolist()):
                        want[t] = fold(want[t], v) if t in want else v
                ops.check(
                    dict(zip(got.times.tolist(), got.values.tolist()))
                    == want,
                    f"federated {agg} of {m} differs from the per-site fold")
        ops.check(self.fed.balanced(), "a site's delivery ledger is off")

    def close(self) -> None:
        super().close()
        if self.fed is not None:
            self.fed.shutdown()


WORKLOADS = {w.name: w for w in (Sweep27k, DurableSeal, DashWave, Fed10Site)}
