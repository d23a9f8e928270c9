#!/usr/bin/env python
"""CSC + NERSC story: queue monitoring, wait-time estimates, blockage.

Reproduces two related methodologies:

* CSC (Section II-4): queue-length monitoring "to provide users a
  realistic view into the expected wait time for the currently
  submitted workload";
* NERSC (Section II-3): backlog monitoring where "large or sudden
  changes in outstanding demand" indicate trouble.  An injected
  scheduler blockage is caught three ways here, illustrating why sites
  layer detectors: the SEC rule on the scheduler's own log line fires
  instantly; the user-facing wait estimate climbs steadily through the
  window; and the backlog characterizer flags the abrupt drain when
  launches resume (the "sudden change" signature — the slow fill itself
  is deliberately gentle at this arrival rate).

Run:  python examples/site_csc_queue.py
"""


from repro import SiteConfig, build_site
from repro.analysis.queueing import characterize, estimate_wait
from repro.cluster import (
    JobGenerator,
    Machine,
    PackedPlacement,
    QueueBlockage,
    build_dragonfly,
)
from repro.viz.render import ascii_chart

BLOCK_START, BLOCK_END = 3600.0, 6000.0


def main() -> None:
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=450,
                                   max_nodes=16, seed=6),
        seed=19,
    )
    machine.faults.add(
        QueueBlockage(start=BLOCK_START, duration=BLOCK_END - BLOCK_START)
    )

    pipeline = build_site(SiteConfig(seed=3), machine=machine)
    pipeline.run(hours=2.5, dt=10.0)

    backlog = pipeline.tsdb.query("queue.backlog_nodeh", "scheduler")
    print(ascii_chart({"backlog node-h": backlog}, height=8,
                      title="queue backlog over the run "
                            f"(blockage [{BLOCK_START:.0f}, "
                            f"{BLOCK_END:.0f}))"))

    # -- detector 1: the SEC rule on the scheduler's log line ----------------
    queue_alerts = [a for a in pipeline.alerts.alerts
                    if a.rule == "queue_blocked"]
    assert queue_alerts, "SEC must alert on the suspension log line"
    print(f"\n[SEC]   t={queue_alerts[0].time:.0f}s: "
          f"{queue_alerts[0].message[:60]}")

    # -- detector 2: the CSC user-facing wait estimate climbs ----------------
    print("\n[CSC]   expected wait for a newly submitted job:")
    waits = {}
    for label, t in (("before", BLOCK_START - 300),
                     ("during", BLOCK_END - 300),
                     ("after drain", machine.now - 300)):
        b = backlog.in_window(t - 90, t + 90)
        if not len(b):
            continue
        waits[label] = estimate_wait(float(b.values[-1]), len(topo.nodes))
        print(f"    {label:12} (t={t:5.0f}s): backlog "
              f"{b.values[-1]:6.1f} node-h -> wait "
              f"{waits[label] / 60:5.1f} min")
    assert waits["during"] > 3 * waits["before"], \
        "the blockage must visibly inflate the wait estimate"

    # -- detector 3: the backlog characterizer flags the sudden drain --------
    episodes = characterize(backlog)
    drains = [ep for ep in episodes
              if ep.label == "draining" and abs(ep.slope) * 3600 > 500]
    print("\n[NERSC] abrupt backlog changes:")
    for ep in drains:
        print(f"    [{ep.t_start:6.0f}, {ep.t_end:6.0f}) {ep.label} "
              f"slope {ep.slope * 3600:+.0f} node-h/h")
    assert any(
        BLOCK_END - 120 <= ep.t_start <= BLOCK_END + 600 for ep in drains
    ), "the post-blockage drain must register as a sudden change"

    print("\nall three detection paths caught the episode.")


if __name__ == "__main__":
    main()
