"""Suite-wide guard: no silent degradation.

Every :class:`~repro.pipeline.MonitoringPipeline` built while a test
runs (its higher-scoped fixtures included) is checked when the test
ends.  A worsening health transition or a collector error fails the
test with the transition's reason and the collector's last exception,
so a quarantined stage or a tripped breaker can never hide behind a
passing assertion.  A test that degrades a pipeline on purpose says so
with ``@pytest.mark.degrades``.
"""

import pytest

from repro.pipeline import MonitoringPipeline


@pytest.fixture(scope="session", autouse=True)
def _built_pipelines():
    """Every pipeline built since the last check, in build order."""
    built: list[MonitoringPipeline] = []
    init = MonitoringPipeline.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MonitoringPipeline, "__init__", tracking_init)
        yield built


def _degradations(p: MonitoringPipeline) -> list[str]:
    found = [tr.describe() for tr in p.supervisor.transitions
             if tr.new.code > tr.old.code]
    found += [f"collector {c.name}: {c.errors} errors, last error "
              f"{c.last_error!r}"
              for c in p.scheduler.collectors if c.errors]
    return found


@pytest.fixture(autouse=True)
def no_silent_degradation(request, _built_pipelines):
    yield
    built = list(_built_pipelines)
    _built_pipelines.clear()
    if request.node.get_closest_marker("degrades"):
        return
    found = [f"{p.site or '(anonymous)'}: {line}"
             for p in built for line in _degradations(p)]
    if found:
        pytest.fail("a monitoring pipeline degraded without the test "
                    "marking it `degrades`:\n  " + "\n  ".join(found),
                    pytrace=False)
