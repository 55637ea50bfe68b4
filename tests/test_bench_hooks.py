"""The benchmark's trace hooks still find what they wrap.

perfbench's traced run wraps functions and methods of the program by
name and reports each name it cannot find as a missing hook. A rename
under ``src/`` that forgets a hook fails here, in the unit suite, rather
than only in a traced benchmark run. The workload modules are imported
as ``perfbench/run.py`` imports them, from the perfbench directory, and
are taken out of ``sys.modules`` and ``sys.path`` again afterwards.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from pathlib import Path

from iotpki import lifecycle, simulator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("provision", "relying_party", "smart_city")
# The modules perfbench/run.py imports from its own directory.
LOCAL_MODULES = ("common", "tracer", *WORKLOADS)


def _from_perfbench(module) -> bool:
    origin = getattr(module, "__file__", None)
    return origin is not None and Path(origin).resolve().parent == PERFBENCH


@contextmanager
def _perfbench_modules():
    """The tracer and workload modules, imported from the perfbench
    directory. On exit every module loaded from there is dropped, a
    same-named module imported before is put back, and sys.path is
    restored."""
    saved_path = list(sys.path)
    shadowed = {name: sys.modules.pop(name) for name in LOCAL_MODULES if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("tracer", *WORKLOADS)}
    finally:
        for name, module in list(sys.modules.items()):
            if _from_perfbench(module):
                del sys.modules[name]
        sys.modules.update(shadowed)
        sys.path[:] = saved_path


def test_every_trace_hook_is_found():
    with _perfbench_modules() as modules:
        tracer = modules["tracer"].Tracer()
        try:
            for name in WORKLOADS:
                modules[name].install(tracer)
        finally:
            tracer.close()
    assert tracer.missing == []
    # Closing the tracer put the originals back.
    assert not hasattr(simulator.run_smart_city, "__wrapped__")
    assert not hasattr(lifecycle.FleetManager.renewal_tick, "__wrapped__")
    assert not any(_from_perfbench(m) for m in list(sys.modules.values()))
    assert str(PERFBENCH) not in sys.path
