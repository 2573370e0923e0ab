"""The benchmark's tracer wraps entrolab functions by name; each must exist."""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import _MODULES, TARGETS, Tracer

    originals = {(m, f): getattr(_MODULES[m], f) for m, f, _ in TARGETS}
    tracer = Tracer()
    try:
        tracer.install()
        for (m, f), original in originals.items():
            assert getattr(_MODULES[m], f) is not original
    finally:
        tracer.uninstall()
    for (m, f), original in originals.items():
        assert getattr(_MODULES[m], f) is original
