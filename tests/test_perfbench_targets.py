"""The benchmark's tracer finds every name it wraps.

perfbench wraps module attributes by name (``inproc.targets()``). A rename or
deletion in the package breaks ``--trace 1`` runs, which sit outside the test
paths. This checks only that each ``(owner, attribute)`` is bound to a
callable, not that the benchmark's commands still reach it.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inproc

    targets = inproc.targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
