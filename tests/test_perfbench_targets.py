"""The benchmark's tracer finds every name it wraps, and its commands reach them.

perfbench wraps module attributes by name (``inproc.targets()``). A rename or
deletion in the package breaks ``--trace 1`` runs, which sit outside the test
paths; so does a call path that stops going through a wrapped name, which
leaves that layer's counts at zero.
"""

from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Names whose per-layer metrics are read off a traced pass.
KERNELS_AND_REPLICATES = ("psychometrics.kernel_eqc", "psychometrics.kernel_sac",
                          "psychometrics.kernel_study", "study.realized_reliability")


def test_every_tracer_target_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inproc

    targets = inproc.targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_tiny_workloads_reach_the_kernels_and_the_replicates(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inproc
    import workloads

    from irtcalib import cli

    calls = Counter()

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, name, _ in inproc.targets():
        monkeypatch.setattr(owner, attr, counting(getattr(owner, attr), name))
    monkeypatch.chdir(tmp_path)
    kinds = []
    for workload in ("cli-session", "calibrate-sac", "validate-desk"):
        workloads.write_inputs(workload, tmp_path, workloads.TINY)
        for command in workloads.unit(workload, 1, 0, workloads.TINY, threads=1):
            kinds.append(command.kind)
            assert cli.main(command.argv) == 0, command.argv
            assert workloads.check(tmp_path, command, 0) is None
    assert set(kinds) == {"calibrate_eqc", "generate", "calibrate_sac", "validate"}
    for name in KERNELS_AND_REPLICATES:
        assert calls[name] > 0, name
