"""One in-process pass of a workload, traced or untraced, in one interpreter.

Run as a child of ``run.py``::

    python perfbench/inproc.py --workload cli-session --seed 1 --units 4 \
        --work DIR --out RESULT.json [--spans SPANS.csv] [--tiny]

One process runs one pass: it imports irtcalib and calls
``irtcalib.cli.main(argv)`` for each invocation of the workload's first
``--units`` units, timing each call and checking its outputs. With
``--spans`` the pass is traced. ``validate`` runs with ``--threads 1`` so
that every span stays in this process.

Tracing replaces module attributes with wrappers that record a span (name,
start, end, parent span, invocation id) per call. The package binds names
with ``from .x import y``, so each function is wrapped at every module where
it is looked up, not only where it is defined. Nothing in the package
changes. Spans stay in memory and are written out when the pass ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads

# Work counts that must repeat exactly between two traced passes with the
# same seed.
EXACT_COUNTS = (
    "eqc.evals",
    "sac.iters",
    "psychometrics.kernel_eqc.cells",
    "psychometrics.kernel_sac.cells",
    "psychometrics.kernel_study.cells",
    "items.build_pool.calls",
    "rng.stream.calls",
    "rng.child_seed.calls",
    "study.replicates",
)

# Bytes charged per kernel call, computed from array sizes (cache effects
# ignored): one float64 value per person-item cell, plus the float64 inputs
# (theta, and beta and lambda per item).
_CELL_BYTES, _PERSON_BYTES, _ITEM_BYTES = 8, 8, 16


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, invocation id]
        self.counts: defaultdict = defaultdict(float)
        self.invocation = -1
        self._stack: list = []

    def wrap(self, fn, name, work=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``work(args, kwargs, result)`` returns ``{count name: amount}`` to add.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                for key, amount in work(args, kwargs, result).items():
                    counts[key] += amount
            return result

        return traced

    def install(self, targets) -> None:
        for owner, attr, name, work in targets:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, work))


def _kernel_work(prefix):
    def work(args, kwargs, result):
        persons = int(np.size(getattr(args[0], "theta", args[0])))
        items = args[1].n_items
        return {
            f"{prefix}.cells": persons * items,
            f"{prefix}.bytes_computed": _CELL_BYTES * persons * items
            + _PERSON_BYTES * persons + _ITEM_BYTES * items,
        }

    return work


def _prob_correct_work(args, kwargs, result):
    return {"psychometrics.prob_correct.cells": int(np.size(result))}


def _eqc_work(args, kwargs, result):
    return {"eqc.evals": result.evaluations}


def _sac_work(args, kwargs, result):
    n_iter = result.config.n_iter
    return {"sac.iters": n_iter, "sac.clamps": round(result.clamp_fraction * n_iter)}


def _draws_work(args, kwargs, result):
    return {"latent.sample_latent.draws": int(result.theta.size)}


def _save_csv_work(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"cli.save_csv.bytes": os.path.getsize(path)}


def _study_work(args, kwargs, result):
    return {"study.output_bytes": sum(os.path.getsize(p) for p in result.paths.values())}


def targets():
    """(owner, attribute, span name, work counter) for every lookup site."""
    from irtcalib import cli, eqc, items, latent, rng, sac, study

    out = [
        (eqc, "test_information", "psychometrics.kernel_eqc", _kernel_work("psychometrics.kernel_eqc")),
        (sac, "reliability_summary", "psychometrics.kernel_sac", _kernel_work("psychometrics.kernel_sac")),
        (study, "test_information", "psychometrics.kernel_study", _kernel_work("psychometrics.kernel_study")),
        (study, "prob_correct", "psychometrics.prob_correct", _prob_correct_work),
        (cli, "run_validation_study", "study.run", _study_work),
        (study, "_run_group", "study.group", None),
        (study, "realized_reliability", "study.realized_reliability", None),
        (study.ResponseDataset, "save_csv", "cli.save_csv", _save_csv_work),
    ]
    out += [(m, "eqc_calibrate", "eqc.calibrate", _eqc_work) for m in (cli, study)]
    out += [(m, "sac_calibrate", "sac.calibrate", _sac_work) for m in (cli, study)]
    out += [(m, "simulate_responses", "study.simulate_responses", None) for m in (cli, study)]
    out += [(m, "build_pool", "items.build_pool", None) for m in (eqc, sac)]
    out += [(m, "sample_latent", "latent.sample_latent", _draws_work) for m in (eqc, sac, study)]
    out += [(m, "stream", "rng.stream", None) for m in (rng, eqc, sac, study, items, latent)]
    out += [(m, "child_seed", "rng.child_seed", None) for m in (rng, eqc, sac, study)]
    return out


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` from one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    replicate_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_time[i]
        if parent >= 0 and spans[parent][0] == "study.group" and name in (
                "study.simulate_responses", "study.realized_reliability"):
            replicate_s += end - start

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    for kernel in ("kernel_eqc", "kernel_sac", "kernel_study"):
        name = f"psychometrics.{kernel}"
        cells = counts[f"{name}.cells"]
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
        m[f"{name}.cells"] = (int(cells), "count")
        m[f"{name}.ns_per_cell"] = (ratio(self_s[name], cells, 1e9), "ns")
        m[f"{name}.bytes_computed"] = (int(counts[f"{name}.bytes_computed"]), "bytes")
    m["psychometrics.prob_correct.self_s"] = (self_s["psychometrics.prob_correct"], "s")
    m["psychometrics.prob_correct.cells"] = (int(counts["psychometrics.prob_correct.cells"]), "count")

    evals = counts["eqc.evals"]
    m["eqc.calibrate.calls"] = (calls["eqc.calibrate"], "count")
    m["eqc.calibrate.s"] = (total["eqc.calibrate"], "s")
    m["eqc.calibrate.self_s"] = (self_s["eqc.calibrate"], "s")
    m["eqc.evals"] = (int(evals), "count")
    m["eqc.evals_per_solve"] = (ratio(evals, calls["eqc.calibrate"]), "count")

    iters = counts["sac.iters"]
    m["sac.calibrate.calls"] = (calls["sac.calibrate"], "count")
    m["sac.calibrate.s"] = (total["sac.calibrate"], "s")
    m["sac.calibrate.self_s"] = (self_s["sac.calibrate"], "s")
    m["sac.iters"] = (int(iters), "count")
    m["sac.ms_per_iter"] = (ratio(total["sac.calibrate"], iters, 1e3), "ms")
    m["sac.clamp_frac"] = (ratio(counts["sac.clamps"], iters), "frac")

    m["items.build_pool.calls"] = (calls["items.build_pool"], "count")
    m["items.build_pool.self_s"] = (self_s["items.build_pool"], "s")
    m["items.build_pool.us_per_call"] = (ratio(total["items.build_pool"], calls["items.build_pool"], 1e6), "us")
    m["latent.sample_latent.calls"] = (calls["latent.sample_latent"], "count")
    m["latent.sample_latent.self_s"] = (self_s["latent.sample_latent"], "s")
    m["latent.sample_latent.draws"] = (int(counts["latent.sample_latent.draws"]), "count")
    for fn in ("stream", "child_seed"):
        m[f"rng.{fn}.calls"] = (calls[f"rng.{fn}"], "count")
        m[f"rng.{fn}.self_s"] = (self_s[f"rng.{fn}"], "s")

    m["study.replicates"] = (calls["study.realized_reliability"], "count")
    m["study.replicate.s"] = (replicate_s, "s")
    m["study.simulate_responses.self_s"] = (self_s["study.simulate_responses"], "s")
    m["study.realized_reliability.self_s"] = (self_s["study.realized_reliability"], "s")
    m["study.group.self_s"] = (self_s["study.group"], "s")
    m["study.run.self_s"] = (self_s["study.run"], "s")
    m["study.output_bytes"] = (int(counts["study.output_bytes"]), "bytes")

    csv_bytes = counts["cli.save_csv.bytes"]
    m["cli.save_csv.s"] = (total["cli.save_csv"], "s")
    m["cli.save_csv.bytes"] = (int(csv_bytes), "bytes")
    m["cli.save_csv.mb_per_s"] = (ratio(csv_bytes / 1e6, total["cli.save_csv"]), "MB/s")
    m["cli.main.self_s"] = (self_s["cli.main"], "s")
    m["cli.main.s"] = (total["cli.main"], "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.self_s_sum"] = (sum(self_s.values()), "s")
    return m


def run_pass(main, commands, work: Path) -> dict:
    """Run every command once through ``main``; time each call, check outputs."""
    times, failures, found = [], [], {}
    for command in commands:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = main(command.argv)
            times.append(time.perf_counter() - start)
        reason = workloads.check(work, command, code)
        if reason:
            failures.append(f"{command.kind} {' '.join(command.argv)}: {reason}")
        else:
            found.update(workloads.digests(work, command))
    return {"total_s": sum(times), "times": times, "failures": failures, "digests": found}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    from irtcalib import cli

    sizes = workloads.TINY if args.tiny else workloads.FULL
    work = Path(args.work)
    workloads.write_inputs(args.workload, work, sizes)
    os.chdir(work)
    commands = [c for i in range(args.units)
                for c in workloads.unit(args.workload, args.seed, i, sizes, threads=1)]

    if not args.spans:
        Path(args.out).write_text(json.dumps(run_pass(cli.main, commands, Path("."))) + "\n")
        return 0

    tracer = Tracer()
    traced_main = tracer.wrap(cli.main, "cli.main")

    def counted_main(argv):
        tracer.invocation += 1
        return traced_main(argv)

    tracer.install(targets())
    result = run_pass(counted_main, commands, Path("."))
    with open(args.spans, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,invocation\n")
        for name, start, end, parent, invocation in tracer.spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{invocation}\n")
    layers = layer_metrics(tracer.spans, tracer.counts)
    result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    result["counts"] = {k: layers[k][0] for k in EXACT_COUNTS}
    Path(args.out).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
