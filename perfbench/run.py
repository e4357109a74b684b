"""End-to-end and per-layer benchmark of the irtcalib command line.

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed)::

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for the exact argv):

* ``cli-session``   -- fresh-process EQC ``calibrate`` then ``generate --n 100000``.
  Import and the response CSV writer dominate; the EQC kernel is small.
* ``calibrate-sac`` -- fresh-process full-effort SAC ``calibrate``. Pool
  rebuilds, the small-batch kernel and latent draws dominate; no writer, no
  study.
* ``validate-desk`` -- one ``validate --threads 2`` of the 144-condition desk
  study. Import is amortised; EQC and SAC calibrations and the replicate loop
  dominate.

Load model: a closed loop with one client. One CLI child runs at a time, each
a fresh interpreter with OpenBLAS/OpenMP/MKL capped at one thread; validate
uses two worker processes. Units of work repeat until ``--seconds`` have
passed; the second unit repeats the first with identical argv, and every
output file of the two must have the same sha256 (the digests are recorded in
the result file).

``--trace 0`` prints the end-to-end metrics, measured with tracing off. The
host's speed drifts by tens of percent within minutes on a shared machine, so
each child's wall time is scaled to a fixed host speed measured by two
reference tasks (see ``ScaledRunner``). The metrics in the JSON line are
scaled times; raw wall times are printed beside them and recorded in the
result file.

* ``setup_s``      median time of a fresh ``python -m irtcalib --version``
                   (interpreter, package import and parser), over several runs.
* ``op_s.p50``     median time of one unit: a calibrate+generate pair on
                   cli-session, a Rasch and a 2PL SAC calibrate on calibrate-sac,
                   the desk study on validate-desk.
* ``op_s.tail``    the highest of p99/p95/p90/p75/p50 with at least ten samples
                   beyond it; with fewer than twenty samples, the largest. The
                   percentile and the sample count are printed with it.
* ``peak_rss_mb``  the largest max-RSS of any CLI child in the run, validate
                   workers included.

It also prints, per command kind and both scaled and raw, ``calibrate_eqc_s``,
``generate_s``, ``calibrate_sac_s`` and ``validate_s`` (p50 and tail), and
``fail_frac``, the failed share of the attempted operations.

``--trace 1`` runs the same argv sequence in one interpreter through
``irtcalib.cli.main`` (see ``inproc.py``) and prints per-layer metrics: self
times, call counts and work counts per module of ``src/irtcalib``, the
``-X importtime`` breakdown of ``import irtcalib``, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results (samples,
digests, environment, every layer metric) go to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import workloads

THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)  # before anything here imports numpy

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

VALIDATE_THREADS = 2
SETUP_REPEATS = 3
# Typical times of the two speed references (see ScaledRunner) on a shared
# 2-vCPU Intel Xeon virtual machine (Python 3.11, numpy 2.4, OpenBLAS 0.3.31):
# scaled times are wall times at that speed.
REFERENCE_S = 0.3
PROBE_S = 0.0048
LONG_CHILD_S = 10.0
IMPORTTIME_REPEATS = 3
TRACE_UNITS = {"cli-session": 4, "calibrate-sac": 2, "validate-desk": 1}
DEADLINE_S = 175

# Layer metrics printed in the JSON line. The traced run measures more (see
# the result file); times of layers that some workload never calls are left
# out here, so that every time listed is measured on every workload.
PER_LAYER = (
    "init.import_s",
    "init.import_scipy_s",
    "psychometrics.kernel_eqc.calls",
    "psychometrics.kernel_eqc.self_s",
    "psychometrics.kernel_eqc.cells",
    "psychometrics.kernel_eqc.ns_per_cell",
    "psychometrics.kernel_eqc.bytes_computed",
    "psychometrics.kernel_sac.calls",
    "psychometrics.kernel_sac.cells",
    "psychometrics.kernel_sac.bytes_computed",
    "psychometrics.kernel_study.calls",
    "psychometrics.kernel_study.cells",
    "psychometrics.kernel_study.bytes_computed",
    "psychometrics.prob_correct.cells",
    "eqc.calibrate.calls",
    "eqc.calibrate.s",
    "eqc.evals",
    "eqc.evals_per_solve",
    "sac.calibrate.calls",
    "sac.iters",
    "sac.clamp_frac",
    "items.build_pool.calls",
    "items.build_pool.self_s",
    "items.build_pool.us_per_call",
    "latent.sample_latent.calls",
    "latent.sample_latent.self_s",
    "latent.sample_latent.draws",
    "rng.stream.calls",
    "rng.stream.self_s",
    "rng.child_seed.calls",
    "rng.child_seed.self_s",
    "study.replicates",
    "study.output_bytes",
    "cli.save_csv.bytes",
    "cli.main.self_s",
    "trace.overhead_frac",
)


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"benchmark did not finish within {DEADLINE_S} s")


def run_child(args, cwd: Path, env: dict, log) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB).

    The max RSS covers the child and every descendant it waited for, so it
    includes validate's worker processes.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=log, stderr=log, start_new_session=True)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, n) as defined for ``op_s.tail``."""
    xs = sorted(values)
    n = len(xs)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return xs[math.ceil(n * p / 100) - 1], p, n
    return xs[-1], 100, n


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "thread_caps": THREAD_CAPS,
        "validate_threads": VALIDATE_THREADS,
        "seed": seed,
    }


class ScaledRunner:
    """Runs CLI children one at a time and scales their wall times to a fixed host speed.

    On a shared machine the host's speed drifts by tens of percent within
    minutes. Two references track it, and each child's wall time is also
    reported scaled to the references' nominal speed:

    * A fixed fresh-process task (``reference.py``) runs before every child
      and once at the end. A short child is scaled by ``REFERENCE_S`` over
      the median time of the six reference runs nearest to it, three on
      either side. Short commands spend much of their time starting up, and
      the reference process slows down with them.
    * A thread in this process times a fixed numpy computation (CPU time)
      every quarter second. A child that runs ``LONG_CHILD_S`` or longer is
      scaled by ``PROBE_S`` over the median probe time while it ran: the
      reference runs around it miss most of its duration, and its time goes
      to steady computation in long-lived processes, which the probe tracks.
    """

    def __init__(self, work: Path, env: dict, log):
        self.work, self.env, self.log = work, env, log
        self.refs, self.spans = [], []
        self.peak_kb = 0
        self.probe = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        import numpy as np
        x = np.random.default_rng(0).random(1_000_000)
        while not self._stop.is_set():
            t0 = time.thread_time()
            np.exp(x).sum()
            np.sort(x[:200_000])
            self.probe.append((time.perf_counter(), time.thread_time() - t0))
            self._stop.wait(0.25)

    def run(self, argv) -> tuple[int, int]:
        """Run ``python -m irtcalib *argv``: (sample index, exit code)."""
        self.refs.append(run_child([sys.executable, str(HERE / "reference.py")], self.work, self.env, self.log)[0])
        start = time.perf_counter()
        elapsed, code, rss = run_child([sys.executable, "-m", "irtcalib", *argv], self.work, self.env, self.log)
        self.spans.append((start, start + elapsed))
        self.peak_kb = max(self.peak_kb, rss)
        return len(self.spans) - 1, code

    @property
    def raw(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def scaled(self) -> list[float]:
        self.refs.append(run_child([sys.executable, str(HERE / "reference.py")], self.work, self.env, self.log)[0])
        self._stop.set()
        self._thread.join()
        scaled = []
        for i, (raw, (start, end)) in enumerate(zip(self.raw, self.spans)):
            during = [cpu for t, cpu in self.probe if start <= t <= end]
            if raw >= LONG_CHILD_S and during:
                scaled.append(raw * PROBE_S / statistics.median(during))
            else:
                nearby = self.refs[max(0, i - 2):i + 4]
                scaled.append(raw * REFERENCE_S / statistics.median(nearby))
        return scaled


def timed_run(workload, seed, seconds, sizes, setup_repeats, work, env, log) -> dict:
    """The ``--trace 0`` run: fresh CLI children in a closed loop."""
    runner = ScaledRunner(work, env, log)
    failures = []
    setup = []
    for _ in range(setup_repeats):
        index, code = runner.run(["--version"])
        setup.append(index)
        if code != 0:
            failures.append(f"--version: exit code {code}")

    units = []  # [(kind, sample index)] per timed unit

    def run_unit(commands, timed=True) -> dict:
        found, unit = {}, []
        for command in commands:
            index, code = runner.run(command.argv)
            unit.append((command.kind, index))
            reason = workloads.check(work, command, code)
            if reason:
                failures.append(f"{command.kind} {' '.join(command.argv)}: {reason}")
            else:
                found.update(workloads.digests(work, command))
        for csv in work.glob("gen-*.csv"):
            csv.unlink()
        if timed:
            units.append(unit)
        return found

    start = time.perf_counter()
    identity = workloads.identity_unit(workload, seed, VALIDATE_THREADS)
    repeated = identity or workloads.unit(workload, seed, 0, sizes, VALIDATE_THREADS)
    first, repeat = (run_unit(repeated, timed=identity is None) for _ in range(2))
    changed = sorted(name for name in first.keys() & repeat.keys() if first[name] != repeat[name])
    failures += [f"byte identity: {name} differs between identical invocations" for name in changed]
    index = 0 if identity else 1
    while not units or time.perf_counter() - start < seconds:
        run_unit(workloads.unit(workload, seed, index, sizes, VALIDATE_THREADS))
        index += 1

    scaled = runner.scaled()
    summary = {}
    for label, times in (("scaled", scaled), ("wall", runner.raw)):
        ops = [sum(times[i] for _, i in unit) for unit in units]
        by_kind = defaultdict(list)
        for unit in units:
            for kind, i in unit:
                by_kind[kind].append(times[i])
        summary[label] = {
            "setup_s": [times[i] for i in setup],
            "op_s": ops,
            **{f"{kind}_s": xs for kind, xs in by_kind.items()},
        }
    scaled_ops = summary["scaled"]["op_s"]
    metrics = {
        "setup_s": (statistics.median(summary["scaled"]["setup_s"]), "s"),
        "op_s.p50": (statistics.median(scaled_ops), "s"),
        "op_s.tail": (tail(scaled_ops)[0], "s"),
        "peak_rss_mb": (runner.peak_kb / 1024, "MB"),
    }
    return {
        "metrics": metrics,
        "samples": summary,
        "reference_s": runner.refs,
        "probe": runner.probe,
        "spans": runner.spans,
        "digests": first,
        "attempted": len(runner.spans),
        "failures": failures,
    }


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)")


def import_breakdown(env, work, log) -> dict:
    """``python -X importtime -c 'import irtcalib'``: totals and the largest packages."""
    totals, scipy_s, by_package, failures = [], [], [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import irtcalib"],
                              cwd=work, env=env, stdout=log, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            failures.append(f"import irtcalib: exit code {proc.returncode}")
            continue
        own = defaultdict(float)
        total = 0.0
        for self_us, cumulative_us, module in _IMPORTTIME.findall(proc.stderr):
            own[module.split(".")[0]] += int(self_us) / 1e6
            if module == "irtcalib":
                total = int(cumulative_us) / 1e6
        totals.append(total)
        scipy_s.append(own["scipy"])
        by_package.append(dict(sorted(own.items(), key=lambda kv: -kv[1])[:8]))
    if not totals:
        return {"failures": failures}
    middle = totals.index(statistics.median_low(totals))
    return {
        "import_s": statistics.median(totals),
        "import_scipy_s": statistics.median(scipy_s),
        "self_s_by_package": by_package[middle],
        "failures": failures,
    }


def run_concurrently(arg_lists, cwd: Path, env: dict, log) -> list[int]:
    """Run children side by side and wait for all of them; return their exit codes."""
    procs = []
    try:
        for args in arg_lists:
            procs.append(subprocess.Popen(args, cwd=cwd, env=env, stdout=log, stderr=log,
                                          start_new_session=True))
        return [proc.wait() for proc in procs]
    except BaseException:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        raise


def traced_run(workload, seed, sizes, tiny, work, env, log) -> dict:
    """The ``--trace 1`` run: import breakdown, then three in-process passes.

    The first traced pass runs beside the untraced pass, one core each, so
    both see the same contention and their ratio is the tracing overhead. The
    second traced pass runs alone; the layer metrics come from it, and its
    work counts must equal the first traced pass's.
    """
    imports = import_breakdown(env, work, log)
    failures = list(imports["failures"])
    results = OUT / "results"

    def inproc(name, traced):
        (work / name).mkdir()
        args = [sys.executable, str(HERE / "inproc.py"), "--workload", workload, "--seed", str(seed),
                "--units", str(1 if tiny else TRACE_UNITS[workload]), "--work", str(work / name),
                "--out", str(results / f"{workload}-{name}.json")]
        if traced:
            args += ["--spans", str(results / f"{workload}-{name}-spans.csv")]
        return args + (["--tiny"] if tiny else [])

    codes = run_concurrently([inproc("traced1", True), inproc("untraced", False)], work, env, log)
    codes += run_concurrently([inproc("traced2", True)], work, env, log)
    if any(codes):
        raise RuntimeError(f"in-process runner exit codes {codes}; see {log.name}")
    passes = {name: json.loads((results / f"{workload}-{name}.json").read_text())
              for name in ("traced1", "untraced", "traced2")}
    for name, p in passes.items():
        failures += [f"{name}: {reason}" for reason in p["failures"]]
    first, second = passes["traced1"], passes["traced2"]
    failures += [f"count {k} differs between two traced passes: {first['counts'][k]} vs {second['counts'][k]}"
                 for k in first["counts"] if first["counts"][k] != second["counts"][k]]
    digests = [p["digests"] for p in passes.values()]
    failures += [f"byte identity: {name} differs between in-process passes"
                 for name in sorted(set().union(*digests)) if len({d.get(name) for d in digests}) > 1]

    layers = {k: (v["value"], v["unit"]) for k, v in second["layers"].items()}
    if "import_s" in imports:
        layers["init.import_s"] = (imports["import_s"], "s")
        layers["init.import_scipy_s"] = (imports["import_scipy_s"], "s")
    layers["trace.overhead_frac"] = (first["total_s"] / passes["untraced"]["total_s"] - 1.0, "frac")
    return {
        "layers": layers,
        "metrics": {k: layers[k] for k in PER_LAYER if k in layers},
        "imports": imports,
        "passes": {name: {k: p[k] for k in ("total_s", "times")} for name, p in passes.items()},
        "counts": [first["counts"], second["counts"]],
        "digests": second["digests"],
        "attempted": IMPORTTIME_REPEATS + sum(len(p["times"]) for p in passes.values()),
        "failures": failures,
    }


def report_timed(result) -> None:
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} {value:.6g} {unit}")
    probe = [cpu for _, cpu in result["probe"]]
    print(f"  speed references: reference task median {statistics.median(result['reference_s']):.4f} s "
          f"(nominal {REFERENCE_S} s), probe median {statistics.median(probe):.5f} s "
          f"(nominal {PROBE_S} s)")
    for label, samples in result["samples"].items():
        for name, xs in samples.items():
            value, pct, n = tail(xs)
            print(f"  {label} {name}.p50 {statistics.median(xs):.4f} s   {name}.tail {value:.4f} s "
                  f"(p{pct} of n={n})")


def report_traced(result) -> None:
    passes = result["passes"]
    print("  in-process totals: " + ", ".join(f"{name} {p['total_s']:.3f} s" for name, p in passes.items()))
    layers = result["layers"]
    print(f"  sum of layer self times {layers['trace.self_s_sum'][0]:.3f} s = traced2 total "
          f"{layers['cli.main.s'][0]:.3f} s; overhead (traced1 vs untraced, run side by side) "
          f"{layers['trace.overhead_frac'][0]:+.4f}")
    imports = result["imports"]
    if "self_s_by_package" in imports:
        print("  import irtcalib, self time by package (-X importtime): " + ", ".join(
            f"{k} {v:.3f} s" for k, v in imports["self_s_by_package"].items()))
    for name, (value, unit) in layers.items():
        print(f"  {name} {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="irtcalib CLI benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny problem sizes, for the smoke test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "irtcalib" / "__init__.py").is_file():
        print(f"error: no irtcalib sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    sizes = workloads.TINY if args.tiny else workloads.FULL
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "results").mkdir(exist_ok=True)
    workloads.write_inputs(args.workload, work, sizes)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "TMPDIR": str(work)}

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / "results" / f"{tag}.log", "w") as log:
        # Installed users do not pay bytecode compilation on every run.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                       env=env, stdout=log, stderr=log, check=True)
        header = environment(args.seed)
        if args.trace:
            result = traced_run(args.workload, args.seed, sizes, args.tiny, work, env, log)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, sizes,
                               1 if args.tiny else SETUP_REPEATS, work, env, log)
    signal.alarm(0)

    failed = len(result["failures"])
    result.update(workload=args.workload, environment=header,
                  fail_frac=failed / result["attempted"])
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")

    print("# " + ", ".join(f"{k}={v}" for k, v in header.items()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    (report_traced if args.trace else report_timed)(result)
    print(f"  fail_frac {result['fail_frac']:.4g} ({failed} of {result['attempted']} operations)")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
