"""Benchmark of diraclab: three workloads, end-to-end and per-layer metrics.

    python3 diracbench/run.py --workload weak-residual --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; diraclab is imported from its
`src/`.  With `--trace 0` the chosen workload runs in whole rounds until
`--seconds` have passed, and the last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and the end-to-end metrics
setup_s, wall_s and peak_rss_mb.  With `--trace 1` one round of every
workload runs with spans recorded, the layer probes follow, the per-layer
metrics are printed the same way, and the spans are written to
`.diracbench/trace-<workload>-<seed>.json`.  The exit status is 0 when
every result passed its check, 1 otherwise, 2 when there is nothing to
measure.  README.md describes the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy loads: with two, idle OpenBLAS
# threads spin on the second core and make user time and wall time noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from probes import PER_LAYER, WRAPPED, layer_metrics  # noqa: E402
from tracing import Tracer, peak_rss_mb  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".diracbench"
MODULES = ("algebra", "mobius", "fields", "weakform", "cr2d", "sphere", "solver", "cli")
SETUP_FIRST = 3
SETUP_GAP = 2.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _lab_modules():
    return [m for m in sys.modules if m == "diraclab" or m.startswith("diraclab.")]


def load_lab():
    """Import diraclab afresh from the checkout's src/ and return its
    modules.  Earlier imports are dropped first, so each call pays the
    whole import again."""
    for name in _lab_modules():
        del sys.modules[name]
    lab = SimpleNamespace(**{m: importlib.import_module(f"diraclab.{m}") for m in MODULES})
    origin = Path(sys.modules["diraclab"].__file__).resolve().parent
    if origin != SRC / "diraclab":
        raise SystemExit(f"diracbench: imported diraclab from {origin}, not {SRC}")
    return lab


def set_up(names, seed, workdir):
    lab = load_lab()
    return lab, {name: WORKLOADS[name][0](lab, seed, workdir) for name in names}


class SetupClock:
    """Times complete set-ups (fresh import plus inputs) spread over the
    whole run: a few before the first call, then one after any call that
    ends SETUP_GAP seconds or more after the previous sample.  The speed of
    the shared machine drifts over tens of seconds; samples taken across
    the run let the median see that drift instead of one moment of it.

    The first set-up is the one the workload uses.  Later samples import
    diraclab again and then put the live modules back into sys.modules,
    so the calls keep running on one consistent set of modules."""

    def __init__(self, names, seed, workdir):
        self.args = (names, seed, workdir)
        start = time.perf_counter()
        self.lab, self.inputs = set_up(*self.args)
        self.last = time.perf_counter()
        self.times = [self.last - start]
        for _ in range(SETUP_FIRST - 1):
            self.sample()

    def sample(self):
        live = {name: sys.modules[name] for name in _lab_modules()}
        start = time.perf_counter()
        set_up(*self.args)
        self.last = time.perf_counter()
        self.times.append(self.last - start)
        for name in _lab_modules():
            del sys.modules[name]
        sys.modules.update(live)
        gc.collect()  # free the discarded modules here, not inside a timed call

    def after_op(self):
        if time.perf_counter() - self.last >= SETUP_GAP:
            self.sample()

    def median(self):
        return statistics.median(self.times)


def measure(workload, seed, seconds, workdir):
    clock = SetupClock([workload], seed, workdir)
    run = WORKLOADS[workload][1]
    tracer = Tracer(enabled=False)
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rnd = Round(tracer, after_op=clock.after_op)
        run(clock.lab, clock.inputs[workload], rnd)
        rounds.append(rnd)
    metrics = {
        "setup_s": clock.median(),
        "wall_s": statistics.median(r.elapsed for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    return rounds, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def measure_traced(workload, seed, workdir):
    """One traced round of every workload, the chosen one first, then the
    layer probes; per-layer metrics need all three."""
    names = [workload] + [w for w in WORKLOADS if w != workload]
    lab, inputs = set_up(names, seed, workdir)
    tracer = Tracer(enabled=True)
    undo = [tracer.wrap(getattr(lab, module), attr, span) for module, attr, span in WRAPPED]
    rounds, kept = {}, {}
    try:
        for name in names:
            rnd = Round(tracer)
            with tracer.span(f"workload.{name}"):
                kept.update(WORKLOADS[name][1](lab, inputs[name], rnd))
            rounds[name] = rnd
    finally:
        for restore in undo:
            restore()
    with tracer.span("probes"):
        metrics = layer_metrics(lab, seed, inputs, tracer, rounds, kept)
    tracer.write(OUT / f"trace-{workload}-{seed}.json")
    return list(rounds.values()), {k: (v, PER_LAYER[k]) for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diraclab" / "__init__.py").is_file():
        sys.stderr.write(f"diracbench: no diraclab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            rounds, metrics = measure_traced(args.workload, args.seed, str(workdir))
        else:
            rounds, metrics = measure(args.workload, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [f for r in rounds for f in r.failed]
    wrong = [w for r in rounds for w in r.wrong]
    for name, trace in failed:
        sys.stderr.write(f"FAILED {name}\n{trace}")
    for name, reason in wrong:
        sys.stderr.write(f"WRONG  {name}: {reason}")
    result = {
        "correct": not wrong,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
