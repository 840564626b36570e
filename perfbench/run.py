"""Run one placescan benchmark workload and print its metrics.

From the root of a placescan checkout:

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's ``src/``; nothing is installed.
The run sets its workload up several times, then repeats whole passes of the
timed phase while the next pass is expected to fit in ``--seconds`` (at
least one), checking every pass's outputs. Times are scaled to a reference
machine speed (see REFERENCE_CALIBRATION_S). Lines before the last one are a
JSON environment record and a JSON summary of the untraced passes with
every workload-specific figure. The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing. With ``--trace 1`` the run spends half its time untraced and half
traced, reports the per-layer metrics of the traced passes and the tracing
overhead, and writes every span to ``.perfbench_out/``.

Exit codes: 0 with a result, 2 when the run is refused (no placescan sources
under ``src/``, or a BLAS thread count above the number of usable cores).
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# On a shared 2-core x86-64 virtual machine the same pass ran up to half again
# slower for tens of seconds at a time, as other tenants came and went. So
# each timed phase is scaled to a reference speed: a fixed calibration runs
# before and after the phase (and at points inside a pass), and the phase's
# time is multiplied by REFERENCE_CALIBRATION_S, the calibration's median
# time on that machine, over the calibrations' mean. Over ten seeds this cut
# the spread of wall_s from 0.11 to 0.08 on predict and from 0.17 to 0.04 on
# ingest. The summary line keeps the raw times.
REFERENCE_CALIBRATION_S = 0.0067
CALIBRATION_REPEATS = 5


class Refused(Exception):
    """The run cannot produce a trustworthy result here."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("crossval", "predict", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads(nproc: int) -> None:
    """Limit BLAS and OpenMP pools to the usable cores; must run before numpy loads."""
    for variable in BLAS_THREAD_VARIABLES:
        try:
            value = int(os.environ.get(variable, ""))
        except ValueError:
            value = 0
        if not 1 <= value <= nproc:
            os.environ[variable] = str(nproc)


def blas_info() -> dict:
    """Name, configuration and thread count of the OpenBLAS numpy loaded."""
    info = {"library": None, "config": None, "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(p for p in paths if p.startswith("/")):
        library = ctypes.CDLL(path)
        info["library"] = os.path.basename(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(library, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                info["threads"] = int(threads())
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode("ascii", "replace").strip()
                return info
    return info


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_s() -> float:
    """Median time of a fixed interpreter loop plus numpy power calls."""
    import numpy

    values = numpy.linspace(0.5, 2.0, 40_000)
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        for _ in range(4):
            numpy.power(values, 1.3)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Timings:
    """Raw durations of repeated phases and the speed scale of each.

    A phase's scale comes from the calibrations just before and after it and
    from any taken inside it through `sample`, whose time is not counted in
    the phase. A long phase needs inside samples: two snapshots at its ends
    say little about the speed over the whole phase.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scale: list[float] = []
        self._before = None
        self._inside: list[float] = []
        self._excluded = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._inside.append(calibration_s())
        self._excluded += time.perf_counter() - t0

    def time(self, fn):
        if self._before is None:
            self._before = calibration_s()
        self._inside, self._excluded = [], 0.0
        t0 = time.perf_counter()
        result = fn()
        self.raw.append(time.perf_counter() - t0 - self._excluded)
        after = calibration_s()
        samples = [self._before, *self._inside, after]
        self.scale.append(REFERENCE_CALIBRATION_S * len(samples) / sum(samples))
        self._before = after
        return result

    @property
    def scaled(self) -> list[float]:
        return [raw * scale for raw, scale in zip(self.raw, self.scale)]


def run_passes(workload, tally, seconds: float, wrap=None, sample=True) -> Timings:
    """Time whole passes while the next is expected to fit; at least one.

    With `sample`, a workload may sample the machine's speed inside a pass.
    """
    timings = Timings()
    workload.sample = timings.sample if sample else None
    begin = time.perf_counter()
    while True:
        output = timings.time(lambda: wrap(workload.run_pass) if wrap else workload.run_pass())
        workload.check(output, tally)
        del output
        if time.perf_counter() - begin + statistics.median(timings.raw) > seconds:
            workload.sample = None
            return timings


def layer_metrics(tracer, tracing, untraced: Timings, traced: Timings, tally) -> dict:
    """Per-layer means over the traced passes; times scaled like wall_s."""
    stats = [tracer.pass_stats(i) for i in range(len(traced.raw))]
    for name in tracing.EXACT_COUNTS:
        values = {s.get(name, 0) for s in stats}
        tally.add(len(values) == 1, f"{name} differs between passes")
    values = {
        name: statistics.fmean(
            s.get(name, 0.0) * (scale if unit == "s" else 1.0)
            for s, scale in zip(stats, traced.scale)
        )
        for name, unit in tracing.LAYER_METRICS
    }
    values["trace.wall_s"] = statistics.fmean(traced.scaled)
    values["trace.untraced_wall_s"] = statistics.fmean(untraced.scaled)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.absent"] = len(tracer.absent)
    return {
        name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    if not (SRC / "placescan" / "__init__.py").is_file():
        raise Refused(f"no placescan sources under {SRC}")
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import numpy

    import tracing
    import workloads
    import_s = time.perf_counter() - start
    import_s *= REFERENCE_CALIBRATION_S / calibration_s()

    import placescan

    if Path(placescan.__file__).resolve().parent != (SRC / "placescan").resolve():
        raise Refused(f"placescan was imported from {placescan.__file__}, not from {SRC}")
    blas = blas_info()
    if blas["threads"] is not None and blas["threads"] > nproc:
        raise Refused(f"BLAS uses {blas['threads']} threads on {nproc} usable cores")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
    }
    print(json.dumps({"env": env}), flush=True)

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setups = Timings()
    for _ in range(SETUP_REPEATS):
        setups.time(workload.setup)
    setup_s = import_s + statistics.median(setups.scaled)

    tally = workloads.Tally()
    tracer = None
    workload.start()
    try:
        # Samples inside a traced pass would land inside spans, so neither
        # half of a traced run takes them and the two halves compare fairly.
        passes = run_passes(
            workload,
            tally,
            args.seconds / 2 if args.trace else args.seconds,
            sample=not args.trace,
        )
        figures = workload.summary(passes.raw)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(
                    workload, tally, args.seconds / 2, wrap=tracer.run_pass, sample=False
                )
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, tracing, passes, traced, tally)
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(passes.scaled),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        workload.stop()

    summary = {
        "setup_s": setup_s,
        "import_s": import_s,
        "setup_raw_s": setups.raw,
        "pass_raw_s": passes.raw,
        "pass_scale": passes.scale,
        "wall_s": statistics.median(passes.scaled),
        "raw_wall_s": statistics.median(passes.raw),
        "peak_rss_mb": peak_rss_mb(),
        "failed_ops_ratio": tally.failed / tally.attempted,
        "failures": tally.reasons,
        **figures,
    }
    if tracer is not None:
        summary["absent"] = tracer.absent
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path, {"env": env, "absent": tracer.absent})
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"summary": summary}), flush=True)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        sys.exit(2)
