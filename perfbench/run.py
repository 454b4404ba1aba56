"""Pipeline benchmark: times the damagenowcast CLI in-process and checks its reports.

Run without arguments, it runs each workload twice, each time in a process of
its own: untraced (``--trace 0``, the end-to-end metrics) and traced
(``--trace 1``, the per-layer metrics). It prints every metric of
``BENCHMARK.json`` with its unit, then one JSON summary.

One run (``--workload``, ``--seed``, ``--seconds`` and ``--trace`` all given)

1. imports ``damagenowcast.cli`` from ``src/`` of this checkout, timed;
2. generates the inputs from ``--seed`` in a separate process, three times,
   and times each (the median, plus the in-process import, is ``setup_s``);
3. runs whole passes of six commands through ``damagenowcast.cli.main``
   (simulate, join, correlate --overlay, series, nowcast, rank-keywords)
   while another pass, judged by the longest so far, fits in ``--seconds``;
   with ``--trace 1`` every second pass is traced and one last pass runs
   under tracemalloc; after each untraced pass it times the same import in
   fresh interpreters;
4. checks every report of the last pass against ``oracle.py`` and that every
   pass wrote the same bytes;
5. prints one line per metric and, as the last line, one JSON object whose
   metrics are the end-to-end ones (``--trace 0``) or the per-layer ones
   (``--trace 1``).

    python3 perfbench/run.py
    python3 perfbench/run.py --workload dense_city --seed 1 --seconds 55 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import COUNT_METRICS, Tracer, median_metrics
from workloads import WORKLOADS, Shape

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORTS_PER_PASS = 2
COMMANDS = ("simulate", "join", "correlate", "series", "nowcast", "rank-keywords")
ANALYSIS = COMMANDS[1:]

END_TO_END = {
    "setup_s": "s",
    "import_s": "s",
    "simulate_s": "s",
    "join_s": "s",
    "correlate_s": "s",
    "series_s": "s",
    "nowcast_s": "s",
    "rank_keywords_s": "s",
    "msgs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_program():
    """Import the package from this checkout's src/, never from anywhere else."""
    if not (SRC / "damagenowcast" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'damagenowcast'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import damagenowcast.cli as cli

    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "damagenowcast":
        raise SystemExit(f"perfbench: imported damagenowcast from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def _import_times_fresh(n: int) -> list[float]:
    """Times of ``import damagenowcast.cli`` in ``n`` fresh interpreters, one after another."""
    code = "import time; t = time.perf_counter(); import damagenowcast.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, env=_child_env())
        samples.append(float(out.stdout.strip()))
    return samples


def _setup(shape: Shape, seed: int, work: Path) -> tuple[list[Path], float]:
    """Generate the inputs SETUP_REPEATS times; return the output dirs and the median time."""
    dirs, times = [], []
    for k in range(SETUP_REPEATS):
        dirs.append(work / f"gen{k}")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "gen.py"), "--workload", shape.name,
             "--seed", str(seed), "--out", str(dirs[-1])],
            check=True, env=_child_env(),
        )
        times.append(time.perf_counter() - start)
    return dirs, statistics.median(times)


def command_lines(shape: Shape, seed: int, bundle: Path, reports: Path, sim: Path) -> dict[str, list[str]]:
    inputs = ["--messages", str(bundle / "messages.csv"), "--regions", str(bundle / "regions.geojson")]
    tables = ["--population", str(bundle / "population.csv"), "--damage", str(bundle / "damage.csv")]
    out = ["--out", str(reports)]
    return {
        "simulate": ["simulate", "--seed", str(seed), "--out", str(sim), "--sigma", "0", *shape.simulate_args],
        "join": ["join", *inputs, *out],
        "correlate": ["correlate", *inputs, *tables, "--overlay", str(reports / "overlay.geojson"), *out],
        "series": ["series", *inputs, *tables, "--bin-hours", str(shape.bin_hours), *out],
        "nowcast": ["nowcast", *inputs, *tables, *out],
        "rank-keywords": ["rank-keywords", *inputs, "--track", str(bundle / "track.csv"), *out],
    }


def run_pass(cli, lines: dict[str, list[str]], tracer=None) -> tuple[dict[str, float], dict[str, int], list[int]]:
    """One pass of every command; returns times, exit codes and (traced) root span ids."""
    times, codes, roots = {}, {}, []
    for name, argv in lines.items():
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.command = name
                    roots.append(len(tracer.spans))
                    with tracer.span(f"cli.{name}"):
                        code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
            times[name] = time.perf_counter() - start
        codes[name] = code
        if code != 0:
            print(f"perfbench: {name} failed ({code}): {sink.getvalue()[-500:]}", file=sys.stderr)
    return times, codes, roots


@dataclass
class Passes:
    """What the passes of one run measured."""

    samples: dict[str, list[float]] = field(default_factory=lambda: {name: [] for name in COMMANDS})
    imports: list[float] = field(default_factory=list)  # fresh-interpreter import times
    traced: list[dict[str, float]] = field(default_factory=list)  # command times of each traced pass
    layer: list[dict[str, float]] = field(default_factory=list)  # per-layer metrics of each traced pass
    counts: list[dict[str, int]] = field(default_factory=list)  # per-layer counts of each traced pass
    tracer: Tracer | None = None
    peak_alloc_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    ok_commands: set[str] = field(default_factory=lambda: set(COMMANDS))
    problems: list[str] = field(default_factory=list)


def measure(cli, lines: dict[str, list[str]], reports: Path, sim: Path, seconds: float, trace: bool) -> Passes:
    """Run passes while another one fits in ``seconds``; the first pass always runs.

    Untraced, every pass is timed. Traced, untraced and traced passes
    alternate, and one last pass under tracemalloc gives ``stats.peak_alloc_mb``.
    After each untraced pass, IMPORTS_PER_PASS fresh interpreters time the
    package import, so those samples spread over the run like the commands'.
    """
    import oracle

    result = Passes(tracer=Tracer() if trace else None)
    digests: dict[str, dict] = {}
    started = time.perf_counter()
    longest = 0.0  # the longest pass so far predicts the next one

    def fits(n: int) -> bool:
        return time.perf_counter() - started + n * longest <= seconds

    n_pass = 0
    while True:
        if trace and n_pass % 2 == 0 and n_pass > 0 and not fits(3):
            # one last pass that tracks stats allocations; too perturbed to time
            pass_tracer = Tracer(track_memory=True)
        elif not trace and n_pass > 0 and not fits(1):
            break
        else:
            pass_tracer = result.tracer if n_pass % 2 == 1 else None
        if pass_tracer is not None:
            pass_tracer.counts.clear()
            pass_tracer.install()
        pass_start = time.perf_counter()
        try:
            times, codes, roots = run_pass(cli, lines, pass_tracer)
        finally:
            if pass_tracer is not None:
                pass_tracer.uninstall()
        if pass_tracer is None:
            result.imports += _import_times_fresh(IMPORTS_PER_PASS)
        longest = max(longest, time.perf_counter() - pass_start)
        result.attempted += len(codes)
        result.failed += sum(code != 0 for code in codes.values())
        result.ok_commands -= {name for name, code in codes.items() if code != 0}
        for label, directory in (("reports", reports), ("sim", sim)):
            current = oracle.digest(directory)
            if digests.setdefault(label, current) != current:
                result.problems.append(f"pass {n_pass + 1}: {label} files differ from the first pass")
        n_pass += 1
        if pass_tracer is None:
            for name in COMMANDS:
                result.samples[name].append(times[name])
        elif pass_tracer.track_memory:
            result.peak_alloc_mb = pass_tracer.peak_alloc_bytes / 2**20
            break
        else:
            result.traced.append(times)
            result.layer.append(pass_tracer.pass_metrics(roots))
            result.counts.append({k: int(pass_tracer.counts[k]) for k in COUNT_METRICS})
            result.problems += pass_tracer.missing_spans(roots)
    if any(counts != result.counts[0] for counts in result.counts[1:]):
        result.problems.append("trace: per-layer counts differ between traced passes")
    return result


def end_to_end(passes: Passes, n_rows: int, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """Times are medians over the untraced passes (see README, Steadiness)."""
    median = {name: statistics.median(passes.samples[name]) for name in COMMANDS}
    rates = [len(ANALYSIS) * n_rows / sum(t[name] for name in ANALYSIS) for t in _by_pass(passes.samples)]
    return {
        "setup_s": setup_s,
        "import_s": statistics.median(passes.imports),
        "simulate_s": median["simulate"],
        "join_s": median["join"],
        "correlate_s": median["correlate"],
        "series_s": median["series"],
        "nowcast_s": median["nowcast"],
        "rank_keywords_s": median["rank-keywords"],
        "msgs_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes: Passes) -> dict[str, float]:
    """Medians over the traced passes; counts are per pass."""
    layer = median_metrics(passes.layer)
    layer["stats.peak_alloc_mb"] = passes.peak_alloc_mb
    layer.update(passes.counts[0])
    untraced = statistics.median(sum(t[name] for name in COMMANDS) for t in _by_pass(passes.samples))
    traced = statistics.median(sum(t.values()) for t in passes.traced)
    layer["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return layer


def run_workload(shape: Shape, seed: int, seconds: float, trace: bool) -> dict:
    cli, in_process_import_s = _import_program()
    import oracle  # numpy loads here, after the timed package import

    work = OUT / shape.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    gen_dirs, gen_s = _setup(shape, seed, work)
    gen_dir, problems = gen_dirs[0], []
    first = oracle.digest(gen_dir / "bundle")
    for other in gen_dirs[1:]:
        if oracle.digest(other / "bundle") != first:
            problems.append(f"generator: {other.name} wrote different bytes for seed {seed}")
        shutil.rmtree(other)
    reports, sim = work / "reports", work / "sim"
    lines = command_lines(shape, seed, gen_dir / "bundle", reports, sim)

    passes = measure(cli, lines, reports, sim, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    truth = oracle.Truth.load(gen_dir / "truth.npz")
    problems += passes.problems + oracle.check_all(truth, reports, sim, shape, passes.ok_commands)

    metrics = end_to_end(passes, len(truth.region), gen_s + in_process_import_s, peak_rss_mb)
    units = dict(END_TO_END)
    n_untraced = len(passes.samples["join"])
    notes = [
        f"setup_s: median of {SETUP_REPEATS} input generations ({gen_s:.3f} s) + in-process import "
        f"({in_process_import_s:.3f} s); import_s: median of {len(passes.imports)} fresh-interpreter imports",
        f"command times: median of {n_untraced} untraced passes; msgs_per_s: {len(ANALYSIS)} x "
        f"{len(truth.region)} rows per pass",
    ]
    reported = list(END_TO_END)
    if trace:
        layer = per_layer(passes)
        metrics.update(layer)
        units.update((name, _layer_unit(name)) for name in layer)
        reported = list(layer)
        notes.append(f"per-layer: median of {len(passes.traced)} traced passes; counts are per pass; "
                     "stats.peak_alloc_mb from one more pass under tracemalloc")
        (work / "spans.json").write_text(json.dumps(passes.tracer.spans_json()) + "\n", encoding="utf-8")

    for problem in problems[:20]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: ... {len(problems) - 20} more check failures", file=sys.stderr)
    print(f"# {shape.name} seed={seed} trace={int(trace)} attempted={passes.attempted} "
          f"failed={passes.failed} correct={not problems}")
    for note in notes:
        print(f"#   {note}")
    for name, value in metrics.items():
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"{shape.name:12s} {name:32s} {text} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
    }
    record = dict(result, samples=passes.samples, traced_samples=passes.traced, notes=notes, problems=problems)
    (work / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def _by_pass(samples: dict[str, list[float]]) -> list[dict[str, float]]:
    return [{name: samples[name][i] for name in COMMANDS} for i in range(len(samples["join"]))]


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "count"


def run_all(workloads: list[str], traces: list[int], seed: int, seconds: float) -> int:
    """Run every (workload, trace) pair in a process of its own and merge their results."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads:
        for trace in traces:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = child.stdout.rstrip("\n").splitlines()
            code = max(code, child.returncode)
            if child.returncode not in (0, 1) or not lines:
                print(child.stdout, end="")
                summary["correct"] = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update((f"{name}/{metric}", value) for metric, value in result["metrics"].items())
    print(json.dumps(summary))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="only the untraced (0) or only the traced (1) run (default: both, one after the other)")
    args = parser.parse_args()
    # one numpy/BLAS/OpenMP thread here and in every child; numpy is not imported yet
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    if len(workloads) > 1 or len(traces) > 1:
        return run_all(workloads, traces, args.seed, args.seconds)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
