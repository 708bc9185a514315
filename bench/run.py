"""simact benchmark: CLI jobs in a closed loop, end to end, or traced per layer.

    python3 bench/run.py --workload wrp --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke            # every workload, few jobs, same checks
    python3 bench/run.py --record           # rewrite bench/reference/ at the default seed

One process runs one workload with one client: each job is one in-process
`simact.cli.main([...])` call with `--out` to a file, stdout captured, and the
next job starts when the previous one returns.  The package is imported from
`src/` of the checkout that holds this file.  Every output is checked: exit
code, the workload's own checks (see workloads.py) and, at the default seed,
the digest recorded in bench/reference/.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 it reports the end-to-end metrics.  Job times are given in
units of a gauge loop timed between jobs (see `gauge`), and set-up time in
seconds at a fixed gauge speed, because the machine's speed drifts; the raw
seconds are printed on the report lines.  With
--trace 1 it wraps simact's public functions (tracing.py), runs a timed
traced pass, replays the same jobs untraced and traced again, and reports
per-layer metrics, the tracing overhead, and the integrity checks.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0
# p90 needs at least 10 samples above it
MIN_JOBS = 100
SETUP_REPEATS = 5
# share of --seconds given to the timed traced pass; two replays of it follow
TRACE_SHARE = 1 / 3
# how many gauge samples near a job set its unit
GAUGE_NEAREST = 3
# gauge samples taken before and again after each set-up; their mean sets
# the set-up's unit.  A set-up (0.2 to 0.6 s) spans changes of the machine's
# speed that a few 6 ms samples would miss; 30 samples cover about 0.2 s.
SETUP_GAUGES = 15
# setup_s is reported in seconds on a machine where one gauge loop takes this
# long (about its median on the 2-vCPU machine the bounds were set on), so
# that the machine's drifting speed does not move it
GAUGE_SECONDS = 0.006

END_TO_END = {
    "job_gauge_p50": "gauge",
    "job_gauge_p90": "gauge",
    "jobs_per_gauge": "1/gauge",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metrics that must be nonzero on a workload; the rest may read 0 there
NONZERO = {
    "wrp": [
        "transform.coarse_dist.calls", "transform.coarse_dist.self_s", "transform.resolution_max",
        "transform.refine.self_s", "transform.compose.self_s", "transform.power.self_s",
        "action.action_dist.self_s", "action.evaluate.self_s", "action.conjugate.self_s",
        "action.wrp_conjugacy_search.self_s", "action.action_dist.calls", "action.wrp.heights_tried",
        "rationals.self_s", "cli.self_s",
    ],
    "tables": [
        "transform.refine.self_s", "transform.compose.self_s", "transform.power.self_s",
        "sim.sim_dist.calls", "sim.sim_dist.self_s", "sim.sim_dist.key_patterns",
        "sim.convolve_sim.self_s", "sim.fixed_mass_report.self_s",
        "sim.CylinderTable.init.calls", "sim.CylinderTable.init.self_s",
        "equivalence.action_to_sim.calls", "equivalence.action_to_sim.self_s",
        "equivalence.realize_sim_as_action.calls", "equivalence.realize_sim_as_action.self_s",
        "intervals.calls", "intervals.self_s", "serialize.self_s", "rationals.self_s", "cli.self_s",
    ],
    "graph": [
        "sim.pair_matrix.self_s", "sim.CylinderTable.init.calls", "sim.CylinderTable.init.self_s",
        "sim.greedy_graph_witness.calls", "sim.greedy_graph_witness.self_s",
        "sim.graph_witness_exact.calls", "sim.graph_witness_exact.self_s",
        "sim.graph_witness_exact.unions", "sim.greedy_hit_ratio",
        "serialize.self_s", "rationals.self_s", "cli.self_s",
    ],
    "cli_small": [
        "transform.coarse_dist.calls", "transform.coarse_dist.self_s", "transform.resolution_max",
        "action.action_dist.calls", "action.wrp.heights_tried",
        "sim.sim_dist.calls", "sim.sim_dist.self_s", "sim.convolve_sim.self_s",
        "sim.fixed_mass_report.self_s", "sim.pair_matrix.self_s",
        "sim.CylinderTable.init.calls", "sim.CylinderTable.init.self_s",
        "sim.greedy_graph_witness.calls", "sim.greedy_graph_witness.self_s", "sim.greedy_hit_ratio",
        "equivalence.action_to_sim.calls", "equivalence.action_to_sim.self_s",
        "equivalence.realize_sim_as_action.calls", "equivalence.realize_sim_as_action.self_s",
        "equivalence.embed_action.calls", "equivalence.embed_action.self_s",
        "equivalence.recover_action.calls", "equivalence.recover_action.self_s",
        "equivalence.factor_defect.calls", "equivalence.factor_defect.self_s",
        "intervals.calls", "intervals.self_s", "measure.self_s", "serialize.self_s",
        "rationals.self_s", "cli.self_s",
    ],
}


# -- jobs ------------------------------------------------------------------------


def run_job(job, out_path: str, tracer=None, job_id=-1):
    """One cli.main call; returns (seconds, exit code or None, digest, stdout, out bytes, error)."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(out_path)
    main = sys.modules["simact.cli"].main
    if tracer is not None:
        tracer.job = job_id
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        try:
            code = main(job.argv + ["--out", out_path])
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # the job fails; the run goes on and reports it
            error = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - started
    try:
        with open(out_path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    out = stdout.getvalue()
    digest = hashlib.sha256(out.encode("utf-8") + b"\0" + data).hexdigest()[:20]
    return elapsed, code, digest, out, data, error or stderr.getvalue().strip()


def gauge() -> float:
    """Seconds taken by a fixed loop of stdlib Fraction and dict work, the kind
    of work simact spends its time on.  Sampled between jobs, it tracks the
    current speed of a shared machine, which drifts by tens of percent within
    minutes.  Garbage collection is off inside, so that its cost does not
    depend on how much the program keeps alive."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total, counts = Fraction(0), {}
        for i in range(1, 1500):
            total += Fraction(1, i % 97 + 1)
            counts[i % 31] = counts.get(i % 31, 0) + i
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Pass:
    """One pass over the pool: per job (entry, seconds, code, digest), the
    job's harness-inclusive (start, end), and the gauge samples (time, seconds)."""

    def __init__(self):
        self.records: list[tuple[int, float, int | None, str]] = []
        self.busy: list[tuple[float, float]] = []
        self.gauges: list[tuple[float, float]] = []
        self.outputs: dict[int, tuple[str, bytes]] = {}
        self.errors: dict[int, str] = {}
        self.wall = 0.0

    def _local_gauge(self, stamps: list[float], at: float) -> float:
        k = bisect.bisect(stamps, at)
        lo = max(0, min(k - GAUGE_NEAREST // 2, len(stamps) - GAUGE_NEAREST))
        return statistics.median(g for _t, g in self.gauges[lo : lo + GAUGE_NEAREST])

    def gauged(self) -> tuple[list[float], float]:
        """Each job's time, and the summed harness-inclusive job time, in units
        of the median of the gauge samples nearest to each job."""
        stamps = [t for t, _g in self.gauges]
        times, busy = [], 0.0
        for (_e, seconds, _c, _d), (start, end) in zip(self.records, self.busy):
            g = self._local_gauge(stamps, (start + end) / 2)
            times.append(seconds / g)
            busy += (end - start) / g
        return times, busy


def closed_loop(jobs, round_len, out_path, seconds=None, min_jobs=0, count=None, tracer=None) -> Pass:
    """Run jobs back to back from the start of the pool.  Stops after `count`
    jobs, or at the first round boundary once `seconds` have passed and at
    least `min_jobs` jobs have run.  Takes a gauge sample before the first
    job and after every job."""
    result = Pass()
    started = time.perf_counter()
    result.gauges.append((started, gauge()))
    i = 0
    while True:
        if count is not None:
            if i == count:
                break
        elif i % round_len == 0 and i >= min_jobs and time.perf_counter() - started >= seconds:
            break
        entry = i % len(jobs)
        before = time.perf_counter()
        elapsed, code, digest, out, data, error = run_job(jobs[entry], out_path, tracer, i)
        after = time.perf_counter()
        result.records.append((entry, elapsed, code, digest))
        result.busy.append((before, after))
        result.outputs.setdefault(entry, (out, data))
        if code != 0:
            result.errors.setdefault(entry, error or f"exit code {code}")
        result.gauges.append((after, gauge()))
        i += 1
    result.wall = time.perf_counter() - started
    return result


def load_reference(workload: str, seed: int, pool: int):
    if seed != DEFAULT_SEED:
        return None
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    if len(doc["entries"]) != pool:
        raise SystemExit(f"error: {path} holds {len(doc['entries'])} entries, the pool has {pool}")
    return doc["entries"]


def verify(jobs, passes: list[Pass], reference) -> tuple[int, int, list[str]]:
    """Count attempted and failed jobs over the passes; a job fails on a nonzero
    exit, an exception, a failed output check, a digest that differs from
    the pool entry's first digest, or one that differs from the reference."""
    first: dict[int, tuple[int | None, str]] = {}
    for p in passes:
        for entry, _t, code, digest in p.records:
            first.setdefault(entry, (code, digest))
    problems: dict[int, str] = {}
    for p in passes:
        problems.update(p.errors)
        for entry, (out, data) in p.outputs.items():
            if entry not in problems:
                reason = workloads.check(jobs[entry], out, data)
                if reason:
                    problems[entry] = reason
    if reference is not None:
        for entry, (code, digest) in first.items():
            if [code, digest] != reference[entry]:
                problems.setdefault(entry, f"output digest {digest} (exit {code}) differs from reference {reference[entry]}")
    attempted = failed = 0
    for p in passes:
        for entry, _t, code, digest in p.records:
            attempted += 1
            if code != 0 or entry in problems or (code, digest) != first[entry]:
                failed += 1
    notes = [f"entry {e} ({' '.join(jobs[e].argv[:1])}): {r}" for e, r in sorted(problems.items())]
    return attempted, failed, notes


# -- set-up ----------------------------------------------------------------------


def import_checkout():
    if not (SRC / "simact" / "cli.py").is_file():
        sys.stderr.write(f"error: simact sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, workdir: str, out_path: str):
    """Import simact afresh, build and write the inputs, run one untimed job."""
    for name in [n for n in sys.modules if n == "simact" or n.startswith("simact.")]:
        del sys.modules[name]
    started = time.perf_counter()
    importlib.import_module("simact.cli")
    jobs, round_len = workloads.build(workload, seed, workdir)
    run_job(jobs[0], out_path)
    return time.perf_counter() - started, jobs, round_len


def percentile_90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8]


def machine() -> str:
    return f"nproc={os.cpu_count()} python={platform.python_version()} platform={platform.platform()}"


# -- modes -----------------------------------------------------------------------


def end_to_end(jobs, round_len, out_path, args, setups, reference):
    """`setups` holds (seconds, gauge units) of each set-up."""
    p = closed_loop(jobs, round_len, out_path, seconds=args.seconds, min_jobs=args.min_jobs)
    attempted, failed, notes = verify(jobs, [p], reference)
    times = [t for _e, t, _c, _d in p.records]
    gauged, gauged_busy = p.gauged()
    p90 = percentile_90(gauged)
    busy = sum(end - start for start, end in p.busy)
    metrics = {
        "job_gauge_p50": statistics.median(gauged),
        "job_gauge_p90": p90,
        "jobs_per_gauge": (attempted - failed) / gauged_busy,
        "setup_s": statistics.median(g for _s, g in setups) * GAUGE_SECONDS,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    gauges = [g for _t, g in p.gauges]
    report = [
        f"jobs {len(times)} in {p.wall:.3f} s wall, {sum(t > p90 for t in gauged)} above p90",
        f"gauge {statistics.median(gauges) * 1000:.4f} ms median of {len(gauges)} samples, "
        f"{min(gauges) * 1000:.4f} to {max(gauges) * 1000:.4f} ms",
        f"job_s_p50 {statistics.median(times)!r} s",
        f"job_s_p90 {percentile_90(times)!r} s",
        f"jobs_per_s {(attempted - failed) / busy!r} 1/s",
        f"setup samples {' '.join(f'{s:.4f}' for s, _g in setups)} s, "
        f"{' '.join(f'{g:.2f}' for _s, g in setups)} gauge",
    ]
    return metrics, END_TO_END, attempted, failed, notes, report


def traced(jobs, round_len, out_path, args, workload, reference):
    """Timed traced pass A; untraced replay C of the same jobs; traced replay B.

    A's spans are summarised, written out and dropped before C starts, so
    that C does not pay for collecting garbage among them."""
    notes = []
    tracer = tracing.Tracer()
    install = tracing.Installation(tracer)
    unwrapped = install.unwrapped_bindings()
    if unwrapped:
        notes.append(f"unwrapped originals still bound: {', '.join(unwrapped)}")
    a = closed_loop(jobs, round_len, out_path, seconds=args.seconds * TRACE_SHARE, min_jobs=round_len, tracer=tracer)
    install.restore()
    n, spans = len(a.records), len(tracer.spans)
    metrics, counts_a = tracing.layer_metrics(tracer, n), tracing.counts(tracer)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}.tsv"
    tracer.write(str(trace_file))
    del tracer
    gc.collect()

    c = closed_loop(jobs, round_len, out_path, count=n)
    tracer = tracing.Tracer()
    install = tracing.Installation(tracer)
    b = closed_loop(jobs, round_len, out_path, count=n, tracer=tracer)
    install.restore()
    counts_b = tracing.counts(tracer)

    attempted, failed, check_notes = verify(jobs, [c, a, b], reference)
    notes += check_notes
    if [r[3] for r in a.records] != [r[3] for r in c.records] or [r[3] for r in b.records] != [r[3] for r in c.records]:
        notes.append("traced outputs differ from the untraced digests")
    if counts_a != counts_b:
        diff = sorted(k for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k))
        notes.append(f"counts differ between the two traced passes: {', '.join(diff)}")
    for name in NONZERO[workload]:
        if not metrics[name]:
            notes.append(f"{name} is 0 on {workload}")
    traced_rate, untraced_rate = n / a.gauged()[1], n / c.gauged()[1]
    metrics["trace.overhead_jobs_per_gauge"] = untraced_rate - traced_rate
    units = {name: tracing.unit(name) for name in metrics}
    report = [
        f"traced pass {n} jobs in {a.wall:.3f} s ({spans} spans, written to {trace_file.relative_to(ROOT)})",
        f"jobs_per_gauge traced {traced_rate!r}, untraced {untraced_rate!r}",
        f"jobs_per_s traced {n / a.wall!r}, untraced {n / c.wall!r}",
    ]
    return metrics, units, attempted, failed, notes, report


def run_workload(args) -> int:
    import_checkout()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        out_path = os.path.join(workdir, "out")
        repeats = 1 if args.smoke else SETUP_REPEATS
        setups = []
        for _ in range(repeats):
            before = [gauge() for _ in range(SETUP_GAUGES)]
            seconds, jobs, round_len = setup(args.workload, args.seed, workdir, out_path)
            after = [gauge() for _ in range(SETUP_GAUGES)]
            setups.append((seconds, seconds / statistics.mean(before + after)))
        reference = load_reference(args.workload, args.seed, len(jobs))
        if args.trace:
            metrics, units, attempted, failed, notes, report = traced(
                jobs, round_len, out_path, args, args.workload, reference
            )
        else:
            metrics, units, attempted, failed, notes, report = end_to_end(
                jobs, round_len, out_path, args, setups, reference
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"machine {machine()}")
    print(f"inputs {workloads.describe(jobs, round_len)}")
    print(f"pool {len(jobs)} jobs, {round_len} per round; reference digests {'checked' if reference else 'not checked'}")
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"fail_ratio {failed / attempted!r} ({failed} failed / {attempted} attempted)")
    for line in notes:
        print(f"FAIL {line}")
    result = {
        "correct": not notes and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record(args) -> int:
    """Run every pool entry once at the default seed and store exit codes and digests."""
    import_checkout()
    OUT.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else workloads.NAMES
    status = 0
    for workload in names:
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
        try:
            _t, jobs, round_len = setup(workload, DEFAULT_SEED, workdir, os.path.join(workdir, "out"))
            p = closed_loop(jobs, round_len, os.path.join(workdir, "out"), count=len(jobs))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted, failed, notes = verify(jobs, [p], None)
        if failed:
            print(f"{workload}: {failed} of {attempted} jobs failed; reference not written")
            print("\n".join(notes))
            status = 1
            continue
        entries = ",\n".join(json.dumps([code, digest]) for _e, _t, code, digest in p.records)
        text = f'{{"seed": {DEFAULT_SEED}, "entries": [\n{entries}\n]}}\n'
        (REFERENCE / f"{workload}.json").write_text(text, encoding="utf-8")
        print(f"{workload}: {len(jobs)} entries recorded")
    return status


def declared_metrics() -> dict[int, dict[str, str]]:
    """Metric names and units per --trace value, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {t: {m["name"]: m["unit"] for m in doc[key]} for t, key in ((0, "end_to_end"), (1, "per_layer"))}


def smoke() -> int:
    """Every workload with and without tracing, a round or so of jobs each."""
    status = 0
    declared = declared_metrics()
    for workload in workloads.NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(DEFAULT_SEED),
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            units = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
            ok = (
                proc.returncode == 0
                and result.get("correct") is True
                and result.get("failed") == 0
                and result.get("attempted", 0) >= 1
                and units == declared[trace]
            )
            print(f"{'ok' if ok else 'FAIL'} {workload} trace={trace} attempted={result.get('attempted')}")
            if not ok:
                print(proc.stdout + proc.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few jobs per workload, same checks")
    parser.add_argument("--record", action="store_true", help="write reference digests at the default seed")
    args = parser.parse_args(argv)
    if args.record:
        return record(args)
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    args.min_jobs = 2 if args.smoke else MIN_JOBS
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
