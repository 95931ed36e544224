"""The apwords benchmark: run one workload once and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py for the job lists and why each was chosen):
``library`` and ``cli-batch`` are the two that BENCHMARK.json registers;
``oracles-gate``, ``oracles-random`` and ``machines`` run one part of
``library`` alone.  Run it from anywhere; it uses the ``src/apwords`` next to
this directory and writes only to a scratch directory ``.bench_work`` beside
it, which it removes again.

Each run measures in fresh child processes:
  1. the bare interpreter (``python -c pass``): start-up time and peak RSS;
  2. set-up, several times before and after the worker: importing apwords
     and building the inputs;
  3. the workload itself, in one worker, for ``--seconds`` seconds.
With ``--trace 0`` the worker runs untraced and the result carries the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and the result carries the per-layer metrics and the tracing overhead.
(A traced cli-batch run starts every child through ``cli_shim.py``, which
times ``cli.main`` from inside: untraced in the untraced passes, which give
cli.dispatch_ms, and under the tracer in the traced ones.)

Times are reported at the reference speed of ``metadata.json``.  The machine
this was written on is shared, and the speed it gives one process changes by
up to 1.6x for minutes at a time, which no run length rides out.  So each
worker interleaves a fixed calibration kernel with the jobs (worker.py), and
every time measured during a pass, or in a set-up or probe process, is scaled
by calibration_ref_ms over the mean kernel time measured with it (by the
square root of that where the time is a child process's; see
CHILD_SCALE_EXPONENT).  The raw times and the scale factors are in the
report line, with the verdicts of the first pass counted per part and job
kind.
Every output of every pass is then checked, untimed, against the reference
answers (check.py).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
a report with the raw samples and the machine it ran on.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import check  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_NAMES, SPAN_NAMES  # noqa: E402
from worker import calibrate  # noqa: E402

SETUP_SAMPLES = 6  # before the worker, and again after it
PROBE_SAMPLES = 7
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

IMPORT_PROBE = ("import time; t = time.perf_counter(); import apwords.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def _env():
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def _child(argv, timeout):
    """Run a child to completion; its standard output, or BenchError."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} did not finish in {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _worker(args, mode, workdir, seconds=0):
    out = _child([sys.executable, os.path.join(HERE, "worker.py"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(seconds), "--mode", mode, "--workdir", workdir],
                 WORKER_TIMEOUT_S)
    return json.loads(out.splitlines()[-1])


# The wall time of a child process follows only part of the speed changes
# the in-process kernel sees.  Over 352 cli-batch passes of 20 runs, the log
# of a pass's time against the log of its mean kernel time had slope 0.45
# (r = 0.78), and scaling by the square root of the kernel factor left pass
# times spread half as much as the full factor did (standard deviation of
# their logs 0.067 against 0.122).  So every time measured in a cli-batch
# pass, and the interpreter probe's, is scaled by the factor to this power;
# library passes (slope 0.93), set-up and the import probe take the full
# factor.
CHILD_SCALE_EXPONENT = 0.5


def _scale(calibrations, ref_s, exponent=1.0):
    """Factor taking times measured alongside these kernel times to the
    reference speed."""
    return (ref_s / statistics.fmean(calibrations)) ** exponent


def interpreter_probe(ref_s):
    """(median ms of ``python -c pass``, its peak RSS in MB).

    Runs before any other child, so the children's peak RSS is the bare
    interpreter's."""
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        _child([sys.executable, "-c", "pass"], PROBE_TIMEOUT_S)
        ms = (time.perf_counter() - t0) * 1e3
        times.append(ms * _scale([calibrate(), calibrate()], ref_s,
                                 CHILD_SCALE_EXPONENT))
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return statistics.median(times), rss_mb


def setup_samples(args, workdir, tag, count=SETUP_SAMPLES):
    """(set-up seconds, calibration times) pairs, each from a fresh process."""
    samples = []
    for i in range(count):
        sub = os.path.join(workdir, f"setup-{tag}-{i}")
        os.makedirs(sub)
        out = _worker(args, "setup", sub)
        samples.append((out["setup_s"], out["calibrations"]))
    return samples


def import_probe(ref_s):
    return statistics.median(
        float(_child([sys.executable, "-c", IMPORT_PROBE], PROBE_TIMEOUT_S)) * 1e3
        * _scale([calibrate(), calibrate()], ref_s)
        for _ in range(PROBE_SAMPLES))


def src_lines():
    pkg = os.path.join(SRC, "apwords")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------
# Metrics

def part_walls(jobs, res, scales):
    """Median seconds per pass spent in each part of the job list."""
    parts = {}
    for part in workloads.PARTS:
        idx = [i for i, job in enumerate(jobs) if job["part"] == part]
        if idx:
            parts[part] = statistics.median(
                sum(lat[i] for i in idx) * k for lat, k in zip(res["latencies"], scales))
    return parts


def verdict_mix(jobs, outs):
    """Verdicts of one pass per part and job kind: count per status (exit
    code for cli jobs), and how many fails stopped early, before the oracle's
    last step (check_regulator below n_max, is_cube_free below the longest
    period).  Jobs that raised are left out; the check counts them."""
    mix = {}
    for job, out in zip(jobs, outs):
        if "error" in out or job["part"] == "machines":
            continue
        kind = job["kind"]
        key = f"exit {out['code']}" if kind == "cli" else out.get("status", "no verdict")
        counts = mix.setdefault(job["part"], {}).setdefault(kind, {})
        counts[key] = counts.get(key, 0) + 1
        if key == "fail" and kind in ("creg", "cube"):
            step = out["witnesses"][0][0]
            last = job["n_max"] if kind == "creg" else job["horizon"] // 3
            if step < last:
                counts["fail_early"] = counts.get("fail_early", 0) + 1
    return mix


def end_to_end(res, scales, setup, attempted, failed):
    lat_ms = [x * 1e3 * k for lat, k in zip(res["latencies"], scales) for x in lat]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    metrics = {
        "wall_s": (statistics.median(w * k for w, k in zip(res["walls"], scales)), "s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (p90, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }
    extra = {"job_samples": len(lat_ms),
             "jobs_beyond_p90": sum(1 for x in lat_ms if x > p90)}
    return metrics, extra


def _merge(summaries, scales):
    """Sum tracer summaries into one, their times scaled to reference speed."""
    total = {"self_s": {}, "counts": {}, "letters_useful": 0, "spans": 0}
    for s, k in zip(summaries, scales):
        for name, v in s["self_s"].items():
            total["self_s"][name] = total["self_s"].get(name, 0) + v * k
        for name, v in s["counts"].items():
            total["counts"][name] = total["counts"].get(name, 0) + v
        total["letters_useful"] += s["letters_useful"]
        total["spans"] += s["spans"]
    return total


def per_layer(res, scales, traced_scales, cli, interp_ms, interp_rss_mb, import_ms):
    """Per-pass means of the traced passes' layer self times and counts.

    cli.dispatch_ms is the median over the children of the untraced passes,
    so the tracer's cost is not in it."""
    dispatch = [ms * k for p, k in zip(res["dispatch_ms"], scales) for ms in p]
    passes = res["trace"]
    pass_scales = traced_scales
    if cli:
        per_pass = []
        for p, k in zip(passes, traced_scales):
            per_pass.append(_merge((c["summary"] for c in p["children"]),
                                   [k] * len(p["children"])))
        passes = per_pass
        pass_scales = [1.0] * len(passes)
    total = _merge(passes, pass_scales)
    k = len(passes)
    self_s, counts = total["self_s"], total["counts"]
    encoded = counts["analysis.letters_encoded"]
    m = {name + "_s": (self_s[name] / k, "s") for name in SPAN_NAMES}
    m.update((name, (counts[name] / k, "count")) for name in COUNT_NAMES)
    m["analysis.encode_useful_ratio"] = (
        total["letters_useful"] / encoded if encoded else 0.0, "ratio")
    m["cli.interp_ms"] = (interp_ms, "ms")
    m["cli.import_ms"] = (import_ms, "ms")
    m["cli.dispatch_ms"] = (statistics.median(dispatch) if dispatch else 0.0, "ms")
    m["interp.peak_rss_mb"] = (interp_rss_mb, "MB")
    traced = statistics.median(w * k for w, k in zip(res["traced_walls"], traced_scales))
    untraced = statistics.median(w * k for w, k in zip(res["walls"], scales))
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    return m, {"spans_per_pass": total["spans"] / k, "traced_passes": k}


# ---------------------------------------------------------------------------

def main():
    with open(os.path.join(HERE, "metadata.json")) as fh:
        meta = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=meta["default_seed"])
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "apwords", "__init__.py")):
        print(f"error: no apwords package under {SRC}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    ref_s = meta["calibration_ref_ms"] / 1e3
    try:
        interp_ms, interp_rss_mb = interpreter_probe(ref_s)
        setup_samples(args, workdir, "warm-up", 1)  # compiles the bytecode caches
        setup = setup_samples(args, workdir, "before")
        mode = "traced" if args.trace else "timed"
        res = _worker(args, mode, workdir, args.seconds)
        setup += setup_samples(args, workdir, "after")
        import_ms = import_probe(ref_s) if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it

    jobs = workloads.jobs(args.workload, args.seed)
    t0 = time.perf_counter()
    attempted, failed, problems = check.check_outputs(jobs, res["outputs"])
    check_s = time.perf_counter() - t0

    exponent = CHILD_SCALE_EXPONENT if args.workload == "cli-batch" else 1.0
    scales = [_scale(c, ref_s, exponent) for c in res["calibrations"]]
    traced_scales = [_scale(c, ref_s, exponent) for c in res["traced_calibrations"]]
    setup_scaled = [s * _scale(c, ref_s) for s, c in setup]
    if args.trace:
        metrics, extra = per_layer(res, scales, traced_scales,
                                   args.workload == "cli-batch",
                                   interp_ms, interp_rss_mb, import_ms)
    else:
        metrics, extra = end_to_end(res, scales, setup_scaled, attempted, failed)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(res["walls"]),
        "raw_walls_s": res["walls"], "raw_traced_walls_s": res["traced_walls"],
        "scales": scales, "traced_scales": traced_scales,
        "raw_setup_s": [s for s, _ in setup], "setup_s": setup_scaled,
        "check_s": check_s, "part_walls_s": part_walls(jobs, res, scales),
        "verdicts": verdict_mix(jobs, res["outputs"][0]),
        "bare_interpreter": {"peak_rss_mb": interp_rss_mb, "start_ms": interp_ms},
        "zero_metrics": sorted(k for k, (v, _) in metrics.items() if v == 0),
        "problems": problems[:20],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "src_apwords_lines": src_lines(),
                    "default_seed": meta["default_seed"],
                    "heldout_seed": meta["heldout_seed"]},
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
