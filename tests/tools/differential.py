"""Compare every output of the bench's ``library`` job list between the
working tree's ``src/`` and the ``src/`` of an earlier revision.

Usage: ``python3 tests/tools/differential.py PARENT_REV [--seed N ...]``
from the repository root (seed 1 when none is given).  The revision's
``src/`` is exported with ``git archive`` into a temporary directory.  For
each seed, each side runs one pass of the job list in its own child
process, through ``bench/worker.py``'s set-up, pass and summaries, with
``bench/`` on the path and only that side's ``src/`` ahead of it.  Every
``check_regulator``, ``check_sap`` and cube verdict keeps all its witnesses
(the bench keeps four); B tables, estimates, reduction reports and
machine-output digests are the bench's own summaries, and a job that raises
keeps its error.  The tool prints, per seed, ``identical`` or the first job
whose output differs, with both outputs, and exits 1 when any seed differs.
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"


def side(src, seed):
    """One pass of the library job list with src's apwords: [[name, output]]."""
    sys.path[:0] = [src, str(BENCH)]
    import worker

    with tempfile.TemporaryDirectory() as workdir:
        jobs = worker.setup("library", seed, workdir)
        for job in jobs:
            if job["kind"] in ("creg", "sap", "cube"):
                job["all_failures"] = True
        outputs = worker.run_pass(jobs, worker._cli_plain)[2]
    return [[job["name"], out] for job, out in zip(jobs, outputs)]


def run_side(src, seed):
    child = subprocess.run(
        [sys.executable, __file__, "--side", src, "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT)
    if child.returncode:
        sys.exit(f"the pass over {src} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", metavar="PARENT_REV")
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--side", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = args.seed or [1]
    if args.side:
        print(json.dumps(side(args.side, seeds[0])))
        return 0
    if args.parent is None:
        ap.error("PARENT_REV is required")
    archive = subprocess.run(["git", "archive", args.parent, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        for seed in seeds:
            before = run_side(str(Path(tmp) / "src"), seed)
            after = run_side(str(ROOT / "src"), seed)
            if before == after:
                print(f"seed {seed}: identical ({len(after)} jobs)")
                continue
            status = 1
            # both sides ran the same job list, so the outputs differ
            (name, old), (_, new) = next((b, a) for b, a in zip(before, after) if b != a)
            print(f"seed {seed}: job {name} differs\n"
                  f"  {args.parent}: {json.dumps(old)}\n"
                  f"  working tree: {json.dumps(new)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
