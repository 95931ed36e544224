"""Job lists of the benchmark workloads, as plain data.

There are four job lists, each with its own purpose (see the comments
below): oracles-gate, oracles-random, machines and cli-batch.  Each can be
run alone.  BENCHMARK.json registers two workloads: ``library``, which runs
the first three lists one after another in one process, and ``cli-batch``.
On the shared two-core machine the benchmark was written on, runs of 20 s
spread by up to 27 % from one to the next; runs of close to a minute spread
less, and the run budget allows such runs for two workloads, not four.  The
report of every run gives the time of each list separately.

A job is a dict with a ``kind``, the ``part`` (job list) it belongs to and
the arguments the kind needs.  This module does not import ``apwords``: the
worker turns jobs into library calls, and the reference oracles in
``reference.py`` check the answers independently.  The same workload and
seed always give the same job list.

Every workload is closed-loop with one client: the worker issues the jobs one
after another, with no threads.
"""

import os
import random

PARTS = ("oracles-gate", "oracles-random", "machines", "cli-batch")
WORKLOADS = ("library",) + PARTS
LIBRARY = PARTS[:3]

# Seeded workloads draw their inputs from the seed; the others are fixed.
SEEDED = ("library", "oracles-random", "machines")


# ---------------------------------------------------------------------------
# oracles-gate: the acceptance-gate horizons, a few long full-prefix scans.

def gate_jobs():
    jobs = [
        {"name": "creg-thm21-5^6", "kind": "creg", "spec": "thm21",
         "reg": ["thm21"], "horizon": 5 ** 6, "n_max": 8},
        {"name": "creg-thm21-5^7", "kind": "creg", "spec": "thm21",
         "reg": ["thm21"], "horizon": 5 ** 7, "n_max": 12},
        {"name": "sap-thm21-5^6", "kind": "sap", "spec": "thm21",
         "horizon": 5 ** 6, "n_max": 20, "all_failures": True},
        {"name": "emp-tm-2^16", "kind": "emp", "spec": "tm",
         "horizon": 2 ** 16, "n_max": 12},
        {"name": "pr-thm21-5^6", "kind": "pr", "spec": "thm21",
         "horizon": 5 ** 6, "n_max": 20},
        {"name": "pr-tm-2^14", "kind": "pr", "spec": "tm",
         "horizon": 2 ** 14, "n_max": 12},
        {"name": "cube-tm-2^15", "kind": "cube", "spec": "tm", "horizon": 2 ** 15},
        {"name": "cube-tm-2^16", "kind": "cube", "spec": "tm", "horizon": 2 ** 16},
    ]
    for job in jobs:
        job["part"] = "oracles-gate"
    return jobs


# ---------------------------------------------------------------------------
# oracles-random: a few hundred small jobs at horizons 2^9..2^12.
#
# The mix is stratified: every (oracle, spec family, horizon) cell gets the
# same number of jobs, and the seed draws only the parameters inside a cell.
# That keeps the total work of a job list nearly the same from seed to seed,
# so a change in wall time is the program's and not the draw's.
#
# Cube jobs are the exception to equal cells.  Periodic words (period <= 6),
# thm21tau pastes (every block repeated 4 or 5 times) and tm-triple fixtures
# all contain cubes at these horizons, so cube jobs draw mostly from the two
# families whose verdict the draw decides (about 58 % of prepend and 71 % of
# product specs are cube-free).  That keeps cube verdicts near half pass and
# half fail, as the check_regulator and check_sap verdicts already are; the
# report line of every run counts them.

RANDOM_ORACLES = ("creg", "sap", "cube", "emp")
RANDOM_FAMILIES = ("periodic", "prepend", "thm21tau", "fixture", "product")
RANDOM_HORIZONS = (2 ** 9, 2 ** 10, 2 ** 11, 2 ** 12)
RANDOM_PER_CELL = 5
CUBE_PER_CELL = {"periodic": 2, "thm21tau": 2, "fixture": 2, "prepend": 10,
                 "product": 9}


def _rand_word(rng, letters, lo, hi):
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _random_spec(rng, family):
    if family == "periodic":
        return "periodic:" + _rand_word(rng, "012", 1, 6)
    if family == "prepend":
        return "prepend:" + _rand_word(rng, "01", 1, 5) + ":tm"
    if family == "thm21tau":
        return "thm21tau:" + _rand_word(rng, "45", 1, 3)
    if family == "fixture":
        return f"fixture:tm-triple:{rng.randint(0, 3)}"
    left = rng.choice(("tm", "thm21"))
    return f"product:{left},periodic:" + _rand_word(rng, "ab", 1, 4)


def _random_reg(rng, spec):
    if rng.random() < 0.5:
        if spec.startswith("periodic:"):
            period = len(spec.split(":", 1)[1]) * rng.randint(1, 3)
        else:
            period = rng.randint(2, 32)
        return ["periodic", period]
    return ["id+c", rng.randint(1, 96)]


def random_jobs(seed):
    rng = random.Random(f"oracles-random:{seed}")
    jobs = []
    for oracle in RANDOM_ORACLES:
        for family in RANDOM_FAMILIES:
            for horizon in RANDOM_HORIZONS:
                per_cell = (CUBE_PER_CELL[family] if oracle == "cube"
                            else RANDOM_PER_CELL)
                for _ in range(per_cell):
                    spec = _random_spec(rng, family)
                    job = {"kind": oracle, "spec": spec, "horizon": horizon}
                    if oracle == "creg":
                        job["reg"] = _random_reg(rng, spec)
                        job["n_max"] = rng.randint(2, 8)
                    elif oracle in ("sap", "emp"):
                        job["n_max"] = rng.randint(2, 10)
                    jobs.append(job)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["name"] = f"r{i}-{job['kind']}"
        job["part"] = "oracles-random"
    return jobs


# ---------------------------------------------------------------------------
# machines: transducers against their decompositions, reductions over
# Thue-Morse with the empirical regulator B, one long automaton run, and
# marker-split reads.  Machine sizes are stratified by state count, and a
# transducer job reads a fixed number of input letters, so the work of a job
# list depends little on the draw.  A reduction job reduces four automata,
# which keeps it from being far cheaper than every other job.

MACHINE_TRANSDUCERS = 72
MACHINE_REDUCE_JOBS = 10  # each reduces one automaton of every size 1..4
TRANSDUCER_INPUTS = 10 ** 4
B_HORIZON = 2 ** 16
B_CHECKED = 12  # a build-B job's B is checked for n = 1..12 at least
MERGE2_LETTERS = 2 ** 17
SPLIT_BLOCKS = 2 ** 14


def random_transducer(rng, n_states):
    """Criterion-7 kind: 1-3 input letters, outputs of 0-2 letters over x/y."""
    n_letters = rng.randint(1, 3)
    letters = "abc"[:n_letters]
    states = [f"q{i}" for i in range(n_states)]
    delta = []
    for q in states:
        for s in letters:
            out = "".join(rng.choice("xy") for _ in range(rng.randint(0, 2)))
            delta.append([q, s, rng.choice(states), out])
    return {"letters": letters, "states": states, "delta": delta}


def random_automaton(rng, n_states):
    states = [f"q{i}" for i in range(n_states)]
    delta = [[q, s, rng.choice(states), rng.choice("01")]
             for q in states for s in "01"]
    return {"states": states, "delta": delta}


MERGE2 = {"states": ["q0", "q1"], "delta": [
    ["q0", "0", "q0", "0"], ["q1", "0", "q0", "0"],
    ["q0", "1", "q1", "1"], ["q1", "1", "q0", "1"],
]}


def machine_jobs(seed):
    rng = random.Random(f"machines:{seed}")
    jobs = [{"kind": "build-B", "horizon": B_HORIZON}]
    work = []
    for i in range(MACHINE_TRANSDUCERS):
        work.append({"kind": "transducer", "inputs": TRANSDUCER_INPUTS,
                     "machine": random_transducer(rng, 1 + i % 4)})
    for _ in range(MACHINE_REDUCE_JOBS):
        work.append({"kind": "reduce",
                     "machines": [random_automaton(rng, n) for n in range(1, 5)]})
    work.append({"kind": "run", "machine": MERGE2, "letters": MERGE2_LETTERS})
    work.append({"kind": "split", "marker": "0", "blocks": SPLIT_BLOCKS})
    work.append({"kind": "split", "marker": "1", "blocks": SPLIT_BLOCKS})
    rng.shuffle(work)
    jobs.extend(work)
    for i, job in enumerate(jobs):
        job["name"] = f"m{i}-{job['kind']}"
        job["part"] = "machines"
    return jobs


# ---------------------------------------------------------------------------
# cli-batch: one ``python -m apwords.cli`` child per job, every subcommand,
# pass and fail verdicts, a resource verdict and bad input.  ``{dir}`` in an
# argument is the directory where set-up wrote the input files.

CLI_FILES = {
    "swap.aut": "input: 0 1\noutput: 0 1\nstates: q\ninitial: q\n"
                "q 0 -> q 1\nq 1 -> q 0\n",
    "merge2.aut": "input: 0 1\noutput: 0 1\nstates: q0 q1\ninitial: q0\n"
                  "q0 0 -> q0 0\nq1 0 -> q0 0\nq0 1 -> q1 1\nq1 1 -> q0 1\n",
    "t.trans": "input: 0 1\noutput: 0 1\nstates: q\ninitial: q\n"
               "q 0 -> q -\nq 1 -> q 1 1\n",
    "tm.scheme": "labels A B\nstart A\nrule A A B\nrule B B A\n"
                 "decode A 0\ndecode B 1\n",
    "quint.scheme": "labels A B\nstart A\nrule A A B B A A\nrule B B A A B B\n"
                    "decode A 1\ndecode B 0\n",
    # B(n) of Thue-Morse at horizon 2^16, n = 1..12 (see expected.py).
    "tm.reg": "1 3\n2 9\n3 11\n4 21\n5 22\n6 41\n7 42\n8 43\n9 44\n"
              "10 81\n11 82\n12 83\n",
}

CLI_ARGVS = [
    ["gen", "--spec", "tm", "--count", "64"],
    ["gen", "--spec", "thm21", "--count", "24"],
    ["gen", "--spec", "product:tm,periodic:012", "--count", "4"],
    ["gen", "--spec", "scheme:{dir}/quint.scheme", "--count", "25"],
    ["run", "--auto", "{dir}/swap.aut", "--spec", "tm", "--count", "16"],
    ["run", "--auto", "{dir}/merge2.aut", "--spec", "tm", "--count", "4",
     "--with-states"],
    ["split", "--spec", "tm", "--marker", "0", "--reg", "id+c:3", "--count", "8",
     "--json"],
    ["reduce", "--auto", "{dir}/merge2.aut", "--spec", "tm",
     "--reg", "empirical:{dir}/tm.reg", "--json"],
    ["check-regulator", "--spec", "thm21", "--reg", "thm21",
     "--horizon", "3125", "--nmax", "6"],
    ["check-regulator", "--spec", "tm", "--reg", "id+c:1",
     "--horizon", "1024", "--nmax", "4", "--json"],
    ["check-regulator", "--spec", "tm", "--reg", "thm21",
     "--horizon", "64", "--nmax", "2"],
    ["check-sap", "--spec", "thm21", "--horizon", "3125", "--nmax", "8"],
    ["check-sap", "--spec", "tm", "--horizon", "2048", "--nmax", "6", "--json"],
    ["empirical-regulator", "--spec", "tm", "--horizon", "4096", "--nmax", "6",
     "--json"],
    ["pr-estimate", "--spec", "tm", "--horizon", "1024", "--nmax", "6"],
    ["pr-estimate", "--spec", "fixture:tm-triple:1", "--horizon", "1024",
     "--nmax", "6", "--json"],
    ["cube-check", "--spec", "tm", "--count", "1024"],
    ["cube-check", "--spec", "periodic:01", "--count", "64", "--json"],
    ["scheme-validate", "--scheme", "{dir}/quint.scheme", "--strengthened"],
    ["scheme-validate", "--scheme", "{dir}/tm.scheme", "--strengthened"],
    ["decompose", "--trans", "{dir}/t.trans"],
    ["gen", "--spec", "suffix:x:tm"],
    ["check-sap", "--spec", "tm", "--horizon", "not-a-number"],
    ["check-regulator", "--spec", "tm", "--reg", "bogus", "--horizon", "64"],
    ["run", "--auto", "{dir}/missing.aut", "--spec", "tm"],
]


def cli_jobs():
    return [{"name": f"c{i}-{argv[0]}", "kind": "cli", "part": "cli-batch",
             "index": i, "argv": argv}
            for i, argv in enumerate(CLI_ARGVS)]


def write_cli_files(directory):
    for name, text in CLI_FILES.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def jobs(workload, seed):
    if workload == "library":
        return [job for part in LIBRARY for job in jobs(part, seed)]
    if workload == "oracles-gate":
        return gate_jobs()
    if workload == "oracles-random":
        return random_jobs(seed)
    if workload == "machines":
        return machine_jobs(seed)
    if workload == "cli-batch":
        return cli_jobs()
    raise ValueError(f"unknown workload {workload!r}")
