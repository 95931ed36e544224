"""Hand-written expected answers for the two fixed workloads.

``selftest.py`` re-derives the oracles-gate answers with the reference
oracles.
"""

C1 = "10011" * 4  # the level-1 quadruple block, never recurring in thm21

GATE = {
    "creg-thm21-5^6": {"status": "pass"},
    "creg-thm21-5^7": {"status": "pass"},
    # 78 factors of length <= 20 fail; c1 must be among the witnesses.
    "sap-thm21-5^6": {"status": "fail", "failure_count": 78, "witness": C1},
    "emp-tm-2^16": {"table": {"1": 3, "2": 9, "3": 11, "4": 21, "5": 22, "6": 41,
                              "7": 42, "8": 43, "9": 44, "10": 81, "11": 82,
                              "12": 83}},
    # The reference oracle's value.  Acceptance criterion 9 asks for None
    # here, which no falsifier capped at factor length 20 can return: past
    # position ~30 every such factor recurs within reg_thm21(20) = 374
    # letters, so the cut at 16 passes.  That test fails on purpose; this
    # benchmark checks the value the definitions give.
    "pr-thm21-5^6": {"estimate": 16},
    "pr-tm-2^14": {"estimate": 0},
    "cube-tm-2^15": {"status": "pass"},
    "cube-tm-2^16": {"status": "pass"},
}

# One entry per workloads.CLI_ARGVS line: (exit code, how to check stdout).
#   ("text", s): stdout is s plus a newline
#   ("json", d): stdout is one JSON object whose fields include d
#   ("tsv", d):  stdout is one tab-separated line; column i equals d[i]
#   ("lines", l): stdout holds every line in l
#   None:        stdout is not checked (usage errors go to stderr)
CLI = [
    (0, ("text", "0110100110010110100101100110100110010110011010010110100110010110")),
    (0, ("text", "1111" + C1)),
    (0, ("text", "('0', '0') ('1', '1') ('1', '2') ('0', '0')")),
    (0, ("text", "1001101100011001001110011")),
    (0, ("text", "1001011001101001")),
    (0, ("text", "('0', 'q0') ('1', 'q0') ('1', 'q1') ('0', 'q0')")),
    (0, ("json", {"offset": 1, "max_block_len": 3,
                  "alphabet": {"b0": "110", "b1": "10", "b2": "0"},
                  "blocks": ["b0", "b1", "b2", "b0", "b2", "b1", "b0", "b1"]})),
    (0, ("json", {"steps": 1, "letters": ["0"], "state_counts": [2, 1],
                  "deleted_prefix_len": 1, "theorem_bound": 14,
                  "final_reversible": True})),
    (0, ("tsv", {0: "check-regulator", 4: "pass", 5: "-"})),
    (1, ("json", {"status": "fail", "failure_count": 1,
                  "counterexample": {"factor": "0", "window_start": 1,
                                     "window_len": 2}})),
    (3, ("tsv", {4: "inconclusive"})),
    (1, ("tsv", {4: "fail", 5: "1111@2+3123"})),
    (0, ("json", {"status": "pass", "failure_count": 0, "counterexample": None})),
    (0, ("json", {"table": {"1": 3, "2": 9, "3": 11, "4": 21, "5": 22, "6": 41}})),
    (0, ("text", "pr-estimate\t0")),
    (0, ("json", {"estimate": 4})),
    (0, ("tsv", {0: "cube-check", 4: "pass", 5: "-"})),
    (1, ("json", {"status": "fail",
                  "counterexample": {"factor": "01", "window_start": 0,
                                     "window_len": 6}})),
    (0, ("text", "basic\tpass\nstrengthened\tpass")),
    (1, ("lines", ["basic\tpass", "strengthened\tfail",
                   "failure\tpair 'A''A' not adjacent in image of 'A'"])),
    (0, ("lines", ["# state-tracing automaton", "states: q",
                   "q 1 -> q ('1', 'q')", "# homomorphism",
                   "('0', 'q') -> -", "('1', 'q') -> 1 1"])),
    (2, None),
    (2, None),
    (2, None),
    (2, None),
]
