"""The golden corpus: every invocation in tests/golden/cli.json prints exactly
what the corpus records, and every library call in tests/golden/library.json
and machine call in tests/golden/machines.json returns it.  Regenerate all
three with tests/golden/regen.py."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CASES = json.loads(regen.CORPUS.read_text())
RECORDS = json.loads(regen.LIBRARY.read_text())
MACHINE_RECORDS = json.loads(regen.MACHINES.read_text())


def test_corpus_covers_every_invocation():
    assert [case["argv"] for case in CASES] == regen.argvs()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_corpus(tmp_path, case):
    regen.copy_inputs(tmp_path)
    assert regen.run(case["argv"], tmp_path) == case


def test_library_corpus_covers_every_call():
    assert [{k: v for k, v in r.items() if k != "result"} for r in RECORDS] == \
        regen.library_calls()


@pytest.mark.parametrize("record", RECORDS, ids=[
    f"{r['op']} {r['spec']} {r.get('reg', '-')} {r['horizon']} {r.get('n_max', '-')}"
    for r in RECORDS])
def test_library_output_matches_corpus(record):
    call = {k: v for k, v in record.items() if k != "result"}
    assert regen.library_record(call) == record


def _call(record):
    return {k: v for k, v in record.items() if k != "result"}


def test_machine_corpus_covers_every_call():
    assert [_call(r) for r in MACHINE_RECORDS] == regen.machine_calls()


@pytest.mark.parametrize("record", MACHINE_RECORDS, ids=[
    f"{i} {r['op']} {r['input']}" for i, r in enumerate(MACHINE_RECORDS)])
def test_machine_output_matches_corpus(record):
    assert regen.machine_record(_call(record)) == record
