"""Record classes: construction, equality, hashing, repr, immutability and
copying, the same for every record the package returns."""

import copy
import pickle

import pytest

from apwords import (
    BINARY,
    Alphabet,
    Counterexample,
    ReductionReport,
    ReductionStep,
    SchemeError,
    SchemeSpec,
    SpecNode,
    SplitResult,
    TauSpec,
    Verdict,
    word,
)
from apwords.words import SchemeVerdict

W = word("01")
CE = Counterexample(W, 3, 4)
TM_RULES = {"0": "01", "1": "10"}
IDENTITY = {"0": "0", "1": "1"}
TM_SCHEME = SchemeSpec(BINARY, TM_RULES, IDENTITY, "0")

# (class, positional args, the same record by keyword with defaults left
# out, the args with one compared field changed, exact repr)
RECORDS = [
    (Counterexample, (W, 3, 4), dict(window_len=4, factor=W, window_start=3),
     (W, 3, 5),
     "Counterexample(factor=Word('01'), window_start=3, window_len=4)"),
    (Verdict, ("pass", 5, None, (), 0, ""), dict(horizon=5, status="pass"),
     ("pass", 6, None, (), 0, ""),
     "Verdict(status='pass', horizon=5, counterexample=None, failures=(), "
     "failure_count=0, note='')"),
    (Verdict, ("fail", 9, CE, ((2, CE),), 1, "x"),
     dict(status="fail", horizon=9, counterexample=CE, failures=((2, CE),),
          failure_count=1, note="x"),
     ("fail", 9, CE, ((2, CE),), 1, "y"),
     "Verdict(status='fail', horizon=9, counterexample=Counterexample("
     "factor=Word('01'), window_start=3, window_len=4), failures=((2, "
     "Counterexample(factor=Word('01'), window_start=3, window_len=4)),), "
     "failure_count=1, note='x')"),
    (SchemeSpec, (BINARY, TM_RULES, IDENTITY, "0"),
     dict(labels=BINARY, rules=TM_RULES, decode=IDENTITY, start="0"),
     (BINARY, {"0": "10", "1": "10"}, IDENTITY, "1"),
     "SchemeSpec(labels=Alphabet(['0', '1']), rules={'0': '01', '1': '10'}, "
     "decode={'0': '0', '1': '1'}, start='0')"),
    (TauSpec, ((4, 5),), dict(pattern=(4, 5)), ((5, 4),),
     "TauSpec(pattern=(4, 5))"),
    (SchemeVerdict, (True, None, ()),
     dict(failures=(), basic_ok=True, strengthened_ok=None),
     (True, False, ()),
     "SchemeVerdict(basic_ok=True, strengthened_ok=None, failures=())"),
    (SpecNode, ("tm", (), ()), dict(kind="tm"), ("tm", (3,), ()),
     "SpecNode(kind='tm', args=(), children=())"),
    (SpecNode, ("suffix", (3,), (SpecNode("tm"),)),
     dict(kind="suffix", args=(3,), children=(SpecNode("tm"),)),
     ("suffix", (4,), (SpecNode("tm"),)),
     "SpecNode(kind='suffix', args=(3,), children=(SpecNode(kind='tm', "
     "args=(), children=()),))"),
    (SplitResult, ("1", "blocks", {}, 2, "seq", 5, "orig"),
     dict(marker="1", block_alphabet="blocks", decode={}, offset=2,
          split_sequence="seq", max_block_len=5, original="orig"),
     ("1", "blocks", {}, 3, "seq", 5, "orig"),
     "SplitResult(marker='1', block_alphabet='blocks', decode={}, offset=2, "
     "split_sequence='seq', max_block_len=5, original='orig')"),
    (ReductionStep, ("0", ("p",), None, "auto", 7),
     dict(letter="0", image=("p",), split_result=None, automaton="auto",
          deleted_letters=7),
     ("0", ("p",), None, "auto", 8),
     "ReductionStep(letter='0', image=('p',), split_result=None, "
     "automaton='auto', deleted_letters=7)"),
    (ReductionReport, ([], "auto", 0, 12),
     dict(steps=[], final_automaton="auto", deleted_prefix_len=0,
          theorem_bound=12),
     ([], "auto", 0, 13),
     "ReductionReport(steps=[], final_automaton='auto', deleted_prefix_len=0, "
     "theorem_bound=12)"),
]
MUTABLE = (SplitResult, ReductionStep, ReductionReport)
IDS = [f"{case[0].__name__}-{i}" for i, case in enumerate(RECORDS)]


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=IDS)
def test_construction_equality_and_repr(cls, args, kwargs, other, text):
    rec = cls(*args)
    assert repr(rec) == text
    assert rec == cls(**kwargs)
    assert not rec != cls(*args)
    assert rec != cls(*other)
    assert rec != args  # a record never equals a tuple of its values
    with pytest.raises(TypeError):
        cls(*args, None)


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=IDS)
def test_hash_and_assignment(cls, args, kwargs, other, text):
    rec = cls(*args)
    field = text[len(cls.__name__) + 1:].split("=", 1)[0]
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, field, "changed")
        assert getattr(rec, field) == "changed"
        return
    assert hash(rec) == hash(cls(**kwargs))
    assert len({rec, cls(*args), cls(*other)}) == 2
    with pytest.raises(AttributeError):
        setattr(rec, field, "changed")
    with pytest.raises(AttributeError):
        delattr(rec, field)
    assert rec == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=IDS)
def test_copy_and_pickle(cls, args, kwargs, other, text):
    rec = cls(*args)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls
        assert repr(twin) == text
        assert twin == rec


def test_scheme_spec_compares_labels_and_start_only():
    other = SchemeSpec(BINARY, {"0": "00", "1": "11"}, {"0": "1", "1": "0"}, "0")
    assert other == TM_SCHEME
    assert hash(other) == hash(TM_SCHEME)
    assert SchemeSpec(BINARY, TM_RULES, IDENTITY, "1") != TM_SCHEME
    assert SchemeSpec(Alphabet("ab"), {"a": "ab", "b": "ba"}, {"a": "0", "b": "1"},
                      "a") != TM_SCHEME


@pytest.mark.parametrize("rules, start, message", [
    ({"0": "01"}, "0", "no rule for label '1'"),
    ({"0": "011", "1": "10"}, "0", None),  # images of different lengths
    ({"0": "01", "1": "1"}, "0", "rule images must have length >= 2"),
    ({"0": "0", "1": "1"}, "0", "rule images must have length >= 2"),
    ({"0": "01", "1": "10"}, None, "start label missing from label alphabet"),
    ({"0": "10", "1": "01"}, "0", None),  # first labels 0 -> 1 -> 0
    ({"0": "10", "1": "10"}, "0",  # first labels 0 -> 1 -> 1 -> ...
     "first labels of images from the start label must lead back to it"),
])
def test_scheme_spec_validation(rules, start, message):
    if message is None:
        assert SchemeSpec(BINARY, rules, IDENTITY, start).rules == rules
    else:
        with pytest.raises(SchemeError, match=message):
            SchemeSpec(BINARY, rules, IDENTITY, start)
    with pytest.raises(SchemeError, match="no decode entry for label '1'"):
        SchemeSpec(BINARY, TM_RULES, {"0": "0"}, "0")


@pytest.mark.parametrize("pattern, message", [
    ((), "tau pattern must be non-empty"),
    ((4, 3), r"tau values must be in \{4, 5\}"),
])
def test_tau_spec_validation(pattern, message):
    with pytest.raises(ValueError, match=message):
        TauSpec(pattern)
