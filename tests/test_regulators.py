"""Regulator values and the derived-bound calculus."""

import pytest

import apwords as ap
from apwords import (
    Regulator,
    identity_plus,
    linear,
    load_table_regulator,
    parse_regulator,
    periodic_regulator,
    pointwise_max,
    reg_iterated_bound,
    reg_reversible_distance,
    reg_split,
    reg_thm21,
    scaled,
    table_regulator,
)


def ident():
    return Regulator(lambda n: n, "derived", "identity")


def test_quintuple_regulator_values():
    r = reg_thm21()
    # minimal level n with k < 5^n, then (5^(n+1) - 1) + 2*5^(n+1)
    assert r(1) == 74
    assert r(4) == 74
    assert r(5) == 374
    assert r(24) == 374
    assert r(25) == 1874
    assert r.provenance == "explicit-formula"


def test_split_regulator():
    r2n = Regulator(lambda n: 2 * n, "derived", "2n")
    rp = reg_split(r2n, 3)
    assert rp(1) == 8
    assert rp(4) == 26
    assert rp.provenance == "derived"
    assert reg_split(identity_plus(3), 2).description == "split(k=2) of id+c:3"
    with pytest.raises(ValueError, match="^max block length must be >= 1$"):
        reg_split(r2n, 0)
    rp1 = reg_split(identity_plus(1), 1)
    for m in range(1, 10):
        assert rp1(m) == m + 2


def test_split_regulator_dominates_original():
    for r in [ident(), identity_plus(3), linear(2, 1), reg_thm21()]:
        for k in (1, 2, 5):
            rp = reg_split(r, k)
            for m in range(1, 20):
                assert rp(m) >= r(m)


def test_iterated_bound():
    assert reg_iterated_bound(identity_plus(1), 3) == 2 + 3 + 4
    assert reg_iterated_bound(Regulator(lambda k: 2 * k, "derived", "2k"), 3) == 14
    r = reg_thm21()
    assert reg_iterated_bound(r, 1) == r(1)


def test_iterated_bound_monotone_in_state_count():
    for r in [identity_plus(1), linear(2, 0), reg_thm21()]:
        prev = 0
        for n in range(1, 6):
            cur = reg_iterated_bound(r, n)
            assert cur >= prev
            prev = cur


def test_reversible_distance():
    assert reg_reversible_distance(ident(), 1, 3) == 4
    assert reg_reversible_distance(Regulator(lambda k: 2 * k, "derived", "2k"), 1, 2) == 7
    r = reg_thm21()
    assert reg_reversible_distance(r, 6, 1) == r(6) + 1


def test_monotonicity_sampled():
    for r in [
        ident(),
        identity_plus(5),
        linear(3, 2),
        periodic_regulator(7),
        reg_thm21(),
        pointwise_max(identity_plus(1), linear(2, 0)),
        scaled(identity_plus(1), 4),
    ]:
        values = [r(n) for n in range(1, 65)]
        assert values == sorted(values), r
        assert all(v >= n for n, v in enumerate(values, 1)), r


def test_pointwise_max_and_scaled():
    a, b = identity_plus(10), linear(3, 0)
    m = pointwise_max(a, b)
    for n in range(1, 30):
        assert m(n) == max(a(n), b(n))
    s = scaled(identity_plus(0), 4)
    assert s(5) == 20
    with pytest.raises(ValueError, match="^scale factor must be >= 1$"):
        scaled(a, 0)


def test_periodic_regulator():
    r = periodic_regulator(3)
    assert r(1) == 3
    assert r(4) == 6


def test_periodic_regulator_rejects_period_below_one():
    for period in (0, -2):
        with pytest.raises(ValueError):
            periodic_regulator(period)


def test_linear_rejects_offset_below_one_at_construction():
    # r(1) = a + b is the smallest margin r(n) - n + 1 of a*n + b with a >= 1
    for a, b in ((1, -5), (1, -1), (3, -3)):
        with pytest.raises(ValueError):
            linear(a, b)
    assert linear(1, 0)(1) == 1 and linear(3, -2)(1) == 1
    with pytest.raises(ValueError):
        parse_regulator("lin:1:-5")


def test_call_rejects_value_below_length():
    r = Regulator(lambda n: 2 if n < 3 else n - 1, "derived", "short")
    assert r(2) == 2
    with pytest.raises(ValueError, match=r"^short: r\(3\) = 2 < 3$"):
        r(3)
    with pytest.raises(ValueError, match="^unknown provenance 'bogus'$"):
        Regulator(lambda n: n, "bogus", "d")


def test_table_regulator_rejects_bad_tables(tmp_path):
    for table in ({1: 3, 2: 9, 3: 8}, {1: 1, 2: 1}, {2: 5, 1: 6}):
        with pytest.raises(ValueError):
            table_regulator(table)
    p = tmp_path / "bad.reg"
    p.write_text("1 3\n2 9\n3 8\n")
    with pytest.raises(ValueError):
        load_table_regulator(str(p))
    p.write_text("1 3\n2 \u0669\n")  # an Arabic-Indic 9
    with pytest.raises(ValueError, match=f"{p}:2: expected two integers"):
        load_table_regulator(str(p))


def test_resource_ceiling():
    r = reg_thm21()
    with pytest.raises(ap.ResourceLimitError):
        r(2 ** 49)


def test_arg_validation():
    r = ident()
    with pytest.raises(ValueError):
        r(0)
    with pytest.raises(ValueError):
        reg_iterated_bound(r, 0)
    with pytest.raises(ValueError):
        reg_reversible_distance(r, 0, 1)


def test_parse_regulator_descriptors():
    assert parse_regulator("id+c:3")(5) == 8
    assert parse_regulator("lin:2:5")(4) == 13
    assert parse_regulator("thm21")(4) == 74
    for bad in ["", "id+c:", "lin:2", "nope:1", "id+c:x", "id+c:-5"]:
        with pytest.raises(ValueError):
            parse_regulator(bad)


def test_regulator_repr():
    assert repr(parse_regulator("id+c:3")) == "Regulator('id+c:3', explicit-formula)"


@pytest.mark.parametrize("text, form", [
    ("lin:1", "lin:<a>:<b>"), ("lin:1:2:3", "lin:<a>:<b>"), ("lin:1:x", "lin:<a>:<b>"),
    ("id+c:x", "id+c:<c>"), ("id+c:", "id+c:<c>"), ("id+c:1:2", "id+c:<c>"),
    ("id+c:\u0663", "id+c:<c>"), ("lin:\uff12:5", "lin:<a>:<b>"),
])
def test_parse_regulator_names_the_bad_descriptor(text, form):
    with pytest.raises(ValueError) as exc:
        parse_regulator(text)
    assert str(exc.value) == (
        f"bad regulator descriptor {text!r}: expected {form} with integer values")


def test_table_regulator(tmp_path):
    r = table_regulator({1: 3, 2: 9})
    assert r(1) == 3 and r(2) == 9
    with pytest.raises(ap.ResourceLimitError):
        r(3)
    p = tmp_path / "b.reg"
    p.write_text("# empirical table\n1 3\n2 9\n3 11\n")
    rt = load_table_regulator(str(p))
    assert rt(3) == 11
    assert parse_regulator(f"empirical:{p}")(2) == 9
    # the path is all of the descriptor after the first ':'
    d = tmp_path / "a:b"
    d.mkdir()
    p.rename(d / "t.reg")
    assert parse_regulator(f"empirical:{d / 't.reg'}")(3) == 11


def test_repeated_evaluation_agrees():
    r = reg_thm21()
    assert [r(n) for n in range(1, 30)] == [r(n) for n in range(1, 30)]
