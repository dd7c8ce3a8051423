"""The value-level checker flags wrong, missing and extra records."""

from checker import agrees, compare

REFERENCE = {
    (1, 0, 1): "-1/3",
    (2, 1, 9): "0.0,964.963525524104759480000000000000000000",
    (2, 3, 9): "12.5,-0.25",
    (3, 0, 9): "0.0,0.0",
}
OUTPUT = {
    (1, 0, 1): "-1/3",
    (2, 1, 9): "-1.3542884429964195777e-60,964.96352552410475948",
    (2, 3, 9): "12.5,-0.25",
    (3, 0, 9): "0.0,0.0",
}


def test_matching_output_passes_in_any_order():
    assert compare(dict(reversed(list(OUTPUT.items()))), REFERENCE) == {}


def test_perturbed_values_are_flagged():
    out = dict(OUTPUT)
    out[(1, 0, 1)] = "-2/6"  # same rational, different text: fine
    assert compare(out, REFERENCE) == {}
    out[(1, 0, 1)] = "-1/4"
    out[(2, 1, 9)] = "0.0,964.96352552410475848"  # off in the 18th digit
    assert set(compare(out, REFERENCE)) == {(1, 0, 1), (2, 1, 9)}


def test_missing_nonzero_record_is_flagged_but_zero_may_be_missing():
    out = dict(OUTPUT)
    del out[(3, 0, 9)]
    assert compare(out, REFERENCE) == {}
    del out[(2, 3, 9)]
    assert list(compare(out, REFERENCE)) == [(2, 3, 9)]
    assert "missing" in compare(out, REFERENCE)[(2, 3, 9)]


def test_extra_record_is_flagged():
    out = dict(OUTPUT)
    out[(4, 0, 9)] = "0.0,1.0"
    problems = compare(out, REFERENCE)
    assert list(problems) == [(4, 0, 9)] and "extra" in problems[(4, 0, 9)]


def test_rational_and_numeric_never_agree():
    assert not agrees("1", "1.0,0.0")
    assert not agrees("1.0,0.0", "1")
    assert agrees("0.0,0.0", "0.0,0.0")
    assert not agrees("1e-30,0.0", "0.0,0.0")
