"""The work budget a library call takes from BFOML_BUDGET."""

import pytest

from bfoml import (BfomlError, ResourceLimitError, decide_constant_eb,
                   decide_increasing, enumerate_sat, parse)

# Each call needs more than one unit of work.
TEXT = "(P(x) & E y [] Q(x,y))"
CALLS = [
    lambda: decide_increasing(parse(TEXT)),
    lambda: decide_constant_eb(parse(TEXT)),
    lambda: enumerate_sat(parse(TEXT), max_worlds=2, max_domain=2),
]


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("raw, reason", [
    ("lots", "BFOML_BUDGET must be an integer, got 'lots'"),
    ("0", "BFOML_BUDGET must be at least 1, got 0"),
    ("-3", "BFOML_BUDGET must be at least 1, got -3"),
])
def test_bad_environment_budget_is_a_typed_error(monkeypatch, call, raw, reason):
    monkeypatch.setenv("BFOML_BUDGET", raw)
    with pytest.raises(BfomlError) as caught:
        call()
    assert not isinstance(caught.value, ResourceLimitError)
    assert str(caught.value) == reason


@pytest.mark.parametrize("call", CALLS)
def test_environment_budget_applies(monkeypatch, call):
    monkeypatch.setenv("BFOML_BUDGET", "1")
    with pytest.raises(ResourceLimitError):
        call()
    monkeypatch.setenv("BFOML_BUDGET", "1000")
    assert call() is not None


def test_explicit_budget_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("BFOML_BUDGET", "lots")
    assert decide_increasing(parse("P(x)"), budget=10).is_sat
    assert decide_constant_eb(parse("P(x)"), budget=10).is_sat
    assert enumerate_sat(parse("P(x)"), max_worlds=1, max_domain=1, budget=10) is not None
