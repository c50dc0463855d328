"""The work budget a library call takes from BFOML_BUDGET or as an argument."""

import pytest

from bfoml import (BfomlError, ResourceLimitError, decide_constant_eb,
                   decide_increasing, enumerate_sat, parse)
from bfoml.fuzz import run_oracle_agreement

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


@pytest.mark.parametrize("budget", [0, -4])
@pytest.mark.parametrize("call", [
    decide_increasing,
    decide_constant_eb,
    lambda f, budget: enumerate_sat(f, max_worlds=2, max_domain=2, budget=budget),
])
def test_explicit_budget_below_one_is_a_typed_error(call, budget):
    with pytest.raises(BfomlError) as caught:
        call(parse(TEXT), budget=budget)
    assert not isinstance(caught.value, ResourceLimitError)
    assert str(caught.value) == f"budget must be at least 1, got {budget}"


@pytest.mark.parametrize("text, max_worlds, max_domain, reason", [
    ("P(x)", 0, 3, "max_worlds must be at least 1, got 0"),
    ("E x [] P(x)", 2, 0, "max_domain must be at least 1, got 0"),
    ("P(x)", -1, 2, "max_worlds must be at least 1, got -1"),
])
def test_enumerate_sat_rejects_empty_bounds(text, max_worlds, max_domain, reason):
    with pytest.raises(BfomlError) as caught:
        enumerate_sat(parse(text), max_worlds, max_domain)
    assert not isinstance(caught.value, ResourceLimitError)
    assert str(caught.value) == reason


def test_oracle_agreement_rejects_a_zero_oracle_budget():
    # Counting each budget-out as inconclusive would report a vacuous pass.
    with pytest.raises(BfomlError) as caught:
        run_oracle_agreement(1, 20, oracle_budget=0)
    assert not isinstance(caught.value, ResourceLimitError)
