"""Differential harness: generator hygiene and cross-procedure agreement."""

import os
import subprocess
import sys

import pytest

from bfoml import Fragment, Verdict, classify, decide_increasing, is_clean, is_nnf
from bfoml.errors import ArgumentError
from bfoml.fuzz import (DifferentialReport, FormulaGenerator, ModelGenerator,
                        run_eb_equivalence, run_oracle_agreement)
from bfoml.kripke import validate


def test_generator_is_deterministic():
    a = [FormulaGenerator(99).formula() for _ in range(50)]
    b = [FormulaGenerator(99).formula() for _ in range(50)]
    assert a == b


# 200 draws of seed 5 per fragment name; a bundle table whose order depended
# on the hash seed would change the stream.
GENERATOR_STREAM = """
import hashlib
from bfoml.fuzz import FormulaGenerator
digest = hashlib.sha256()
for fragment in ("full", "eb", "ed"):
    gen = FormulaGenerator(5, fragment)
    for _ in range(200):
        digest.update(str(gen.formula()).encode())
print(digest.hexdigest()[:16])
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_generator_streams_do_not_depend_on_the_hash_seed(hash_seed):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", GENERATOR_STREAM], capture_output=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.decode().strip() == "9a036e52d11d60ef"


def test_generator_emits_clean_nnf():
    gen = FormulaGenerator(101)
    for _ in range(200):
        f = gen.formula()
        assert is_clean(f) and is_nnf(f)


def test_generator_respects_fragment():
    # Bundle-free formulas sit in both single-bundle fragments and classify
    # as exists-box.
    for fragment, allowed in (("eb", {Fragment.EXISTS_BOX}),
                              ("ed", {Fragment.EXISTS_DIAMOND, Fragment.EXISTS_BOX})):
        gen = FormulaGenerator(103, fragment=fragment)
        for _ in range(100):
            f = gen.formula()
            got = classify(f)
            assert got in allowed
            assert got is not Fragment.FULL


def test_generator_rejects_an_unknown_fragment():
    # ArgumentError is both a BfomlError and a ValueError.
    with pytest.raises(ArgumentError, match="fragment must be one of"):
        FormulaGenerator(1, fragment="bogus")
    with pytest.raises(ValueError):
        FormulaGenerator(1, fragment="bogus")


def test_model_generator_emits_valid_models():
    gen = ModelGenerator(107)
    for _ in range(100):
        assert validate(gen.model()) is None
    for _ in range(50):
        assert gen.model(constant=True).is_constant_domain


def test_eb_equivalence_run():
    report = run_eb_equivalence(seed=1, cases=100)
    assert report.cases == 100
    assert report.ok, report.failures[:3]


def test_oracle_agreement_run_increasing():
    report = run_oracle_agreement(seed=1, cases=60, max_worlds=3, max_domain=2,
                                  oracle_budget=300_000)
    assert report.cases == 60
    assert report.ok, report.failures[:3]
    assert report.oracle_confirmed > 0


def test_oracle_agreement_run_constant():
    report = run_oracle_agreement(seed=2, cases=40, semantics="constant",
                                  max_worlds=3, max_domain=2,
                                  oracle_budget=300_000)
    assert report.ok, report.failures[:3]


def test_zero_cases_pass_trivially():
    assert run_eb_equivalence(seed=1, cases=0).ok


def test_report_lines_have_counts():
    report = DifferentialReport(cases=3, sat=2, unsat=1)
    assert "cases=3" in report.lines()[0]


def test_oracle_exhaustiveness_against_extracted_models():
    # If the oracle exhausts the (2,2) space without a hit, the tableau's
    # extracted model must genuinely need more worlds or elements.
    from bfoml import enumerate_sat, ResourceLimitError
    gen = FormulaGenerator(31337)
    for _ in range(120):
        f = gen.formula()
        r = decide_increasing(f)
        if r.verdict is not Verdict.SAT:
            continue
        try:
            found = enumerate_sat(f, 2, 2, "increasing", budget=3_000_000)
        except ResourceLimitError:
            continue
        if found is None:
            assert len(r.model.worlds) > 2 or len(r.model.domain) > 2


def test_formula_and_negation_never_both_unsatisfiable():
    from bfoml import cleanse, to_nnf
    from bfoml.formulas import Not
    gen = FormulaGenerator(5017)
    for _ in range(100):
        f = gen.formula()
        a = decide_increasing(f).verdict
        b = decide_increasing(cleanse(to_nnf(Not(f)))).verdict
        assert Verdict.SAT in (a, b)


def test_contradictions_and_tautologies():
    # f & nnf(!f) is always unsatisfiable, f | nnf(!f) always valid.
    from bfoml import cleanse, to_nnf
    from bfoml.formulas import And, Not, Or
    gen = FormulaGenerator(777777)
    for _ in range(100):
        f = gen.formula()
        assert decide_increasing(cleanse(And(f, to_nnf(Not(f))))).verdict \
            is Verdict.UNSAT
        assert decide_increasing(cleanse(Or(f, to_nnf(Not(f))))).verdict \
            is Verdict.SAT


def test_unsat_verdicts_cross_checked_by_exhaustion():
    # Everything the tableau rejects has no tiny model either.
    gen = FormulaGenerator(109)
    checked = 0
    from bfoml import enumerate_sat, ResourceLimitError
    while checked < 25:
        f = gen.formula()
        if decide_increasing(f).verdict is not Verdict.UNSAT:
            continue
        try:
            assert enumerate_sat(f, 2, 2, budget=2_000_000) is None
        except ResourceLimitError:
            pass
        checked += 1


def test_generator_rejects_an_empty_variable_list_when_built():
    # Without a variable there is no literal to draw: the first draw would fail.
    with pytest.raises(ArgumentError, match="at least one variable"):
        FormulaGenerator(1, variables=())
