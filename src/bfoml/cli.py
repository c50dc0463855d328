"""Command-line front end.

Commands: sat, check, nnf, clean, info, translate, oracle, fuzz, validate.
Verdicts go to stdout; a one-line run report (node count, elapsed) to stderr.
Exit codes: sat and oracle use 10 for SAT, 20 for UNSAT/none-found; check
uses 0 for true and 3 for false; fuzz uses 0 only when no comparison failed;
every error path exits 1 with a message on stderr and no verdict on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .enumeration import enumerate_sat
from .errors import BfomlError, InternalSolverError
from .fo import (build_witness_model, fo_check, fo_enumerate_sat,
                 fo_model_loads, parse_fo, translate_sentence)
from .formulas import (ast_size, classify, cleanse, exists_box_vars,
                       format_formula, free_vars, modal_depth, to_nnf, var_key)
from .fuzz import run_eb_equivalence, run_oracle_agreement
from .kripke import check, model_loads, validate
from .limits import resolve_budget
from .parser import parse, parse_var_name
from .tableau_constant import decide_constant_eb
from .tableau_increasing import decide_increasing

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_FALSE = 3


def _read_formula_arg(args) -> str:
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            return handle.read()
    if args.formula is None:
        raise BfomlError("provide a formula inline or with --file")
    return args.formula


def _cmd_sat(args) -> int:
    started = time.perf_counter()
    formula = parse(_read_formula_arg(args))
    if args.semantics == "constant":
        result = decide_constant_eb(formula, budget=args.budget, tracing=args.trace is not None)
    else:
        result = decide_increasing(formula, budget=args.budget, tracing=args.trace is not None)
    if args.model and result.model is not None:
        with open(args.model, "w", encoding="utf-8") as handle:
            handle.write(result.model.dumps() + "\n")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write("\n".join(result.trace or ()) + "\n")
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if result.nodes_expanded < 1:
        raise InternalSolverError("a decision expanded no tableau node")
    print(result.verdict.value)
    print(f"nodes={result.nodes_expanded} elapsed-ms={elapsed_ms:.1f}", file=sys.stderr)
    return EXIT_SAT if result.is_sat else EXIT_UNSAT


def _cmd_check(args) -> int:
    with open(args.model, encoding="utf-8") as handle:
        model = model_loads(handle.read())
    formula = parse(_read_formula_arg(args))
    assignment = {}
    for item in args.assign or ():
        name, sep, element = item.partition("=")
        if not sep or not name or not element:
            raise BfomlError(f"bad --assign {item!r}, expected var=element")
        assignment[parse_var_name(name)] = element
    value = check(model, args.world, assignment, formula)
    print("true" if value else "false")
    return 0 if value else EXIT_FALSE


def _cmd_nnf(args) -> int:
    print(format_formula(to_nnf(parse(_read_formula_arg(args)))))
    return 0


def _cmd_clean(args) -> int:
    print(format_formula(cleanse(parse(_read_formula_arg(args)))))
    return 0


def _cmd_info(args) -> int:
    formula = parse(_read_formula_arg(args))
    fv = ",".join(str(v) for v in sorted(free_vars(formula), key=var_key))
    ebv = ",".join(str(v) for v in sorted(exists_box_vars(formula), key=var_key))
    print(f"fragment={classify(formula).value}")
    print(f"free-vars={{{fv}}}")
    print(f"exists-box-vars={{{ebv}}}")
    print(f"modal-depth={modal_depth(formula)}")
    print(f"ast-size={ast_size(formula)}")
    return 0


def _cmd_translate(args) -> int:
    sentence = parse_fo(_read_formula_arg(args))
    print(format_formula(translate_sentence(sentence)))
    if args.witness:
        if args.fo_model:
            with open(args.fo_model, encoding="utf-8") as handle:
                fo_model = fo_model_loads(handle.read())
        else:
            fo_model = fo_enumerate_sat(sentence, args.max_domain)
            if fo_model is None:
                raise BfomlError(
                    f"no satisfying relational model with at most {args.max_domain} "
                    "elements; cannot build a witness")
        if not fo_check(fo_model, sentence):
            raise BfomlError("the relational model does not satisfy the sentence")
        witness = build_witness_model(fo_model, sentence)
        with open(args.witness, "w", encoding="utf-8") as handle:
            handle.write(witness.dumps() + "\n")
    return 0


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    formula = parse(_read_formula_arg(args))
    found = enumerate_sat(formula, args.max_worlds, args.max_domain,
                          args.semantics, budget=args.budget)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if found is None:
        print("NONE")
        print(f"elapsed-ms={elapsed_ms:.1f}", file=sys.stderr)
        return EXIT_UNSAT
    if args.model:
        with open(args.model, "w", encoding="utf-8") as handle:
            handle.write(found.model.dumps() + "\n")
    print("SAT")
    print(f"elapsed-ms={elapsed_ms:.1f}", file=sys.stderr)
    return EXIT_SAT


def _cmd_fuzz(args) -> int:
    reports = []
    if args.fragment == "eb":
        reports.append(("eb-equivalence",
                        run_eb_equivalence(args.seed, args.count, budget=args.budget)))
    reports.append((
        f"oracle-agreement-{args.semantics}",
        run_oracle_agreement(args.seed, args.count, fragment=args.fragment,
                             semantics=args.semantics, max_worlds=args.max_worlds,
                             max_domain=args.max_domain, budget=args.budget,
                             oracle_budget=args.oracle_budget)))
    ok = True
    for name, report in reports:
        for line in report.lines():
            print(f"{name}: {line}")
        ok = ok and report.ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    with open(args.model, encoding="utf-8") as handle:
        model = model_loads(handle.read())
    violation = validate(model)
    if violation is None:
        print("ok")
        return 0
    print(f"violation: {violation.code} at {violation.subject}: {violation.message}")
    return 1


def _formula_args(sub, with_file=True):
    sub.add_argument("formula", nargs="?", help="formula text")
    if with_file:
        sub.add_argument("--file", help="read the formula from this file instead")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bfoml", description=__doc__.splitlines()[0])
    commands = top.add_subparsers(dest="command", required=True)

    sat = commands.add_parser("sat", help="decide satisfiability with a tableau")
    _formula_args(sat)
    sat.add_argument("--semantics", choices=("increasing", "constant"),
                     default="increasing")
    sat.add_argument("--model", help="write the model found to this JSON file")
    sat.add_argument("--trace", help="write the explored tableau to this file")
    sat.add_argument("--budget", type=int, default=None,
                     help="node budget (default from BFOML_BUDGET)")
    sat.set_defaults(handler=_cmd_sat)

    chk = commands.add_parser("check", help="evaluate a formula in a model")
    chk.add_argument("model", help="model JSON file")
    _formula_args(chk)
    chk.add_argument("--world", required=True)
    chk.add_argument("--assign", action="append", metavar="VAR=ELEMENT")
    chk.set_defaults(handler=_cmd_check)

    nnf = commands.add_parser("nnf", help="print the negation normal form")
    _formula_args(nnf)
    nnf.set_defaults(handler=_cmd_nnf)

    cln = commands.add_parser("clean", help="print the cleansed formula")
    _formula_args(cln)
    cln.set_defaults(handler=_cmd_clean)

    info = commands.add_parser("info", help="print fragment and measures")
    _formula_args(info)
    info.set_defaults(handler=_cmd_info)

    tr = commands.add_parser("translate",
                             help="encode a prenex FO(R) sentence into the modal language")
    _formula_args(tr)
    tr.add_argument("--witness", help="also write a witness model to this JSON file")
    tr.add_argument("--fo-model", help="relational model JSON to build the witness from")
    tr.add_argument("--max-domain", type=int, default=3,
                    help="search bound when no relational model is supplied")
    tr.set_defaults(handler=_cmd_translate)

    orc = commands.add_parser("oracle", help="bounded brute-force model search")
    _formula_args(orc)
    orc.add_argument("--semantics", choices=("increasing", "constant"),
                     default="increasing")
    orc.add_argument("--max-worlds", type=int, default=4)
    orc.add_argument("--max-domain", type=int, default=3)
    orc.add_argument("--model", help="write the model found to this JSON file")
    orc.add_argument("--budget", type=int, default=None)
    orc.set_defaults(handler=_cmd_oracle)

    fz = commands.add_parser("fuzz", help="seeded differential testing")
    fz.add_argument("--seed", type=int, default=1)
    fz.add_argument("--count", type=int, default=100)
    fz.add_argument("--fragment", choices=("full", "eb", "ed"), default="full")
    fz.add_argument("--semantics", choices=("increasing", "constant"),
                    default="increasing")
    fz.add_argument("--max-worlds", type=int, default=4)
    fz.add_argument("--max-domain", type=int, default=3)
    fz.add_argument("--budget", type=int, default=None)
    fz.add_argument("--oracle-budget", type=int, default=None)
    fz.set_defaults(handler=_cmd_fuzz)

    val = commands.add_parser("validate", help="validate a model JSON file")
    val.add_argument("model", help="model JSON file")
    val.set_defaults(handler=_cmd_validate)

    return top


def _check_numbers(args) -> None:
    """Reject numbers that make no sense, then fill in the default budget."""
    for name in ("budget", "oracle_budget", "max_worlds", "max_domain"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise BfomlError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    if getattr(args, "count", 0) < 0:
        raise BfomlError(f"--count must not be negative, got {args.count}")
    if hasattr(args, "budget"):
        args.budget = resolve_budget(args.budget)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        return args.handler(args)
    except BfomlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
