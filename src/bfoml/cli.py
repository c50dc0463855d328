"""Command-line front end.

Commands: sat, check, nnf, clean, info, translate, oracle, fuzz, validate.
Verdicts go to stdout; a one-line run report (node count, elapsed) to stderr.
Exit codes: sat and oracle use 10 for SAT, 20 for UNSAT/none-found; check
uses 0 for true and 3 for false; fuzz uses 0 only when no comparison failed;
every error path exits 1 with a message on stderr and no verdict on stdout.
That includes a file that cannot be read or is not UTF-8 text, an empty
``--model``, ``--trace`` or ``--witness`` path, a ``check --assign`` whose
name is not a variable such as ``x`` or ``x^2`` or names one given before,
and ``translate --fo-model`` without ``--witness``.  ``translate`` prints
the encoding only after any witness file is written, and then one stderr
line on what the witness is.
"""

from __future__ import annotations

import argparse
import sys
import time

from .enumeration import SEMANTICS, enumerate_sat
from .errors import BfomlError, InternalSolverError, InvalidModelError
from .fo import (build_witness_model, fo_check, fo_enumerate_sat,
                 fo_model_loads, parse_fo, translate_sentence)
from .formulas import (ast_size, classify, cleanse, exists_box_vars,
                       format_formula, free_vars, modal_depth, to_nnf, var_key)
from .fuzz import FRAGMENTS, run_eb_equivalence, run_oracle_agreement
from .kripke import check, model_loads
from .limits import require_at_least_one, resolve_budget
from .parser import is_var_name, parse, parse_var_name
from .tableau_constant import decide_constant_eb
from .tableau_increasing import decide_increasing

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_FALSE = 3


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise BfomlError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _formula_text(args) -> str:
    if args.file is not None:
        return _read(args.file)
    if args.formula is None:
        raise BfomlError("provide a formula inline or with --file")
    return args.formula


def _conclude(args, started: float, verdict: str, model,
              nodes: int | None = None, trace=None) -> int:
    """Shared tail of sat and oracle: files, verdict, run report, exit code."""
    if args.model and model is not None:
        _write(args.model, model.dumps())
    if trace is not None:
        _write(args.trace, "\n".join(trace))
    report = f"elapsed-ms={(time.perf_counter() - started) * 1000.0:.1f}"
    print(verdict)
    print(report if nodes is None else f"nodes={nodes} {report}", file=sys.stderr)
    return EXIT_SAT if verdict == "SAT" else EXIT_UNSAT


def _cmd_sat(args) -> int:
    started = time.perf_counter()
    decide = decide_constant_eb if args.semantics == "constant" else decide_increasing
    result = decide(parse(_formula_text(args)), budget=args.budget,
                    tracing=args.trace is not None)
    if result.nodes_expanded < 1:
        raise InternalSolverError("a decision expanded no tableau node")
    return _conclude(args, started, result.verdict.value, result.model,
                     result.nodes_expanded, result.trace)


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    found = enumerate_sat(parse(_formula_text(args)), args.max_worlds, args.max_domain,
                          args.semantics, budget=args.budget)
    if found is None:
        return _conclude(args, started, "NONE", None)
    return _conclude(args, started, "SAT", found.model)


def _cmd_check(args) -> int:
    model = model_loads(_read(args.model_file))
    formula = parse(_formula_text(args))
    assignment = {}
    for item in args.assign or ():
        name, sep, element = item.partition("=")
        if not sep or not is_var_name(name) or not element:
            raise BfomlError(f"bad --assign {item!r}, expected var=element")
        var = parse_var_name(name)
        if var in assignment:
            raise BfomlError(f"--assign gives {var} more than once")
        assignment[var] = element
    value = check(model, args.world, assignment, formula)
    print("true" if value else "false")
    return 0 if value else EXIT_FALSE


def _cmd_nnf(args) -> int:
    print(format_formula(to_nnf(parse(_formula_text(args)))))
    return 0


def _cmd_clean(args) -> int:
    print(format_formula(cleanse(parse(_formula_text(args)))))
    return 0


def _cmd_info(args) -> int:
    formula = parse(_formula_text(args))
    fv = ",".join(str(v) for v in sorted(free_vars(formula), key=var_key))
    ebv = ",".join(str(v) for v in sorted(exists_box_vars(formula), key=var_key))
    print(f"fragment={classify(formula).value}")
    print(f"free-vars={{{fv}}}")
    print(f"exists-box-vars={{{ebv}}}")
    print(f"modal-depth={modal_depth(formula)}")
    print(f"ast-size={ast_size(formula)}")
    return 0


def _cmd_translate(args) -> int:
    sentence = parse_fo(_formula_text(args))
    encoding = format_formula(translate_sentence(sentence))
    if args.witness:
        if args.fo_model is not None:
            fo_model = fo_model_loads(_read(args.fo_model))
        else:
            fo_model = fo_enumerate_sat(sentence, args.max_domain)
            if fo_model is None:
                raise BfomlError(
                    f"no satisfying relational model with at most {args.max_domain} "
                    "elements; cannot build a witness")
        if not fo_check(fo_model, sentence):
            raise BfomlError("the relational model does not satisfy the sentence")
        _write(args.witness, build_witness_model(fo_model, sentence).dumps())
        print("note: the witness is the chain-plus-fan model as the paper prints it; "
              'the encoding does not hold at its root (README, "Acceptance suite")',
              file=sys.stderr)
    print(encoding)
    return 0


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
    try:
        model_loads(_read(args.model_file))
    except InvalidModelError as exc:
        violation = exc.violation
        print(f"violation: {violation.code} at {violation.subject}: {violation.message}")
        return 1
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bfoml", description=__doc__.splitlines()[0])
    commands = top.add_subparsers(dest="command", required=True)

    def command(name, summary, handler, *, model=False, formula=True):
        sub = commands.add_parser(name, help=summary)
        if model:
            sub.add_argument("model_file", metavar="model", help="model JSON file")
        if formula:
            sub.add_argument("formula", nargs="?", help="formula text")
            sub.add_argument("--file", help="read the formula from this file instead")
        sub.set_defaults(handler=handler)
        return sub

    sat = command("sat", "decide satisfiability with a tableau", _cmd_sat)
    sat.add_argument("--semantics", choices=SEMANTICS, default="increasing")
    sat.add_argument("--model", help="write the model found to this JSON file")
    sat.add_argument("--trace", help="write the explored tableau to this file")
    sat.add_argument("--budget", type=int, default=None,
                     help="node budget (default from BFOML_BUDGET)")

    chk = command("check", "evaluate a formula in a model", _cmd_check, model=True)
    chk.add_argument("--world", required=True)
    chk.add_argument("--assign", action="append", metavar="VAR=ELEMENT")

    command("nnf", "print the negation normal form", _cmd_nnf)
    command("clean", "print the cleansed formula", _cmd_clean)
    command("info", "print fragment and measures", _cmd_info)

    tr = command("translate", "encode a prenex FO(R) sentence into the modal language",
                 _cmd_translate)
    tr.add_argument("--witness", help="also write a witness model to this JSON file")
    tr.add_argument("--fo-model", help="relational model JSON to build the witness from")
    tr.add_argument("--max-domain", type=int, default=3,
                    help="search bound when no relational model is supplied")

    orc = command("oracle", "bounded brute-force model search", _cmd_oracle)
    orc.add_argument("--semantics", choices=SEMANTICS, default="increasing")
    orc.add_argument("--max-worlds", type=int, default=4)
    orc.add_argument("--max-domain", type=int, default=3)
    orc.add_argument("--model", help="write the model found to this JSON file")
    orc.add_argument("--budget", type=int, default=None)

    fz = command("fuzz", "seeded differential testing", _cmd_fuzz, formula=False)
    fz.add_argument("--seed", type=int, default=1)
    fz.add_argument("--count", type=int, default=100)
    fz.add_argument("--fragment", choices=tuple(FRAGMENTS), default="full")
    fz.add_argument("--semantics", choices=SEMANTICS, default="increasing")
    fz.add_argument("--max-worlds", type=int, default=4)
    fz.add_argument("--max-domain", type=int, default=3)
    fz.add_argument("--budget", type=int, default=None)
    fz.add_argument("--oracle-budget", type=int, default=None)

    command("validate", "validate a model JSON file", _cmd_validate, model=True, formula=False)
    return top


def _check_args(args) -> None:
    """Reject empty output paths, a --fo-model without --witness and numbers
    that make no sense, then fill in the default budget."""
    for name in ("model", "trace", "witness"):
        if getattr(args, name, None) == "":
            raise BfomlError(f"--{name} needs a file path, got an empty one")
    if getattr(args, "fo_model", None) is not None and args.witness is None:
        raise BfomlError("--fo-model needs --witness: the relational model only builds a witness")
    for name in ("budget", "oracle_budget", "max_worlds", "max_domain"):
        value = getattr(args, name, None)
        if value is not None:
            require_at_least_one(f"--{name.replace('_', '-')}", value)
    if getattr(args, "count", 0) < 0:
        raise BfomlError(f"--count must not be negative, got {args.count}")
    if hasattr(args, "budget"):
        args.budget = resolve_budget(args.budget)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.handler(args)
    except (BfomlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
    return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
