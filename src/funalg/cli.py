"""Command-line interface.

Subcommands: parse, check, compile, reduce, eval, enum, meter, selftest.
Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import sys

from .clausal import (ClausalDef, check_refinement, parse_cl, print_cl)
from .compiler import compile_explicit
from .derivation import (CLASSES, Derivation, PolyBound, d_parse, d_print,
                         enumerate_derivations, fold, validate)
from .evaluator import Budget, Meter, eval_memo, eval_naive, meter_line
from .harness import CharMode, scaling_study
from .reduction import reduce_bounded_nested_to_snr, reduce_recursive_to_pr

_CLASS_NAMES = sorted(CLASSES)


class CliError(Exception):
    pass


def _read_defs(path: str) -> list[ClausalDef]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}") from e
    return parse_cl(text)


def _find_def(defs: list[ClausalDef], name: str) -> ClausalDef:
    for d in defs:
        if d.name == name:
            return d
    raise CliError(f"no definition named {name!r}")


def _parse_oracle(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    try:
        return frozenset(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"bad oracle spec {text!r}") from None


def _parse_budget(args) -> Budget:
    b = Budget()
    steps = getattr(args, "max_steps", None)
    bits = getattr(args, "max_bits", None)
    return Budget(steps if steps is not None else b.max_steps,
                  bits if bits is not None else b.max_bits)


def _count(text: str) -> int:
    """A non-negative int argument; argparse makes a bad one a usage error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _parse_bound(expr: str) -> PolyBound:
    """A polynomial in n built from numerals, n, + and *."""
    try:
        tree = ast.parse(expr, mode="eval").body
    except SyntaxError:
        raise CliError(f"bad bound expression {expr!r}") from None
    except RecursionError:
        raise CliError("bound expression nests too deeply") from None

    def kids(node) -> tuple:
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add,
                                                                ast.Mult)):
            return (node.left, node.right)
        return ()

    def rule(node, args: list[PolyBound]) -> PolyBound:
        if args:
            kind = "add" if isinstance(node.op, ast.Add) else "mul"
            return PolyBound(kind, args=tuple(args))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return PolyBound("const", node.value)
        if isinstance(node, ast.Name) and node.id == "n":
            return PolyBound("var")
        raise CliError(f"bound must be a polynomial in n: {expr!r}")

    return fold(tree, kids, rule)


def _compile_env(defs: list[ClausalDef]) -> dict[str, Derivation]:
    env: dict[str, Derivation] = {}
    for d in defs:
        if d.kind == "explicit":
            env[d.name] = compile_explicit(d, env)
    return env


def cmd_parse(args) -> int:
    defs = _read_defs(args.file)
    print("\n".join(print_cl(d) for d in defs))
    return 0


def cmd_check(args) -> int:
    defs = _read_defs(args.file)
    for d in defs:
        trace = check_refinement(d)
        print(f"def {d.name}: {d.kind}")
        for line in trace:
            print(f"  {line}")
    return 0


def cmd_compile(args) -> int:
    defs = _read_defs(args.file)
    d = _find_def(defs, args.fn)
    if d.kind != "explicit":
        raise CliError(f"{args.fn} is recursive; use `reduce` instead")
    dd = compile_explicit(d, _compile_env(defs))
    cls = CLASSES[getattr(args, "cls")]
    if not validate(dd, cls):
        raise CliError(f"compiled derivation is not in class {cls.name}")
    print(d_print(dd))
    return 0


def cmd_reduce(args) -> int:
    defs = _read_defs(args.file)
    d = _find_def(defs, args.fn)
    env = _compile_env(defs)
    if args.to == "pr":
        art = reduce_recursive_to_pr(d, env)
        print(f"h: {print_cl(art.h_def)}")
        if art.f1_def is not None:
            print(f"f1: {print_cl(art.f1_def)}")
        print(f"J: {art.J}")
        print(f"iterations: {art.mu_desc}")
        print(f"result: {d_print(art.result)}")
    else:
        bound = _parse_bound(args.bound)
        res = reduce_bounded_nested_to_snr(d, bound, env)
        print(f"bound: {bound}")
        print(f"result: {d_print(res)}")
    return 0


def cmd_eval(args) -> int:
    d = d_parse(args.d)
    meter = Meter()
    ev = eval_memo if args.memo else eval_naive
    v = ev(d, args.arg, oracle=_parse_oracle(args.oracle),
           budget=_parse_budget(args), meter=meter)
    print(meter_line(v, meter))
    return 0


def cmd_enum(args) -> int:
    for d in enumerate_derivations(CLASSES[getattr(args, "cls")], args.count):
        print(d_print(d))
    return 0


def cmd_meter(args) -> int:
    d = d_parse(args.d)
    sizes = [int(p) for p in args.sizes.split(",")]
    mode = CharMode.ZERO if args.mode == "zero" else CharMode.ONE
    rep = scaling_study(d, mode, sizes, trials_per_size=args.trials,
                        seed=args.seed, budget=_parse_budget(args))
    sys.stdout.write(rep.to_csv())
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import check_13_cli, run_all
    results = run_all()
    ok13, detail13 = check_13_cli(results)
    results.append((13, "CLI round-trip", ok13, detail13))
    failed = False
    for n, name, ok, detail in results:
        print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="funalg",
                                description="function algebras over N")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="echo a CL file in canonical form")
    sp.add_argument("file")
    sp.set_defaults(fn_=cmd_parse)

    sp = sub.add_parser("check", help="print refinement traces for a CL file")
    sp.add_argument("file")
    sp.set_defaults(fn_=cmd_check)

    sp = sub.add_parser("compile", help="compile an explicit def")
    sp.add_argument("file")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--class", dest="cls", choices=_CLASS_NAMES,
                    default="PRA")
    sp.set_defaults(fn_=cmd_compile)

    sp = sub.add_parser("reduce", help="reduce a recursive def")
    sp.add_argument("file")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--to", choices=["pr", "snr"], required=True)
    sp.add_argument("--bound", default="n",
                    help="polynomial in n (snr only)")
    sp.set_defaults(fn_=cmd_reduce)

    sp = sub.add_parser("eval", help="evaluate a derivation")
    sp.add_argument("--d", required=True, help="derivation S-expression")
    sp.add_argument("--arg", type=int, required=True)
    sp.add_argument("--oracle", default="",
                    help="comma-separated oracle elements")
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--max-bits", type=int, dest="max_bits")
    sp.add_argument("--memo", action="store_true",
                    help="memoized evaluation")
    sp.set_defaults(fn_=cmd_eval)

    sp = sub.add_parser("enum", help="enumerate derivations of a class")
    sp.add_argument("--class", dest="cls", choices=_CLASS_NAMES,
                    required=True)
    sp.add_argument("--count", type=_count, required=True)
    sp.set_defaults(fn_=cmd_enum)

    sp = sub.add_parser("meter", help="scaling study CSV")
    sp.add_argument("--d", required=True)
    sp.add_argument("--mode", choices=["zero", "one"], required=True)
    sp.add_argument("--sizes", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--max-bits", type=int, dest="max_bits")
    sp.set_defaults(fn_=cmd_meter)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.set_defaults(fn_=cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn_(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
