"""Command-line interface.

Exit codes: 0 provable / valid / all diagrams hold, 1 not provable / invalid,
2 unknown (search or cap exhausted), 3 input error, 4 internal error.

Every command needs ``terms`` and ``kernel`` (inputs, the mode, proofs and
their errors), so only they load up front.  Each command imports the rest
of what it runs where it runs, since a process runs one command and pays
for every module it loads (``json`` only under ``--json``).
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .kernel import Mode, ProofError, check, cut_paths, parse_proof, render_proof
from .terms import UNIT, Atom, ParseError, parse_inference, render_inference

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 3, not argparse's default 2
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _mode(args) -> Mode:
    return Mode.T if args.mode == "t" else Mode.TPRIME


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        import json

        text = json.dumps(payload)
    print(text)


def _load_theory(args):
    if not args.theory:
        return None
    from .theory import load_theory

    return load_theory(args.theory)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def cmd_check(args) -> int:
    proof = parse_proof(_read(args.proof))
    try:
        conclusion = check(proof, _mode(args), _load_theory(args))
    except ProofError as exc:
        _emit(args, {"valid": False, "error": str(exc)}, f"invalid: {exc}")
        return EXIT_NO
    _emit(
        args,
        {"valid": True, "conclusion": render_inference(conclusion)},
        f"valid: {render_inference(conclusion)}",
    )
    return EXIT_YES


def cmd_decide(args) -> int:
    from .decision import Decision, decide

    inference = parse_inference(args.inference)
    verdict = decide(inference, _mode(args))
    _emit(args, {"verdict": verdict.value}, verdict.value)
    return EXIT_YES if verdict is Decision.PROVABLE else EXIT_NO


def cmd_prove(args) -> int:
    from .decision import NotProvableError, synthesize_proof

    inference = parse_inference(args.inference)
    try:
        proof = synthesize_proof(inference, _mode(args))
    except NotProvableError:
        _emit(args, {"verdict": "not-provable"}, "not-provable")
        return EXIT_NO
    _emit(args, {"verdict": "provable", "proof": render_proof(proof)}, render_proof(proof))
    return EXIT_YES


def cmd_search(args) -> int:
    from .decision import bounded_search

    inference = parse_inference(args.inference)
    result = bounded_search(inference, _mode(args), args.max_nodes, _load_theory(args))
    if result.found:
        _emit(args, {"verdict": "provable", "proof": render_proof(result.proof)}, render_proof(result.proof))
        return EXIT_YES
    _emit(args, {"verdict": "unknown", "max_nodes": args.max_nodes}, "unknown")
    return EXIT_UNKNOWN


def cmd_elim_cut(args) -> int:
    from .transforms import eliminate_cuts

    proof = parse_proof(_read(args.proof))
    mode = _mode(args)
    check(proof, mode, _load_theory(args))
    out = eliminate_cuts(proof, mode)
    remaining = len(cut_paths(out))
    _emit(
        args,
        {"proof": render_proof(out), "remaining_cuts": remaining},
        render_proof(out) + (f"\n# {remaining} axiom-fed cut(s) remain" if remaining else ""),
    )
    return EXIT_YES


def cmd_canon(args) -> int:
    from .transforms import canonicalize

    proof = parse_proof(_read(args.proof))
    out = canonicalize(proof, _mode(args))
    _emit(args, {"proof": render_proof(out)}, render_proof(out))
    return EXIT_YES


def cmd_equiv(args) -> int:
    from .transforms import proofs_equivalent

    p1 = parse_proof(_read(args.proof1))
    p2 = parse_proof(_read(args.proof2))
    same = proofs_equivalent(p1, p2, _mode(args))
    _emit(args, {"equivalent": same}, "equivalent" if same else "distinct")
    return EXIT_YES if same else EXIT_NO


def cmd_theory_decide(args) -> int:
    from .theory import decide_in_theory

    if not args.theory:
        raise ParseError("theory decide requires --theory FILE")
    th = _load_theory(args)
    inference = parse_inference(args.inference)
    verdict = decide_in_theory(th, inference, args.cap, _mode(args))
    payload = {"verdict": verdict.status, "cap": verdict.cap}
    text = verdict.status
    if verdict.status == "provable":
        payload["counts"] = {kind: list(uses) for kind, uses in verdict.counts.items()}
        payload["witness"] = render_proof(verdict.witness)
        text = f"provable {payload['counts']}"
    _emit(args, payload, text)
    return {"provable": EXIT_YES, "not-provable": EXIT_NO, "unknown": EXIT_UNKNOWN}[verdict.status]


def cmd_model_check(args) -> int:
    from . import monoid

    model = monoid.parse_model(_read(args.model))
    violations = monoid.validate_model(model)
    if violations:
        _emit(args, {"valid": False, "violations": violations}, "invalid model:\n" + "\n".join(violations))
        return EXIT_INPUT
    inference = parse_inference(args.inference)
    holds = monoid.entails(model, inference)
    _emit(args, {"valid": True, "entails": holds}, "entailed" if holds else "not-entailed")
    return EXIT_YES if holds else EXIT_NO


def cmd_coherence_sweep(args) -> int:
    from . import category

    mode = _mode(args)
    atoms = [Atom(f"P{i}") for i in range(args.max_atoms)]
    objects = tuple(atoms) + (UNIT,)
    failures = []
    checked = 0
    for name, (arity, _, braided, _) in category._DIAGRAMS.items():
        if not arity or (braided and mode is not Mode.T):
            continue  # a diagram on morphisms, or one that needs the braiding
        for combo in itertools.product(objects, repeat=arity):
            checked += 1
            if not category.check_diagram(name, mode, terms=combo):
                failures.append((name, combo))
    if mode is Mode.T:
        f = category.symmetry(atoms[0], atoms[1], mode) if len(atoms) >= 2 else category.identity(objects[0], mode)
        g = category.identity(objects[0], mode)
        checked += 3
        if not category.check_diagram("interchange", mode, morphisms=(f, category.inverse(f), g, g)):
            failures.append(("interchange", ()))
        if not category.check_diagram("nat-lambda", mode, morphisms=(f,)):
            failures.append(("nat-lambda", ()))
        if not category.check_diagram("nat-sigma", mode, morphisms=(f, g)):
            failures.append(("nat-sigma", ()))
    payload = {"checked": checked, "failures": [n for n, _ in failures]}
    _emit(args, payload, f"checked {checked} diagram instance(s), {len(failures)} failure(s)")
    return EXIT_YES if not failures else EXIT_NO


def build_parser() -> _Parser:
    parser = _Parser(prog="tensorlogic", description=__doc__)
    parser.add_argument("--mode", choices=["t", "tprime"], default="t", help="calculus mode")
    parser.add_argument("--theory", help="theory file licensing axiom leaves")
    parser.add_argument("--cap", type=_count, default=16, help="axiom usage cap for theory decisions")
    parser.add_argument("--max-nodes", type=_count, default=2000, help="node bound for proof search")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a proof file and print its conclusion")
    p.add_argument("proof", help="proof s-expression file, or - for stdin")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("decide", help="decide a plain inference")
    p.add_argument("inference")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("prove", help="print the canonical proof of an inference")
    p.add_argument("inference")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("search", help="bounded backward proof search")
    p.add_argument("inference")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("elim-cut", help="eliminate cuts from a proof file")
    p.add_argument("proof")
    p.set_defaults(fn=cmd_elim_cut)

    p = sub.add_parser("canon", help="print the canonical form of a proof file")
    p.add_argument("proof")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("equiv", help="compare two proofs up to canonical form")
    p.add_argument("proof1")
    p.add_argument("proof2")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("theory", help="theory commands")
    tsub = p.add_subparsers(dest="theory_command", required=True)
    t = tsub.add_parser("decide", help="decide an inference in the given --theory")
    t.add_argument("inference")
    t.set_defaults(fn=cmd_theory_decide)

    p = sub.add_parser("model", help="model commands")
    msub = p.add_subparsers(dest="model_command", required=True)
    m = msub.add_parser("check", help="validate a model file and evaluate entailment")
    m.add_argument("model")
    m.add_argument("inference")
    m.set_defaults(fn=cmd_model_check)

    p = sub.add_parser("coherence", help="coherence commands")
    csub = p.add_subparsers(dest="coherence_command", required=True)
    c = csub.add_parser("sweep", help="check coherence diagrams over small objects")
    c.add_argument("--max-atoms", type=_count, default=2)
    c.set_defaults(fn=cmd_coherence_sweep)

    return parser


def _input_errors() -> tuple[type[Exception], ...]:
    """The exceptions that mean bad input, a file that is not UTF-8 among
    them.  A ``TheoryError`` can only come from a loaded ``theory`` module,
    so it is looked up, not imported."""
    theory = sys.modules.get(f"{__package__}.theory")
    return (ParseError, OSError, UnicodeDecodeError) + ((theory.TheoryError,) if theory else ())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ProofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO
    except Exception as exc:  # a fault in tensorlogic, not an answer
        import traceback  # only here: it adds about 4 ms to every start-up

        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
