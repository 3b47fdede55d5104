"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[acceptance] <name>: PASS`` line (visible with
``pytest -v -s`` or in captured output) and enforces its runtime budget.
"""

import itertools
import random
import time

from tensorlogic import (
    Decision,
    Mode,
    TRANSFORMS,
    apply_transform,
    bounded_search,
    canonicalize,
    check,
    cut_paths,
    decide,
    eliminate_cuts,
    parse_inference,
    parse_proof,
    synthesize_proof,
)
from tensorlogic.category import check_diagram, identity, inverse, symmetry
from tensorlogic.cli import main as cli_main
from tensorlogic.monoid import entails, entails_free
from tensorlogic.terms import UNIT, Atom, Inference, Tensor, tensor_of
from tensorlogic.theory import Theory, decide_in_theory, lift, make_theory

from fixtures import POSITIVE
from helpers import random_inference, random_model, random_proof, random_small_proof, transform_instance

MODES = (Mode.T, Mode.TPRIME)


def report(label, elapsed, budget):
    line = f"[acceptance] {label}: PASS ({elapsed:.2f}s"
    line += f" < {budget:.0f}s)" if budget else ")"
    print(line)
    assert budget is None or elapsed < budget, f"{label} exceeded {budget}s budget"


def test_rule_table_conformance():
    start = time.monotonic()
    assert len(POSITIVE) >= 60
    for sexpr, mode, theory_text, conclusion in POSITIVE:
        theory = make_theory(**_theory_kwargs(theory_text)) if theory_text else None
        proof = parse_proof(sexpr)
        assert check(proof, Mode(mode), theory) == parse_inference(conclusion), sexpr
    report("rule-table conformance (60+ fixtures)", time.monotonic() - start, 1)


def _theory_kwargs(text):
    from tensorlogic.theory import parse_theory

    t = parse_theory(text)
    return dict(
        atoms=sorted(t.atoms), available=t.available, disposable=t.disposable, conversions=t.conversions
    )


def test_cut_elimination_terminates_cut_free():
    start = time.monotonic()
    for seed in range(1000):
        rng = random.Random(seed)
        mode = MODES[seed % 2]
        proof = random_small_proof(rng, mode, max_size=25)
        conc = check(proof, mode)
        flat = eliminate_cuts(proof, mode)
        assert not cut_paths(flat), seed
        assert check(flat, mode) == conc, seed
    report("cut elimination (1000 random proofs)", time.monotonic() - start, 30)


def _exhaustive_inferences():
    """All flat inferences over <= 3 atoms with <= 5 occurrences, up to renaming."""
    atoms = ("A", "B", "C")
    seen = set()
    for total in range(6):
        for combo in itertools.product(atoms, repeat=total):
            for split in range(total + 1):
                key = _rename_key(combo, split)
                if key in seen:
                    continue
                seen.add(key)
                ant = tuple(Atom(a) for a in combo[:split])
                rest = combo[split:]
                cons = tensor_of(Atom(a) for a in rest) if rest else UNIT
                yield Inference(ant, cons)


def _rename_key(combo, split):
    order = {}
    for name in combo:
        order.setdefault(name, len(order))
    return (tuple(order[n] for n in combo), split)


def test_decision_agrees_with_bounded_search():
    start = time.monotonic()
    goals = [(inf, mode) for inf in _exhaustive_inferences() for mode in MODES]
    for seed in range(500):
        rng = random.Random(seed)
        goals.append((random_inference(rng, max_items=3, depth=2), MODES[seed % 2]))
    for inf, mode in goals:
        verdict = decide(inf, mode)
        found = bounded_search(inf, mode, max_nodes=60).found
        assert (verdict is Decision.PROVABLE) == found, (inf, mode)
    report(
        f"decision vs bounded search ({len(goals)} goals, both modes)",
        time.monotonic() - start,
        120,
    )


def test_soundness_over_finite_models():
    start = time.monotonic()
    models = [random_model(random.Random(1000 + i), max_elements=4) for i in range(20)]
    for seed in range(200):
        proof = random_proof(random.Random(seed), Mode.T)
        conc = check(proof, Mode.T)
        for model in models:
            assert entails(model, conc), (seed, conc)
    report("soundness (200 proofs x 20 models)", time.monotonic() - start, 60)


def test_completeness_with_checked_witnesses():
    start = time.monotonic()
    for seed in range(500):
        inf = random_inference(random.Random(seed), max_items=3, depth=2)
        if not entails_free(inf):
            continue
        assert decide(inf, Mode.T) is Decision.PROVABLE, inf
        assert check(synthesize_proof(inf, Mode.T), Mode.T) == inf
    report("completeness (500 random inferences)", time.monotonic() - start, None)


def _random_simple_theory(rng):
    atoms = ["A", "B", "C"]
    available = [Atom(rng.choice(atoms)) for _ in range(rng.randint(0, 2))]
    disposable = [Atom(rng.choice(atoms)) for _ in range(rng.randint(0, 2))]
    return make_theory(atoms=atoms, available=available, disposable=disposable, conversions=[])


def test_lifting_round_trip():
    start = time.monotonic()
    for seed in range(100):
        rng = random.Random(seed)
        theory = _random_simple_theory(rng)
        inf = random_inference(rng, max_items=2, depth=1)
        verdict = decide_in_theory(theory, inf, cap=8)
        assert verdict.status in ("provable", "not-provable"), (seed, verdict.status)
        n_av, n_di = len(theory.available), len(theory.disposable)
        if verdict.status == "provable":
            counts = (tuple(verdict.counts["available"]), tuple(verdict.counts["disposable"]))
            lifted = lift(theory, inf, counts)
            assert decide(lifted, Mode.T) is Decision.PROVABLE, seed
            assert check(verdict.witness, Mode.T, theory) == inf, seed
            # the verdict uses as few axioms as any provable lifting
            fewest = min(
                sum(m) + sum(n)
                for m in itertools.product(range(9), repeat=n_av)
                for n in itertools.product(range(9), repeat=n_di)
                if sum(m) + sum(n) <= 8 and decide(lift(theory, inf, (m, n)), Mode.T) is Decision.PROVABLE
            )
            assert sum(counts[0]) + sum(counts[1]) == fewest, seed
        else:
            for m in itertools.product(range(3), repeat=n_av):
                for n in itertools.product(range(3), repeat=n_di):
                    lifted = lift(theory, inf, (m, n))
                    assert decide(lifted, Mode.T) is not Decision.PROVABLE, (seed, m, n)
    report("lifting round-trip (100 theories)", time.monotonic() - start, None)


def test_resource_theory_examples_exit_codes():
    start = time.monotonic()
    cases = [
        ("theories/cloning.thy", "C |- C * C"),
        ("theories/locc.thy", "E * Q_A |- Q_B"),
        ("theories/locc-weak.thy", "E * Q_A |- Q_B"),
        ("theories/locc-weak.thy", "E |- Q_A * Q_B"),
        ("theories/coherence.thy", "Q(1) |- Q(0.5)"),
        ("theories/coherence.thy", "Q(0.5) |- 1"),
        ("theories/coherence.thy", "1 |- Q(1)"),
    ]
    codes = [cli_main(["--theory", path, "theory", "decide", inf]) for path, inf in cases]
    assert codes == [0, 0, 0, 1, 0, 0, 1], codes
    report("shipped theory examples (exit codes 0/0/0/1/0/0/1)", time.monotonic() - start, None)


def test_coherence_sweep_and_fullness():
    start = time.monotonic()
    objs = (Atom("A"), Atom("B"), UNIT)
    for mode in MODES:
        for pair in itertools.product(objs, repeat=2):
            assert check_diagram("triangle", mode, terms=pair)
        for quad in itertools.product(objs, repeat=4):
            assert check_diagram("pentagon", mode, terms=quad)
    for triple in itertools.product(objs, repeat=3):
        assert check_diagram("hexagon", Mode.T, terms=triple)
    for a in objs:
        assert check_diagram("symmetry-unit", Mode.T, terms=(a,))
    for pair in itertools.product(objs, repeat=2):
        assert check_diagram("symmetry-inverse", Mode.T, terms=pair)
    f = symmetry(Atom("A"), Atom("B"), Mode.T)
    g = identity(Tensor(Atom("A"), UNIT), Mode.T)
    assert check_diagram("interchange", Mode.T, morphisms=(f, inverse(f), g, g))
    assert check_diagram("nat-lambda", Mode.T, morphisms=(f,))
    assert check_diagram("nat-rho", Mode.T, morphisms=(f,))
    assert check_diagram("nat-alpha", Mode.T, morphisms=(f, g, inverse(f)))
    assert check_diagram("nat-sigma", Mode.T, morphisms=(f, g))

    for seed in range(300):
        rng = random.Random(seed)
        mode = MODES[seed % 2]
        p1 = random_proof(rng, mode)
        conc = check(p1, mode)
        p2 = synthesize_proof(conc, mode)
        assert canonicalize(p1, mode) == canonicalize(p2, mode), seed
    report("coherence sweep + fullness (300 proof pairs)", time.monotonic() - start, 120)


def test_transformation_safety():
    start = time.monotonic()
    for name in TRANSFORMS:
        for direction in ("forward", "inverse"):
            other = "inverse" if direction == "forward" else "forward"
            for seed in range(100):
                inst = transform_instance(random.Random(seed), name, direction)
                conc = check(inst, Mode.TPRIME)
                once = apply_transform(inst, (), name, Mode.TPRIME, direction)
                assert check(once, Mode.TPRIME) == conc, (name, direction, seed)
                back = apply_transform(once, (), name, Mode.TPRIME, other)
                assert check(back, Mode.TPRIME) == conc, (name, direction, seed)
    report("transformation safety (11 transforms x 100 instances)", time.monotonic() - start, None)
