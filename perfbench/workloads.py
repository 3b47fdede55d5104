"""The four workloads: seeded inputs, the operations that run them, and the
checks of each operation's output against the oracles.

An operation is an ``Op``: ``run(call)`` makes the public calls into
tensorlogic and returns what they returned; ``check(outcome)`` compares that
with the oracle, raises ``OracleError`` on a wrong answer, and returns the
operation's counters.  ``call(name, bucket, fn, *args)`` is the tracer hook:
it calls ``fn(*args)`` and, in a traced run, records a span named after the
module and function, with a size bucket.

The seed picks atom names, the valuations of models and the order of the
operations in a pass.  Sizes, shapes, the make-up of each pass and the
structure of each input (permutations with a fixed number of inversions, the
place of each mutation, bracketings, the axiom sequences of theory
derivations) come from generators that do not depend on the seed.  Runs on
different seeds thus do the same work on differently named atoms, and
``proof_nodes`` and ``decided`` are the same for every seed.
"""

from __future__ import annotations

import itertools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import oracle as O
from oracle import OracleError

import tensorlogic as tl
from tensorlogic import category, monoid, theory as tl_theory
from tensorlogic.decision import Prover

MODES = {"t": tl.Mode.T, "tprime": tl.Mode.TPRIME}
SHAPE_ORDER = ("left", "right", "balanced")
POOL = [f"{c}{i}" for c in "ABCDEFGHJKLMNPRSTUVWXYZ" for i in range(12)]
SHIPPED = ("cloning", "coherence", "locc", "locc-weak")


class Op:
    __slots__ = ("label", "run", "check", "probe", "fault")

    def __init__(self, label, run, check, probe=None, fault=False):
        self.label = label  # the operation's class, for its span
        self.run = run
        self.check = check
        self.probe = probe  # extra calls a traced run makes after the operation
        self.fault = fault  # fails on every run, because of a known fault


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


def permutation(rng: random.Random, items: list, inversions: int) -> list:
    """A seeded permutation of ``items`` with exactly ``inversions``
    inversions, decoded from a random Lehmer code with that digit sum."""
    n = len(items)
    code = [0] * n
    room = [i for i in range(n) if n - 1 - i > 0]
    for _ in range(inversions):
        i = rng.choice(room)
        code[i] += 1
        if code[i] == n - 1 - i:
            room.remove(i)
    rest = list(items)
    return [rest.pop(c) for c in code]


def inversion_target(n: int) -> int:
    """Half the maximum, as a random permutation has on average."""
    return n * (n - 1) // 4


def _split(names: list[str], k: int) -> list[list[str]]:
    bounds = [round(i * len(names) / k) for i in range(k + 1)]
    return [names[bounds[i] : bounds[i + 1]] for i in range(k)]


def _lib_inference(ant, cons):
    """A tensorlogic inference built from oracle terms, through the parser."""
    return tl.parse_inference(O.render_inference(ant, cons))


def _conclusion_is(node, mode, expected, theory=None) -> None:
    got = O.check_proof(node, mode, theory)
    _expect(O.same_inference(got, expected), f"proof concludes {O.render_inference(*got)}")


# --- pipeline ----------------------------------------------------------------

PIPE_SIZES = {"t": (2, 6, 16, 28), "tprime": (2, 6, 16, 28, 64, 160)}
# proofs_equivalent overflows the stack on comb conclusions from ~125 atoms
COMB_LIMIT = 100


def pipeline_ops(rng: random.Random, call) -> list[Op]:
    # how long an operation takes depends on its permutation and on where a
    # mutant is changed; those come from a seed-free generator
    fixed = random.Random("pipeline:structure")
    ops = []
    for mode, sizes in PIPE_SIZES.items():
        for n in sizes:
            for s, shape in enumerate(SHAPE_ORDER):
                names = rng.sample(POOL, n)
                items = tuple(O.SHAPES[shape](block) for block in _split(names, max(1, n // 4)))
                order = permutation(fixed, names, inversion_target(n)) if mode == "t" else names
                cons = O.SHAPES[SHAPE_ORDER[(s + 1) % 3]](order)
                target_shape = SHAPE_ORDER[(s + 2) % 3] if n <= COMB_LIMIT else "balanced"
                target = O.SHAPES[target_shape](names)
                ops.append(_pipeline_op(mode, n, items, cons, target, call))
                mutant = list(order)
                j = fixed.randrange(n)
                if s % 2:
                    del mutant[j]
                else:
                    mutant[j] = next(x for x in POOL if x not in names)
                ops.append(_pipeline_op(mode, n, items, O.SHAPES[shape](mutant), None, call))
    # A |- A on a 16-atom comb; it also makes the pass an odd 61 operations,
    # so that the median is one operation's latency, not a mean of two
    names = rng.sample(POOL, 16)
    comb = O.left_comb(names)
    ops.append(_pipeline_op("tprime", 16, (comb,), comb, O.balanced(names), call))
    return ops


def _pipeline_op(mode: str, n: int, items, cons, target, call) -> Op:
    """Parse, render and decide; for a provable inference also synthesise,
    render, re-parse and check the proof, cut a second synthesised proof
    onto it, eliminate the cut, check the result and compare the two."""
    m, b = MODES[mode], f"n{n}"
    text = O.render_inference(items, cons)
    expected = (items, cons)
    second = _lib_inference((cons,), target) if target is not None else None

    def run(call):
        inf = call("terms.parse_inference", b, tl.parse_inference, text)
        rendered = call("terms.render_inference", b, tl.render_inference, inf)
        verdict = call("decision.decide", b, tl.decide, inf, m)
        if second is None:
            try:
                call("decision.synthesize_proof", b, tl.synthesize_proof, inf, m)
            except tl.NotProvableError:
                return inf, rendered, verdict, None
            return inf, rendered, verdict, "synthesised"
        p1 = call("decision.synthesize_proof", b, tl.synthesize_proof, inf, m)
        ptext = call("kernel.render_proof", b, tl.render_proof, p1)
        p1b = call("kernel.parse_proof", b, tl.parse_proof, ptext)
        conc1 = call("kernel.check", b, tl.check, p1b, m)
        p2 = call("decision.synthesize_proof", b, tl.synthesize_proof, second, m)
        cut = call("kernel.cut_proofs", b, tl.cut_proofs, p1, p2, 0, m, 1)
        free = call("transforms.eliminate_cuts", b, tl.eliminate_cuts, cut, m)
        conc2 = call("kernel.check", b, tl.check, free, m)
        same = call("transforms.proofs_equivalent", b, tl.proofs_equivalent, cut, free, m)
        return inf, rendered, verdict, (p1, ptext, p1b, conc1, p2, cut, free, conc2, same)

    def check(outcome):
        inf, rendered, verdict, rest = outcome
        _expect(O.same_inference(O.from_lib_inference(inf), expected), "parse_inference changed the inference")
        _expect(O.same_inference(O.parse_inference(rendered), expected), "render_inference changed the inference")
        want = "provable" if second is not None else "not-provable"
        _expect(verdict.value == want, f"decide said {verdict.value}, expected {want}")
        if second is None:
            _expect(rest is None, "synthesize_proof proved an unprovable inference")
            return {"decided": 1, "proof_nodes": 0}
        p1, ptext, p1b, conc1, p2, cut, free, conc2, same = rest
        ocut, ofree = O.from_lib_proof(cut), O.from_lib_proof(free)
        cuts = {"transforms.cuts_present": O.count_rule(ocut, "cut"), "transforms.cuts_left": O.count_rule(ofree, "cut")}
        try:
            o1 = O.from_lib_proof(p1)
            _conclusion_is(o1, mode, expected)
            _expect(O.render_proof(O.parse_proof(ptext)) == O.render_proof(o1), "render_proof lost structure")
            _expect(O.render_proof(O.from_lib_proof(p1b)) == O.render_proof(o1), "parse_proof lost structure")
            _expect(O.same_inference(O.from_lib_inference(conc1), expected), "check returned another conclusion")
            o2 = O.from_lib_proof(p2)
            _conclusion_is(o2, mode, ((cons,), target))
            final = (items, target)
            _conclusion_is(ocut, mode, final)
            _expect(cuts["transforms.cuts_left"] == 0, "eliminate_cuts left a cut")
            _conclusion_is(ofree, mode, final)
            _expect(O.same_inference(O.from_lib_inference(conc2), final), "check returned another conclusion")
            _expect(same is True, "proofs_equivalent: a proof and its cut-free form differ")
        except OracleError as err:
            err.counters = cuts  # a wrong answer still counts in cuts_removed
            raise
        n1, n2, nf = O.proof_nodes(o1), O.proof_nodes(o2), O.proof_nodes(ofree)
        return {
            "decided": 1,
            "proof_nodes": n1 + n2 + nf,
            "kernel.nodes_checked": n1 + nf,
            "decision.synth_nodes": n1 + n2,
            **cuts,
        }

    return Op("pipeline.provable" if second is not None else "pipeline.mutant", run, check)


# --- search ------------------------------------------------------------------

SEARCH_T = range(3, 9)
SEARCH_TPRIME = (4, 8, 12, 16)
SEARCH_MUTANTS = tuple(("t", n) for n in SEARCH_T) + tuple(("tprime", n) for n in SEARCH_TPRIME)
# provable cut searches under the shipped theories, in mode t; with the
# searches above they make an odd 49 operations, which puts the median and
# the 95th percentile inside one operation's latencies
SEARCH_THEORY = (
    ("cloning", "|- C * C"),
    ("cloning", "C |- C * C"),
    ("cloning", "C |- C * C * C"),
    ("coherence", "Q(1), Q(0) |- Q(0.5)"),
    ("coherence", "Q(1) |- Q(0.5) * Q(0)"),
    ("coherence", "|- Q(0) * Q(0)"),
    ("locc", "E |- Q_A"),
    ("locc", "E |- Q_B"),
    ("locc", "E |- C * Q_A * Q_B"),
)
PLAIN_MAX_NODES = 2000
THEORY_MAX_NODES = 30


def search_ops(rng: random.Random, root: Path) -> list[Op]:
    # the proof a search finds depends on the permutation, not only on its
    # inversion count; permutations come from a seed-free generator
    fixed = random.Random("search:permutations")
    ops = []
    for n in SEARCH_T:
        for shape in SHAPE_ORDER:
            names = rng.sample(POOL, n)
            order = permutation(fixed, names, inversion_target(n))
            ops.append(_search_op("t", f"n{n}", tuple(names), O.SHAPES[shape](order), True))
    for n in SEARCH_TPRIME:
        for s, shape in enumerate(SHAPE_ORDER):
            names = rng.sample(POOL, n)
            cons = O.SHAPES[SHAPE_ORDER[(s + 1) % 3]](names)
            ops.append(_search_op("tprime", "tprime", (O.SHAPES[shape](names),), cons, True))
    for mode, n in SEARCH_MUTANTS:
        names = rng.sample(POOL, n)
        order = permutation(fixed, names, inversion_target(n)) if mode == "t" else list(names)
        order[fixed.randrange(n)] = next(x for x in POOL if x not in names)
        bucket = f"n{n}" if mode == "t" else "tprime"
        ops.append(_search_op(mode, bucket, tuple(names), O.balanced(order), False))
    theories = {name: _read_theory(root, name) for name, _ in SEARCH_THEORY}
    for name, text in SEARCH_THEORY:
        lib, own = theories[name]
        ant, cons = O.parse_inference(text)
        ops.append(_search_op("t", "theory", ant, cons, True, lib, own))
    return ops


def _read_theory(root: Path, name: str):
    text = (root / "theories" / f"{name}.thy").read_text()
    return tl_theory.parse_theory(text), O.parse_theory(text)


def _search_op(mode, bucket, ant, cons, provable, lib_theory=None, own_theory=None) -> Op:
    m = MODES[mode]
    inf = _lib_inference(ant, cons)
    max_nodes = THEORY_MAX_NODES if lib_theory is not None else PLAIN_MAX_NODES

    def run(call):
        prover = Prover(m, lib_theory)
        result = call("decision.bounded_search", bucket, prover.prove, inf, max_nodes)
        return result, len(prover.memo)

    def check(outcome):
        result, goals = outcome
        counters = {"decision.search_goals": goals, "decided": 0, "proof_nodes": 0}
        if not provable:
            _expect(not result.found, "bounded_search proved an unprovable inference")
            return counters
        if lib_theory is None:
            _expect(result.found, "bounded_search missed a cut-free proof")
        if result.found:
            node = O.from_lib_proof(result.proof)
            _conclusion_is(node, mode, (ant, cons), own_theory)
            counters["decided"] = 1
            counters["proof_nodes"] = O.proof_nodes(node)
        return counters

    return Op("search." + ("provable" if provable else "mutant"), run, check)


# --- semantics ---------------------------------------------------------------

# weights certifying unprovability: every axiom column has weight <= 0
SHIPPED_WEIGHTS = {
    "cloning": {"C": -1},
    "coherence": {"Q(0)": 0, "Q(0.5)": 1, "Q(1)": 1},
    "locc": {"C": 0, "Q_A": 1, "Q_B": 1, "E": 2},
    "locc-weak": {"C": 0, "Q_A": 1, "Q_B": 1, "E": 1},
}

# generated theory templates over atoms x0..x{k-1}: (weights, free, dispose,
# conversions); atoms are renamed by the seed
TEMPLATES = (
    ([0, 1, 1], [0], [1], [([0, 1], [2])]),
    (
        [0, 1, 1, 2, 1, 0, 2],
        [0, 5],
        [1, 3],
        [([1, 2], [3]), ([3], [4, 2]), ([6], [1, 4]), ([0, 4], [2])],
    ),
    (
        [0, 0, 1, 1, 2, 2, 3, 1, 0],
        [0, 1, 8],
        [2, 4, 6],
        [([2, 3], [4]), ([4], [2, 7]), ([5], [3, 7]), ([6], [5, 2]), ([0, 7], [3]), ([1, 6], [4, 2])],
    ),
)
THEORY_PROVABLE, THEORY_UNPROVABLE = 3, 2
THEORY_CAP = 16
ZN_CASES = [(n, k) for n in range(4, 9) for k in range(2, 6) if n ** (k + 1) <= 40000]
ORDERED_CASES = [(family, k) for family in ("sum", "max") for k in (2, 3)]
COHERENCE_ATOMS = 3
DIAGRAM_BUCKET = {
    "triangle": "triangle",
    "pentagon": "pentagon",
    "hexagon": "hexagon",
    "symmetry-unit": "symmetry",
    "symmetry-inverse": "symmetry",
    "interchange": "naturality",
    "nat-lambda": "naturality",
    "nat-sigma": "naturality",
}


def generated_theory(rng: random.Random, template) -> tuple[O.Theory, list[str], dict]:
    weights, free, dispose, conversions = template
    names = rng.sample(POOL, len(weights))

    def term(idx):
        return O.left_comb([names[i] for i in idx])

    theory = O.Theory(
        names,
        [names[i] for i in free],
        [names[i] for i in dispose],
        [(term(a), term(b)) for a, b in conversions],
    )
    return theory, names, dict(zip(names, weights))


def derived_inferences(rng: random.Random, theory: O.Theory, atoms: list[str], weight: dict, counts, plan: str):
    """Provable inferences by forward application of axioms, and unprovable
    ones certified by ``weight``: ``(antecedent, consequent, label)``.

    ``counts`` is ``(provable, unprovable)``.  The derivations are drawn by
    atom position in ``atoms`` from a generator named ``plan``, the same for
    every seed, so that witness sizes do not depend on the seed; ``rng``
    picks the consequent's bracketing."""
    provable, unprovable = counts
    drv = random.Random(plan)
    out = []
    for i in range(provable + unprovable):
        for _ in range(100):
            held = [drv.choice(atoms) for _ in range(1 + i % 3)]
            result = list(held)
            for _ in range(2 + i % 2):
                options = [("free", j) for j in range(len(theory.available))]
                for kind, pool in (("dispose", theory.disposable), ("convert", [a for a, _ in theory.conversions])):
                    for j, src in enumerate(pool):
                        if all(result.count(x) >= O.leaves(src).count(x) for x in O.leaves(src)):
                            options.append((kind, j))
                result = O.apply_forward(theory, result, [drv.choice(options)])
            label = "provable" if i < provable else "unprovable"
            if label == "unprovable":
                result = _violate(drv, theory, atoms, weight, held, result)
                if result is None:
                    continue
            if len(result) <= 6:
                break
        else:  # pragma: no cover - the templates always allow a derivation
            raise OracleError("could not derive an inference")
        ant = tuple(held)
        cons = O.SHAPES[rng.choice(SHAPE_ORDER)](result) if result else O.UNIT
        if label == "unprovable":
            _expect(O.refutes(theory, weight, ant, cons), "weight does not refute the mutant")
        out.append((ant, cons, label))
    return out


def _violate(rng, theory, atoms, weight, held, result):
    """Add positive-weight atoms to (or drop negative-weight atoms from) a
    derived multiset until the weight refutes the inference."""
    result = list(result)
    up = [a for a in atoms if weight.get(a, 0) > 0]
    for _ in range(10):
        if O.refutes(theory, weight, tuple(held), O.left_comb(result) if result else O.UNIT):
            return result
        down = [a for a in result if weight.get(a, 0) < 0]
        if up:
            result.append(rng.choice(up))
        elif down:
            result.remove(rng.choice(down))
        else:
            return None
    return None


def semantics_ops(rng: random.Random, root: Path, call) -> list[Op]:
    # a witness's size depends on the consequent's bracketing, which comes
    # from a seed-free generator
    fixed = random.Random("semantics:structure")
    ops = []
    theories = []
    for name in SHIPPED:
        text = (root / "theories" / f"{name}.thy").read_text()
        own = O.parse_theory(text)
        theories.append((name, text, own, sorted(own.atoms), SHIPPED_WEIGHTS[name]))
    for i, template in enumerate(TEMPLATES):
        own, names, weight = generated_theory(rng, template)
        theories.append((f"template{i}", own.text(), own, names, weight))
    for name, text, own, atoms, weight in theories:
        lib = call("theory.parse_theory", None, tl_theory.parse_theory, text)
        axioms = len(own.available) + len(own.disposable) + len(own.conversions)
        counts = (THEORY_PROVABLE, THEORY_UNPROVABLE)
        for ant, cons, label in derived_inferences(fixed, own, atoms, weight, counts, f"semantics:{name}"):
            ops.append(_theory_op(lib, own, f"ax{axioms}", ant, cons, label))

    for n, k in ZN_CASES:
        names = rng.sample(POOL, k + 2)
        valuation = {p: rng.randrange(n) for p in names}
        ant = tuple(names[:k])
        # a refuted entailment stops at the first counterexample, whose place
        # depends on the valuation; keep those small so the seed moves no tail
        for entailed in (True, False) if k <= 3 else (True,):
            total = sum(valuation[p] for p in names[:k])
            # the consequent's value is the antecedent's sum, or off by one
            valuation[names[k]] = (total - valuation[names[k + 1]] + (0 if entailed else 1)) % n
            cons = (names[k], names[k + 1])
            text = O.zn_model_text(n, valuation)
            want = O.zn_entails(n, valuation, ant, cons)
            _expect(want is entailed, "Z_n generator")
            ops.append(_model_op(text, f"e{n}", f"k{k}", ant, cons, want))

    for family, k in ORDERED_CASES:
        names = rng.sample(POOL, k + 1)
        valuation = {p: rng.randrange(3) for p in names}
        model = (O.truncated_sum_model if family == "sum" else O.max_model)(2, valuation)
        _expect(model.is_valid(), "ordered model generator")
        ant = tuple(names[:k])
        for cons in (O.left_comb(names[:k]), names[k]):
            ops.append(_model_op(model.text(), "e3", f"k{k}", ant, cons, model.entails(ant, cons)))

    ops += coherence_ops(rng, call)
    return ops


def _theory_op(lib, own, bucket, ant, cons, label) -> Op:
    inf = _lib_inference(ant, cons)

    def run(call):
        return call("theory.decide_in_theory", bucket, tl_theory.decide_in_theory, lib, inf, THEORY_CAP)

    def check(verdict):
        counters = {"decided": 0, "proof_nodes": 0, "theory.witness_nodes": 0}
        if label == "provable":
            _expect(verdict.status in ("provable", "unknown"), f"derivable inference answered {verdict.status}")
        else:
            _expect(verdict.status in ("not-provable", "unknown"), f"refuted inference answered {verdict.status}")
        if verdict.status == "provable":
            node = O.from_lib_proof(verdict.witness)
            _conclusion_is(node, "t", (ant, cons), own)
            counters["proof_nodes"] = counters["theory.witness_nodes"] = O.proof_nodes(node)
        counters["decided"] = int(verdict.status != "unknown")
        return counters

    def probe(tracer):
        """The LP alone on the same inputs, and the decision's time without
        it, for the traced run."""
        tracer("theory.balance_feasible", None, tl_theory.balance_feasible, lib, inf)
        tracer.difference("theory.decide_minus_lp", bucket, "theory.decide_in_theory", "theory.balance_feasible")

    return Op("semantics.theory", run, check, probe)


def _model_op(text, e_bucket, k_bucket, ant, cons, want) -> Op:
    inf = _lib_inference(ant, cons)

    def run(call):
        model = call("monoid.parse_model", None, monoid.parse_model, text)
        violations = call("monoid.validate_model", e_bucket, monoid.validate_model, model)
        return violations, call("monoid.entails", k_bucket, monoid.entails, model, inf)

    def check(outcome):
        violations, holds = outcome
        _expect(violations == [], f"valid model rejected: {violations[:1]}")
        _expect(holds is want, f"entails said {holds}, expected {want}")
        return {"decided": 0, "proof_nodes": 0}

    return Op("semantics.model", run, check)


# diagram -> number of objects, as a mode-t sweep checks them
SWEEP_PLANS = (("triangle", 2), ("pentagon", 4), ("hexagon", 3), ("symmetry-unit", 1), ("symmetry-inverse", 2))


def coherence_ops(rng: random.Random, call) -> list[Op]:
    """Every diagram instance of a mode-t sweep over three atoms and the
    unit, one ``check_diagram`` call per operation."""
    t = tl.Mode.T
    atoms = [tl.parse_term(x) for x in rng.sample(POOL, COHERENCE_ATOMS)]
    objects = tuple(atoms) + (tl.UNIT,)
    ops = []
    for name, arity in SWEEP_PLANS:
        for combo in itertools.product(objects, repeat=arity):
            ops.append(_diagram_op(name, combo, ()))
    f = call("category.symmetry", None, category.symmetry, atoms[0], atoms[1], t)
    g = call("category.identity", None, category.identity, objects[0], t)
    inv = call("category.inverse", None, category.inverse, f)
    ops.append(_diagram_op("interchange", (), (f, inv, g, g)))
    ops.append(_diagram_op("nat-lambda", (), (f,)))
    ops.append(_diagram_op("nat-sigma", (), (f, g)))
    _expect(len(ops) == O.coherence_instances(COHERENCE_ATOMS, "t"), "coherence instance count")
    return ops


def _diagram_op(name, terms, morphisms) -> Op:
    bucket = DIAGRAM_BUCKET[name]

    def run(call):
        return call("category.check_diagram", bucket, category.check_diagram, name, tl.Mode.T, terms, morphisms)

    def check(holds):
        _expect(holds is True, f"coherence diagram {name} fails")
        return {"decided": 0, "proof_nodes": 0, "category.instances": 1}

    return Op("semantics.coherence", run, check)


# --- cli ---------------------------------------------------------------------

FAULT_COMB = 2000
FAULT_REVERSAL = 32
SWEEP_ATOMS = 2


class Cli:
    """Runs ``python -m tensorlogic.cli`` in the checkout, one process at a
    time, and keeps the input files it needs in ``workdir``."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        self.env = env
        self.files = 0

    def write(self, text: str) -> str:
        self.files += 1
        path = self.workdir / f"in{self.files}.txt"
        path.write_text(text)
        return str(path.relative_to(self.root))

    def run(self, args: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


_SUBCOMMAND_WORDS = {
    "theory-decide": ["theory", "decide"],
    "model-check": ["model", "check"],
    "coherence-sweep": ["coherence", "sweep"],
}


class CrashError(RuntimeError):
    """The process died with a Python traceback."""


def _cli_op(cli: Cli, sub: str, flags: list[str], args: list[str], check, fault=False) -> Op:
    argv = ["-m", "tensorlogic.cli", *flags, *_SUBCOMMAND_WORDS.get(sub, [sub]), *args]

    def run(call):
        return call("cli." + sub, None, cli.run, argv)

    def checked(outcome):
        code, out, err = outcome
        if "Traceback (most recent call last)" in err:
            raise CrashError(err.strip().splitlines()[-1])
        return check(code, out)

    return Op("cli." + sub, run, checked, fault=fault)


def _proof_out(text: str, mode: str, expected, theory=None) -> int:
    node = O.parse_proof(text.strip())
    _conclusion_is(node, mode, expected, theory)
    return O.proof_nodes(node)


def cli_ops(rng: random.Random, root: Path, workdir: Path) -> tuple[Cli, list[Op]]:
    cli = Cli(root, workdir)
    ops: list[Op] = []
    # permutations and bracketings, on which the size of a printed proof
    # depends, come from a seed-free generator; the seed picks the names
    fixed = random.Random("cli:structure")

    def names(n):
        return rng.sample(POOL, n)

    def decide_op(mode, ant, cons, provable, fault=False):
        want = "provable" if provable else "not-provable"

        def check(code, out):
            _expect(code == (0 if provable else 1) and out.strip() == want, f"decide: exit {code}, {out.strip()!r}")
            return {"decided": 1, "proof_nodes": 0}

        return _cli_op(cli, "decide", ["--mode", mode], [O.render_inference(ant, cons)], check, fault)

    def prove_op(mode, ant, cons, provable, fault=False):
        def check(code, out):
            if not provable:
                _expect(code == 1 and out.strip() == "not-provable", f"prove: exit {code}")
                return {"decided": 1, "proof_nodes": 0}
            _expect(code == 0, f"prove: exit {code}")
            return {"decided": 1, "proof_nodes": _proof_out(out, mode, (ant, cons))}

        return _cli_op(cli, "prove", ["--mode", mode], [O.render_inference(ant, cons)], check, fault)

    def proof_file(node) -> str:
        return cli.write(O.render_proof(node) + "\n")

    def synthesised(mode, ant, cons):
        return O.from_lib_proof(tl.synthesize_proof(_lib_inference(ant, cons), MODES[mode]))

    def check_op(mode, ant, cons, fault=False):
        path = proof_file(synthesised(mode, ant, cons))

        def check(code, out):
            _expect(code == 0 and out.startswith("valid: "), f"check: exit {code}")
            got = O.parse_inference(out.strip()[len("valid: ") :])
            _expect(O.same_inference(got, (ant, cons)), "check: wrong conclusion")
            return {"decided": 0, "proof_nodes": 0}

        return _cli_op(cli, "check", ["--mode", mode], [path], check, fault)

    def cut_proof(mode, ant, cons, target):
        m = MODES[mode]
        p1 = tl.synthesize_proof(_lib_inference(ant, cons), m)
        p2 = tl.synthesize_proof(_lib_inference((cons,), target), m)
        return O.from_lib_proof(tl.cut_proofs(p1, p2, 0, m, 1))

    def perm_case(n, mode):
        ns = names(n)
        order = permutation(fixed, ns, inversion_target(n)) if mode == "t" else ns
        k = max(1, n // 3)
        ant = tuple(O.SHAPES[SHAPE_ORDER[i % 3]](b) for i, b in enumerate(_split(ns, k)))
        return ant, O.SHAPES[fixed.choice(SHAPE_ORDER)](order), ns

    # decide: four seeded verdicts and one known fault
    for mode, n, provable in (("t", 6, True), ("tprime", 8, True), ("t", 12, True), ("t", 6, False), ("tprime", 6, False)):
        ant, cons, ns = perm_case(n, mode if provable else "t")
        if not provable:
            cons = (cons, ns[0])  # one atom too many
        ops.append(decide_op(mode, ant, cons, provable))
    comb = O.left_comb([f"P{i}" for i in range(FAULT_COMB)])
    ops.append(decide_op("t", (comb,), comb, True, fault=True))

    # prove and check: seeded proofs and the mode-t reversal fault
    for mode, n in (("t", 5), ("tprime", 6), ("t", 8)):
        ant, cons, _ = perm_case(n, mode)
        ops.append(prove_op(mode, ant, cons, True))
    ant, cons, ns = perm_case(5, "t")
    ops.append(prove_op("tprime", tuple(ns), O.left_comb(list(reversed(ns))), False))
    rev = [f"R{i}" for i in range(FAULT_REVERSAL)]
    rev_ant, rev_cons = tuple(rev), O.left_comb(rev[::-1])
    ops.append(prove_op("t", rev_ant, rev_cons, True, fault=True))
    for mode, n in (("t", 6), ("tprime", 8), ("t", 10), ("tprime", 12)):
        ant, cons, _ = perm_case(n, mode)
        ops.append(check_op(mode, ant, cons))
    ops.append(check_op("t", rev_ant, rev_cons, fault=True))

    # search
    for mode, n in (("t", 4), ("tprime", 6), ("t", 5)):
        ns = names(n)
        order = permutation(fixed, ns, inversion_target(n)) if mode == "t" else ns
        ant = tuple(ns) if mode == "t" else (O.left_comb(ns),)
        cons = O.balanced(order)

        def check(code, out, mode=mode, ant=ant, cons=cons):
            _expect(code == 0, f"search: exit {code}")
            return {"decided": 1, "proof_nodes": _proof_out(out, mode, (ant, cons))}

        ops.append(_cli_op(cli, "search", ["--mode", mode], [O.render_inference(ant, cons)], check))
    # a cut search under a theory; it makes the round an odd 41 operations
    cloning = O.parse_theory((root / "theories" / "cloning.thy").read_text())
    ant, cons = ("C",), ("C", "C")

    def check(code, out, ant=ant, cons=cons):
        _expect(code == 0, f"search: exit {code}")
        return {"decided": 1, "proof_nodes": _proof_out(out, "t", (ant, cons), cloning)}

    ops.append(_cli_op(cli, "search", ["--theory", "theories/cloning.thy"], [O.render_inference(ant, cons)], check))

    # elim-cut, canon and equiv on cut proofs
    for sub in ("elim-cut", "canon", "equiv"):
        for mode, n in (("t", 6), ("tprime", 10), ("t", 9)):
            ant, cons, ns = perm_case(n, mode)
            target = O.SHAPES[fixed.choice(SHAPE_ORDER)](ns)
            node = cut_proof(mode, ant, cons, target)
            final = (ant, target)
            if sub != "equiv":

                def check(code, out, mode=mode, final=final, sub=sub):
                    _expect(code == 0, f"{sub}: exit {code}")
                    body = out.strip().splitlines()[0]
                    _expect(O.count_rule(O.parse_proof(body), "cut") == 0, f"{sub} output has a cut")
                    return {"decided": 0, "proof_nodes": _proof_out(body, mode, final)}

                ops.append(_cli_op(cli, sub, ["--mode", mode], [proof_file(node)], check))
                continue
            # equivalent: the cut proof and the canonical proof of its conclusion;
            # distinct: the canonical proof of the cut's left premise
            same = n != 9
            other = synthesised(mode, *final) if same else synthesised(mode, ant, cons)

            def check(code, out, same=same):
                want = "equivalent" if same else "distinct"
                _expect(code == (0 if same else 1) and out.strip() == want, f"equiv: exit {code}")
                return {"decided": 0, "proof_nodes": 0}

            ops.append(_cli_op(cli, "equiv", ["--mode", mode], [proof_file(node), proof_file(other)], check))

    # theory decide on the shipped theories, with the witness as JSON
    for name in SHIPPED:
        path = f"theories/{name}.thy"
        own = O.parse_theory((root / path).read_text())
        derived = derived_inferences(fixed, own, sorted(own.atoms), SHIPPED_WEIGHTS[name], (1, 1), f"cli:{name}")
        for ant, cons, label in derived:

            def check(code, out, label=label, own=own, ant=ant, cons=cons):
                import json

                verdict = json.loads(out)["verdict"]
                allowed = ("provable", "unknown") if label == "provable" else ("not-provable", "unknown")
                _expect(verdict in allowed and code == {"provable": 0, "not-provable": 1, "unknown": 2}[verdict],
                        f"theory decide answered {verdict} (exit {code}) on a {label} inference")
                nodes = 0
                if verdict == "provable":
                    nodes = _proof_out(json.loads(out)["witness"], "t", (ant, cons), own)
                return {"decided": int(verdict != "unknown"), "proof_nodes": nodes}

            ops.append(_cli_op(cli, "theory-decide", ["--json", "--theory", path], [O.render_inference(ant, cons)], check))

    # model check on Z_n
    for n in (5, 6):
        ns = names(4)
        valuation = {p: rng.randrange(n) for p in ns}
        ant, cons = (ns[0], (ns[1], ns[2])), ns[3]
        want = O.zn_entails(n, valuation, ant, cons)
        path = cli.write(O.zn_model_text(n, valuation))

        def check(code, out, want=want):
            text = "entailed" if want else "not-entailed"
            _expect(code == (0 if want else 1) and out.strip() == text, f"model check: exit {code}")
            return {"decided": 1, "proof_nodes": 0}

        ops.append(_cli_op(cli, "model-check", [], [path, O.render_inference(ant, cons)], check))

    # coherence sweeps in both modes
    for mode in ("t", "tprime"):
        count = O.coherence_instances(SWEEP_ATOMS, mode)

        def check(code, out, count=count):
            _expect(code == 0 and out.strip() == f"checked {count} diagram instance(s), 0 failure(s)",
                    f"coherence sweep: exit {code}, {out.strip()!r}")
            return {"decided": 0, "proof_nodes": 0}

        ops.append(_cli_op(cli, "coherence-sweep", ["--mode", mode], ["--max-atoms", str(SWEEP_ATOMS)], check))
    return cli, ops


def cli_probes(cli: Cli, call, repeats: int) -> None:
    """A bare interpreter, and one that only imports the CLI module."""
    for _ in range(repeats):
        call("cli.python_start", None, cli.run, ["-c", "pass"])
        call("cli.import", None, cli.run, ["-c", "import tensorlogic.cli"])


# --- the workload table ------------------------------------------------------


class Workload:
    """A named workload: its operations, in the seeded order of one pass, and
    the tail percentile its runs report."""

    def __init__(self, name: str, seed: int, root: Path, call, workdir: Path):
        self.name = name
        rng = random.Random(f"{name}:{seed}")
        self.cli = None
        if name == "pipeline":
            self.ops = pipeline_ops(rng, call)
        elif name == "search":
            self.ops = search_ops(rng, root)
        elif name == "semantics":
            self.ops = semantics_ops(rng, root, call)
        elif name == "cli":
            self.cli, self.ops = cli_ops(rng, root, workdir)
        else:
            raise ValueError(f"unknown workload {name!r}")
        first = {}
        for op in self.ops:
            if not op.fault:
                first.setdefault(op.label, op)
        # the first operation of each class that is not a known fault, in the
        # order they were made: an input of the same size and shape for every seed
        self.one_per_label = list(first.values())
        rng.shuffle(self.ops)
        self.min_ops, self.tail_pct = TAILS[name]

    def peak_rss_mb(self) -> float:
        if self.cli is not None:
            return self.cli.peak_rss_mb()
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# workload -> (operations every run attempts at least, tail percentile);
# the percentile is the highest of 75/90/95/99 with ten samples beyond it
# at that minimum.  Semantics stops at one pass, whose p95 falls among the
# 35 theory decisions; its p99 would be one of a few single monoid checks.
TAILS = {"cli": (41, 75.0), "pipeline": (1000, 99.0), "search": (200, 95.0), "semantics": (429, 95.0)}
WORKLOADS = tuple(TAILS)
