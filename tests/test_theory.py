import hashlib
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import (
    UNIT,
    Atom,
    ConvAxiom,
    Decision,
    Inference,
    LAxiom,
    Mode,
    Prover,
    RAxiom,
    check,
    decide,
    decide_in_theory,
    lift,
    load_theory,
    make_theory,
    parse_inference,
    parse_term,
    parse_theory,
    render_proof,
)
from tensorlogic.terms import atom_vector, render_term, tensor_of
from tensorlogic.theory import (
    ConversionPresent,
    EncodingError,
    SharedAtoms,
    Theory,
    UndeclaredAtom,
    balance_feasible,
    encode_conversion,
)

from helpers import random_proof, random_term

seeds = st.integers(0, 2**32 - 1)


def test_parse_theory_statements():
    th = parse_theory(
        """
        atoms A B C ;          # declarations
        free A ; free A * B ;
        dispose C ;
        convert A -> B ;
        """
    )
    assert th.atoms == frozenset("ABC")
    assert [render_term(t) for t in th.available] == ["A", "A * B"]
    assert [render_term(t) for t in th.disposable] == ["C"]
    assert th.conversions == ((Atom("A"), Atom("B")),)


def test_theory_statement_head_ends_at_any_whitespace():
    """A statement's keyword may end at a newline or a tab, not only a space."""
    one_space = parse_theory("atoms A B ; convert A -> B ;")
    assert parse_theory("atoms\nA B ; convert\tA -> B ;") == one_space
    assert parse_theory("atoms A B ;\nfree\n  A * B ;") == parse_theory("atoms A B ; free A * B ;")


def test_theory_requires_declared_atoms():
    with pytest.raises(UndeclaredAtom):
        parse_theory("atoms A ; free B ;")
    with pytest.raises(UndeclaredAtom):
        parse_theory("atoms A ; convert A -> B ;")


def test_conversion_common_factor_reduction():
    th = parse_theory("atoms A B C ; convert A * C -> B * C ;")
    assert th.conversions == ((Atom("A"), Atom("B")),)
    th2 = parse_theory("atoms A B C ; convert A * (C * C) -> C * B ;")
    assert th2.conversions == ((parse_term("A * C"), Atom("B")),)


def test_conversion_sharing_cancels_fully():
    # reduction removes the whole shared multiset, leaving disjoint sides
    th = parse_theory("atoms A B ; convert A * B -> B * B ;")
    assert th.conversions == ((Atom("A"), Atom("B")),)
    from tensorlogic.theory import TheoryError

    assert issubclass(SharedAtoms, TheoryError)


def test_shipped_theories_load():
    for name, n_conv in [("cloning", 0), ("coherence", 1), ("locc", 1), ("locc-weak", 2)]:
        th = load_theory(f"theories/{name}.thy")
        assert len(th.conversions) == n_conv


@pytest.mark.parametrize(
    "path,inference,status",
    [
        ("theories/cloning.thy", "C |- C * C", "provable"),
        ("theories/locc.thy", "E * Q_A |- Q_B", "provable"),
        ("theories/locc-weak.thy", "E * Q_A |- Q_B", "provable"),
        ("theories/locc-weak.thy", "E |- Q_A * Q_B", "not-provable"),
        ("theories/coherence.thy", "Q(1) |- Q(0.5)", "provable"),
        ("theories/coherence.thy", "Q(0.5) |- 1", "provable"),
        ("theories/coherence.thy", "1 |- Q(1)", "not-provable"),
        # axioms with a unit side, the conversions stored as 1 -> B and B -> 1
        ("atoms A B ; dispose 1 ; dispose B ;", "A, 1, B |- A", "provable"),
        ("atoms A B ; convert A -> A * B ;", "A |- B * (A * B)", "provable"),
        ("atoms A B ; convert A * B -> A ;", "B, A, B |- A", "provable"),
        ("atoms A B C ; dispose A * (B * 1) ; free C ;", "B, C * A |- C * C", "provable"),
    ],
)
def test_decide_in_theory_verdicts(path, inference, status):
    th = load_theory(path) if path.endswith(".thy") else parse_theory(path)
    inf = parse_inference(inference)
    verdict = decide_in_theory(th, inf, 16)
    assert verdict.status == status
    if verdict.status == "provable":
        assert check(verdict.witness, Mode.T, th) == inf


def test_balance_feasibility():
    cases = [
        ("cloning", "C |- C * C", True),
        ("cloning", "C |- 1", False),
        ("cloning", "|- 1", True),
        ("coherence", "1 |- Q(1)", False),
        ("coherence", "Q(1) |- Q(0.5)", True),
        ("locc", "E * Q_A |- Q_B", True),
        ("locc", "E |- E * E", False),
        ("locc-weak", "E |- Q_A * Q_B", False),  # so decide_in_theory says not-provable
    ]
    for name, inference, feasible in cases:
        th = load_theory(f"theories/{name}.thy")
        assert balance_feasible(th, parse_inference(inference)) is feasible, (name, inference)


def _leaf_columns(proof) -> Counter:
    """The sum of the balance columns of a proof's axiom leaves."""
    total: Counter = Counter()
    stack = [proof]
    while stack:
        p = stack.pop()
        stack.extend(p.premises)
        rule = p.rule
        if isinstance(rule, RAxiom):
            total.update(atom_vector(rule.term))
        elif isinstance(rule, LAxiom):
            total.subtract(atom_vector(rule.term))
        elif isinstance(rule, ConvAxiom):
            total.update(atom_vector(rule.target))
            total.subtract(atom_vector(rule.source))
    return total


@given(seeds, st.sampled_from([Mode.T, Mode.TPRIME]))
@settings(max_examples=150, deadline=None)
def test_balance_is_the_sum_of_leaf_columns(seed, mode):
    """The invariant behind ``not-provable``: a checked proof's conclusion has
    the balance (consequent atoms minus antecedent atoms) of its axiom leaves,
    so an inference whose balance equation is infeasible has no proof."""
    rng = random.Random(seed)

    def terms(k):
        return [random_term(rng, depth=1) for _ in range(rng.randrange(k))]

    theory = make_theory("ABC", terms(3), terms(3), list(zip(terms(3), terms(3))))
    proof = random_proof(rng, mode, steps=rng.randrange(4, 14), theory=theory)
    conclusion = check(proof, mode, theory)
    balance = Counter(atom_vector(conclusion.consequent))
    balance.subtract(atom_vector(conclusion.antecedent))
    columns = _leaf_columns(proof)
    assert {k: v for k, v in balance.items() if v} == {k: v for k, v in columns.items() if v}
    assert balance_feasible(theory, conclusion)


def _system(matrix, b):
    """A theory and an inference whose balance equation is ``matrix x = b``:
    row ``i`` is atom ``R<i>``, each column one conversion."""
    names = [f"R{i}" for i in range(len(b))]

    def side(entries):
        return tensor_of([Atom(nm) for nm, v in zip(names, entries) for _ in range(max(v, 0))])

    columns = [[row[j] for row in matrix] for j in range(len(matrix[0]) if matrix else 0)]
    conversions = tuple((side([-v for v in col]), side(col)) for col in columns)
    inference = Inference((side([-v for v in b]),), side(b))
    return Theory(frozenset(names), conversions=conversions), inference


@pytest.mark.parametrize(
    "matrix,b,feasible",
    [
        ([], [], True),  # no rows, no columns
        ([[], []], [0, 0], True),  # no columns
        ([[], []], [0, 1], False),
        ([[], []], [-1, 0], False),
        ([[1, -1], [0, 0]], [0, 0], True),  # b = 0: the origin
        ([[1, -1, 0], [0, 1, -1], [1, 0, 1]], [0, 0, 2], True),  # degenerate: x = (1, 1, 1)
        ([[1, -1, 0], [0, 1, -1], [1, 0, 1]], [0, 0, -2], False),
        ([[1, 1], [1, -1]], [1, 2], False),  # unique solution (3/2, -1/2)
        ([[2, 0], [0, 2]], [1, 3], True),  # rational, not integral: x = (1/2, 3/2)
        ([[1, -1]], [-5], True),
        ([[1, 1]], [-1], False),
    ],
)
def test_balance_feasible_hand_cases(matrix, b, feasible):
    assert balance_feasible(*_system(matrix, b)) is feasible


def test_balance_feasible_without_rows():
    # a column of zeros and a balanced inference mention no atom at all
    assert balance_feasible(Theory(frozenset(), conversions=((UNIT, UNIT),)), Inference((), UNIT))


def test_balance_feasible_agrees_with_linprog():
    """The exact check against a floating-point LP solver on random sparse
    systems with small entries, the shape of real balance equations."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(20161)
    for _ in range(2000):
        m, n = rng.randint(1, 9), rng.randint(1, 14)
        density = rng.random()
        matrix = [[rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-2, 2) for _ in range(m)]
        res = optimize.linprog([0] * n, A_eq=matrix, b_eq=b, bounds=[(0, None)] * n, method="highs")
        assert res.status in (0, 2), res.message
        assert balance_feasible(*_system(matrix, b)) is (res.status == 0), (matrix, b)


def test_encode_conversion_styles():
    th = load_theory("theories/locc.thy")
    for style, fresh in [("negativeFrom", "-E"), ("negativeTo", "-(Q_A*Q_B)")]:
        enc = encode_conversion(th, style)
        assert not enc.conversions
        assert fresh in enc.atoms
        assert any(fresh in render_term(t) for t in enc.available)
        assert any(fresh in render_term(t) for t in enc.disposable)


def test_encode_conversion_name_collision():
    th = load_theory("theories/locc-weak.thy")
    with pytest.raises(EncodingError):
        encode_conversion(th, "negativeFrom")
    # the target-named encoding distinguishes the two conversions
    enc = encode_conversion(th, "negativeTo")
    assert not enc.conversions


def test_encoded_theory_decides_the_same():
    th = load_theory("theories/locc.thy")
    enc = encode_conversion(th, "negativeFrom")
    inf = parse_inference("E * Q_A |- Q_B")
    assert decide_in_theory(th, inf, 16).status == "provable"
    assert decide_in_theory(enc, inf, 16).status == "provable"


def test_encode_conversion_is_an_integer_relaxation():
    """No conversion can fire from ``C`` (nothing makes ``B`` or ``D``), but
    the balance equation has the integer solution "each conversion once", and
    each encoding realises it."""
    th = parse_theory("atoms B C D E ; convert B * C -> D ; convert D -> B * E ;")
    inf = parse_inference("C |- E")
    assert decide_in_theory(th, inf, 20).status == "unknown"
    for style in ("negativeFrom", "negativeTo"):
        enc = encode_conversion(th, style)
        verdict = decide_in_theory(enc, inf, 20)
        assert verdict.status == "provable"
        assert check(verdict.witness, Mode.T, enc) == inf


def test_lift_requires_conversion_free():
    th = load_theory("theories/locc.thy")
    with pytest.raises(ConversionPresent):
        lift(th, parse_inference("E |- E"), ((0,), (0, 0, 0)))


def test_lift_shapes():
    th = parse_theory("atoms A B ; free A ; dispose B ;")
    lifted = lift(th, parse_inference("B |- A"), ((2,), (1,)))
    assert lifted == parse_inference("B, A, A |- A * B")


def _random_conversion_free_theory(rng):
    names = ["A", "B", "C"]
    avail = [Atom(rng.choice(names)) for _ in range(rng.randrange(3))]
    disp = [Atom(rng.choice(names)) for _ in range(rng.randrange(3))]
    return make_theory(names, avail, disp)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_lift_round_trip(seed):
    """Theory provability with given counts matches plain provability."""
    rng = random.Random(seed)
    theory = _random_conversion_free_theory(rng)
    base = [rng.choice("ABC") for _ in range(rng.randrange(1, 4))]
    m = tuple(rng.randrange(3) for _ in theory.available)
    n = tuple(rng.randrange(3) for _ in theory.disposable)
    atoms = atom_vector(tuple(Atom(x) for x in base))
    for x, mi in zip(theory.available, m):
        for _ in range(mi):
            atoms.update(atom_vector(x))
    for y, nj in zip(theory.disposable, n):
        for _ in range(nj):
            atoms.subtract(atom_vector(y))
    if any(v < 0 for v in atoms.values()):
        return
    consequent = tensor_of([Atom(k) for k, v in sorted(atoms.items()) for _ in range(v)])
    inf = Inference(tuple(Atom(x) for x in base), consequent)
    lifted = lift(theory, inf, (m, n))
    assert decide(lifted, Mode.T) is Decision.PROVABLE
    verdict = decide_in_theory(theory, inf, 16)
    assert verdict.status == "provable"
    assert check(verdict.witness, Mode.T, theory) == inf


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_decide_in_theory_witnesses_check(seed):
    rng = random.Random(seed)
    theory = _random_conversion_free_theory(rng)
    items = tuple(Atom(rng.choice("ABC")) for _ in range(rng.randrange(3)))
    inf = Inference(items, Atom(rng.choice("ABC")))
    verdict = decide_in_theory(theory, inf, 8)
    if verdict.status == "provable":
        assert check(verdict.witness, Mode.T, theory) == inf
    elif verdict.status == "not-provable":
        # the balance obstruction is complete for conversion-free theories
        assert not balance_feasible(theory, inf)


def _chain_theory(k):
    """``convert Xi * Xi -> X(i+1)`` for ``i < k``, with ``dispose Xk``."""
    atoms = " ".join(f"X{i}" for i in range(k + 1))
    converts = " ".join(f"convert X{i} * X{i} -> X{i + 1} ;" for i in range(k))
    return f"atoms {atoms} ; {converts} dispose X{k} ;"


def test_marking_search_exhausts_its_cap_quickly():
    """Balanced inferences that no run within the cap realises answer
    ``unknown`` well within 0.5 s together: the search stops at an empty
    layer or prunes markings past the goal.  Enumerating usage vectors took
    1.9 s on the chain at seven conversions alone."""
    free = "atoms A B C D E F ; " + " ".join(f"free {a} ;" for a in "ABCDEF")
    cases = [
        ("atoms A B ; convert A * A -> B ; dispose B ;", "A |- 1", 40),
        ("atoms B C D E ; convert B * C -> D ; convert D -> B * E ;", "C |- E", 60),
        *((_chain_theory(k), "X0 |- 1", 16) for k in range(3, 8)),
        (free, "|- " + " * ".join(("ABCDEF" * 3)[:17]), 16),
    ]
    start = time.perf_counter()
    for text, inference, cap in cases:
        assert decide_in_theory(parse_theory(text), parse_inference(inference), cap).status == "unknown", text
    assert time.perf_counter() - start < 0.5
    th = parse_theory("atoms A B C ; free C ; dispose B ;")
    inf = parse_inference("A" + ", B" * 32 + " |- A * C")
    verdict = decide_in_theory(th, inf, 40)
    assert verdict.status == "provable"
    assert check(verdict.witness, Mode.T, th) == inf


def test_undeclared_inference_atoms_rejected():
    th = parse_theory("atoms A ;")
    with pytest.raises(UndeclaredAtom):
        decide_in_theory(th, parse_inference("B |- B"), 4)


def test_theory_decision_in_tprime():
    """The witnesses are mode-``t`` proofs, so in ``tprime`` a balanced
    inference is ``unknown``; the balance refutation holds in both modes."""
    th = parse_theory("atoms A C ; free C ;")
    inf = parse_inference("A * C |- C * A")
    assert decide_in_theory(th, inf).status == "provable"
    assert decide_in_theory(th, inf, mode=Mode.T).status == "provable"
    assert decide_in_theory(th, inf, mode=Mode.TPRIME).status == "unknown"
    assert decide_in_theory(th, parse_inference("A |- C"), mode=Mode.TPRIME).status == "not-provable"


def _random_theory(rng):
    names = ["A", "B", "C"]
    term = lambda: random_term(rng, names, depth=1)
    return make_theory(
        names,
        [term() for _ in range(rng.randrange(3))],
        [term() for _ in range(rng.randrange(3))],
        [(term(), term()) for _ in range(rng.randrange(3))],
    )


@pytest.mark.parametrize(
    "mode,theory_on,cap,found,goals,digest",
    [
        (Mode.T, True, 7, 13, 16_501, "4aaae40d0222a6cc3593a68808b4793418c793221f9f6b8252bbd108bf681779"),
        (Mode.TPRIME, True, 7, 11, 45_749, "ea86ca9e623737065537ad104305c08fb4208bb1c9c04568a50b18473381d2ad"),
        (Mode.T, False, 40, 7, 146, "7df03f82dd10ce97d686424b8032c325b9461cdea1950a2fbfafd8db865eca13"),
    ],
)
def test_random_theory_searches_are_pinned(mode, theory_on, cap, found, goals, digest):
    """Backward search over 100 random theories and inferences of one or two
    depth-1 items finds these proofs after exploring these many goals: the
    number found, the summed memo sizes and a SHA-256 of the rendered proofs
    were recorded before ``Prover`` bounded each call where it is made.
    Without a theory the same inferences are searched plainly."""
    digests = hashlib.sha256()
    proofs = explored = 0
    for seed in range(100):
        rng = random.Random(seed)
        theory = _random_theory(rng)
        inf = Inference(tuple(random_term(rng, depth=1) for _ in range(rng.randint(1, 2))), random_term(rng, depth=1))
        prover = Prover(mode, theory if theory_on else None)
        result = prover.prove(inf, cap)
        explored += len(prover.memo)
        if result.found:
            proofs += 1
            digests.update((render_proof(result.proof) + "\n").encode())
    assert (proofs, explored, digests.hexdigest()) == (found, goals, digest)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_theory_verdicts_hold_in_their_mode(seed):
    """Over random theories with conversions: in mode ``t`` every witness
    checks and concludes the inference; in ``tprime`` no verdict is
    ``provable``; in both, ``not-provable`` is the balance refutation."""
    rng = random.Random(seed)
    theory = _random_theory(rng)
    inf = Inference(tuple(random_term(rng, depth=1) for _ in range(rng.randrange(3))), random_term(rng, depth=1))
    for mode in (Mode.T, Mode.TPRIME):
        verdict = decide_in_theory(theory, inf, 6, mode)
        if verdict.status == "provable":
            assert mode is Mode.T
            assert check(verdict.witness, Mode.T, theory) == inf
        assert (verdict.status == "not-provable") is not balance_feasible(theory, inf)


def _axiom_leaves(proof) -> Counter:
    """How many times each axiom rule stands as a leaf of ``proof``."""
    leaves: Counter = Counter()
    stack = [proof]
    while stack:
        p = stack.pop()
        stack.extend(p.premises)
        if isinstance(p.rule, (RAxiom, LAxiom, ConvAxiom)):
            leaves[p.rule] += 1
    return leaves


@given(seeds, st.booleans())
@settings(max_examples=150, deadline=None)
def test_witness_leaves_match_counts(seed, conversions):
    """The lifting theorem at proof level: a witness holds one leaf per axiom
    use and nothing else of the theory.  The inference comes from a random
    forward run, so it is provable within the cap; the witness checks, and
    each axiom's leaves number its count in the verdict."""
    rng = random.Random(seed)
    theory = _random_theory(rng) if conversions else _random_conversion_free_theory(rng)
    antecedent = tuple(random_term(rng, ["A", "B", "C"], depth=1) for _ in range(rng.randrange(4)))
    held = atom_vector(antecedent)
    axioms = [
        *((RAxiom(x), (), x) for x in theory.available),
        *((LAxiom(y), y, UNIT) for y in theory.disposable),
        *((ConvAxiom(a, b), a, b) for a, b in theory.conversions),
    ]
    for _ in range(rng.randrange(5)):
        enabled = [(before, after) for _, before, after in axioms if not atom_vector(before) - held]
        if not enabled:
            break
        before, after = rng.choice(enabled)
        held = held - atom_vector(before) + atom_vector(after)
    names = list(held.elements())
    rng.shuffle(names)
    inf = Inference(antecedent, tensor_of(Atom(n) for n in names))
    verdict = decide_in_theory(theory, inf, 5)
    assert verdict.status == "provable"
    assert check(verdict.witness, Mode.T, theory) == inf
    uses = [*verdict.counts["available"], *verdict.counts["disposable"], *verdict.counts["conversions"]]
    expected: Counter = Counter()
    for (leaf, _, _), count in zip(axioms, uses, strict=True):
        expected[leaf] += count
    assert _axiom_leaves(verdict.witness) == +expected


def _disposal_family(k):
    """``A, B, ..., B |- A * C`` with ``k`` copies of ``B``: one ``free C``
    and ``k`` disposals."""
    return parse_theory("atoms A B C ; free C ; dispose B ;"), parse_inference("A" + ", B" * k + " |- A * C")


def _conversion_chain(k):
    """``A, ..., A |- D * ... * D``, ``k`` of each: ``2k`` conversions."""
    theory = parse_theory("atoms A B D ; convert A -> B ; convert B -> D ;")
    return theory, parse_inference(", ".join("A" * k) + " |- " + " * ".join("D" * k))


@pytest.mark.parametrize("family,bound", [(_disposal_family, 500), (_conversion_chain, 600)])
def test_witness_size_is_linear(family, bound):
    """A use adds only its own axiom's nodes to the witness, so doubling the
    uses at most doubles its size.  Re-synthesising the held state at each
    use gave 13,448 nodes for the disposal family and 53,246 for the chain
    at k = 64."""
    sizes = {}
    for k in (16, 32, 64):
        theory, inf = family(k)
        verdict = decide_in_theory(theory, inf, 2 * k + 1)
        assert check(verdict.witness, Mode.T, theory) == inf
        sizes[k] = verdict.witness.size()
    assert sizes[32] <= 2 * sizes[16] + 10 and sizes[64] <= 2 * sizes[32] + 10
    assert sizes[64] < bound
