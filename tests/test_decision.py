import random
import time
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import (
    Atom,
    Decision,
    Inference,
    Mode,
    NotProvableError,
    Prover,
    bounded_search,
    canonicalize,
    check,
    cut_proofs,
    decide,
    eliminate_left_tensor,
    identity_proof,
    is_provable,
    parse_inference,
    synthesize_proof,
)
from tensorlogic.kernel import Cut, render_proof
from tensorlogic.terms import Tensor, atom_list, atom_vector, tensor_of
from tensorlogic.theory import parse_theory

from helpers import random_balanced_inference, random_inference, random_proof, random_term

seeds = st.integers(0, 2**32 - 1)
modes_st = st.sampled_from([Mode.T, Mode.TPRIME])


@pytest.mark.parametrize(
    "text,in_t,in_tprime",
    [
        ("A |- A", True, True),
        ("A * B |- A * B", True, True),
        ("A * B |- B * A", True, False),
        ("A, B |- B * A", True, False),
        ("A * (B * C) |- (A * B) * C", True, True),
        ("1 |- 1", True, True),
        ("|- 1", True, True),
        ("A |- A * 1", True, True),
        ("1, A, 1 |- A", True, True),
        ("A |- A * A", False, False),
        ("A, A |- A", False, False),
        ("A |- B", False, False),
        ("|- A", False, False),
        ("A |-  1", False, False),
        ("A * A, B |- A * (B * A)", True, False),
        ("A, B, C |- C * (A * B)", True, False),
        ("A, B, C |- A * (B * C)", True, True),
        ("A * 1 * B |- 1 * (A * B)", True, True),
    ],
)
def test_decide_oracle(text, in_t, in_tprime):
    inf = parse_inference(text)
    assert (decide(inf, Mode.T) is Decision.PROVABLE) == in_t
    assert (decide(inf, Mode.TPRIME) is Decision.PROVABLE) == in_tprime


@given(seeds, modes_st)
@settings(max_examples=150, deadline=None)
def test_synthesized_proofs_check(seed, mode):
    inf = random_balanced_inference(random.Random(seed))
    if mode is Mode.TPRIME and decide(inf, mode) is not Decision.PROVABLE:
        return
    proof = synthesize_proof(inf, mode)
    assert check(proof, mode) == inf


@given(seeds, modes_st)
@settings(max_examples=100, deadline=None)
def test_synthesize_refuses_unprovable(seed, mode):
    inf = random_inference(random.Random(seed))
    if decide(inf, mode) is Decision.PROVABLE:
        proof = synthesize_proof(inf, mode)
        assert check(proof, mode) == inf
    else:
        with pytest.raises(NotProvableError):
            synthesize_proof(inf, mode)


@given(seeds, modes_st)
@settings(max_examples=100, deadline=None)
def test_checked_proofs_decide_provable(seed, mode):
    """Everything a proof concludes is judged provable (kernel soundness)."""
    proof = random_proof(random.Random(seed), mode)
    conc = check(proof, mode)
    assert decide(conc, mode) is Decision.PROVABLE


def test_decide_criteria_shapes():
    # mode t compares atom multisets, mode tprime ordered atom lists
    inf = parse_inference("B, A |- A * B")
    assert atom_vector(inf.antecedent) == atom_vector(inf.consequent)
    assert atom_list(inf.antecedent) != atom_list(inf.consequent)
    assert is_provable(inf, Mode.T)
    assert not is_provable(inf, Mode.TPRIME)


def test_decide_deep_combs():
    """Term traversals do not recurse, so size alone cannot crash ``decide``."""
    n = 10_000
    atoms = [Atom(f"A{i}") for i in range(n)]
    left = tensor_of(atoms)
    right = atoms[-1]
    for a in reversed(atoms[:-1]):
        right = Tensor(a, right)
    names = [a.name for a in atoms]
    for comb in (left, right):
        assert atom_list(comb) == names
        assert comb.size == 2 * n - 1
    reversed_left = tensor_of(reversed(atoms))
    for mode in (Mode.T, Mode.TPRIME):
        assert decide(Inference((left,), right), mode) is Decision.PROVABLE
        assert decide(Inference((right,), left), mode) is Decision.PROVABLE
        assert decide(Inference((left,), Tensor(right, atoms[0])), mode) is Decision.NOT_PROVABLE
    assert decide(Inference((reversed_left,), right), Mode.T) is Decision.PROVABLE
    assert decide(Inference((reversed_left,), right), Mode.TPRIME) is Decision.NOT_PROVABLE


def test_canonical_proofs_of_deep_combs():
    """Synthesis walks terms with explicit stacks, so the canonical proofs of
    10,000-atom combs build, and ``check`` accepts each result: the left
    comb in mode t, the right comb in mode tprime.  The whole test runs in
    about 1.7 s on 2 cores, half of it in ``check``; the budget is 60 s."""
    n = 10_000
    atoms = [Atom(f"A{i}") for i in range(n)]
    left = tensor_of(atoms)
    right = atoms[-1]
    for a in reversed(atoms[:-1]):
        right = Tensor(a, right)
    start = time.perf_counter()
    for comb, other, mode in ((left, right, Mode.T), (right, left, Mode.TPRIME)):
        rebracket = Inference((comb,), other)
        proof = synthesize_proof(rebracket, mode)
        assert check(proof, mode) == rebracket
        assert check(canonicalize(proof, mode), mode) == rebracket
        ident = identity_proof(comb, mode)
        assert check(ident, mode) == Inference((comb,), comb)
        split = eliminate_left_tensor(ident, mode, 0)
        assert check(split, mode) == Inference((comb.left, comb.right), comb)
    assert time.perf_counter() - start < 60


@given(seeds, modes_st)
def test_identity_proof_size(seed, mode):
    """The canonical ``t |- t`` has an identity leaf per atom and a right and
    a left rule per unit and tensor, as the structural recursion had, so
    theory witnesses keep their size."""
    t = random_term(random.Random(seed), depth=5)
    assert identity_proof(t, mode).size() == 2 * t.size - t.occurrences


@given(seeds, modes_st)
@settings(max_examples=60, deadline=None)
def test_bounded_search_agrees_with_decide(seed, mode):
    inf = random_inference(random.Random(seed), max_items=2, depth=1)
    result = bounded_search(inf, mode, 400)
    if decide(inf, mode) is Decision.PROVABLE:
        assert result.found
        assert check(result.proof, mode) == inf
    else:
        assert not result.found


@given(seeds, modes_st)
@settings(max_examples=60, deadline=None)
def test_search_finds_minimal_or_none(seed, mode):
    # up to 9 atoms in up to 10 items
    inf = random_balanced_inference(random.Random(seed), max_items=5)
    result = bounded_search(inf, mode, 400)
    assert result.found == (decide(inf, mode) is Decision.PROVABLE)
    if result.found:
        assert check(result.proof, mode) == inf
        # the canonical proof is an upper bound for the minimal proof
        assert result.proof.size() <= synthesize_proof(inf, mode).size()


@given(seeds, modes_st)
@settings(max_examples=100, deadline=None)
def test_theory_free_proofs_balance_occurrences(seed, mode):
    """The invariant the search prunes by: without axiom leaves, every checked
    conclusion has as many atom occurrences on each side, cuts included."""
    rng = random.Random(seed)
    proof = random_proof(rng, mode, steps=rng.randrange(1, 16))
    conc = check(proof, mode)
    # cut the proof into an identity, so that every example holds a cut
    cut = cut_proofs(proof, identity_proof(conc.consequent, mode), 0, mode, 1)
    assert isinstance(cut.rule, Cut)
    for p in (proof, cut):
        c = check(p, mode)
        assert sum(len(atom_list(item)) for item in c.antecedent) == len(atom_list(c.consequent))


def _reversal(n: int) -> Inference:
    atoms = [Atom(f"R{i}") for i in range(n)]
    return Inference(tuple(atoms), tensor_of(atoms[::-1]))


@pytest.mark.parametrize("n,size,max_goals", [(10, 64, 1_500), (12, 89, None)])
def test_search_scales_on_mode_t_reversal(n, size, max_goals):
    # a minimal proof has n Id leaves, n - 1 RTensor nodes and n(n-1)/2 Exchanges
    prover = Prover(Mode.T)
    result = prover.prove(_reversal(n), 2000)
    assert result.found and result.proof.size() == size
    assert check(result.proof, Mode.T) == _reversal(n)
    if max_goals is not None:
        assert len(prover.memo) < max_goals


@pytest.mark.parametrize(
    "text,rendered",
    [
        (
            "B, A, A, C, B, C |- (A * C) * ((B * A) * (C * B))",
            "(ex 0 1 2 (ex 1 2 6 (rx (rx (id A) (id C)) (rx (rx (id B) (id A)) (rx (id C) (id B))))))",
        ),
        (
            "B * A, 1, A, C * B, C |- (C * A) * ((B * 1) * (A * (C * B)))",
            "(l1 1 (lx 0 (lx 3 (ex 0 1 2 (ex 1 2 6 (rx (ex 0 1 2 (rx (id C) (id A)))"
            " (rx (rx (id B) (r1)) (rx (id A) (rx (id C) (id B))))))))))",
        ),
    ],
)
def test_search_order_is_pinned(text, rendered):
    """The search returns this exact proof, not just one of the same size.

    Repeated atoms give several minimal proofs, and the split order picks
    one; the strings were recorded before the occurrence-count prune."""
    assert render_proof(bounded_search(parse_inference(text), Mode.T, 2000).proof) == rendered


def test_prover_memo_reuse():
    prover = Prover(Mode.T)
    inf = parse_inference("A * B, C |- C * (B * A)")
    first = prover.prove(inf, 400)
    second = prover.prove(inf, 400)
    assert first.found and second.found
    assert first.proof == second.proof


def test_search_with_theory_uses_axioms():
    from tensorlogic.theory import parse_theory

    theory = parse_theory("atoms A B ; free A ; dispose B ;")
    inf = parse_inference("B |- A")
    result = bounded_search(inf, Mode.T, 400, theory)
    assert result.found
    assert check(result.proof, Mode.T, theory) == inf


@pytest.mark.parametrize("mode", [Mode.T, Mode.TPRIME])
def test_search_stops_on_a_balance_refutation(mode):
    """Under a theory whose balance equation refutes the goal, no proof of
    any size exists, so the search answers at once. Without that check,
    neither search ended within 5 s at the default budget of 2,000 nodes."""
    start = time.perf_counter()
    for text, goal in (("atoms C ; free C ;", "C |- A"), ("atoms A ;", "A |- A * A")):
        assert not bounded_search(parse_inference(goal), mode, 2000, parse_theory(text)).found
    assert time.perf_counter() - start < 1.0


THEORIES = Path(__file__).resolve().parent.parent / "theories"


@pytest.mark.parametrize(
    "mode,name,text,rendered,goals",
    [
        (Mode.T, "cloning", "|- C * C", "(rx (ax-r C) (ax-r C))", 2),
        (Mode.T, "cloning", "C |- C * C", "(rx (ax-r C) (id C))", 3),
        (Mode.T, "cloning", "C |- C * C * C", "(rx (rx (ax-r C) (ax-r C)) (id C))", 10),
        (Mode.T, "coherence", "Q(1), Q(0) |- Q(0.5)", "(cut (ax-l Q(0)) (l1 1 (conv Q(1) Q(0.5))))", 19),
        (Mode.T, "coherence", "Q(1) |- Q(0.5) * Q(0)", "(rx (conv Q(1) Q(0.5)) (ax-r Q(0)))", 4),
        (Mode.T, "coherence", "|- Q(0) * Q(0)", "(rx (ax-r Q(0)) (ax-r Q(0)))", 2),
        (Mode.T, "locc", "E |- Q_A", "(cut (conv E Q_A * Q_B) (lx 0 (cut (ax-l Q_B) (l1 1 (id Q_A)))))", 128),
        (
            Mode.T,
            "locc",
            "E |- Q_B",
            "(cut (conv E Q_A * Q_B) (lx 0 (ex 0 1 2 (cut (ax-l Q_A) (l1 1 (id Q_B))))))",
            180,
        ),
        (
            Mode.T,
            "locc",
            "E |- C * Q_A * Q_B",
            "(cut (conv E Q_A * Q_B) (lx 0 (rx (rx (ax-r C) (id Q_A)) (id Q_B))))",
            212,
        ),
        (
            Mode.TPRIME,
            "locc",
            "E |- Q_A",
            "(cut 0 (conv E Q_A * Q_B) (lx 0 (cut 1 (ax-l Q_B) (l1 1 (id Q_A)))))",
            216,
        ),
        (
            Mode.TPRIME,
            "locc",
            "E, C |- Q_B * C",
            "(rx (cut 0 (conv E Q_A * Q_B) (lx 0 (cut 0 (ax-l Q_A) (l1 0 (id Q_B))))) (id C))",
            765,
        ),
        (Mode.TPRIME, "coherence", "Q(1), Q(0) |- Q(0.5)", "(cut 1 (ax-l Q(0)) (l1 1 (conv Q(1) Q(0.5))))", 22),
        (Mode.TPRIME, "cloning", "C |- C * C * C", "(rx (rx (ax-r C) (ax-r C)) (id C))", 11),
    ],
)
def test_theory_cut_search_is_pinned(mode, name, text, rendered, goals):
    """Cut search in a theory returns this exact proof after exploring this
    many goals: the candidate, span and split order is fixed.  The first nine
    are the benchmark's theory searches; the strings and counts were recorded
    before the search kept its bookkeeping per ``Prover``."""
    theory = parse_theory((THEORIES / f"{name}.thy").read_text())
    inf = parse_inference(text)
    prover = Prover(mode, theory)
    result = prover.prove(inf, 30)
    assert render_proof(result.proof) == rendered
    assert len(prover.memo) == goals
    assert check(result.proof, mode, theory) == inf


def test_search_makes_no_call_below_one_node(monkeypatch):
    """Each recursive call is bounded where it is made, so no ``_search``
    call gets a cap below one node: such a call could only return ``None``
    at once.  The inputs are the theory searches of
    ``test_theory_cut_search_is_pinned`` at its cap, all but its last two,
    and the two of ``test_search_order_is_pinned``."""
    caps = []
    search = Prover._search

    def recorded(self, goal, cap):
        caps.append(cap)
        return search(self, goal, cap)

    monkeypatch.setattr(Prover, "_search", recorded)
    theory_searches = [
        (Mode.T, "cloning", ("|- C * C", "C |- C * C", "C |- C * C * C")),
        (Mode.T, "coherence", ("Q(1), Q(0) |- Q(0.5)", "Q(1) |- Q(0.5) * Q(0)", "|- Q(0) * Q(0)")),
        (Mode.T, "locc", ("E |- Q_A", "E |- Q_B", "E |- C * Q_A * Q_B")),
        (Mode.TPRIME, "locc", ("E |- Q_A", "E, C |- Q_B * C")),
    ]
    for mode, name, texts in theory_searches:
        theory = parse_theory((THEORIES / f"{name}.thy").read_text())
        for text in texts:
            assert Prover(mode, theory).prove(parse_inference(text), 30).found
    for text in (
        "B, A, A, C, B, C |- (A * C) * ((B * A) * (C * B))",
        "B * A, 1, A, C * B, C |- (C * A) * ((B * 1) * (A * (C * B)))",
    ):
        assert bounded_search(parse_inference(text), Mode.T, 2000).found
    assert caps and min(caps) >= 1, f"{sum(cap < 1 for cap in caps)} of {len(caps)} calls below one node"


def test_theory_cut_search_on_a_long_comb():
    """With a theory, cut search sorts its cut terms by ``(size, text)`` and
    builds each term's key once per ``Prover``, not once per goal: the
    128-atom left comb goal ``t |- t`` is answered within a 5 s budget.
    Rebuilding the text on every goal took about 12 s here, on 2 cores."""
    names = [f"A{i}" for i in range(128)]
    theory = parse_theory(f"atoms {' '.join(names)} ; free A0 ;")
    comb = tensor_of(Atom(n) for n in names)
    start = time.perf_counter()
    result = bounded_search(Inference((comb,), comb), Mode.T, 5, theory)
    assert time.perf_counter() - start < 5.0
    assert not result.found  # its cut-free proofs have at least 382 nodes


def test_cut_terms_of_a_deep_comb():
    """The cut terms of a goal are collected with an explicit stack, so a
    1,500-atom left comb ``t |- t`` gives its 1,500 atoms, its 1,499 left
    prefixes and ``1``; the recursive walk raised ``RecursionError`` there.
    Sorting the candidates by their text grows with the square of the comb,
    so the test stays at 1,500 atoms (about 1.4 s on 2 cores)."""
    names = [f"A{i}" for i in range(1500)]
    theory = parse_theory(f"atoms {' '.join(names)} ; free A0 ;")
    comb = tensor_of(Atom(n) for n in names)
    terms = Prover(Mode.T, theory)._cut_terms(((comb,), comb))
    assert len(terms) == 3000 and terms[-1] is comb


def test_chain_length_closed_form():
    """The budget's Exchange count matches the chain that is built, for
    every cut span and tensor split up to 9 items."""
    for n in range(10):
        for inside, outside in Prover._selections([1] * n):
            for first, second in ((outside, inside), (inside, outside)):
                assert Prover._chain_length(first, second) == len(Prover._block_move_chain(first + second))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8))
def test_split_table_keeps_the_enumeration_order(counts):
    """The mode-t split table lists ``_selections`` in its order, each split
    with its chain length, and a second lookup returns the cached list; the
    tprime splits stay the contiguous ones, with no moves."""
    t, tprime = Prover(Mode.T), Prover(Mode.TPRIME)
    n = len(counts)
    prefix = [0, *accumulate(counts)]
    for total in (*range(sum(counts) + 2), None):
        splits = t._splits(counts, total)
        assert splits == [(a, b, Prover._chain_length(a, b)) for a, b in Prover._selections(counts, total)]
        assert t._splits(counts, total) is splits
        contiguous = [(list(range(k)), list(range(k, n)), 0) for k in range(n + 1) if total is None or prefix[k] == total]
        assert tprime._splits(counts, total) == contiguous


def test_split_table_is_built_once(monkeypatch):
    """The mode-t reversal search builds each split list once per
    ``(counts, total)``, not once per goal expansion."""
    calls: Counter = Counter()
    selections = Prover._selections

    def counted(counts, total=None):
        calls[tuple(counts), total] += 1
        return selections(counts, total)

    monkeypatch.setattr(Prover, "_selections", staticmethod(counted))
    assert Prover(Mode.T).prove(_reversal(10), 2000).found
    assert calls and max(calls.values()) == 1


def test_tprime_search_builds_no_exchange_chain(monkeypatch):
    """Every mode-tprime split needs no moves, so the search never builds an
    Exchange chain: it would be empty, and building it scans the antecedent
    once per item."""
    calls = []
    chain = Prover._block_move_chain

    def counted(perm):
        calls.append(perm)
        return chain(perm)

    monkeypatch.setattr(Prover, "_block_move_chain", staticmethod(counted))
    comb = tensor_of(Atom(f"A{i}") for i in range(20))
    result = Prover(Mode.TPRIME).prove(Inference((comb,), comb), 80)
    assert result.found and check(result.proof, Mode.TPRIME) == Inference((comb,), comb)
    assert calls == []
