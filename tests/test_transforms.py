import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import (
    Atom,
    ConvAxiom,
    Cut,
    Exchange,
    Id,
    Inference,
    LAxiom,
    Mode,
    Proof,
    RAxiom,
    RTensor,
    Tensor,
    TRANSFORMS,
    TransformMismatch,
    apply_transform,
    atom_list,
    canonicalize,
    check,
    cut_paths,
    cut_proofs,
    eliminate_cuts,
    identity_proof,
    parse_proof,
    parse_theory,
    proofs_equivalent,
    render_proof,
    synthesize_proof,
    tensor_of,
)
from tensorlogic.kernel import ArityError, PositionOutOfRange, RuleMismatch, _wiring, fold
from helpers import ATOMS, _tree, random_proof, random_term, transform_instance, wiring

seeds = st.integers(0, 2**32 - 1)
modes_st = st.sampled_from([Mode.T, Mode.TPRIME])
names_st = st.sampled_from(TRANSFORMS)
dirs_st = st.sampled_from(["forward", "inverse"])
AXIOMS = (RAxiom, LAxiom, ConvAxiom)


@given(seeds, modes_st)
@settings(max_examples=150, deadline=None)
def test_eliminate_cuts_removes_cuts_and_preserves_conclusion(seed, mode):
    proof = random_proof(random.Random(seed), mode, steps=12)
    conc = check(proof, mode)
    out = eliminate_cuts(proof, mode)
    assert check(out, mode) == conc
    assert not cut_paths(out)


@given(seeds, modes_st)
@settings(max_examples=60, deadline=None)
def test_eliminate_cuts_idempotent(seed, mode):
    proof = random_proof(random.Random(seed), mode)
    once = eliminate_cuts(proof, mode)
    assert eliminate_cuts(once, mode) == once


@given(seeds, names_st, dirs_st)
@settings(max_examples=300, deadline=None)
def test_transform_preserves_conclusion(seed, name, direction):
    rng = random.Random(seed)
    proof = transform_instance(rng, name, direction)
    conc = check(proof, Mode.TPRIME)
    out = apply_transform(proof, (), name, Mode.TPRIME, direction)
    assert check(out, Mode.TPRIME) == conc
    assert proofs_equivalent(proof, out, Mode.TPRIME)


@given(seeds, st.sampled_from(["one-cut", "r-id", "l-id"]))
@settings(max_examples=100, deadline=None)
def test_inverse_then_forward_is_structural_identity(seed, name):
    rng = random.Random(seed)
    proof = transform_instance(rng, name, "inverse")
    if name == "l-id" and not check(proof, Mode.TPRIME).antecedent:
        return
    grown = apply_transform(proof, (), name, Mode.TPRIME, "inverse")
    back = apply_transform(grown, (), name, Mode.TPRIME, "forward")
    assert back == proof


@given(seeds, modes_st)
@settings(max_examples=80, deadline=None)
def test_transforms_apply_anywhere_preserve_conclusion(seed, mode):
    """Scan a random proof for matching nodes and apply every match."""
    rng = random.Random(seed)
    proof = random_proof(rng, mode, steps=12)
    conc = check(proof, mode)

    def paths(p, prefix=()):
        yield prefix
        for idx, q in enumerate(p.premises):
            yield from paths(q, prefix + (idx,))

    applied = 0
    for path in list(paths(proof)):
        for name in TRANSFORMS:
            for direction in ("forward", "inverse"):
                try:
                    out = apply_transform(proof, path, name, mode, direction)
                except TransformMismatch:
                    continue
                assert check(out, mode) == conc, (name, direction, path)
                applied += 1
                if applied > 40:
                    return


def test_transform_rejects_unknown_name():
    proof = parse_proof("(id A)")
    with pytest.raises(ValueError):
        apply_transform(proof, (), "no-such-transform", Mode.T)
    with pytest.raises(ValueError):
        apply_transform(proof, (), "r-id", Mode.T, "sideways")


def test_transform_mismatch_raises():
    proof = parse_proof("(id A)")
    for name in TRANSFORMS:
        with pytest.raises(TransformMismatch):
            apply_transform(proof, (), name, Mode.T, "forward")


@given(seeds, modes_st)
@settings(max_examples=100, deadline=None)
def test_canonicalize_idempotent_and_conclusion_preserving(seed, mode):
    proof = random_proof(random.Random(seed), mode)
    conc = check(proof, mode)
    canon = canonicalize(proof, mode)
    assert check(canon, mode) == conc
    assert canonicalize(canon, mode) == canon
    assert not cut_paths(canon)


@given(seeds, modes_st)
@settings(max_examples=60, deadline=None)
def test_equivalence_depends_only_on_conclusion(seed, mode):
    rng = random.Random(seed)
    p1 = random_proof(rng, mode)
    p2 = random_proof(rng, mode)
    same_conclusion = check(p1, mode) == check(p2, mode)
    assert proofs_equivalent(p1, p2, mode) == same_conclusion


@pytest.mark.parametrize("mode", [Mode.T, Mode.TPRIME])
def test_proofs_equivalent_on_deep_combs(mode):
    comb = tensor_of(Atom(f"X{i}") for i in range(200))
    proof = synthesize_proof(Inference((comb,), comb), mode)
    assert proofs_equivalent(proof, proof, mode)


@given(seeds, modes_st)
@settings(max_examples=60, deadline=None)
def test_elimination_lands_in_the_same_class(seed, mode):
    proof = random_proof(random.Random(seed), mode)
    assert proofs_equivalent(proof, eliminate_cuts(proof, mode), mode)


def test_eliminate_keeps_axiom_fed_cuts():
    theory = parse_theory("atoms A B ; free A ; convert A -> B ;")
    proof = parse_proof("(cut (ax-r A) (conv A B))")
    conc = check(proof, Mode.T, theory)
    out = eliminate_cuts(proof, Mode.T)
    assert check(out, Mode.T, theory) == conc
    assert cut_paths(out)  # the axiom-fed cut cannot be removed


def test_eliminate_cuts_outputs_are_pinned():
    """The rendered ``eliminate_cuts`` outputs of seeds 0-499 in both modes,
    hashed together: for each seed a random proof of 3-39 steps, and that
    proof cut into the identity proof of its consequent.  The inputs are
    axiom-free, so each output is a synthesis of the conclusion; the digest
    was re-recorded when that synthesis replaced the splice for them.  In
    mode ``tprime`` the wiring is forced and the output is the canonical
    proof."""
    digest = hashlib.sha256()
    for seed in range(500):
        for mode in (Mode.T, Mode.TPRIME):
            rng = random.Random(seed)
            proof = random_proof(rng, mode, steps=rng.randrange(3, 40))
            consequent = check(proof, mode).consequent
            cut = cut_proofs(proof, identity_proof(consequent, mode), 0, mode, 1)
            for p in (proof, cut):
                out = eliminate_cuts(p, mode)
                if mode is Mode.TPRIME:
                    assert out == synthesize_proof(check(p, mode), mode)
                digest.update(render_proof(out).encode() + b"\n")
    assert digest.hexdigest() == "7f6f3c394625e79d24323e4fad4a626b3f8379dd70be486a7672c2200092a559"


def test_eliminate_cuts_of_theory_proofs_are_pinned():
    """The rendered ``eliminate_cuts`` outputs of the random theory proofs of
    seeds 0-499 that hold an axiom leaf, in both modes, hashed together: for
    each such seed the proof and that proof cut into the identity proof of
    its consequent.  These inputs take the splice; the digest was recorded
    before axiom-free inputs stopped taking it, and 182 of the outputs keep
    an axiom-fed cut."""
    theory = parse_theory(
        "atoms A B C ; free A ; free B * C ; dispose B ; dispose C * A ;"
        " convert A -> B ; convert B * C -> A * A ;"
    )
    digest = hashlib.sha256()
    kept = 0
    for seed in range(500):
        for mode in (Mode.T, Mode.TPRIME):
            rng = random.Random(seed)
            proof = random_proof(rng, mode, steps=rng.randrange(3, 40), theory=theory)
            if not fold(proof, lambda rule, leaves: type(rule) in AXIOMS or any(leaves)):
                continue
            consequent = check(proof, mode, theory).consequent
            cut = cut_proofs(proof, identity_proof(consequent, mode), 0, mode, 1)
            for p in (proof, cut):
                out = eliminate_cuts(p, mode)
                kept += bool(cut_paths(out))
                digest.update(render_proof(out).encode() + b"\n")
    assert kept == 182
    assert digest.hexdigest() == "a88d78b471a55110ce2c170c06773c5ae6a1f6e9cd76cb65566a21d4ab0ecb87"


def _deep_term(rng, depth):
    """A random term with a path of ``depth`` tensors below its root."""
    if depth == 0:
        return Atom(rng.choice(ATOMS))
    inner, other = _deep_term(rng, depth - 1), random_term(rng, depth=depth - 1)
    return Tensor(inner, other) if rng.random() < 0.5 else Tensor(other, inner)


def _deep_cut(rng, mode):
    """The synthesised ``Gamma |- C`` cut into the synthesised ``E, C, F |- D``,
    with 6-8 items of depth 4 in ``Gamma`` and atoms repeated; in mode t both
    consequents shuffle their atoms, so the wiring is not the identity."""
    gamma = [_deep_term(rng, 4)] + [random_term(rng, depth=4) for _ in range(rng.randrange(5, 8))]
    names = atom_list(gamma)
    if mode is Mode.T:
        rng.shuffle(names)
    c = _tree(rng, names)
    e, f = random_term(rng, depth=2), random_term(rng, depth=2)
    outer = atom_list([e, c, f])
    if mode is Mode.T:
        rng.shuffle(outer)
    p1 = synthesize_proof(Inference(tuple(gamma), c), mode)
    p2 = synthesize_proof(Inference((e, c, f), _tree(rng, outer)), mode)
    return cut_proofs(p1, p2, 1, mode, 3)


@pytest.mark.parametrize("mode", [Mode.T, Mode.TPRIME])
def test_eliminate_cuts_keeps_the_wiring(mode):
    """Cut elimination keeps the Kelly-Mac Lane wiring of axiom-free proofs:
    which antecedent atom occurrence feeds each consequent occurrence.  A
    deep cut of two syntheses composes two leftmost matchings, so its wiring
    is leftmost too; the random proofs' Exchange steps give other wirings,
    which an output that ignored the wiring would lose."""
    for seed in range(60):
        rng = random.Random(seed)
        for proof in (_deep_cut(rng, mode), random_proof(rng, mode, steps=rng.randrange(10, 40))):
            out = eliminate_cuts(proof, mode)
            assert not cut_paths(out)
            assert wiring(out, mode) == wiring(proof, mode), seed


def test_eliminate_cuts_keeps_a_swap_cut_against_a_swap():
    """Two swaps of ``B, B`` compose to the identity wiring, though the right
    premise concludes ``B * B |- B * B`` like an identity proof.  The splice
    took that conclusion for an identity and returned the left premise, the
    swap; found by a differential run of seeds 0-3,999 (6 of 16,000 inputs,
    all mode t)."""
    proof = parse_proof("(cut (ex 0 1 2 (rx (id B) (id B))) (lx 0 (cut (id B) (ex 0 1 2 (rx (id B) (id B))))))")
    out = eliminate_cuts(proof, Mode.T)
    assert wiring(proof, Mode.T) == wiring(out, Mode.T) == [0, 1]
    assert render_proof(out) == "(rx (id B) (id B))"


@given(seeds, modes_st)
@settings(max_examples=150, deadline=None)
def test_wiring_fold_matches_the_reference(seed, mode):
    """The library's iterative wiring fold equals the recursive reference in
    ``helpers.wiring``: on a deep cut (items of depth 4, 6-8 of them, atoms
    repeated), on that cut cut again into the identity proof of its
    consequent, and on a random proof with cuts, Exchange steps and units."""
    rng = random.Random(seed)
    deep = _deep_cut(rng, mode)
    again = cut_proofs(deep, identity_proof(check(deep, mode).consequent, mode), 0, mode, 1)
    for proof in (deep, again, random_proof(rng, mode, steps=rng.randrange(10, 40))):
        assert _wiring(proof) == wiring(proof, mode)


def _block_reversal(n):
    """A cut-free proof of ``A0, ..., An-1 |- An-1 * (... * (A1 * A0))``: the
    right comb of identity leaves, then n - 1 block Exchanges
    ``Exchange(0, 1, k)``, each moving the first item to position k - 1.
    It has 3n - 2 nodes, and its wiring has n(n - 1)/2 inversions."""
    proof = Proof(Id(Atom("A0")))
    for i in range(1, n):
        proof = Proof(RTensor(), (Proof(Id(Atom(f"A{i}"))), proof))
    for k in range(n, 1, -1):
        proof = Proof(Exchange(0, 1, k), (proof,))
    return proof


def test_eliminate_cuts_of_a_block_reversal_stays_linear():
    """The synthesis moves each run of antecedent occurrences with one
    block Exchange, so the output of a block reversal is no larger than the
    input.  One adjacent Exchange per inversion made the 32-atom output 496
    Exchanges deep, too deep to render, and would make the 1,000-atom one
    about 500,000 nodes."""
    for n in (32, 1000):
        proof = _block_reversal(n)
        out = eliminate_cuts(proof, Mode.T)
        assert check(out, Mode.T) == check(proof, Mode.T)
        assert _wiring(out) == _wiring(proof) == list(range(n - 1, -1, -1))
        assert out.size() <= proof.size()
        if n == 32:
            assert parse_proof(render_proof(out)) == out


@pytest.mark.parametrize(
    "mode, bad, error",
    [
        (Mode.T, Proof(Cut(), (Proof(Id(Atom("A"))),) * 3), ArityError),
        (Mode.TPRIME, Proof(Cut(5), (Proof(Id(Atom("A"))),) * 2), PositionOutOfRange),
        (Mode.TPRIME, Proof(Cut(), (Proof(Id(Atom("A"))),) * 2), RuleMismatch),
    ],
)
def test_eliminate_cuts_rejects_proofs_that_do_not_check(mode, bad, error):
    """A proof that does not check raises the ``ProofError`` that ``check``
    raises, not a Python error from inside the splice."""
    with pytest.raises(error):
        check(bad, mode)
    with pytest.raises(error):
        eliminate_cuts(bad, mode)


def test_eliminate_cuts_of_deep_combs():
    """The cut of the synthesised ``A0, ..., An-1 |- t`` against the
    synthesised ``t |- u``, ``t`` the n-atom left comb and ``u`` the right
    comb, goes through ``eliminate_cuts`` in both modes at n = 3,200 and
    n = 10,000, and the result checks to the cut's conclusion.  A recursive
    splice raised ``RecursionError`` from about 1,200 atoms, and the splice
    loop took 4.9 s (mode t) and 5.9 s (tprime) at 10,000 atoms with a
    1.26 GB peak.  The test takes about 2 s on 2 cores; the budget is 30 s."""
    start = time.perf_counter()
    for n in (3200, 10000):
        atoms = [Atom(f"A{i}") for i in range(n)]
        left = tensor_of(atoms)
        right = atoms[-1]
        for a in reversed(atoms[:-1]):
            right = Tensor(a, right)
        for mode in (Mode.T, Mode.TPRIME):
            p1 = synthesize_proof(Inference(tuple(atoms), left), mode)
            p2 = synthesize_proof(Inference((left,), right), mode)
            out = eliminate_cuts(cut_proofs(p1, p2, 0, mode, 1), mode)
            assert check(out, mode) == Inference(tuple(atoms), right)
            assert not cut_paths(out)
    assert time.perf_counter() - start < 30
