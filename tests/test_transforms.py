import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import (
    Atom,
    Cut,
    Id,
    Inference,
    Mode,
    Proof,
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
    proofs_equivalent,
    render_proof,
    synthesize_proof,
    tensor_of,
)
from tensorlogic.kernel import ArityError, PositionOutOfRange, RuleMismatch
from helpers import ATOMS, _tree, random_proof, random_term, transform_instance, wiring

seeds = st.integers(0, 2**32 - 1)
modes_st = st.sampled_from([Mode.T, Mode.TPRIME])
names_st = st.sampled_from(TRANSFORMS)
dirs_st = st.sampled_from(["forward", "inverse"])


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
    from tensorlogic.theory import parse_theory

    theory = parse_theory("atoms A B ; free A ; convert A -> B ;")
    proof = parse_proof("(cut (ax-r A) (conv A B))")
    conc = check(proof, Mode.T, theory)
    out = eliminate_cuts(proof, Mode.T)
    assert check(out, Mode.T, theory) == conc
    assert cut_paths(out)  # the axiom-fed cut cannot be removed


def test_eliminate_cuts_outputs_are_pinned():
    """The rendered ``eliminate_cuts`` outputs of seeds 0-499 in both modes,
    hashed together: for each seed a random proof of 3-39 steps, and that
    proof cut into the identity proof of its consequent.  The digest was
    recorded from the recursive ``splice`` that the loop replaced."""
    digest = hashlib.sha256()
    for seed in range(500):
        for mode in (Mode.T, Mode.TPRIME):
            rng = random.Random(seed)
            proof = random_proof(rng, mode, steps=rng.randrange(3, 40))
            consequent = check(proof, mode).consequent
            cut = cut_proofs(proof, identity_proof(consequent, mode), 0, mode, 1)
            for p in (proof, cut):
                digest.update(render_proof(eliminate_cuts(p, mode)).encode() + b"\n")
    assert digest.hexdigest() == "566cd80fde0a995d1195c3e75ad0ea752086f20d0d6fceb89172b1ed4ae16d50"


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
    which antecedent atom occurrence feeds each consequent occurrence."""
    for seed in range(60):
        proof = _deep_cut(random.Random(seed), mode)
        out = eliminate_cuts(proof, mode)
        assert not cut_paths(out)
        assert wiring(out, mode) == wiring(proof, mode), seed


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
    comb, goes through ``eliminate_cuts`` in both modes at n = 3,200 and the
    result checks to the cut's conclusion.  A recursive splice raised
    ``RecursionError`` from about 1,200 atoms.  The test takes about 1.3 s
    on 2 cores; the budget is 30 s."""
    atoms = [Atom(f"A{i}") for i in range(3200)]
    left = tensor_of(atoms)
    right = atoms[-1]
    for a in reversed(atoms[:-1]):
        right = Tensor(a, right)
    start = time.perf_counter()
    for mode in (Mode.T, Mode.TPRIME):
        p1 = synthesize_proof(Inference(tuple(atoms), left), mode)
        p2 = synthesize_proof(Inference((left,), right), mode)
        out = eliminate_cuts(cut_proofs(p1, p2, 0, mode, 1), mode)
        assert check(out, mode) == Inference(tuple(atoms), right)
        assert not cut_paths(out)
    assert time.perf_counter() - start < 30
