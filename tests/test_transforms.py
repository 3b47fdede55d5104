import random

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import (
    Atom,
    Inference,
    Mode,
    TRANSFORMS,
    TransformMismatch,
    apply_transform,
    canonicalize,
    check,
    cut_paths,
    eliminate_cuts,
    parse_proof,
    proofs_equivalent,
    synthesize_proof,
    tensor_of,
)
from helpers import random_proof, transform_instance

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
