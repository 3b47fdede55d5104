import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import Cut, Id, Mode, Proof, RTensor, RUnit, check, parse_term
from tensorlogic.category import (
    DIAGRAMS,
    associator,
    boxtimes,
    check_diagram,
    compose,
    identity,
    inverse,
    morphism_of,
    symmetry,
    unit_left,
    unit_right,
)
from tensorlogic.terms import UNIT, Atom, Inference, Tensor, tensor_of

from helpers import random_proof, random_term, wiring

seeds = st.integers(0, 2**32 - 1)
modes_st = st.sampled_from([Mode.T, Mode.TPRIME])
A, B, C, D = (Atom(n) for n in "ABCD")


@given(seeds, modes_st)
@settings(max_examples=60, deadline=None)
def test_identity_laws(seed, mode):
    t = random_term(random.Random(seed))
    f = identity(t, mode)
    assert compose(f, f) == f
    assert f.source == f.target == t


@given(seeds, modes_st)
@settings(max_examples=60, deadline=None)
def test_morphism_of_fuses_antecedent(seed, mode):
    three = Proof(RTensor(), (Proof(Id(A)), Proof(RTensor(), (Proof(Id(B)), Proof(Id(C))))))
    for proof in (random_proof(random.Random(seed), mode), three, Proof(RUnit())):
        conclusion = check(proof, mode)
        f = morphism_of(proof, mode)
        assert (f.source, f.target) == (tensor_of(conclusion.antecedent), conclusion.consequent)
        assert check(f.proof, mode) == Inference((f.source,), f.target)
        assert morphism_of(f.proof, mode) == f
        assert isinstance(compose(f, identity(f.target, mode)).proof.rule, Cut)


def test_composition_associative():
    f = symmetry(A, B, Mode.T)
    g = symmetry(B, A, Mode.T)
    h = symmetry(A, B, Mode.T)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_rejects_mismatched_objects():
    with pytest.raises(ValueError):
        compose(identity(A, Mode.T), identity(B, Mode.T))
    with pytest.raises(ValueError):
        compose(identity(A, Mode.T), identity(A, Mode.TPRIME))
    sigma = symmetry(A, B, Mode.T)
    with pytest.raises(ValueError):
        compose(sigma, sigma)  # B * A is not A * B
    with pytest.raises(ValueError):
        compose(boxtimes(sigma, identity(C, Mode.T)), sigma)
    with pytest.raises(ValueError):
        boxtimes(identity(A, Mode.T), identity(A, Mode.TPRIME))


def test_long_composition_chains():
    """``compose`` re-checks nothing, so a call costs O(1)."""
    legs = (symmetry(A, B, Mode.T), symmetry(B, A, Mode.T))
    ab = identity(Tensor(A, B), Mode.T)
    f = ab
    for i in range(10_000):
        f = compose(f, legs[i % 2])
    assert f == ab
    for mode in (Mode.T, Mode.TPRIME):
        alpha = associator(A, B, C, mode)
        f = identity(alpha.source, mode)
        for k in range(6):
            f = compose(f, alpha if k % 2 == 0 else inverse(alpha))
            g = boxtimes(f, identity(D, mode))
            for h in (f, g):
                assert check(h.proof, mode) == Inference((h.source,), h.target)


def test_structural_morphisms_shapes():
    lam = unit_left(A, Mode.T)
    assert lam.source == Tensor(UNIT, A) and lam.target == A
    rho = unit_right(A, Mode.TPRIME)
    assert rho.source == Tensor(A, UNIT) and rho.target == A
    alpha = associator(A, B, C, Mode.TPRIME)
    assert alpha.source == parse_term("(A * B) * C")
    assert alpha.target == parse_term("A * (B * C)")
    sigma = symmetry(A, B, Mode.T)
    assert sigma.source == parse_term("A * B") and sigma.target == parse_term("B * A")


def test_symmetry_needs_mode_t():
    with pytest.raises(ValueError):
        symmetry(A, B, Mode.TPRIME)


def test_structural_morphisms_invertible():
    for f in (unit_left(A, Mode.T), unit_right(B, Mode.T), associator(A, B, C, Mode.T)):
        g = inverse(f)
        assert compose(f, g) == identity(f.source, Mode.T)
        assert compose(g, f) == identity(f.target, Mode.T)


@pytest.mark.parametrize("mode", [Mode.T, Mode.TPRIME])
def test_triangle_and_pentagon(mode):
    objects = [A, B, UNIT, Tensor(A, B)]
    for a, b in itertools.product(objects[:3], repeat=2):
        assert check_diagram("triangle", mode, terms=(a, b))
    assert check_diagram("pentagon", mode, terms=(A, B, C, D))
    assert check_diagram("pentagon", mode, terms=(A, UNIT, B, Tensor(A, B)))


def test_symmetry_diagrams_mode_t():
    assert check_diagram("hexagon", Mode.T, terms=(A, B, C))
    assert check_diagram("hexagon", Mode.T, terms=(A, A, Tensor(B, C)))
    assert check_diagram("symmetry-unit", Mode.T, terms=(A,))
    assert check_diagram("symmetry-inverse", Mode.T, terms=(A, B))
    assert check_diagram("symmetry-inverse", Mode.T, terms=(Tensor(A, B), C))


def test_interchange_and_naturality():
    f = symmetry(A, B, Mode.T)
    g = identity(C, Mode.T)
    assert check_diagram("interchange", Mode.T, morphisms=(f, inverse(f), g, g))
    assert check_diagram("nat-lambda", Mode.T, morphisms=(f,))
    assert check_diagram("nat-rho", Mode.T, morphisms=(f,))
    assert check_diagram("nat-alpha", Mode.T, morphisms=(f, g, inverse(f)))
    assert check_diagram("nat-sigma", Mode.T, morphisms=(f, g))


def test_check_diagram_validates_input():
    with pytest.raises(ValueError):
        check_diagram("no-such-diagram", Mode.T)
    with pytest.raises(ValueError):
        check_diagram("triangle", Mode.T, terms=(A,))
    with pytest.raises(ValueError):
        check_diagram("nat-sigma", Mode.T, morphisms=())
    assert set(DIAGRAMS) >= {"triangle", "pentagon", "hexagon"}


def test_boxtimes_shapes():
    f = symmetry(A, B, Mode.T)
    g = identity(C, Mode.T)
    fg = boxtimes(f, g)
    assert fg.source == parse_term("(A * B) * C")
    assert fg.target == parse_term("(B * A) * C")


def test_morphism_repr():
    assert "A * B -> B * A" in repr(symmetry(A, B, Mode.T))


# --- occurrence wiring: the negative control for the thin category ----------


def test_wiring_tells_symmetry_from_identity():
    sigma, ident = symmetry(A, A, Mode.T), identity(Tensor(A, A), Mode.T)
    assert sigma == ident  # equal morphisms of the thin category
    assert wiring(sigma.proof, Mode.T) == [1, 0]
    assert wiring(ident.proof, Mode.T) == [0, 1]


def test_symmetry_of_compound_factors_adds_one_exchange():
    """sigma_{A,B} moves the atoms of ``B`` past those of ``A`` in one block
    Exchange: its proof is one node larger than the identity proof of
    ``A (x) B``, not one node larger per pair of atoms."""
    a, b = tensor_of([A, B, C, D]), Tensor(Tensor(C, UNIT), Tensor(A, Tensor(A, B)))
    sigma = symmetry(a, b, Mode.T)
    assert sigma.proof.size() == identity(Tensor(a, b), Mode.T).proof.size() + 1
    assert wiring(sigma.proof, Mode.T) == [4, 5, 6, 7, 0, 1, 2, 3]


@pytest.mark.parametrize("a,b", [(A, A), (A, B), (Tensor(A, B), A)])
def test_symmetry_inverse_legs_wire_alike(a, b):
    left = compose(symmetry(a, b, Mode.T), symmetry(b, a, Mode.T))
    right = identity(Tensor(a, b), Mode.T)
    assert wiring(left.proof, Mode.T) == wiring(right.proof, Mode.T)


@pytest.mark.parametrize("a,b,c", [(A, A, A), (A, B, C), (A, UNIT, A), (A, A, Tensor(B, A))])
def test_hexagon_legs_wire_alike(a, b, c):
    m = Mode.T
    left = compose(compose(associator(a, b, c, m), symmetry(a, Tensor(b, c), m)), associator(b, c, a, m))
    right = compose(
        compose(boxtimes(symmetry(a, b, m), identity(c, m)), associator(b, a, c, m)),
        boxtimes(identity(b, m), symmetry(a, c, m)),
    )
    assert wiring(left.proof, m) == wiring(right.proof, m)
    if (a, b, c) in ((A, A, A), (A, B, C)):
        assert wiring(left.proof, m) == [1, 2, 0]
