"""Categorical semantics: the syntactic (symmetric) monoidal category.

Objects are terms; a morphism ``A -> B`` is an equivalence class of proofs of
``A |- B``.  The category is thin: there is at most one morphism ``A -> B``,
so a morphism is determined by its checked endpoints and its mode, and
morphisms compare by those alone.  Each one carries some checked proof of
``A |- B`` as its witness, not a canonical one.  Cut interprets composition
and the tensor of proofs interprets the monoidal product.  In mode ``t`` the
category is symmetric; in mode ``tprime`` it is monoidal without a braiding.
``check_diagram`` verifies the coherence diagrams and naturality squares by
comparing composite morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decision import is_provable, synthesize_proof
from .kernel import (
    Exchange,
    LTensor,
    LUnit,
    Mode,
    Proof,
    RTensor,
    check,
    cut_proofs,
    identity_proof,
    tensor_proofs,
)
from .terms import UNIT, Inference, Tensor, Term, render_term, tensor_of


@dataclass(frozen=True)
class Morphism:
    source: Term
    target: Term
    mode: Mode
    proof: Proof = field(compare=False)  # a checked proof of source |- target

    def __repr__(self) -> str:
        return f"Morphism({render_term(self.source)} -> {render_term(self.target)})"


def morphism_of(proof: Proof, mode: Mode) -> Morphism:
    """The morphism named by a proof: the class of its checked conclusion.

    A proof with antecedent ``A1, ..., Ak`` names a morphism out of the
    tensor ``A1 (x) ... (x) Ak`` (the unit for an empty antecedent); the
    antecedent is fused into that one item by left-tensor steps.
    """
    conclusion = check(proof, mode)
    k = len(conclusion.antecedent)
    if k == 0:
        proof = Proof(LUnit(0), (proof,))
    for _ in range(k - 1):
        proof = Proof(LTensor(0), (proof,))
    return Morphism(tensor_of(conclusion.antecedent), conclusion.consequent, mode, proof)


def identity(a: Term, mode: Mode) -> Morphism:
    return morphism_of(identity_proof(a, mode), mode)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Diagrammatic composition: ``f`` then ``g``.

    The ``Cut`` of two checked proofs on matching endpoints concludes
    ``f.source |- g.target``, so nothing is re-checked and a call costs O(1)
    however long the chain behind it.
    """
    if f.mode is not g.mode:
        raise ValueError("cannot compose morphisms from different modes")
    if f.target != g.source:
        raise ValueError(
            f"cannot compose: {render_term(f.target)} does not match {render_term(g.source)}"
        )
    return Morphism(f.source, g.target, f.mode, cut_proofs(f.proof, g.proof, 0, f.mode, 1))


def boxtimes(f: Morphism, g: Morphism) -> Morphism:
    """The monoidal product of morphisms: ``RTensor`` then ``LTensor(0)``
    conclude ``f.source * g.source |- f.target * g.target`` from the operands'
    checked proofs, so nothing is re-checked."""
    if f.mode is not g.mode:
        raise ValueError("cannot tensor morphisms from different modes")
    return Morphism(
        Tensor(f.source, g.source), Tensor(f.target, g.target), f.mode, tensor_proofs(f.proof, g.proof)
    )


def hom_size(a: Term, b: Term, mode: Mode) -> int:
    """The number of morphisms ``a -> b``: one if provable, else zero."""
    return 1 if is_provable(Inference((a,), b), mode) else 0


# --- structural morphisms ----------------------------------------------------


def unit_left(a: Term, mode: Mode) -> Morphism:
    """``lambda_A : 1 (x) A -> A``."""
    tree = Proof(LTensor(0), (Proof(LUnit(0), (identity_proof(a, mode),)),))
    return morphism_of(tree, mode)


def unit_right(a: Term, mode: Mode) -> Morphism:
    """``rho_A : A (x) 1 -> A``."""
    tree = Proof(LTensor(0), (Proof(LUnit(1), (identity_proof(a, mode),)),))
    return morphism_of(tree, mode)


def associator(a: Term, b: Term, c: Term, mode: Mode) -> Morphism:
    """``alpha_{A,B,C} : (A (x) B) (x) C -> A (x) (B (x) C)``."""
    bc = Proof(RTensor(), (identity_proof(b, mode), identity_proof(c, mode)))
    abc = Proof(RTensor(), (identity_proof(a, mode), bc))
    tree = Proof(LTensor(0), (Proof(LTensor(0), (abc,)),))
    return morphism_of(tree, mode)


def symmetry(a: Term, b: Term, mode: Mode) -> Morphism:
    """``sigma_{A,B} : A (x) B -> B (x) A`` (mode ``t`` only)."""
    if mode is not Mode.T:
        raise ValueError("the braiding exists only in mode t")
    ba = Proof(RTensor(), (identity_proof(b, mode), identity_proof(a, mode)))
    tree = Proof(LTensor(0), (Proof(Exchange(0, 1, 2), (ba,)),))
    return morphism_of(tree, mode)


def inverse(f: Morphism) -> Morphism:
    """The inverse morphism, when the reversed inference is provable."""
    proof = synthesize_proof(Inference((f.target,), f.source), f.mode)
    return Morphism(f.target, f.source, f.mode, proof)


# --- coherence diagrams ------------------------------------------------------

DIAGRAMS = (
    "triangle",
    "pentagon",
    "hexagon",
    "symmetry-unit",
    "symmetry-inverse",
    "interchange",
    "nat-lambda",
    "nat-rho",
    "nat-alpha",
    "nat-sigma",
)


def _need(items, n: int, name: str, kind: str = "object"):
    if len(items) != n:
        raise ValueError(f"{name} needs {n} {kind}(s), got {len(items)}")


def check_diagram(
    name: str, mode: Mode, terms: tuple[Term, ...] = (), morphisms: tuple[Morphism, ...] = ()
) -> bool:
    """Whether the two legs of the named diagram are equal morphisms.

    ``triangle`` and ``pentagon`` take objects and hold in both modes; the
    symmetry diagrams (``hexagon``, ``symmetry-unit``, ``symmetry-inverse``,
    ``nat-sigma``) hold in mode ``t``.  ``interchange`` and the naturality
    squares additionally take morphisms.
    """
    if name == "triangle":
        _need(terms, 2, name)
        a, b = terms
        left = compose(associator(a, UNIT, b, mode), boxtimes(identity(a, mode), unit_left(b, mode)))
        right = boxtimes(unit_right(a, mode), identity(b, mode))
        return left == right
    if name == "pentagon":
        _need(terms, 4, name)
        a, b, c, d = terms
        left = compose(associator(Tensor(a, b), c, d, mode), associator(a, b, Tensor(c, d), mode))
        right = compose(
            compose(
                boxtimes(associator(a, b, c, mode), identity(d, mode)),
                associator(a, Tensor(b, c), d, mode),
            ),
            boxtimes(identity(a, mode), associator(b, c, d, mode)),
        )
        return left == right
    if name == "hexagon":
        _need(terms, 3, name)
        a, b, c = terms
        left = compose(
            compose(associator(a, b, c, mode), symmetry(a, Tensor(b, c), mode)),
            associator(b, c, a, mode),
        )
        right = compose(
            compose(boxtimes(symmetry(a, b, mode), identity(c, mode)), associator(b, a, c, mode)),
            boxtimes(identity(b, mode), symmetry(a, c, mode)),
        )
        return left == right
    if name == "symmetry-unit":
        _need(terms, 1, name)
        (a,) = terms
        left = compose(symmetry(a, UNIT, mode), unit_left(a, mode))
        return left == unit_right(a, mode)
    if name == "symmetry-inverse":
        _need(terms, 2, name)
        a, b = terms
        left = compose(symmetry(a, b, mode), symmetry(b, a, mode))
        return left == identity(Tensor(a, b), mode)
    if name == "interchange":
        _need(morphisms, 4, name, "morphism")
        f, h, g, k = morphisms
        left = compose(boxtimes(f, g), boxtimes(h, k))
        right = boxtimes(compose(f, h), compose(g, k))
        return left == right
    if name == "nat-lambda":
        _need(morphisms, 1, name, "morphism")
        (f,) = morphisms
        left = compose(unit_left(f.source, mode), f)
        right = compose(boxtimes(identity(UNIT, mode), f), unit_left(f.target, mode))
        return left == right
    if name == "nat-rho":
        _need(morphisms, 1, name, "morphism")
        (f,) = morphisms
        left = compose(unit_right(f.source, mode), f)
        right = compose(boxtimes(f, identity(UNIT, mode)), unit_right(f.target, mode))
        return left == right
    if name == "nat-alpha":
        _need(morphisms, 3, name, "morphism")
        f, g, h = morphisms
        left = compose(
            associator(f.source, g.source, h.source, mode), boxtimes(f, boxtimes(g, h))
        )
        right = compose(
            boxtimes(boxtimes(f, g), h), associator(f.target, g.target, h.target, mode)
        )
        return left == right
    if name == "nat-sigma":
        _need(morphisms, 2, name, "morphism")
        f, g = morphisms
        left = compose(symmetry(f.source, g.source, mode), boxtimes(g, f))
        right = compose(boxtimes(f, g), symmetry(f.target, g.target, mode))
        return left == right
    raise ValueError(f"unknown diagram {name!r}")
