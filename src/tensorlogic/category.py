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

from .decision import _realise, synthesize_proof
from .kernel import LTensor, LUnit, Mode, Proof, check, cut_proofs, tensor_proofs
from .terms import UNIT, Inference, Tensor, Term, _Frozen, _set, render_term, tensor_of


class Morphism(_Frozen):
    __slots__ = ("source", "target", "mode", "proof")

    def __init__(self, source: Term, target: Term, mode: Mode, proof: Proof):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "mode", mode)
        _set(self, "proof", proof)  # a checked proof of source |- target

    def _key(self) -> tuple:  # the category is thin: the proof is not compared
        return self.source, self.target, self.mode

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


def _canonical(source: Term, target: Term, mode: Mode) -> Morphism:
    """The morphism ``source -> target`` with its canonical proof."""
    return Morphism(source, target, mode, synthesize_proof(Inference((source,), target), mode))


def identity(a: Term, mode: Mode) -> Morphism:
    return _canonical(a, a, mode)


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


# --- structural morphisms ----------------------------------------------------


def unit_left(a: Term, mode: Mode) -> Morphism:
    """``lambda_A : 1 (x) A -> A``."""
    return _canonical(Tensor(UNIT, a), a, mode)


def unit_right(a: Term, mode: Mode) -> Morphism:
    """``rho_A : A (x) 1 -> A``."""
    return _canonical(Tensor(a, UNIT), a, mode)


def associator(a: Term, b: Term, c: Term, mode: Mode) -> Morphism:
    """``alpha_{A,B,C} : (A (x) B) (x) C -> A (x) (B (x) C)``."""
    return _canonical(Tensor(Tensor(a, b), c), Tensor(a, Tensor(b, c)), mode)


def symmetry(a: Term, b: Term, mode: Mode) -> Morphism:
    """``sigma_{A,B} : A (x) B -> B (x) A`` (mode ``t`` only): the synthesis
    that feeds each atom of ``B`` and then of ``A`` from its own factor, by
    one block Exchange, so the braiding swaps the factors even of
    ``A (x) A``, whose canonical proof is the identity."""
    if mode is not Mode.T:
        raise ValueError("the braiding exists only in mode t")
    na, nb = a.occurrences, b.occurrences
    swap = [*range(na, na + nb), *range(na)]
    source, target = Tensor(a, b), Tensor(b, a)
    return Morphism(source, target, mode, _realise(Inference((source,), target), swap))


def inverse(f: Morphism) -> Morphism:
    """The inverse morphism, when the reversed inference is provable."""
    return _canonical(f.target, f.source, f.mode)


# --- coherence diagrams ------------------------------------------------------

def _triangle(mode: Mode, a: Term, b: Term) -> tuple[Morphism, Morphism]:
    left = compose(associator(a, UNIT, b, mode), boxtimes(identity(a, mode), unit_left(b, mode)))
    return left, boxtimes(unit_right(a, mode), identity(b, mode))


def _pentagon(mode: Mode, a: Term, b: Term, c: Term, d: Term) -> tuple[Morphism, Morphism]:
    left = compose(associator(Tensor(a, b), c, d, mode), associator(a, b, Tensor(c, d), mode))
    right = boxtimes(associator(a, b, c, mode), identity(d, mode))
    right = compose(right, associator(a, Tensor(b, c), d, mode))
    right = compose(right, boxtimes(identity(a, mode), associator(b, c, d, mode)))
    return left, right


def _hexagon(mode: Mode, a: Term, b: Term, c: Term) -> tuple[Morphism, Morphism]:
    left = compose(associator(a, b, c, mode), symmetry(a, Tensor(b, c), mode))
    left = compose(left, associator(b, c, a, mode))
    right = compose(boxtimes(symmetry(a, b, mode), identity(c, mode)), associator(b, a, c, mode))
    right = compose(right, boxtimes(identity(b, mode), symmetry(a, c, mode)))
    return left, right


def _symmetry_unit(mode: Mode, a: Term) -> tuple[Morphism, Morphism]:
    return compose(symmetry(a, UNIT, mode), unit_left(a, mode)), unit_right(a, mode)


def _symmetry_inverse(mode: Mode, a: Term, b: Term) -> tuple[Morphism, Morphism]:
    return compose(symmetry(a, b, mode), symmetry(b, a, mode)), identity(Tensor(a, b), mode)


def _interchange(mode: Mode, f: Morphism, h: Morphism, g: Morphism, k: Morphism) -> tuple[Morphism, Morphism]:
    return compose(boxtimes(f, g), boxtimes(h, k)), boxtimes(compose(f, h), compose(g, k))


def _nat_lambda(mode: Mode, f: Morphism) -> tuple[Morphism, Morphism]:
    left = compose(unit_left(f.source, mode), f)
    return left, compose(boxtimes(identity(UNIT, mode), f), unit_left(f.target, mode))


def _nat_rho(mode: Mode, f: Morphism) -> tuple[Morphism, Morphism]:
    left = compose(unit_right(f.source, mode), f)
    return left, compose(boxtimes(f, identity(UNIT, mode)), unit_right(f.target, mode))


def _nat_alpha(mode: Mode, f: Morphism, g: Morphism, h: Morphism) -> tuple[Morphism, Morphism]:
    left = compose(associator(f.source, g.source, h.source, mode), boxtimes(f, boxtimes(g, h)))
    right = compose(boxtimes(boxtimes(f, g), h), associator(f.target, g.target, h.target, mode))
    return left, right


def _nat_sigma(mode: Mode, f: Morphism, g: Morphism) -> tuple[Morphism, Morphism]:
    left = compose(symmetry(f.source, g.source, mode), boxtimes(g, f))
    return left, compose(boxtimes(f, g), symmetry(f.target, g.target, mode))


# name -> (objects, morphisms, needs the braiding (mode t only), its two legs)
_DIAGRAMS = {
    "triangle": (2, 0, False, _triangle),
    "pentagon": (4, 0, False, _pentagon),
    "hexagon": (3, 0, True, _hexagon),
    "symmetry-unit": (1, 0, True, _symmetry_unit),
    "symmetry-inverse": (2, 0, True, _symmetry_inverse),
    "interchange": (0, 4, False, _interchange),
    "nat-lambda": (0, 1, False, _nat_lambda),
    "nat-rho": (0, 1, False, _nat_rho),
    "nat-alpha": (0, 3, False, _nat_alpha),
    "nat-sigma": (0, 2, True, _nat_sigma),
}

DIAGRAMS = tuple(_DIAGRAMS)


def check_diagram(
    name: str, mode: Mode, terms: tuple[Term, ...] = (), morphisms: tuple[Morphism, ...] = ()
) -> bool:
    """Whether the two legs of the named diagram are equal morphisms.

    ``triangle`` and ``pentagon`` take objects and hold in both modes; the
    symmetry diagrams (``hexagon``, ``symmetry-unit``, ``symmetry-inverse``,
    ``nat-sigma``) hold in mode ``t``.  ``interchange`` and the naturality
    squares take morphisms instead of objects.
    """
    entry = _DIAGRAMS.get(name)
    if entry is None:
        raise ValueError(f"unknown diagram {name!r}")
    n_objects, n_morphisms, _, legs = entry
    items, n, kind = (terms, n_objects, "object") if n_objects else (morphisms, n_morphisms, "morphism")
    if len(items) != n:
        raise ValueError(f"{name} needs {n} {kind}(s), got {len(items)}")
    left, right = legs(mode, *items)
    return left == right
