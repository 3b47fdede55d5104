"""Ordered commutative monoid semantics.

A model is a finite commutative monoid with a compatible preorder and a
valuation of atoms.  Forcing: ``m`` forces an atom ``P`` iff ``m <= v(P)``;
``m`` forces ``A (x) B`` iff ``m`` splits as a product of elements forcing
the factors; ``m`` forces the unit iff it equals the monoid unit.  An
inference is entailed when, for every element and every factorisation of it
across the antecedent with each factor forcing its item, the element forces
the consequent; with an empty antecedent only the monoid unit is constrained.

The free model is the free commutative monoid on the atoms, ordered by
equality, with each atom valued as its own singleton; entailment there is
exactly atom-multiset equality.

Model file format, one statement per ``;`` (the first element listed is the
monoid unit)::

    elements e a b ;
    op a a = b ;       # the unit row/column is implied; op is symmetric
    le a b ;           # the preorder, beyond reflexivity
    val P = a ;
"""

from __future__ import annotations

import itertools
from collections import Counter
from pathlib import Path

from .terms import Atom, Inference, ParseError, Term, Unit, _Record, atom_vector


class MonoidModel(_Record):
    __slots__ = ("elements", "unit", "op", "leq", "valuation")

    def __init__(
        self,
        elements: tuple[str, ...],
        unit: str,
        op: dict[tuple[str, str], str],
        leq: frozenset[tuple[str, str]],
        valuation: dict[str, str],
    ):
        self.elements = elements
        self.unit = unit
        self.op = op
        self.leq = leq
        self.valuation = valuation

    def mul(self, a: str, b: str) -> str:
        return self.op[(a, b)]

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq


def validate_model(model: MonoidModel) -> list[str]:
    """All violations of the ordered-commutative-monoid laws, as messages."""
    out: list[str] = []
    els = model.elements
    if model.unit not in els:
        out.append(f"unit {model.unit!r} is not an element")
        return out
    for a, b in itertools.product(els, repeat=2):
        if (a, b) not in model.op:
            out.append(f"op is not total: missing {a} {b}")
        elif model.op[(a, b)] not in els:
            out.append(f"op {a} {b} = {model.op[(a, b)]!r} is not an element")
    if out:
        return out
    for a in els:
        if model.mul(model.unit, a) != a:
            out.append(f"unit law fails: {model.unit} {a} = {model.mul(model.unit, a)}")
    for a, b in itertools.combinations(els, 2):
        if model.mul(a, b) != model.mul(b, a):
            out.append(f"commutativity fails at {a} {b}")
    for a, b, c in itertools.product(els, repeat=3):
        if model.mul(model.mul(a, b), c) != model.mul(a, model.mul(b, c)):
            out.append(f"associativity fails at {a} {b} {c}")
    for a in els:
        if not model.le(a, a):
            out.append(f"order is not reflexive at {a}")
    for a, b in model.leq:
        if a not in els or b not in els:
            out.append(f"order mentions non-elements: {a} {b}")
            return out
    for a, b, c in itertools.product(els, repeat=3):
        if model.le(a, b) and model.le(b, c) and not model.le(a, c):
            out.append(f"order is not transitive: {a} <= {b} <= {c}")
    for r, s, x, y in itertools.product(els, repeat=4):
        if model.le(r, s) and model.le(x, y) and not model.le(model.mul(r, x), model.mul(s, y)):
            out.append(f"compatibility fails: {r} <= {s}, {x} <= {y}")
    for name, v in model.valuation.items():
        if v not in els:
            out.append(f"valuation of {name!r} is not an element: {v!r}")
    return out


def forces(model: MonoidModel, m: str, term: Term, _memo: dict | None = None) -> bool:
    if _memo is None:
        _memo = {}
    key = (m, term)
    if key in _memo:
        return _memo[key]
    if isinstance(term, Atom):
        v = model.valuation.get(term.name)
        out = v is not None and model.le(m, v)
    elif isinstance(term, Unit):
        out = m == model.unit
    else:
        out = any(
            model.mul(n1, n2) == m
            and forces(model, n1, term.left, _memo)
            and forces(model, n2, term.right, _memo)
            for n1, n2 in itertools.product(model.elements, repeat=2)
        )
    _memo[key] = out
    return out


def entails_at(model: MonoidModel, m: str, inference: Inference, _memo: dict | None = None) -> bool:
    if _memo is None:
        _memo = {}
    items = inference.antecedent
    if not items:
        return forces(model, m, inference.consequent, _memo) or m != model.unit
    for parts in itertools.product(model.elements, repeat=len(items)):
        prod = parts[0]
        for x in parts[1:]:
            prod = model.mul(prod, x)
        if prod != m:
            continue
        if all(forces(model, p, t, _memo) for p, t in zip(parts, items)):
            if not forces(model, m, inference.consequent, _memo):
                return False
    return True


def entails(model: MonoidModel, inference: Inference) -> bool:
    memo: dict = {}
    return all(entails_at(model, m, inference, memo) for m in model.elements)


# --- the free model ----------------------------------------------------------


def _splits(vec: Counter):
    """All ordered pairs of multisets summing to ``vec``."""
    items = sorted(vec.items())
    ranges = [range(v + 1) for _, v in items]
    for choice in itertools.product(*ranges):
        left = Counter({k: c for (k, _), c in zip(items, choice) if c})
        right = Counter({k: v - c for (k, v), c in zip(items, choice) if v - c})
        yield left, right


def free_forces(vec: Counter, term: Term) -> bool:
    """Forcing in the free commutative monoid on the atoms, ordered by equality."""
    if isinstance(term, Atom):
        return vec == Counter({term.name: 1})
    if isinstance(term, Unit):
        return not +vec
    return any(
        free_forces(left, term.left) and free_forces(right, term.right) for left, right in _splits(vec)
    )


def entails_free(inference: Inference) -> bool:
    """Entailment in the free model: atom-multiset equality of the two sides."""
    return atom_vector(inference.antecedent) == atom_vector(inference.consequent)


# --- model files -------------------------------------------------------------


def parse_model(text: str) -> MonoidModel:
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    body = "\n".join(lines)
    elements: list[str] = []
    op: dict[tuple[str, str], str] = {}
    leq: set[tuple[str, str]] = set()
    valuation: dict[str, str] = {}
    for raw in body.split(";"):
        stmt = raw.strip()
        if not stmt:
            continue
        parts = stmt.split()
        head = parts[0]
        if head == "elements":
            if len(parts) < 2:
                raise ParseError("elements statement needs at least one element")
            elements.extend(parts[1:])
        elif head == "op":
            if len(parts) != 5 or parts[3] != "=":
                raise ParseError(f"expected 'op a b = c': {stmt!r}")
            a, b, c = parts[1], parts[2], parts[4]
            for key in ((a, b), (b, a)):
                if key in op and op[key] != c:
                    raise ParseError(f"conflicting products for {key[0]} {key[1]}")
                op[key] = c
        elif head == "le":
            if len(parts) != 3:
                raise ParseError(f"expected 'le a b': {stmt!r}")
            leq.add((parts[1], parts[2]))
        elif head == "val":
            if len(parts) != 4 or parts[2] != "=":
                raise ParseError(f"expected 'val P = a': {stmt!r}")
            valuation[parts[1]] = parts[3]
        else:
            raise ParseError(f"unknown model statement {head!r}")
    if not elements:
        raise ParseError("model declares no elements")
    unit = elements[0]
    for a in elements:
        op.setdefault((unit, a), a)
        op.setdefault((a, unit), a)
    for a in elements:
        leq.add((a, a))
    return MonoidModel(tuple(elements), unit, op, frozenset(leq), valuation)


def load_model(path: str | Path) -> MonoidModel:
    return parse_model(Path(path).read_text())
