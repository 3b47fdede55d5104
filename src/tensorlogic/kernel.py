"""Proof kernel: rule applications, proof trees, and the checker.

Two modes are supported.  Mode ``T`` has an explicit Exchange rule and a Cut
that always cuts the last antecedent item of its right premise; mode
``TPRIME`` has no Exchange and a positional Cut.  The left rules (unit
insertion and tensor fusion) are positional in both modes.  Positions are
0-based.

Proofs serialise to s-expressions::

    (id A)  (r1)  (l1 POS p)  (lx POS p)  (rx p p)  (cut POS? p p)
    (ex I J K p)  (ax-r TERM)  (ax-l TERM)  (conv TERM TERM)

where ``POS`` is omitted for Cut in mode ``T``.

Each rule class concludes from its premises' ``(antecedent list,
consequent)`` pairs.  ``check`` lets a step take over and edit its premises'
lists, as in a tree each premise has one consumer; callers that keep
conclusions in a :func:`fold` memo use :func:`rule_conclusion`, which copies.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Union

from .terms import (
    UNIT,
    Atom,
    Inference,
    ParseError,
    Tensor,
    Term,
    _lex,
    _Frozen,
    _parse_term_tokens,
    _set,
    _STRUCTURAL,
    _TokenStream,
    render_term,
)

if TYPE_CHECKING:  # pragma: no cover
    from .theory import Theory


class Mode(enum.Enum):
    T = "t"
    TPRIME = "tprime"


class ProofError(ValueError):
    """A proof tree does not check."""


class ArityError(ProofError):
    pass


class RuleMismatch(ProofError):
    pass


class PositionOutOfRange(ProofError):
    pass


class ExchangeNotAllowed(ProofError):
    pass


class AxiomNotLicensed(ProofError):
    pass


# --- rule applications -------------------------------------------------------


class _Rule(_Frozen):
    """A rule application.  Rules are hash-consed like terms: a constructor
    returns the one live rule with its fields from a per-class table filled
    with ``setdefault``, so ``==`` and ``hash`` are identity, and pickling
    and copying go through the constructor."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init_subclass__(cls) -> None:
        cls._live = {}  # the key of a rule's fields -> the live rule

    @classmethod
    def _intern(cls, key, *values):
        rule = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _set(rule, name, value)
        return cls._live.setdefault(key, rule)

    def __new__(cls):  # a rule without fields
        return cls._live.get(()) or cls._intern(())


class Id(_Rule):
    __slots__ = ("atom",)

    def __new__(cls, atom: Atom):
        return cls._live.get(atom) or cls._intern(atom, atom)

    def _conclude(self, concs, mode, theory):
        return [self.atom], self.atom


class RUnit(_Rule):
    __slots__ = ()

    def _conclude(self, concs, mode, theory):
        return [], UNIT


class LUnit(_Rule):
    __slots__ = ("position",)

    def __new__(cls, position: int):
        return cls._live.get(position) or cls._intern(position, position)

    def _conclude(self, concs, mode, theory):
        ((items, consequent),) = concs
        if not 0 <= self.position <= len(items):
            raise PositionOutOfRange(f"unit insertion at {self.position} in antecedent of length {len(items)}")
        items.insert(self.position, UNIT)
        return items, consequent


class LTensor(_Rule):
    __slots__ = ("position",)

    def __new__(cls, position: int):
        return cls._live.get(position) or cls._intern(position, position)

    def _conclude(self, concs, mode, theory):
        ((items, consequent),) = concs
        p = self.position
        if not 0 <= p <= len(items) - 2:
            raise PositionOutOfRange(f"tensor fusion at {p} in antecedent of length {len(items)}")
        items[p : p + 2] = (Tensor(items[p], items[p + 1]),)
        return items, consequent


class RTensor(_Rule):
    __slots__ = ()

    def _conclude(self, concs, mode, theory):
        (items, left), (right_items, right) = concs
        if len(items) < len(right_items):  # take over the longer list
            right_items[:0] = items
            return right_items, Tensor(left, right)
        items.extend(right_items)
        return items, Tensor(left, right)


class Cut(_Rule):
    __slots__ = ("position",)

    def __new__(cls, position: int | None = None):
        return cls._live.get(position) or cls._intern(position, position)

    def _conclude(self, concs, mode, theory):
        (gamma, b), (items, consequent) = concs
        if mode is Mode.T:
            if self.position is not None:
                raise RuleMismatch("Cut carries no position in mode t (the last item is cut)")
            if not items:
                raise RuleMismatch("Cut right premise needs a nonempty antecedent")
            pos = len(items) - 1
        else:
            if self.position is None:
                raise RuleMismatch("Cut requires a position in mode tprime")
            pos = self.position
            if not 0 <= pos < len(items):
                raise PositionOutOfRange(f"cut at {pos} in antecedent of length {len(items)}")
        if items[pos] != b:
            raise RuleMismatch(
                f"cut term mismatch: left premise proves {render_term(b)}, "
                f"right premise holds {render_term(items[pos])} at position {pos}"
            )
        items[pos : pos + 1] = gamma
        return items, consequent


class Exchange(_Rule):
    __slots__ = ("i", "j", "k")

    def __new__(cls, i: int, j: int, k: int):
        return cls._live.get((i, j, k)) or cls._intern((i, j, k), i, j, k)

    def _conclude(self, concs, mode, theory):
        if mode is not Mode.T:
            raise ExchangeNotAllowed("Exchange is only available in mode t")
        ((items, consequent),) = concs
        i, j, k = self.i, self.j, self.k
        if not 0 <= i < j < k <= len(items):
            raise PositionOutOfRange(f"exchange blocks ({i},{j},{k}) in antecedent of length {len(items)}")
        items[i:k] = items[j:k] + items[i:j]
        return items, consequent


class RAxiom(_Rule):
    __slots__ = ("term",)

    def __new__(cls, term: Term):
        return cls._live.get(term) or cls._intern(term, term)

    def _conclude(self, concs, mode, theory):
        if theory is None or not theory.is_available(self.term):
            raise AxiomNotLicensed(f"no availability axiom for {render_term(self.term)}")
        return [], self.term


class LAxiom(_Rule):
    __slots__ = ("term",)

    def __new__(cls, term: Term):
        return cls._live.get(term) or cls._intern(term, term)

    def _conclude(self, concs, mode, theory):
        if theory is None or not theory.is_disposable(self.term):
            raise AxiomNotLicensed(f"no disposability axiom for {render_term(self.term)}")
        return [self.term], UNIT


class ConvAxiom(_Rule):
    __slots__ = ("source", "target")

    def __new__(cls, source: Term, target: Term):
        return cls._live.get((source, target)) or cls._intern((source, target), source, target)

    def _conclude(self, concs, mode, theory):
        if theory is None or not theory.is_conversion(self.source, self.target):
            raise AxiomNotLicensed(f"no conversion axiom {render_term(self.source)} -> {render_term(self.target)}")
        return [self.source], self.target


RuleApp = Union[Id, RUnit, LUnit, LTensor, RTensor, Cut, Exchange, RAxiom, LAxiom, ConvAxiom]

# rule class -> (s-expression head, premise count, (name, kind) of each field);
# a kind is "atom", "int", "int?" (a None is not written) or "term"
_RULES = {
    cls: (head, premises, tuple(zip(cls.__slots__, kinds)))
    for cls, head, premises, kinds in (
        (Id, "id", 0, ("atom",)),
        (RUnit, "r1", 0, ()),
        (LUnit, "l1", 1, ("int",)),
        (LTensor, "lx", 1, ("int",)),
        (RTensor, "rx", 2, ()),
        (Cut, "cut", 2, ("int?",)),
        (Exchange, "ex", 1, ("int", "int", "int")),
        (RAxiom, "ax-r", 0, ("term",)),
        (LAxiom, "ax-l", 0, ("term",)),
        (ConvAxiom, "conv", 0, ("term", "term")),
    )
}


class Proof(_Frozen):
    """A proof tree.  ``hash`` and ``size`` are folds, and ``repr`` and ``==``
    walk with an explicit stack, so any depth works."""

    __slots__ = ("rule", "premises")

    def __init__(self, rule: RuleApp, premises: tuple[Proof, ...] = ()):
        _set(self, "rule", rule)
        _set(self, "premises", premises)

    def size(self) -> int:
        return fold(self, lambda rule, sizes: 1 + sum(sizes))

    def __hash__(self) -> int:
        return fold(self, lambda rule, hashes: hash((rule, *hashes)))

    def __repr__(self) -> str:
        """The text a dataclass shows, ``(x,)`` for one premise included,
        written in pre-order: a node's closing text waits below its premises."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if type(node) is str:
                out.append(node)
                continue
            out.append(f"Proof(rule={node.rule!r}, premises=(")
            stack.append(",))" if len(node.premises) == 1 else "))")
            for i in range(len(node.premises) - 1, -1, -1):
                stack += (node.premises[i], ", ") if i else (node.premises[i],)
        return "".join(out)

    def __eq__(self, other):
        if type(other) is not Proof:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a.rule != b.rule or len(a.premises) != len(b.premises):
                    return False
                stack += zip(a.premises, b.premises)
        return True


def fold(proof: Proof, step: Callable, *args, memo: dict | None = None):
    """``step(rule, values, *args)`` of the root, ``values`` being the results
    of a node's premises in order.  Listed root first, with premises pushed
    left to right, the nodes read backwards are a post-order: any depth folds.
    ``memo`` maps ``id(node)`` to ``(node, result)``: a node found there is
    not folded again, and holding it keeps its id from being reused; a node
    met twice in one fold is folded twice."""
    order: list = []  # the nodes to fold, and the memo entries of those not to
    stack = [proof]
    while stack:
        node = stack.pop()
        if memo is not None and (hit := memo.get(id(node))) is not None:
            order.append(hit)
        else:
            order.append(node)
            stack += node.premises
    values: list = []
    for node in reversed(order):
        if type(node) is tuple:
            values.append(node[1])
            continue
        k = len(values) - len(node.premises)
        value = step(node.rule, values[k:], *args)
        del values[k:]
        if memo is not None:
            memo[id(node)] = (node, value)
        values.append(value)
    return values[0]


NodePath = tuple[int, ...]


def subproof_at(proof: Proof, path: NodePath) -> Proof:
    for i in path:
        proof = proof.premises[i]
    return proof


def replace_at(proof: Proof, path: NodePath, new: Proof) -> Proof:
    spine = [proof]  # the nodes from the root down to the one replaced
    for i in path:
        spine.append(spine[-1].premises[i])
    for node, i in zip(spine[-2::-1], path[::-1]):
        new = Proof(node.rule, node.premises[:i] + (new,) + node.premises[i + 1 :])
    return new


def cut_paths(proof: Proof) -> list[NodePath]:
    """Paths of every Cut node, in pre-order."""
    out, stack = [], [(proof, ())]
    while stack:
        node, path = stack.pop()
        if type(node.rule) is Cut:
            out.append(path)
        stack += [(node.premises[i], path + (i,)) for i in range(len(node.premises) - 1, -1, -1)]
    return out


# --- checking ----------------------------------------------------------------


def check(proof: Proof, mode: Mode, theory: "Theory | None" = None) -> Inference:
    """Validate ``proof`` bottom-up and return its conclusion.

    In a tree each premise's conclusion has one consumer, so each step takes
    over its premise's antecedent list and edits it in place, and only the
    root's list becomes an :class:`Inference`: a step costs the items its
    edit moves, not a copy of the antecedent.  Raises a :class:`ProofError`
    subclass naming the offending rule when the tree does not check.
    """
    items, consequent = fold(proof, _conclude, mode, theory)
    return Inference(tuple(items), consequent)


def _conclude(rule: RuleApp, concs: list, mode: Mode, theory: "Theory | None") -> tuple[list[Term], Term]:
    """The ``(antecedent list, consequent)`` pair a rule concludes from its
    premises' pairs, which it may take over and edit in place."""
    expected = _RULES[type(rule)][1]
    if len(concs) != expected:
        raise ArityError(f"{type(rule).__name__} takes {expected} premises, got {len(concs)}")
    return rule._conclude(concs, mode, theory)


def rule_conclusion(
    rule: RuleApp, concs: list[Inference], mode: Mode, theory: "Theory | None" = None
) -> Inference:
    """The conclusion of one rule application given its premises' conclusions,
    which stay as they are, so they may be :func:`fold` memo values."""
    items, consequent = _conclude(rule, [(list(c.antecedent), c.consequent) for c in concs], mode, theory)
    return Inference(tuple(items), consequent)


# --- constructors ------------------------------------------------------------


def tensor_proofs(p1: Proof, p2: Proof) -> Proof:
    """From ``A |- B`` and ``C |- D`` build ``A (x) C |- B (x) D``.

    The premises must each have a single antecedent item; this is the tensor
    of proofs used to lift proofs through tensor contexts.
    """
    return Proof(LTensor(0), (Proof(RTensor(), (p1, p2)),))


def cut_proofs(p1: Proof, p2: Proof, pos: int, mode: Mode, n2: int, memo: dict | None = None) -> Proof:
    """A cut of ``p1`` into position ``pos`` of ``p2``'s antecedent.

    ``n2`` is the length of ``p2``'s antecedent.  In mode ``tprime`` this is a
    single positional Cut; in mode ``t`` the cut item is first moved to the
    end with Exchange, cut there, and the spliced block moved back, the
    length of ``p1``'s antecedent being taken from :func:`fold`'s ``memo``.
    """
    if mode is Mode.TPRIME:
        return Proof(Cut(pos), (p1, p2))
    if pos == n2 - 1:
        return Proof(Cut(None), (p1, p2))
    # Delta | B | Theta  ->  Delta | Theta | B
    moved = Proof(Exchange(pos, pos + 1, n2), (p2,))
    cut = Proof(Cut(None), (p1, moved))
    # Delta | Theta | Gamma  ->  Delta | Gamma | Theta
    g = len(fold(p1, rule_conclusion, mode, _PERMISSIVE, memo=memo).antecedent)
    if g == 0:
        return cut
    theta = n2 - 1 - pos
    return Proof(Exchange(pos, pos + theta, pos + theta + g), (cut,))


class _Permissive:
    """Licenses every axiom leaf; used where conclusions are shape-only."""

    def is_available(self, term: Term) -> bool:
        return True

    def is_disposable(self, term: Term) -> bool:
        return True

    def is_conversion(self, source: Term, target: Term) -> bool:
        return True


_PERMISSIVE = _Permissive()


# --- mode adapter ------------------------------------------------------------


def to_mode_t(proof: Proof) -> Proof:
    """Re-express a mode ``tprime`` proof as a mode ``t`` proof.

    Positional cuts become Exchange-wrapped last-item cuts; everything else is
    unchanged.  The conclusion is preserved.
    """
    memo: dict = {}  # the conclusions of the mode t proof built so far

    def step(rule: RuleApp, premises: list[Proof]) -> Proof:
        if isinstance(rule, Cut) and rule.position is not None:
            p1, p2 = premises
            n2 = len(fold(p2, rule_conclusion, Mode.T, _PERMISSIVE, memo=memo).antecedent)
            return cut_proofs(p1, p2, rule.position, Mode.T, n2, memo)
        return Proof(rule, tuple(premises))

    return fold(proof, step)


# --- s-expression serialisation ----------------------------------------------


def render_proof(proof: Proof) -> str:
    rule = proof.rule
    head, _, rule_fields = _RULES[type(rule)]
    parts = [head]
    for name, kind in rule_fields:
        value = getattr(rule, name)
        if value is not None:
            parts.append(_KINDS[kind][0](value))
    parts += [render_proof(p) for p in proof.premises]
    return "(" + " ".join(parts) + ")"


def _parse_int(ts: _TokenStream) -> int:
    tok = ts.next()
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}") from None


def _parse_atom(ts: _TokenStream) -> Atom:
    tok = ts.next()
    if tok in _STRUCTURAL:
        raise ParseError(f"expected an atom name, got {tok!r}")
    return Atom(tok)


def _parse_opt_int(ts: _TokenStream) -> int | None:
    try:
        value = int(ts.peek() or "")
    except ValueError:
        return None
    ts.next()
    return value


# field kind -> (render a value, parse a value)
_KINDS = {
    "atom": (attrgetter("name"), _parse_atom),
    "int": (str, _parse_int),
    "int?": (str, _parse_opt_int),
    "term": (render_term, _parse_term_tokens),
}

_HEADS = {head: (cls, premises, rule_fields) for cls, (head, premises, rule_fields) in _RULES.items()}


def parse_proof(text: str) -> Proof:
    """A proof read from ``text``.  Each open rule waits on an explicit stack
    with the premises read so far, so any depth parses.  Tokens are popped
    from the stream's list; ``expect`` and ``next`` run only to raise."""
    ts = _TokenStream(_lex(text))
    tokens = ts.tokens
    stack: list[tuple[RuleApp, int, list[Proof]]] = []
    while True:
        tokens.pop() if tokens and tokens[-1] == "(" else ts.expect("(")
        head = tokens.pop() if tokens else ts.next()
        entry = _HEADS.get(head)
        if entry is None:
            raise ParseError(f"unknown proof rule {head!r}")
        cls, n_premises, rule_fields = entry
        rule = cls(*[_KINDS[kind][1](ts) for _, kind in rule_fields])
        premises: list[Proof] = []
        while len(premises) == n_premises:  # close every rule whose premises are all read
            tokens.pop() if tokens and tokens[-1] == ")" else ts.expect(")")
            proof = Proof(rule, tuple(premises))
            if not stack:
                if tokens:
                    raise ParseError(f"trailing input after proof: {tokens[-1]!r}")
                return proof
            rule, n_premises, premises = stack.pop()
            premises.append(proof)
        stack.append((rule, n_premises, premises))
