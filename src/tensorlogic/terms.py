"""Terms, sequents, and inferences of the tensor-only fragment.

A term is an atom, the multiplicative unit ``1``, or a tensor product of two
terms.  An inference pairs a sequence of antecedent terms with a single
consequent term.  The concrete syntax is::

    term      :=  atom  |  "1"  |  term "*" term  |  "(" term ")"
    inference :=  [ term ("," term)* ] "|-" term

``*`` is left-associative.  The Unicode aliases ``⊗`` (tensor), ``⊢``
(turnstile), and ``𝟙`` (unit) are accepted on input.  Atom names start with a
letter, underscore, or ``-`` and may carry a single parenthesised suffix, so
``Q(0.5)`` and ``-Q(0.5)`` are single atoms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union


class ParseError(ValueError):
    """Raised when term, inference, proof, or file syntax is malformed."""


@dataclass(frozen=True)
class Atom:
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class Unit:
    def __repr__(self) -> str:
        return "Unit()"


@dataclass(frozen=True)
class Tensor:
    """``left * right``.  Its hash is computed on first use and kept, from
    its children's kept hashes, so hashing never recurses and a term of any
    depth is a cheap dict key; ``==`` is still the dataclass's recursive
    comparison."""

    left: "Term"
    right: "Term"

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            pass
        # hash the subterms that have no hash yet, children first
        stack = [self]
        while stack:
            top = stack[-1]
            todo = [c for c in (top.left, top.right) if isinstance(c, Tensor) and "_hash" not in c.__dict__]
            if todo:
                stack.extend(todo)
            else:
                stack.pop()
                top.__dict__["_hash"] = hash((top.left, top.right))
        return self.__dict__["_hash"]

    def __reduce__(self):
        # pickle the fields only: a kept hash is wrong in another process,
        # since string hashes differ between processes
        return Tensor, (self.left, self.right)


Term = Union[Atom, Unit, Tensor]

UNIT = Unit()


@dataclass(frozen=True)
class Inference:
    """A sequent ``A1, ..., Ak |- B``; the antecedent may be empty."""

    antecedent: tuple[Term, ...]
    consequent: Term

    def __str__(self) -> str:
        return render_inference(self)


def tensor_of(terms: Iterable[Term]) -> Term:
    """Left-associated tensor of ``terms``; the empty product is ``1``."""
    items = list(terms)
    if not items:
        return UNIT
    out = items[0]
    for t in items[1:]:
        out = Tensor(out, t)
    return out


def atom_list(obj: Term | Iterable[Term]) -> list[str]:
    """Atom names of a term (or term sequence) in left-to-right order."""
    stack = [obj] if isinstance(obj, (Atom, Unit, Tensor)) else list(obj)[::-1]
    out: list[str] = []
    while stack:
        t = stack.pop()
        while isinstance(t, Tensor):  # walk the left spine, leaving right subterms
            stack.append(t.right)
            t = t.left
        if isinstance(t, Atom):
            out.append(t.name)
    return out


def atom_vector(obj: Term | Iterable[Term]) -> Counter:
    """Multiset of atom occurrences, ignoring units and tensor structure."""
    return Counter(atom_list(obj))


def term_size(t: Term) -> int:
    """Number of syntax-tree nodes (atoms, units, and tensors)."""
    size = 1  # a tree with k tensor nodes has k + 1 leaves
    stack = [t]
    while stack:
        t = stack.pop()
        while isinstance(t, Tensor):
            size += 2
            stack.append(t.right)
            t = t.left
    return size


# --- rendering ---------------------------------------------------------------


def render_term(t: Term) -> str:
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Unit):
        return "1"
    left = render_term(t.left)
    right = render_term(t.right)
    if isinstance(t.right, Tensor):
        right = f"({right})"
    return f"{left} * {right}"


def render_inference(inf: Inference) -> str:
    ant = ", ".join(render_term(t) for t in inf.antecedent)
    return f"{ant} |- {render_term(inf.consequent)}" if ant else f"|- {render_term(inf.consequent)}"


# --- lexing ------------------------------------------------------------------

_ALIASES = {"⊗": "*", "⊢": "|-", "𝟙": "1"}

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_-")
_NAME_CHARS = _NAME_START | set("0123456789")


def _lex(text: str, extra: str = "") -> list[str]:
    """Split into tokens: ``( ) * , |-`` plus atom names and ``1``.

    ``extra`` lists additional single-character tokens (used by file parsers).
    A ``(`` directly attached to name characters (no space), as in ``Q(0.5)``,
    is part of the atom name; the parenthesised suffix may contain anything
    except parentheses.
    """
    for src, dst in _ALIASES.items():
        text = text.replace(src, dst)
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("|-", i):
            tokens.append("|-")
            i += 2
            continue
        if c in "()*," or c in extra:
            tokens.append(c)
            i += 1
            continue
        if c == "1" and (i + 1 == n or text[i + 1] not in _NAME_CHARS):
            tokens.append("1")
            i += 1
            continue
        if c.isdigit():  # bare integers (rule positions) are their own tokens
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if c in _NAME_START:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            # attached parenthesised suffix, e.g. Q(0.5) or -(C*Q_B)
            if j < n and text[j] == "(":
                depth = 0
                k = j
                while k < n:
                    if text[k] == "(":
                        depth += 1
                    elif text[k] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                if depth != 0:
                    raise ParseError(f"unbalanced parentheses in name at offset {i}")
                j = k + 1
            name = text[i:j]
            if name == "-":
                raise ParseError("'-' is not a name by itself")
            tokens.append(name)
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} at offset {i}")
    return tokens


# --- parsing -----------------------------------------------------------------


class _TokenStream:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")


_STRUCTURAL = {"(", ")", "*", ",", "|-", "1"}


def _parse_factor(ts: _TokenStream) -> Term:
    tok = ts.next()
    if tok == "(":
        t = _parse_term_tokens(ts)
        ts.expect(")")
        return t
    if tok == "1":
        return UNIT
    if tok in _STRUCTURAL or tok[0].isdigit():
        raise ParseError(f"expected a term, got {tok!r}")
    return Atom(tok)


def _parse_term_tokens(ts: _TokenStream) -> Term:
    t = _parse_factor(ts)
    while ts.peek() == "*":
        ts.next()
        t = Tensor(t, _parse_factor(ts))
    return t


def parse_term(text: str) -> Term:
    ts = _TokenStream(_lex(text))
    t = _parse_term_tokens(ts)
    if ts.peek() is not None:
        raise ParseError(f"trailing input after term: {ts.peek()!r}")
    return t


def parse_inference(text: str) -> Inference:
    ts = _TokenStream(_lex(text))
    antecedent: list[Term] = []
    if ts.peek() != "|-":
        antecedent.append(_parse_term_tokens(ts))
        while ts.peek() == ",":
            ts.next()
            antecedent.append(_parse_term_tokens(ts))
    ts.expect("|-")
    consequent = _parse_term_tokens(ts)
    if ts.peek() is not None:
        raise ParseError(f"trailing input after inference: {ts.peek()!r}")
    return Inference(tuple(antecedent), consequent)
