"""Terms, sequents, and inferences of the tensor-only fragment.

A term is an atom, the multiplicative unit ``1``, or a tensor product of two
terms.  An inference pairs a sequence of antecedent terms with a single
consequent term.  The concrete syntax is::

    term      :=  atom  |  "1"  |  term "*" term  |  "(" term ")"
    inference :=  [ term ("," term)* ] "|-" term

``*`` is left-associative.  The Unicode aliases ``⊗`` (tensor), ``⊢``
(turnstile), and ``𝟙`` (unit) are accepted on input.  Atom names start with a
letter, underscore, or ``-`` and may carry a single parenthesised suffix, so
``Q(0.5)`` and ``-Q(0.5)`` are single atoms.  One compiled pattern splits
text into tokens and keeps this syntax as it is; a suffix holds no
parentheses (``Q((a))`` is an unbalanced suffix), and a digit run holds
decimal digits only (``²`` is an unexpected character).

Terms are hash-consed (Filliâtre and Conchon, ML Workshop 2006): a
constructor returns the one live term with its fields, so ``==`` and ``hash``
are identity, O(1) at any depth, and ``size`` (tree nodes) and
``occurrences`` (atom occurrences) are fields set when a term is first built.
The intern tables are plain dicts, filled with ``setdefault`` so that racing
threads still end with one term, and terms live as long as the process: a
CLI run is one short process, and a library caller keeps every distinct term
it builds.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Union


class ParseError(ValueError):
    """Raised when term, inference, proof, or file syntax is malformed."""


_set = object.__setattr__  # how immutable objects fill in their fields


class _Term:
    """Immutable; pickled and copied through its constructor, to the live term."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Atom(_Term):
    __slots__ = ("name",)
    size = occurrences = 1

    def __new__(cls, name: str) -> Atom:
        atom = _ATOMS.get(name)
        if atom is None:
            atom = object.__new__(cls)
            _set(atom, "name", name)
            atom = _ATOMS.setdefault(name, atom)
        return atom

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"

    def __reduce__(self):
        return Atom, (self.name,)


class Unit(_Term):
    __slots__ = ()
    size = 1
    occurrences = 0

    def __new__(cls) -> Unit:
        return UNIT

    def __repr__(self) -> str:
        return "Unit()"

    def __reduce__(self):
        return Unit, ()


class Tensor(_Term):
    __slots__ = ("left", "right", "size", "occurrences")

    def __new__(cls, left: Term, right: Term) -> Tensor:
        t = _TENSORS.get((left, right))
        if t is None:
            t = object.__new__(cls)
            _set(t, "left", left)
            _set(t, "right", right)
            _set(t, "size", left.size + right.size + 1)
            _set(t, "occurrences", left.occurrences + right.occurrences)
            t = _TENSORS.setdefault((left, right), t)
        return t

    def __repr__(self) -> str:
        """``Tensor(left=..., right=...)``, built from an explicit stack."""
        out: list[str] = []
        stack: list[Term | str] = [self]
        while stack:
            t = stack.pop()
            if type(t) is Tensor:
                out.append("Tensor(left=")
                stack += (")", t.right, ", right=", t.left)
            else:
                out.append(t if type(t) is str else repr(t))
        return "".join(out)

    def __reduce__(self):
        return Tensor, (self.left, self.right)


Term = Union[Atom, Unit, Tensor]

UNIT: Unit = object.__new__(Unit)
_ATOMS: dict[str, Atom] = {}  # name -> the live atom
_TENSORS: dict[tuple[Term, Term], Tensor] = {}  # (left, right) -> the live tensor


class _Record:
    """A record whose fields are its class's ``__slots__``: it shows,
    compares and pickles field by field, as a dataclass would, and is
    mutable and unhashable.  Each record class writes its own ``__init__``."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _fields  # what ``==`` and ``hash`` compare

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __reduce__(self):
        return type(self), self._fields()


class _Frozen(_Record):
    """An immutable, hashable record."""

    __slots__ = ()
    __setattr__ = __delattr__ = _Term.__setattr__

    def __hash__(self) -> int:
        return hash(self._key())


class Inference(_Frozen):
    """A sequent ``A1, ..., Ak |- B``; the antecedent may be empty."""

    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: tuple[Term, ...], consequent: Term):
        _set(self, "antecedent", antecedent)
        _set(self, "consequent", consequent)

    def _key(self) -> tuple:  # spelt out: conclusions are compared often
        return self.antecedent, self.consequent

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
    stack = [obj] if isinstance(obj, _Term) else list(obj)[::-1]
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


# --- rendering ---------------------------------------------------------------


def render_term(t: Term) -> str:
    """``*`` unbracketed on the left and bracketed on the right, so the text
    parses back to ``t``; built from an explicit stack, so any depth renders."""
    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        t = stack.pop()
        while type(t) is Tensor:  # walk the left spine, leaving right factors
            stack += (")", t.right, " * (") if type(t.right) is Tensor else (t.right, " * ")
            t = t.left
        out.append(t if type(t) is str else t.name if type(t) is Atom else "1")
    return "".join(out)


def render_inference(inf: Inference) -> str:
    ant = ", ".join(render_term(t) for t in inf.antecedent)
    return f"{ant} |- {render_term(inf.consequent)}" if ant else f"|- {render_term(inf.consequent)}"


# --- lexing ------------------------------------------------------------------

_ALIASES = {"⊗": "*", "⊢": "|-", "𝟙": "1"}

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_-")
_NAME_CHARS = _NAME_START | set("0123456789")

# One token after optional space: ``|-``, a bracket, ``*``, ``,``, a digit run,
# or a name, whose characters run to the end and whose attached ``(`` must
# close its suffix; a lone ``-`` is no name.  Failing those, the text from the
# first character no token takes, to the end, is one last "token".
_TOKEN = re.compile(
    r"\s*(\|-|[()*,]|\d+"
    r"|(?:[A-Za-z_]|-(?=[A-Za-z0-9_(-]))[A-Za-z0-9_-]*(?:\([^()]*\)|(?![A-Za-z0-9_(-]))"
    r"|\S.*)",
    re.S,
)


def _lex(text: str) -> list[str]:
    """Split into tokens: ``( ) * , |-`` plus atom names, ``1`` and digit runs.

    One compiled pattern finds every token.  A ``(`` directly attached to name
    characters (no space), as in ``Q(0.5)``, is part of the atom name; the
    parenthesised suffix may contain anything except parentheses.
    """
    for src, dst in _ALIASES.items():
        text = text.replace(src, dst)
    # a NUL put after the text is no token, so the last "token" is the NUL
    # alone, or the text from the first character no token takes
    tokens = _TOKEN.findall(text + "\0")
    rest = tokens.pop()
    if rest != "\0":
        i = len(text) + 1 - len(rest)
        if text[i] not in _NAME_START:
            raise ParseError(f"unexpected character {text[i]!r} at offset {i}")
        j = i + 1
        while j < len(text) and text[j] in _NAME_CHARS:
            j += 1
        if j < len(text) and text[j] == "(":
            raise ParseError(f"unbalanced parentheses in name at offset {i}")
        raise ParseError("'-' is not a name by itself")
    return tokens


# --- parsing -----------------------------------------------------------------


class _TokenStream:
    """Tokens kept reversed, so that the next one is ``tokens.pop()``; the
    parsers pop from ``tokens`` directly, and call ``next`` at the end."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens[::-1]

    def peek(self) -> str | None:
        return self.tokens[-1] if self.tokens else None

    def next(self) -> str:
        if not self.tokens:
            raise ParseError("unexpected end of input")
        return self.tokens.pop()

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")


_STRUCTURAL = {"(", ")", "*", ",", "|-", "1"}


def _parse_term_tokens(ts: _TokenStream) -> Term:
    """A left-associated term read from ``ts``.  An open bracket pushes the
    partial term before it on an explicit stack, so any nesting parses."""
    tokens = ts.tokens
    outer: list[Term | None] = []
    acc: Term | None = None  # the partial term inside the innermost open bracket
    while True:
        tok = tokens.pop() if tokens else ts.next()  # ``next`` raises at the end
        if tok == "(":
            outer.append(acc)
            acc = None
            continue
        if tok == "1":
            t = UNIT
        elif tok in _STRUCTURAL or tok[0].isdigit():
            raise ParseError(f"expected a term, got {tok!r}")
        else:
            t = Atom(tok)
        while True:  # attach the factor, then close every bracket that ends here
            acc = t if acc is None else Tensor(acc, t)
            if tokens and tokens[-1] == "*":
                tokens.pop()
                break
            if not outer:
                return acc
            ts.expect(")")
            t, acc = acc, outer.pop()


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
