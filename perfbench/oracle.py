"""Oracles for the benchmark, written apart from tensorlogic.

Nothing here imports tensorlogic.  Terms are plain Python values: an atom is
its name (a ``str``), the unit is ``UNIT``, and a tensor is a pair
``(left, right)``.  Proofs are triples ``(rule, args, premises)`` in the
s-expression vocabulary of the README.  Every walk is iterative, so the
oracles accept inputs deeper than the interpreter's recursion limit.

The checks follow the definitions in the README and the paper, not the
package's code:

* a proof checker for the ten rules, with theory licensing;
* resource theories: forward application of axioms (a derivation, so the
  result is provable) and weight certificates (a weight ``w`` on atoms with
  ``w . column <= 0`` for every axiom column and ``w . (consequent -
  antecedent) > 0`` proves an inference unprovable, since every rule keeps
  ``consequent - antecedent`` a non-negative sum of columns);
* entailment in the cyclic group Z_n with the discrete order (a sum rule),
  and a brute-force forcing evaluator for small ordered monoids;
* the number of coherence-diagram instances in a sweep, in closed form.
"""

from __future__ import annotations

import itertools
from collections import Counter

UNIT = "1"


class OracleError(ValueError):
    """An input or a proof does not satisfy the oracle."""


# --- terms -------------------------------------------------------------------


def leaves(term) -> list[str]:
    """Atom names of a term, left to right; units are skipped."""
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        if type(t) is tuple:
            stack.append(t[1])
            stack.append(t[0])
        elif t != UNIT:
            out.append(t)
    return out


def items_leaves(items) -> list[str]:
    return [name for t in items for name in leaves(t)]


def size(term) -> int:
    """Syntax-tree nodes of a term."""
    n, stack = 0, [term]
    while stack:
        t = stack.pop()
        n += 1
        if type(t) is tuple:
            stack.extend(t)
    return n


def left_comb(names):
    out = names[0]
    for nm in names[1:]:
        out = (out, nm)
    return out


def right_comb(names):
    out = names[-1]
    for nm in reversed(names[:-1]):
        out = (nm, out)
    return out


def balanced(names):
    level = list(names)
    while len(level) > 1:
        nxt = [(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


SHAPES = {"left": left_comb, "right": right_comb, "balanced": balanced}


def render_term(term) -> str:
    """Concrete syntax; ``*`` is left-associative, so only right operands
    that are tensors need brackets."""
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        if type(t) is tuple and len(t) == 1:  # literal text
            out.append(t[0])
        elif type(t) is tuple:
            left, right = t
            if type(right) is tuple:
                stack += [(")",), right, (" * (",)]
            else:
                stack += [right, (" * ",)]
            stack.append(left)
        else:
            out.append(t)
    return "".join(out)


def render_inference(antecedent, consequent) -> str:
    ant = ", ".join(render_term(t) for t in antecedent)
    return f"{ant} |- {render_term(consequent)}" if ant else f"|- {render_term(consequent)}"


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_-")
_NAME_CHARS = _NAME_START | set("0123456789")


def tokens(text: str) -> list[str]:
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("|-", i):
            out.append("|-")
            i += 2
        elif c in "()*,":
            out.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        elif c in _NAME_START:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            if j < n and text[j] == "(":  # attached suffix, as in Q(0.5)
                close = text.find(")", j)
                if close < 0:
                    raise OracleError(f"unbalanced name at offset {i}")
                j = close + 1
            out.append(text[i:j])
            i = j
        else:
            raise OracleError(f"unexpected character {c!r} at offset {i}")
    return out


def _is_name(tok: str) -> bool:
    return tok[0] in _NAME_START and tok not in ("-",)


def _term_at(toks: list[str], i: int):
    """Parse one term starting at ``toks[i]``; return ``(term, next_index)``.

    Stops before the first token that cannot continue the term."""
    frames = [None]
    want_operand = True
    while True:
        tok = toks[i] if i < len(toks) else None
        if want_operand:
            if tok == "(":
                frames.append(None)
                i += 1
                continue
            if tok == "1":
                operand = UNIT
            elif tok is not None and _is_name(tok):
                operand = tok
            else:
                raise OracleError(f"expected a term, got {tok!r}")
            i += 1
            frames[-1] = operand if frames[-1] is None else (frames[-1], operand)
            want_operand = False
        elif tok == "*":
            want_operand = True
            i += 1
        elif tok == ")" and len(frames) > 1:
            inner = frames.pop()
            frames[-1] = inner if frames[-1] is None else (frames[-1], inner)
            i += 1
        else:
            break
    if len(frames) != 1:
        raise OracleError("unbalanced brackets in term")
    return frames[0], i


def parse_term(text: str):
    toks = tokens(text)
    term, i = _term_at(toks, 0)
    if i != len(toks):
        raise OracleError(f"trailing input after term: {toks[i]!r}")
    return term


def parse_inference(text: str):
    toks = tokens(text)
    antecedent, i = [], 0
    if toks and toks[0] != "|-":
        while True:
            term, i = _term_at(toks, i)
            antecedent.append(term)
            if i < len(toks) and toks[i] == ",":
                i += 1
                continue
            break
    if i >= len(toks) or toks[i] != "|-":
        raise OracleError("expected '|-'")
    consequent, i = _term_at(toks, i + 1)
    if i != len(toks):
        raise OracleError(f"trailing input after inference: {toks[i]!r}")
    return tuple(antecedent), consequent


def from_lib_term(term):
    """A tensorlogic term as an oracle term, read through its public fields."""
    out, stack = [], [(term, False)]
    while stack:
        t, done = stack.pop()
        kind = type(t).__name__
        if kind == "Atom":
            out.append(t.name)
        elif kind == "Unit":
            out.append(UNIT)
        elif kind != "Tensor":
            raise OracleError(f"not a term: {t!r}")
        elif done:
            right = out.pop()
            out.append((out.pop(), right))
        else:
            stack += [(t, True), (t.right, False), (t.left, False)]
    return out[0]


def from_lib_inference(inference):
    return (
        tuple(from_lib_term(t) for t in inference.antecedent),
        from_lib_term(inference.consequent),
    )


def same_inference(a, b) -> bool:
    """Equality of two ``(antecedent, consequent)`` pairs, compared as text
    so that deep terms need no recursion."""
    return render_inference(*a) == render_inference(*b)


# --- proofs ------------------------------------------------------------------

# rule -> (argument kinds, number of premises); "i" is an integer, "t" a term,
# "a" an atom name, "i?" an optional integer
_RULES = {
    "id": (("a",), 0),
    "r1": ((), 0),
    "l1": (("i",), 1),
    "lx": (("i",), 1),
    "rx": ((), 2),
    "cut": (("i?",), 2),
    "ex": (("i", "i", "i"), 1),
    "ax-r": (("t",), 0),
    "ax-l": (("t",), 0),
    "conv": (("t", "t"), 0),
}


def parse_proof(text: str):
    toks = tokens(text)
    i = 0
    stack: list[list] = []  # [rule, args, premises, arity]
    result = None
    while True:
        if stack and len(stack[-1][2]) == stack[-1][3]:
            if i >= len(toks) or toks[i] != ")":
                raise OracleError("expected ')'")
            i += 1
            rule, args, premises, _ = stack.pop()
            node = (rule, tuple(args), tuple(premises))
            if not stack:
                result = node
                break
            stack[-1][2].append(node)
            continue
        if i + 1 >= len(toks) or toks[i] != "(" or toks[i + 1] not in _RULES:
            raise OracleError(f"expected a rule at token {i}")
        rule = toks[i + 1]
        kinds, arity = _RULES[rule]
        i += 2
        args: list = []
        for kind in kinds:
            if kind == "a":
                if i >= len(toks) or not _is_name(toks[i]):
                    raise OracleError("expected an atom name")
                args.append(toks[i])
                i += 1
            elif kind == "i":
                if i >= len(toks) or not toks[i].isdigit():
                    raise OracleError("expected a position")
                args.append(int(toks[i]))
                i += 1
            elif kind == "i?":
                has = i < len(toks) and toks[i].isdigit()
                args.append(int(toks[i]) if has else None)
                i += 1 if has else 0
            else:
                term, i = _term_at(toks, i)
                args.append(term)
        stack.append([rule, args, [], arity])
    if i != len(toks):
        raise OracleError("trailing input after proof")
    return result


def render_proof(node) -> str:
    """S-expression text of an oracle proof."""
    out, stack = [], [node]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
            continue
        rule, args, premises = x
        head = [rule]
        for a in args:
            if a is None:
                continue
            head.append(str(a) if type(a) is int else render_term(a))
        stack.append(")")
        for p in reversed(premises):
            stack.append(p)
            stack.append(" ")
        stack.append("(" + " ".join(head))
    return "".join(out)


_LIB_RULES = {
    "Id": ("id", ("atom",)),
    "RUnit": ("r1", ()),
    "LUnit": ("l1", ("position",)),
    "LTensor": ("lx", ("position",)),
    "RTensor": ("rx", ()),
    "Cut": ("cut", ("position",)),
    "Exchange": ("ex", ("i", "j", "k")),
    "RAxiom": ("ax-r", ("term",)),
    "LAxiom": ("ax-l", ("term",)),
    "ConvAxiom": ("conv", ("source", "target")),
}


def from_lib_proof(proof):
    """A tensorlogic proof tree as an oracle proof, read through its public
    fields."""
    out, stack = [], [(proof, False)]
    while stack:
        p, done = stack.pop()
        if not done:
            stack.append((p, True))
            stack.extend((q, False) for q in p.premises)
            continue
        kind, fields = _LIB_RULES[type(p.rule).__name__]
        args = []
        for f in fields:
            v = getattr(p.rule, f)
            if f == "atom":
                v = v.name
            elif f in ("term", "source", "target"):
                v = from_lib_term(v)
            args.append(v)
        # premises were pushed in order, so the last one finished first and
        # popping yields them in order
        premises = tuple(out.pop() for _ in p.premises)
        out.append((kind, tuple(args), premises))
    return out[0]


def proof_nodes(node) -> int:
    n, stack = 0, [node]
    while stack:
        x = stack.pop()
        n += 1
        stack.extend(x[2])
    return n


def count_rule(node, rule: str) -> int:
    n, stack = 0, [node]
    while stack:
        x = stack.pop()
        n += x[0] == rule
        stack.extend(x[2])
    return n


class Theory:
    """Axioms as rendered text, so that licensing compares terms exactly."""

    def __init__(self, atoms, available=(), disposable=(), conversions=()):
        self.atoms = frozenset(atoms)
        self.available = tuple(available)
        self.disposable = tuple(disposable)
        self.conversions = tuple(conversions)
        self._free = {render_term(t) for t in self.available}
        self._dispose = {render_term(t) for t in self.disposable}
        self._convert = {(render_term(a), render_term(b)) for a, b in self.conversions}

    def columns(self) -> list[Counter]:
        cols = [Counter(leaves(x)) for x in self.available]
        cols += [Counter({k: -v for k, v in Counter(leaves(y)).items()}) for y in self.disposable]
        for a, b in self.conversions:
            c = Counter(leaves(b))
            c.subtract(leaves(a))
            cols.append(c)
        return cols

    def text(self) -> str:
        lines = ["atoms " + " ".join(sorted(self.atoms)) + " ;"]
        lines += [f"free {render_term(x)} ;" for x in self.available]
        lines += [f"dispose {render_term(y)} ;" for y in self.disposable]
        lines += [f"convert {render_term(a)} -> {render_term(b)} ;" for a, b in self.conversions]
        return "\n".join(lines) + "\n"


def parse_theory(text: str) -> Theory:
    atoms, free, dispose, convert = [], [], [], []
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    for stmt in (s.strip() for s in body.split(";")):
        if not stmt:
            continue
        head, _, rest = stmt.partition(" ")
        if head == "atoms":
            atoms += rest.split()
        elif head == "free":
            free.append(parse_term(rest))
        elif head == "dispose":
            dispose.append(parse_term(rest))
        elif head == "convert":
            src, _, tgt = rest.partition("->")
            convert.append((parse_term(src), parse_term(tgt)))
        else:
            raise OracleError(f"unknown theory statement {head!r}")
    return Theory(atoms, free, dispose, convert)


def check_proof(node, mode: str, theory: Theory | None = None):
    """The conclusion ``(antecedent, consequent)`` of an oracle proof.

    ``mode`` is ``"t"`` (Exchange allowed, Cut on the last item of the right
    premise) or ``"tprime"`` (no Exchange, Cut at a stated position)."""
    done: list = []
    stack = [(node, False)]
    while stack:
        x, visited = stack.pop()
        rule, args, premises = x
        if not visited:
            if len(premises) != _RULES[rule][1]:
                raise OracleError(f"{rule} has {len(premises)} premises")
            stack.append((x, True))
            stack.extend((p, False) for p in reversed(premises))
            continue
        concs = [done.pop() for _ in premises][::-1]
        done.append(_conclude(rule, args, concs, mode, theory))
    return done[0]


def _conclude(rule, args, concs, mode, theory):
    if rule == "id":
        return (args[0],), args[0]
    if rule == "r1":
        return (), UNIT
    if rule in ("ax-r", "ax-l", "conv"):
        text = tuple(render_term(a) for a in args)
        if theory is None:
            raise OracleError(f"{rule} without a theory")
        if rule == "ax-r" and text[0] in theory._free:
            return (), args[0]
        if rule == "ax-l" and text[0] in theory._dispose:
            return (args[0],), UNIT
        if rule == "conv" and text in theory._convert:
            return (args[0],), args[1]
        raise OracleError(f"{rule} {' '.join(text)} is not an axiom")
    if rule == "rx":
        (g1, c1), (g2, c2) = concs
        return g1 + g2, (c1, c2)
    if rule == "cut":
        (g1, c1), (g2, c2) = concs
        (pos,) = args
        if mode == "t":
            if pos is not None or not g2:
                raise OracleError("mode-t cut takes no position and a nonempty right antecedent")
            pos = len(g2) - 1
        elif pos is None or not 0 <= pos < len(g2):
            raise OracleError("tprime cut position out of range")
        if render_term(g2[pos]) != render_term(c1):
            raise OracleError("cut term mismatch")
        return g2[:pos] + g1 + g2[pos + 1 :], c2
    ((g, c),) = concs
    if rule == "l1":
        (p,) = args
        if not 0 <= p <= len(g):
            raise OracleError("l1 position out of range")
        return g[:p] + (UNIT,) + g[p:], c
    if rule == "lx":
        (p,) = args
        if not 0 <= p <= len(g) - 2:
            raise OracleError("lx position out of range")
        return g[:p] + ((g[p], g[p + 1]),) + g[p + 2 :], c
    if rule == "ex":
        if mode != "t":
            raise OracleError("ex outside mode t")
        i, j, k = args
        if not 0 <= i < j < k <= len(g):
            raise OracleError("ex blocks out of range")
        return g[:i] + g[j:k] + g[i:j] + g[k:], c
    raise OracleError(f"unknown rule {rule!r}")


# --- resource theories -------------------------------------------------------


def apply_forward(theory: Theory, held: list[str], steps: list[tuple[str, int]]) -> list[str]:
    """Apply axioms to a held multiset (a list of atom names) in order.

    Each step is ``("free", i)``, ``("dispose", i)`` or ``("convert", i)``;
    a step whose source is not held is an error.  The result is derivable
    from ``held`` in the theory, so ``held |- result`` is provable."""
    held = list(held)
    for kind, i in steps:
        if kind == "free":
            held += leaves(theory.available[i])
            continue
        source = leaves(theory.disposable[i] if kind == "dispose" else theory.conversions[i][0])
        for name in source:
            if name not in held:
                raise OracleError(f"{kind} {i} needs {name}, which is not held")
            held.remove(name)
        if kind == "convert":
            held += leaves(theory.conversions[i][1])
    return held


def refutes(theory: Theory, weight: dict[str, int], antecedent, consequent) -> bool:
    """Whether ``weight`` certifies that the inference is unprovable."""
    if any(sum(weight.get(k, 0) * v for k, v in col.items()) > 0 for col in theory.columns()):
        return False
    rhs = Counter(leaves(consequent))
    rhs.subtract(items_leaves(antecedent))
    return sum(weight.get(k, 0) * v for k, v in rhs.items()) > 0


# --- monoid models -----------------------------------------------------------


def zn_entails(n: int, valuation: dict[str, int], antecedent, consequent) -> bool:
    """Entailment in Z_n with the discrete order: every element forcing a
    term is the sum of its atoms' values, so the inference holds iff the two
    sides' sums agree mod n."""
    left = sum(valuation[a] for a in items_leaves(antecedent))
    right = sum(valuation[a] for a in leaves(consequent))
    return (left - right) % n == 0


def zn_model_text(n: int, valuation: dict[str, int]) -> str:
    els = [f"z{i}" for i in range(n)]
    lines = ["elements " + " ".join(els) + " ;"]
    for a in range(n):
        for b in range(a, n):
            lines.append(f"op z{a} z{b} = z{(a + b) % n} ;")
    lines += [f"val {p} = z{v} ;" for p, v in sorted(valuation.items())]
    return "\n".join(lines) + "\n"


class OrderedModel:
    """A small ordered commutative monoid given by its tables."""

    def __init__(self, elements, mul, le, valuation):
        self.elements = tuple(elements)
        self.unit = self.elements[0]
        self.mul = mul  # dict (a, b) -> c
        self.le = le  # set of pairs
        self.valuation = valuation

    def text(self) -> str:
        lines = ["elements " + " ".join(self.elements) + " ;"]
        for a, b in itertools.combinations_with_replacement(self.elements, 2):
            lines.append(f"op {a} {b} = {self.mul[(a, b)]} ;")
        lines += [f"le {a} {b} ;" for a, b in sorted(self.le) if a != b]
        lines += [f"val {p} = {v} ;" for p, v in sorted(self.valuation.items())]
        return "\n".join(lines) + "\n"

    def is_valid(self) -> bool:
        els, mul, le = self.elements, self.mul, self.le
        return (
            all(mul[(self.unit, a)] == a for a in els)
            and all(mul[(a, b)] == mul[(b, a)] for a in els for b in els)
            and all(mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])] for a in els for b in els for c in els)
            and all((a, a) in le for a in els)
            and all((a, c) in le for a, b in le for b2, c in le if b == b2)
            and all((mul[(r, x)], mul[(s, y)]) in le for r, s in le for x, y in le)
        )

    def forces(self, m, term) -> bool:
        if type(term) is tuple:
            return any(
                self.mul[(a, b)] == m and self.forces(a, term[0]) and self.forces(b, term[1])
                for a in self.elements
                for b in self.elements
            )
        if term == UNIT:
            return m == self.unit
        v = self.valuation.get(term)
        return v is not None and (m, v) in self.le

    def entails(self, antecedent, consequent) -> bool:
        """Every product of elements forcing the antecedent items, in turn,
        forces the consequent."""
        for parts in itertools.product(self.elements, repeat=len(antecedent)):
            if all(self.forces(p, t) for p, t in zip(parts, antecedent)):
                m = self.unit
                for p in parts:
                    m = self.mul[(m, p)]
                if not self.forces(m, consequent):
                    return False
        return True


def truncated_sum_model(top: int, valuation) -> OrderedModel:
    """{0..top} under addition capped at ``top``, ordered as numbers."""
    els = [f"t{i}" for i in range(top + 1)]
    mul = {(els[a], els[b]): els[min(a + b, top)] for a in range(top + 1) for b in range(top + 1)}
    le = {(els[a], els[b]) for a in range(top + 1) for b in range(a, top + 1)}
    return OrderedModel(els, mul, le, {p: els[v] for p, v in valuation.items()})


def max_model(top: int, valuation) -> OrderedModel:
    """{0..top} under max, ordered as numbers."""
    els = [f"m{i}" for i in range(top + 1)]
    mul = {(els[a], els[b]): els[max(a, b)] for a in range(top + 1) for b in range(top + 1)}
    le = {(els[a], els[b]) for a in range(top + 1) for b in range(a, top + 1)}
    return OrderedModel(els, mul, le, {p: els[v] for p, v in valuation.items()})


# --- coherence ---------------------------------------------------------------


def coherence_instances(atoms: int, mode: str) -> int:
    """Diagram instances a sweep over ``atoms`` atoms and the unit checks:
    triangle (2 objects), pentagon (4), and in mode t also hexagon (3),
    symmetry-unit (1), symmetry-inverse (2) and three naturality squares."""
    k = atoms + 1
    if mode == "t":
        return k**2 + k**4 + k**3 + k + k**2 + 3
    return k**2 + k**4
