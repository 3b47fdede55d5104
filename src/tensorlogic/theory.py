"""Resource theories: axiom sets over the base calculus and their decision.

A theory declares an atom alphabet and three kinds of axioms: *available*
terms (provable from nothing), *disposable* terms (reducible to the unit),
and *conversions* ``A -> B``.  Conversions are stored after common-factor
reduction, so the two sides of a stored conversion share no atoms.

The text format, one statement per ``;``::

    # comment
    atoms C Q_A Q_B E ;
    free C ;
    dispose Q_A ;
    convert E -> Q_A * Q_B ;

``decide_in_theory`` runs in two stages: (i) a breadth-first search over
markings (the atom multisets held) for a shortest run of at most a cap of
axiom uses that turns the antecedent's atoms into the consequent's, each use
holding what it takes, and (ii) a checkable witness proof built from that
run in firing order: one axiom leaf and one cut per use, and one canonical
proof of the consequent from the atoms held at the end, the lifting theorem
read on proofs.  ``not-provable`` is reported exactly when
the balance equation has no solution over the non-negative rationals, which
is a sound refutation (the Petri-net state equation): every kernel rule
keeps the balance of an inference (consequent atoms minus antecedent atoms)
additive, since ``cut`` cancels the cut term and the other rules keep or add
their premises' balances, and each axiom leaf adds its column (``+X`` for an
available ``X``, ``-Y`` for a disposable ``Y``, ``B - A`` for a conversion
``A -> B``).  When a solution exists but no run turns up within the cap, the
verdict is ``unknown``.

That rational feasibility test, ``balance_feasible``, is exact: phase I of
the simplex method over Python integers, with fraction-free pivots and
Bland's rule against cycling.  Its answers rest on no floating-point
tolerance, and the package needs no numeric library.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from pathlib import Path

from .decision import _assemble, synthesize_proof
from .kernel import ConvAxiom, Cut, Exchange, LAxiom, Mode, Proof, RAxiom
from .terms import (
    UNIT,
    Atom,
    Inference,
    ParseError,
    Tensor,
    Term,
    _Frozen,
    _Record,
    _set,
    atom_list,
    atom_vector,
    parse_term,
    render_term,
    tensor_of,
)


class TheoryError(ValueError):
    pass


class UndeclaredAtom(TheoryError):
    pass


class SharedAtoms(TheoryError):
    pass


class ConversionPresent(TheoryError):
    pass


class EncodingError(TheoryError):
    pass


class Theory(_Frozen):
    __slots__ = ("atoms", "available", "disposable", "conversions")

    def __init__(
        self,
        atoms: frozenset[str],
        available: tuple[Term, ...] = (),
        disposable: tuple[Term, ...] = (),
        conversions: tuple[tuple[Term, Term], ...] = (),
    ):
        _set(self, "atoms", atoms)
        _set(self, "available", available)
        _set(self, "disposable", disposable)
        _set(self, "conversions", conversions)

    def is_available(self, term: Term) -> bool:
        return term in self.available

    def is_disposable(self, term: Term) -> bool:
        return term in self.disposable

    def is_conversion(self, source: Term, target: Term) -> bool:
        return (source, target) in self.conversions


def _check_declared(atoms: frozenset[str], term: Term, what: str) -> None:
    for name in atom_list(term):
        if name not in atoms:
            raise UndeclaredAtom(f"{what} uses undeclared atom {name!r}")


def _atoms(obj: Term | tuple[Term, ...]) -> list[Atom]:
    return [Atom(n) for n in atom_list(obj)]


def _take(items: list, drop: Counter) -> tuple[list, list[int]]:
    """Split off the ``drop[x]`` rightmost occurrences of each ``x``: the
    items kept, in order, and the positions taken, in descending order.
    The scan stops at the last occurrence it needs."""
    remaining = Counter(drop)
    need = sum(remaining.values())
    taken: list[int] = []
    for i in range(len(items) - 1, -1, -1):
        if not need:
            break
        if remaining[items[i]] > 0:
            remaining[items[i]] -= 1
            need -= 1
            taken.append(i)
    if need:
        raise ValueError(f"cannot remove {dict(+remaining)} from {items}")
    kept = list(items)
    for i in taken:  # descending, so each position is still in place
        del kept[i]
    return kept, taken


def _reduce_conversion(source: Term, target: Term) -> tuple[Term, Term]:
    """Cancel the shared atom multiset from both sides of a conversion."""
    common = Counter(_atoms(source)) & Counter(_atoms(target))
    if not common:
        return source, target
    return tensor_of(_take(_atoms(source), common)[0]), tensor_of(_take(_atoms(target), common)[0])


def make_theory(
    atoms,
    available=(),
    disposable=(),
    conversions=(),
) -> Theory:
    """Build a theory, validating atom declarations and reducing conversions."""
    atom_set = frozenset(atoms)
    for t in available:
        _check_declared(atom_set, t, "availability axiom")
    for t in disposable:
        _check_declared(atom_set, t, "disposability axiom")
    reduced = []
    for a, b in conversions:
        _check_declared(atom_set, a, "conversion source")
        _check_declared(atom_set, b, "conversion target")
        a2, b2 = _reduce_conversion(a, b)
        if atom_vector(a2) & atom_vector(b2):
            raise SharedAtoms(f"conversion sides still share atoms: {render_term(a2)} -> {render_term(b2)}")
        reduced.append((a2, b2))
    return Theory(atom_set, tuple(available), tuple(disposable), tuple(reduced))


# --- theory files ------------------------------------------------------------


def parse_theory(text: str) -> Theory:
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    body = "\n".join(lines)
    atoms: list[str] = []
    available: list[Term] = []
    disposable: list[Term] = []
    conversions: list[tuple[Term, Term]] = []
    for raw in body.split(";"):
        stmt = raw.strip()
        if not stmt:
            continue
        head, *rest = stmt.split(None, 1)
        rest = "".join(rest)
        if head == "atoms":
            names = rest.split()
            if not names:
                raise ParseError("atoms statement needs at least one name")
            atoms.extend(names)
        elif head == "free":
            available.append(parse_term(rest))
        elif head == "dispose":
            disposable.append(parse_term(rest))
        elif head == "convert":
            src, sep, tgt = rest.partition("->")
            if not sep:
                raise ParseError(f"convert statement needs '->': {stmt!r}")
            conversions.append((parse_term(src), parse_term(tgt)))
        else:
            raise ParseError(f"unknown theory statement {head!r}")
    return make_theory(atoms, available, disposable, conversions)


def load_theory(path: str | Path) -> Theory:
    return parse_theory(Path(path).read_text())


# --- lifting -----------------------------------------------------------------


def lift(theory: Theory, inference: Inference, counts: tuple[tuple[int, ...], tuple[int, ...]]) -> Inference:
    """Translate a theory inference into a plain inference.

    ``counts = (m, n)`` gives the usage multiplicities of the availability and
    disposability axioms: each available ``X`` is appended ``m_i`` times to
    the antecedent, each disposable ``Y`` tensored ``n_j`` times onto the
    consequent.  The theory inference holds with these counts iff the lifted
    plain inference holds in mode ``t``.
    """
    if theory.conversions:
        raise ConversionPresent("encode conversions before lifting")
    m, n = counts
    if len(m) != len(theory.available) or len(n) != len(theory.disposable):
        raise ValueError("counts do not match the theory's axiom lists")
    antecedent = inference.antecedent + tuple(
        x for x, mi in zip(theory.available, m) for _ in range(mi)
    )
    consequent = inference.consequent
    for y, nj in zip(theory.disposable, n):
        for _ in range(nj):
            consequent = Tensor(consequent, y)
    return Inference(antecedent, consequent)


# --- conversion encoding -----------------------------------------------------


def _negative_name(term: Term) -> str:
    if isinstance(term, Atom):
        return "-" + term.name
    return "-(" + render_term(term).replace(" ", "") + ")"


def encode_conversion(theory: Theory, style: str) -> Theory:
    """Replace conversions by availability/disposability axioms over fresh
    negative atoms.

    ``style`` is ``"negativeFrom"`` (negate each conversion's source) or
    ``"negativeTo"`` (negate its target).  Each conversion ``A -> B`` becomes
    the available term ``N (x) B`` and the disposable term ``A (x) N`` where
    ``N`` is the fresh negative atom.

    The encoding lets a conversion's target be used before its source is
    held, so it is an integer relaxation: the encoded theory proves an
    inference that mentions no negative atom exactly when the original
    theory's balance equation has a non-negative integer solution, which
    the original theory need not realise.  In ``atoms B C D E ; convert B *
    C -> D ; convert D -> B * E ;`` no conversion can ever fire from ``C``,
    yet ``C |- E`` is provable under either encoding.
    """
    if style not in ("negativeFrom", "negativeTo"):
        raise ValueError(f"style must be 'negativeFrom' or 'negativeTo', got {style!r}")
    atoms = set(theory.atoms)
    available = list(theory.available)
    disposable = list(theory.disposable)
    used: set[str] = set()
    for a, b in theory.conversions:
        if atom_vector(a) & atom_vector(b):  # stored theories are reduced
            raise SharedAtoms(f"conversion shares atoms: {render_term(a)} -> {render_term(b)}")
        name = _negative_name(a if style == "negativeFrom" else b)
        if name in theory.atoms or name in used:
            raise EncodingError(f"negative atom name {name!r} is not fresh")
        used.add(name)
        atoms.add(name)
        neg = Atom(name)
        available.append(Tensor(neg, b))
        disposable.append(Tensor(a, neg))
    return Theory(frozenset(atoms), tuple(available), tuple(disposable), ())


# --- balance equation --------------------------------------------------------


def _axioms(theory: Theory) -> list[tuple[Term | tuple[()], Term]]:
    """Each axiom as the ``(before, after)`` pair a use turns into the other,
    in balance-column order: ``((), X)`` for an available ``X``, ``(Y, 1)``
    for a disposable ``Y`` and ``(A, B)`` for a conversion ``A -> B``."""
    return [*(((), x) for x in theory.available), *((y, UNIT) for y in theory.disposable), *theory.conversions]


def _balance_system(theory: Theory, inference: Inference):
    """``(names, columns, rhs)`` of the balance equation ``A x = b``.

    Rows are the atoms the system mentions, ``names``, in sorted order.
    ``columns`` hold one integer vector per axiom (available, disposable,
    conversion) and ``rhs`` is the inference's: each is the balance of an
    inference, its consequent's atoms minus its antecedent's.
    """
    balances = []
    for before, after in (*_axioms(theory), (inference.antecedent, inference.consequent)):
        balance = atom_vector(after)
        balance.subtract(atom_vector(before))
        balances.append(balance)
    names = sorted({n for c in balances for n in c})
    *cols, rhs = [[c[n] for n in names] for c in balances]
    return names, cols, rhs


def _pivoted(row: list[int], pivot_row: list[int], e: int) -> list[int]:
    """``p*row - f*pivot_row`` with ``p = pivot_row[e] > 0``, divided by its gcd.

    The scale factor is positive, so every sign in ``row`` keeps its meaning."""
    p, f = pivot_row[e], row[e]
    out = [p * a - f * b for a, b in zip(row, pivot_row)]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def balance_feasible(theory: Theory, inference: Inference) -> bool:
    """Whether ``A x = b`` has a solution ``x >= 0``, decided exactly.

    ``A`` holds one column per axiom (its atom balance) and ``b`` is the
    inference's atom balance.  Phase I of the simplex method minimises the
    sum of one artificial variable per row, starting from the artificial
    basis after each row's sign is flipped so that ``b >= 0``; the system is
    feasible iff that minimum is 0.  Every row is kept as an integer vector
    (a positive multiple of the rational tableau row), pivots are
    fraction-free, and ratios are compared by cross-multiplication, so each
    sign test is exact: there is no tolerance to tune.  Bland's rule (the
    lowest-index column with a negative reduced cost enters; among the rows
    of minimum ratio, the one whose basic variable has the lowest index
    leaves) rules out cycling, so the loop terminates.  A rational solution
    exists iff a real one does, since the data are integers.
    """
    _, cols, rhs = _balance_system(theory, inference)
    n, m = len(cols), len(rhs)
    rows: list[list[int]] = []
    for i, b in enumerate(rhs):
        sign = -1 if b < 0 else 1
        row = [sign * c[i] for c in cols] + [0] * m + [sign * b]
        row[n + i] = 1
        rows.append(row)
    basis = list(range(n, n + m))
    # reduced costs of the objective "sum of artificials", then -(its value)
    z = [-sum(row[j] for row in rows) for j in range(n + m + 1)]
    z[n : n + m] = [0] * m
    while z[-1] != 0:
        e = next((j for j, d in enumerate(z[:-1]) if d < 0), None)
        if e is None:
            return False
        # the objective is bounded below by 0, so some row has row[e] > 0
        r = -1
        for i, row in enumerate(rows):
            if row[e] > 0:
                if r < 0:
                    r = i
                    continue
                cmp = row[-1] * rows[r][e] - rows[r][-1] * row[e]
                if cmp < 0 or (cmp == 0 and basis[i] < basis[r]):
                    r = i
        pivot_row = rows[r]
        rows = [row if i == r or row[e] == 0 else _pivoted(row, pivot_row, e) for i, row in enumerate(rows)]
        z = _pivoted(z, pivot_row, e)
        basis[r] = e
    return True


def _shortest_run(theory: Theory, inference: Inference, cap: int) -> tuple[int, ...] | None:
    """A shortest run of at most ``cap`` axiom uses that turns the
    antecedent's atoms into the consequent's, as balance-column indices in
    firing order; None if there is none.

    A breadth-first search over markings, the atom counts held (Murata,
    Proc. IEEE 1989, the reachability graph of the Petri net whose places
    are atoms and whose transitions are the axioms).  A use is enabled when
    the marking holds what it takes: nothing for an available term, the
    term for a disposable one, the source for a conversion; it then adds
    its column.  The sides of a stored conversion share no atoms, so a use
    is enabled exactly when adding its column leaves no count negative.  An
    atom that no column lowers can never fall and one that no column raises
    can never rise, so a marking past the goal on such an atom is dropped."""
    names, cols, rhs = _balance_system(theory, inference)
    ante = atom_vector(inference.antecedent)
    start = tuple(ante[n] for n in names)
    goal = tuple(s + r for s, r in zip(start, rhs))
    if start == goal:
        return ()
    never_up = [i for i in range(len(names)) if all(c[i] <= 0 for c in cols)]
    never_down = [i for i in range(len(names)) if all(c[i] >= 0 for c in cols)]
    seen = {start}
    layer = [(start, ())]
    for _ in range(cap):
        nxt = []
        for marking, run in layer:
            for j, col in enumerate(cols):
                after = tuple([m + c for m, c in zip(marking, col)])
                if after == goal:
                    return run + (j,)
                if after in seen or min(after) < 0:
                    continue
                seen.add(after)
                if any(after[i] < goal[i] for i in never_up) or any(after[i] > goal[i] for i in never_down):
                    continue
                nxt.append((after, run + (j,)))
        if not nxt:
            return None
        layer = nxt
    return None


# --- witness synthesis -------------------------------------------------------


def build_witness(theory: Theory, inference: Inference, run: tuple[int, ...]) -> Proof:
    """A mode-``t`` proof of ``inference`` from a run of axiom uses, given as
    balance-column indices in firing order (see :func:`_shortest_run`).

    The antecedent's atoms are held as a list.  A use of ``(before, after)``
    takes the rightmost occurrences of ``before``'s atoms and appends
    ``after``'s, and its part of the proof has the axiom's size only: the
    use's leaf cut against ``after`` rebuilt from its atoms, behind one
    canonical proof of ``before`` from the taken atoms when ``before`` is
    neither ``()`` nor an atom.  The cut leaves the taken atoms last in
    descending position, so one ``Exchange(i, n - 1, n)`` per taken atom,
    innermost at the lowest ``i``, puts each back.  A use's part sits below
    the later uses', so the parts are stacked in reverse firing order onto
    the canonical proof of the consequent from the atoms held at the end,
    and the antecedent's items are rebuilt once at the root.
    """
    axioms = _axioms(theory)
    n_av, n_ax = len(theory.available), len(theory.available) + len(theory.disposable)
    held = _atoms(inference.antecedent)
    uses = []
    for j in run:
        before, after = axioms[j]
        rest, taken = _take(held, Counter(_atoms(before)))
        uses.append((j, held, taken))
        held = rest + _atoms(after)
    proof = synthesize_proof(Inference(tuple(held), inference.consequent), Mode.T)
    for j, held, taken in reversed(uses):
        before, after = axioms[j]
        leaf = RAxiom(after) if j < n_av else LAxiom(before) if j < n_ax else ConvAxiom(before, after)
        n = len(held)
        proof = Proof(Cut(None), (Proof(leaf), _assemble(proof, (after,), n - len(taken))))
        if before != () and type(before) is not Atom:
            taken_proof = synthesize_proof(Inference(tuple(held[i] for i in taken), before), Mode.T)
            proof = Proof(Cut(None), (taken_proof, proof))
        for i in reversed(taken):
            if i < n - 1:
                proof = Proof(Exchange(i, n - 1, n), (proof,))
    return _assemble(proof, inference.antecedent, 0)


# --- the decision procedure --------------------------------------------------


class TheoryVerdict(_Record):
    __slots__ = ("status", "cap", "counts", "witness")

    def __init__(self, status: str, cap: int, counts: dict | None = None, witness: Proof | None = None):
        self.status = status  # "provable" | "not-provable" | "unknown"
        self.cap = cap
        self.counts = counts
        self.witness = witness


def decide_in_theory(theory: Theory, inference: Inference, cap: int = 16, mode: Mode = Mode.T) -> TheoryVerdict:
    """Decide ``inference`` in ``theory`` in ``mode``, trying at most ``cap``
    axiom uses.

    ``not-provable`` is sound in both modes: a proof's conclusion has the
    balance of the sum of its axiom leaves' columns, so when
    :func:`balance_feasible` finds no non-negative solution, conversion
    columns included, no proof exists.  In mode ``t``, ``unknown`` means no
    run of at most ``cap`` axiom uses reaches the consequent's atoms;
    otherwise a shortest run gives the counts and, in its firing order, the
    witness (:func:`build_witness`), to which each use adds only its own
    axiom's nodes.  The witnesses are mode-``t`` proofs, so in mode
    ``tprime`` every balanced inference is ``unknown``.
    """
    for t in inference.antecedent:
        _check_declared(theory.atoms, t, "inference")
    _check_declared(theory.atoms, inference.consequent, "inference")

    if not balance_feasible(theory, inference):
        return TheoryVerdict("not-provable", cap)
    if mode is not Mode.T:
        return TheoryVerdict("unknown", cap)

    run = _shortest_run(theory, inference, cap)
    if run is None:
        return TheoryVerdict("unknown", cap)
    n_av, n_ax = len(theory.available), len(theory.available) + len(theory.disposable)
    uses = Counter(run)
    counts = tuple(uses[j] for j in range(n_ax + len(theory.conversions)))
    m, n, k = counts[:n_av], counts[n_av:n_ax], counts[n_ax:]
    witness = build_witness(theory, inference, run)
    return TheoryVerdict("provable", cap, {"available": m, "disposable": n, "conversions": k}, witness)
