"""Decision procedures: normal-form criterion, canonical proofs, bounded search.

``decide`` applies the normal-form criterion: an inference is provable in mode
``t`` iff antecedent and consequent carry the same atom multiset, and in mode
``tprime`` iff they carry the same left-to-right atom list (units ignored in
both).  ``synthesize_proof`` constructs the canonical cut-free witness for the
positive case; every canonical proof in the package comes from it, identities
(``identity_proof``) included.  ``bounded_search`` is an independent exhaustive backward
search used to cross-validate the criterion.  Without a theory it prunes by a
name-free invariant only: every checked proof has as many atom occurrences in
its antecedent as in its consequent.
"""

from __future__ import annotations

import enum
import sys
from collections import Counter
from itertools import accumulate

from .kernel import (
    ConvAxiom,
    Cut,
    Exchange,
    Id,
    LAxiom,
    LTensor,
    LUnit,
    Mode,
    Proof,
    RAxiom,
    RTensor,
    RUnit,
)
from .terms import UNIT, Atom, Inference, Tensor, Term, _Record, atom_list


class Decision(enum.Enum):
    PROVABLE = "provable"
    NOT_PROVABLE = "not-provable"


class NotProvableError(ValueError):
    """Raised when a witness is requested for an unprovable inference."""


def _provable(src: list[str], tgt: list[str], mode: Mode) -> bool:
    """The normal-form criterion on the two sides' atom lists."""
    return src == tgt or (mode is Mode.T and Counter(src) == Counter(tgt))


def decide(inference: Inference, mode: Mode) -> Decision:
    ok = _provable(atom_list(inference.consequent), atom_list(inference.antecedent), mode)
    return Decision.PROVABLE if ok else Decision.NOT_PROVABLE


def is_provable(inference: Inference, mode: Mode) -> bool:
    return decide(inference, mode) is Decision.PROVABLE


# --- canonical synthesis -----------------------------------------------------


def _build_consequent(term: Term) -> Proof:
    """A proof of ``atoms(term) |- term`` following the consequent's shape,
    built in post-order from an explicit stack: a ``None`` on it marks a
    tensor whose two factors are built."""
    built: list[Proof] = []
    stack: list[Term | None] = [term]
    while stack:
        t = stack.pop()
        if type(t) is Tensor:
            stack += (None, t.right, t.left)
        elif t is None:
            right = built.pop()
            built[-1] = Proof(RTensor(), (built[-1], right))
        else:
            built.append(Proof(Id(t)) if type(t) is Atom else Proof(RUnit()))
    return built[0]


def _assemble(proof: Proof, items: tuple[Term, ...], start: int) -> Proof:
    """Rebuild ``items``, which stand from position ``start`` of the
    antecedent, from their atoms by left rules, each item's unit and tensor
    nodes in post-order from an explicit stack.  A node's rule acts at its
    item's position plus the right turns on its path; a tensor's ``LTensor``
    waits on the stack below its two factors."""
    stack: list = [(item, pos) for pos, item in enumerate(items, start)][::-1]
    while stack:
        t, pos = stack.pop()
        if type(t) is Tensor:
            stack += ((LTensor(pos), pos), (t.right, pos + 1), (t.left, pos))
        elif type(t) is LTensor:
            proof = Proof(t, (proof,))
        elif t is UNIT:
            proof = Proof(LUnit(pos), (proof,))
    return proof


def _occurrence_labels(names: list[str]) -> list[tuple[str, int]]:
    seen: Counter = Counter()
    out = []
    for nm in names:
        out.append((nm, seen[nm]))
        seen[nm] += 1
    return out


def synthesize_proof(inference: Inference, mode: Mode) -> Proof:
    """The canonical cut-free proof of a provable inference.

    Identity leaves cover the consequent's atoms, the consequent is assembled
    by right-tensor steps following its tree shape, Exchange nodes (mode ``t``
    only) realise the occurrence matching, and each antecedent item is then
    rebuilt by left rules.  The i-th occurrence of an atom name on the left
    matches the i-th occurrence on the right.

    Raises :class:`NotProvableError` if the inference fails the criterion.
    """
    src = atom_list(inference.consequent)
    tgt = atom_list(inference.antecedent)
    if not _provable(src, tgt, mode):
        raise NotProvableError(str(inference))
    proof = _build_consequent(inference.consequent)
    if src != tgt:  # mode t: realise the occurrence matching
        cur = _occurrence_labels(src)
        want = _occurrence_labels(tgt)
        for i in range(len(want)):
            j = cur.index(want[i], i)
            while j > i:
                cur[j - 1], cur[j] = cur[j], cur[j - 1]
                proof = Proof(Exchange(j - 1, j, j + 1), (proof,))
                j -= 1
    return _assemble(proof, inference.antecedent, 0)


def identity_proof(term: Term, mode: Mode) -> Proof:
    """The canonical proof of ``term |- term``, of ``2 * term.size -
    term.occurrences`` nodes: an identity leaf per atom, a right rule per
    tensor and unit, and a left rule per tensor and unit."""
    return synthesize_proof(Inference((term,), term), mode)


# --- bounded backward search -------------------------------------------------


class SearchResult(_Record):
    __slots__ = ("found", "proof")

    def __init__(self, found: bool, proof: Proof | None = None):
        self.found = found
        self.proof = proof


def _subterms(term: Term, acc: set[Term]) -> None:
    """Add ``term`` and its subterms to ``acc``, which holds the subterms of
    each term it holds.  Like ``atom_list`` it walks the left spine, leaving
    right subterms on an explicit stack, and it stops at terms held."""
    stack = [term]
    while stack:
        t = stack.pop()
        while t not in acc:
            acc.add(t)
            if type(t) is not Tensor:
                break
            stack.append(t.right)
            t = t.left


_Goal = tuple[tuple[Term, ...], Term]
# a tensor split: (left_pos, right_pos, moves); see Prover._splits
_Split = tuple[list[int], list[int], int]
# a cut span: (gamma_pos, delta_pos, lo, moves); see Prover._cut_spans
_Span = tuple[list[int], list[int], int | None, int]


class Prover:
    """Exhaustive backward proof search with memoised subgoals.

    The search stays independent of the normal-form criterion: it never
    compares atom names.  It uses an exact structural lower bound on cut-free
    proof sizes and, without a theory, the name-free invariant "atom
    occurrences in the antecedent = atom occurrences in the consequent".
    Every rule keeps that invariant: ``Id`` is 1 = 1 and ``RUnit`` 0 = 0, the
    left rules and Exchange leave the counts alone, ``RTensor`` adds its
    premises' counts, and ``Cut`` gives |Delta| - |B| + |Gamma| = |C| when
    |Gamma| = |B|.  So a goal that breaks it fails at once (a cut premise
    ``gamma |- b`` among them), and a tensor split is generated only when
    its counts match.  Axiom leaves break the invariant, so a theory
    switches this prune off.  The prune only drops goals that have no proof
    and keeps the surviving splits in their order, so the search finds the
    same proof as without it.  With a theory, Cut is searched with cut terms
    drawn from goal subterms and axiom terms; without one, cut-free search
    is complete.

    The proof is minimal only among proofs whose Exchange steps sit directly
    above an ``RTensor`` or a ``Cut``, one item moved per step; one Exchange
    can move a whole block.  In mode ``t`` the search proves ``C, C * C * A,
    B, A * (A * A), C |- C * (C * B) * (A * A) * (C * C) * (A * A)`` in 26
    nodes, but one block move in place of three single moves gives 24.

    Every call is bounded where it is made: a premise whose cap would be
    below one node is skipped before its goal is built.  Such a call could
    only return ``None`` at once, without reading or writing the memo, so
    skipping it changes neither the memo nor the search order.

    Cut search deepens its cap one node at a time, so every goal is visited
    again at each cap.  What does not change between visits is kept on the
    instance and lives as long as the ``Prover``:

    - ``memo``: goal -> ``("proved", size, proof)`` or ``("failed", cap)``;
    - ``_axiom_terms``: ``1`` and the subterms of the theory's axioms, the
      cut terms that every goal shares, built once;
    - ``_candidates``: goal -> its sorted cut terms;
    - ``_sort_keys``: term -> its ``(size, text)`` cut-term order key;
    - ``_split_table``: ``(counts, total)`` -> its mode-``t`` tensor splits
      with their Exchange counts, keyed by the antecedent length alone with
      a theory (no total), one entry per key the search meets, like
      ``_spans``; an entry holds the position lists of all its splits, so
      on long antecedents whose counts never repeat it holds about as much
      as the memo; mode-``tprime`` splits are contiguous and built on use;
    - ``_spans``: antecedent length -> its cut spans.
    """

    def __init__(self, mode: Mode, theory=None):
        self.mode = mode
        self.theory = theory
        self.memo: dict[_Goal, tuple] = {}
        self._axiom_terms: set[Term] = {UNIT}
        if theory is not None:
            for x in (*theory.available, *theory.disposable, *(t for conv in theory.conversions for t in conv)):
                _subterms(x, self._axiom_terms)
        self._candidates: dict[_Goal, list[Term]] = {}
        self._sort_keys: dict[Term, tuple[int, str]] = {}
        self._split_table: dict[int | tuple[tuple[int, ...], int], list[_Split]] = {}
        self._spans: dict[int, list[_Span]] = {}

    def prove(self, inference: Inference, max_nodes: int) -> SearchResult:
        # cut search nests at most one level per budgeted node; the limit is a C int
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, min(4 * max_nodes + 200, 2**31 - 1)))
        goal = (inference.antecedent, inference.consequent)
        # cuts may grow the goal, so with a theory deepen the cap gradually to
        # keep the explored tree close to the size of the smallest proof
        caps = range(1, max_nodes + 1) if self.theory is not None else (max_nodes,)
        found = None
        try:
            for cap in caps:
                found = self._search(goal, cap)
                if found is not None:
                    break
        finally:
            sys.setrecursionlimit(limit)
        return SearchResult(True, found[0]) if found is not None else SearchResult(False)

    def _cut_terms(self, goal: _Goal) -> list[Term]:
        """``1`` and the subterms of the goal and of the theory's axioms, by
        size and then by text."""
        terms = self._candidates.get(goal)
        if terms is None:
            acc = set(self._axiom_terms)
            for item in goal[0]:
                _subterms(item, acc)
            _subterms(goal[1], acc)
            terms = self._candidates[goal] = sorted(acc, key=self._sort_key)
        return terms

    def _sort_key(self, t: Term) -> tuple[int, str]:
        key = self._sort_keys.get(t)
        if key is None:
            key = self._sort_keys[t] = (t.size, str(t))
        return key

    @staticmethod
    def _block_move_chain(perm: list[int]) -> list[Exchange]:
        """Exchange rules whose nesting turns premise order ``perm`` into 0..n-1.

        ``perm`` lists original antecedent positions in premise order.  Rules
        are returned outermost first; each one rotates the next wanted item to
        the front of the still-unsorted block.
        """
        n = len(perm)
        work = list(range(n))
        chain: list[Exchange] = []
        for i, want in enumerate(perm):
            p = work.index(want)
            if p != i:
                chain.append(Exchange(i, i + 1, p + 1))
                work[i : p + 1] = [work[p]] + work[i:p]
        return chain

    @staticmethod
    def _chain_length(first: list[int], second: list[int]) -> int:
        """``len(_block_move_chain(first + second))`` for two increasing,
        disjoint position lists: one rotation per item of ``first`` after
        ``second[0]``."""
        return sum(p > second[0] for p in first) if second else 0

    @staticmethod
    def _selections(counts: list[int], total: int | None = None) -> list[tuple[list[int], list[int]]]:
        """Order-preserving subsets of positions as ``(inside, outside)``
        lists, in increasing bitmask order (bit ``p`` set: ``p`` is inside).

        With ``total``, only the subsets whose ``counts`` sum to ``total``.
        Bits are fixed from the highest down, outside before inside, which
        is the bitmask order; a running sum cuts every branch that can no
        longer reach ``total``, so the other subsets are never built.
        """
        below = [0, *accumulate(counts)]  # below[p]: the most positions under p add
        inside: list[int] = []
        outside: list[int] = []
        out: list[tuple[list[int], list[int]]] = []

        def walk(p: int, need: int) -> None:
            if p == 0:
                out.append((inside[::-1], outside[::-1]))
                return
            p -= 1
            for chosen, rest in ((outside, need), (inside, need - counts[p])):
                if total is None or 0 <= rest <= below[p]:
                    chosen.append(p)
                    walk(p, rest)
                    chosen.pop()

        if total is None or 0 <= total <= below[-1]:
            walk(len(counts), total or 0)
        return out

    def _search(self, goal: _Goal, cap: int) -> tuple[Proof, int] | None:
        """A proof of ``goal`` within ``cap`` nodes and its size, or ``None``;
        minimal among proofs whose only Exchange steps are the chains below.

        In mode ``t``, premises of right-tensor and cut steps take arbitrary
        sub-antecedents (not just contiguous splits); the proof is completed by
        an Exchange chain restoring the conclusion's ordering, which keeps the
        recursion cycle-free without ever permuting the goal itself.
        """
        if cap < 1:
            return None
        cached = self.memo.get(goal)
        if cached is not None:
            if cached[0] == "proved":
                return (cached[2], cached[1]) if cached[1] <= cap else None
            if cached[1] >= cap:
                return None
        ant, cons = goal
        counts = [item.occurrences for item in ant]
        # cut-free, a rule per tensor or unit on either side and an Id per atom pair
        if self.theory is None and (
            sum(counts) != cons.occurrences or cons.size + sum(item.size for item in ant) - sum(counts) > cap
        ):
            self.memo[goal] = ("failed", max(cap, cached[1] if cached else 0))
            return None

        n = len(ant)
        # every candidate is built within budget(), so a first one always fits
        best: Proof | None = None
        best_size = cap + 1

        def consider(p: Proof, size: int) -> None:
            nonlocal best, best_size
            if size < best_size:
                best, best_size = p, size

        def budget() -> int:
            return best_size - 1

        def wrap(sub: Proof, chain: list[Exchange]) -> Proof:
            for rule in reversed(chain):
                sub = Proof(rule, (sub,))
            return sub

        if isinstance(cons, Atom) and ant == (cons,):
            consider(Proof(Id(cons)), 1)
        if cons == UNIT and n == 0:
            consider(Proof(RUnit()), 1)
        if self.theory is not None:
            if n == 0 and self.theory.is_available(cons):
                consider(Proof(RAxiom(cons)), 1)
            if cons == UNIT and n == 1 and self.theory.is_disposable(ant[0]):
                consider(Proof(LAxiom(ant[0])), 1)
            if n == 1 and self.theory.is_conversion(ant[0], cons):
                consider(Proof(ConvAxiom(ant[0], cons)), 1)

        for pos in range(n):
            if ant[pos] == UNIT and budget() > 1:
                found = self._search((ant[:pos] + ant[pos + 1 :], cons), budget() - 1)
                if found is not None:
                    consider(Proof(LUnit(pos), (found[0],)), found[1] + 1)
        for pos in range(n):
            item = ant[pos]
            if isinstance(item, Tensor) and budget() > 1:
                pre = ant[:pos] + (item.left, item.right) + ant[pos + 1 :]
                found = self._search((pre, cons), budget() - 1)
                if found is not None:
                    consider(Proof(LTensor(pos), (found[0],)), found[1] + 1)
        if isinstance(cons, Tensor):
            total = None if self.theory is not None else cons.left.occurrences
            for left_pos, right_pos, moves in self._splits(counts, total):
                if budget() < 3 + moves:  # m1 fits its cap, so m2's is at least 1 too
                    continue
                m1 = self._search((tuple(ant[p] for p in left_pos), cons.left), budget() - 2 - moves)
                if m1 is None:
                    continue
                m2 = self._search((tuple(ant[p] for p in right_pos), cons.right), budget() - 1 - moves - m1[1])
                if m2 is not None:
                    proof = Proof(RTensor(), (m1[0], m2[0]))
                    if moves:  # the chain is empty exactly when moves is 0
                        proof = wrap(proof, self._block_move_chain(left_pos + right_pos))
                    consider(proof, 1 + m1[1] + m2[1] + moves)
        if self.theory is not None:
            self._search_cuts(goal, counts, budget, consider, wrap)

        if best is not None:
            self.memo[goal] = ("proved", best_size, best)
            return best, best_size
        self.memo[goal] = ("failed", max(cap, cached[1] if cached else 0))
        return None

    def _splits(self, counts: list[int], total: int | None) -> list[_Split]:
        """Premise splits ``(left_pos, right_pos, moves)`` of an antecedent
        whose items carry ``counts`` atom occurrences, where ``moves`` is the
        length of the Exchange chain that restores the order: contiguous in
        ``tprime`` (no moves), any order-preserving subset in ``t`` in
        increasing bitmask order.  With ``total``, only the splits whose left
        part carries ``total`` occurrences.  Mode-``t`` lists are shared, so
        callers must not change them."""
        if self.mode is Mode.T:
            key = len(counts) if total is None else (tuple(counts), total)
            splits = self._split_table.get(key)
            if splits is None:
                splits = self._split_table[key] = [
                    (inside, outside, self._chain_length(inside, outside))
                    for inside, outside in self._selections(counts, total)
                ]
            return splits
        n = len(counts)
        prefix = [0, *accumulate(counts)]
        return [
            (list(range(split)), list(range(split, n)), 0)
            for split in range(n + 1)
            if total is None or prefix[split] == total
        ]

    def _search_cuts(self, goal: _Goal, counts: list[int], budget, consider, wrap) -> None:
        ant, cons = goal
        candidates = self._cut_terms(goal)
        for gamma_pos, delta_pos, lo, moves in self._cut_spans(counts):
            room = budget() - 2 - moves  # the first premise's cap
            if room < 1:
                continue
            gamma = tuple(ant[p] for p in gamma_pos)
            delta = tuple(ant[p] for p in delta_pos)
            itself = gamma[0] if len(gamma) == 1 else None  # terms are hash-consed
            for b in candidates:
                if b is itself:
                    continue  # cutting an item against itself loops
                # refuted by the memo entry that _search would read first
                cached = self.memo.get((gamma, b))
                if cached is not None and cached[0] == "failed" and cached[1] >= room:
                    continue
                m1 = self._search((gamma, b), room)
                if m1 is None:
                    continue
                pre2 = delta + (b,) if lo is None else delta[:lo] + (b,) + delta[lo:]
                m2 = self._search((pre2, cons), room + 1 - m1[1])  # m1 fits room
                if m2 is None:
                    continue
                cut = Proof(Cut(lo), (m1[0], m2[0]))
                if lo is None and moves:
                    # the raw cut concludes delta followed by gamma
                    cut = wrap(cut, self._block_move_chain(delta_pos + gamma_pos))
                consider(cut, 1 + m1[1] + m2[1] + moves)
                room = budget() - 2 - moves
                if room < 1:
                    break

    def _cut_spans(self, counts: list[int]) -> list[_Span]:
        """Cut antecedent selections ``(gamma_pos, delta_pos, lo, moves)``,
        which depend only on the antecedent's length: any order-preserving
        subset in ``t``, where the cut term goes last (``lo`` is ``None``)
        and ``moves`` Exchange steps restore the order; contiguous blocks in
        ``tprime``, where the cut term goes in at ``lo`` and ``moves`` is 0."""
        n = len(counts)
        spans = self._spans.get(n)
        if spans is None:
            if self.mode is Mode.T:
                spans = [
                    (inside, outside, None, self._chain_length(outside, inside))
                    for inside, outside, _ in self._splits(counts, None)
                ]
            else:
                spans = [
                    (list(range(lo, hi)), list(range(lo)) + list(range(hi, n)), lo, 0)
                    for lo in range(n + 1)
                    for hi in range(lo, n + 1)
                ]
            self._spans[n] = spans
        return spans


def bounded_search(inference: Inference, mode: Mode, max_nodes: int = 2000, theory=None) -> SearchResult:
    """Search for a proof of at most ``max_nodes`` nodes.  Under a theory
    whose balance equation refutes ``inference``, no proof of any size
    exists, so the search is skipped."""
    if theory is not None:
        from .theory import balance_feasible  # theory imports this module

        if not balance_feasible(theory, inference):
            return SearchResult(False)
    return Prover(mode, theory).prove(inference, max_nodes)
