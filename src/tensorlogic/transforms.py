"""Proof rewriting: local transformations, cut elimination, canonical forms.

Eleven named local transformations rearrange cuts, tensor rules, and
identities while preserving the conclusion.  Each is bidirectional; the
forward direction is the left-to-right reading of its defining figure.
``eliminate_cuts`` removes every cut whose cut term is introduced by the
logical rules, splicing in one loop so that any depth works; cuts fed by
theory axiom leaves are kept in place, and a proof that does not check is
rejected.
``canonicalize`` maps every proof of an inference to one canonical cut-free
proof.  The derived eliminations of a unit or a tensor item and of a unit
factor of the consequent cut a canonical proof against the given one.

The free theory has at most one morphism ``A -> B``, so an equivalence class
of proofs is determined by its checked endpoints: ``proofs_equivalent``
compares conclusions, not trees.
"""

from __future__ import annotations

from .decision import identity_proof, synthesize_proof
from .kernel import (
    Cut,
    Exchange,
    LTensor,
    LUnit,
    Mode,
    NodePath,
    PositionOutOfRange,
    Proof,
    ProofError,
    RTensor,
    RuleApp,
    RuleMismatch,
    RUnit,
    check,
    cut_proofs,
    fold,
    replace_at,
    rule_conclusion,
    subproof_at,
    _PERMISSIVE,
)
from .terms import UNIT, Inference, Tensor, Term


class TransformMismatch(ProofError):
    """The subproof does not match the requested transformation pattern."""


class _Pass:
    """A rewriting pass in one mode, sharing the conclusions it computes."""

    def __init__(self, mode: Mode):
        self.mode = mode
        self.memo: dict[int, tuple[Proof, Inference]] = {}

    def conclude(self, proof: Proof) -> Inference:
        hit = self.memo.get(id(proof))
        return hit[1] if hit else fold(proof, rule_conclusion, self.mode, _PERMISSIVE, memo=self.memo)

    def _ant_len(self, p: Proof) -> int:
        return len(self.conclude(p).antecedent)

    def _epos(self, node: Proof) -> int:
        """The antecedent position a Cut node cuts in its right premise."""
        assert isinstance(node.rule, Cut)
        if self.mode is Mode.T:
            return self._ant_len(node.premises[1]) - 1
        assert node.rule.position is not None
        return node.rule.position

    def _cut(self, p1: Proof, p2: Proof, pos: int) -> Proof:
        return cut_proofs(p1, p2, pos, self.mode, self._ant_len(p2), self.memo)


# --- cut elimination ---------------------------------------------------------


def _source(rule: RuleApp, pos: int) -> int | None:
    """The premise position of conclusion position ``pos`` of a unary left
    rule; ``None`` if the rule introduces that item or is no unary left rule."""
    if type(rule) is Exchange:  # the block [i, k) rotated left by j - i
        i, j, k = rule.i, rule.j, rule.k
        return i + (pos - i + j - i) % (k - i) if i <= pos < k else pos
    if type(rule) in (LUnit, LTensor) and rule.position != pos:
        return pos if pos < rule.position else pos + (1 if type(rule) is LTensor else -1)
    return None


def _shifted(rule: RuleApp, d: int, above: int) -> RuleApp | None:
    """The unary left ``rule`` with ``d`` added to each position above
    ``above``; ``None`` for an Exchange that this leaves with an empty block."""
    if type(rule) is Exchange:
        i, j, k = (x + d if x > above else x for x in (rule.i, rule.j, rule.k))
        return Exchange(i, j, k) if i < j < k else None
    return type(rule)(rule.position + d if rule.position > above else rule.position)


class _Eliminator(_Pass):
    def eliminate(self, rule: RuleApp, premises: list[Proof]) -> Proof:
        """A fold step: the node over cut-free premises, its cut spliced away."""
        if isinstance(rule, Cut):
            return self.splice(*premises, self._epos(Proof(rule, tuple(premises))))
        return Proof(rule, tuple(premises))

    def splice(self, p1: Proof, p2: Proof, pos: int) -> Proof:
        """A proof of the cut's conclusion from cut-free-so-far premises.

        ``p1`` proves ``Gamma |- B`` and ``p2`` proves ``Delta, B, Theta |- A``
        with ``B`` at ``pos``.  Cases are tried in the order: identity
        elimination, right-premise commutation, left-premise commutation,
        primary reduction; when nothing applies (an axiom leaf feeds the
        cut), the cut is rebuilt in place.  A commuted rule waits on
        ``around`` as ``(rule, before, after)``, put back around the result
        unless ``rule`` is ``None``; a tensor reduction's second cut waits
        on ``second`` with the height ``around`` had when the first started.
        """
        around: list[tuple[RuleApp | None, tuple[Proof, ...], tuple[Proof, ...]]] = []
        second: list[tuple[Proof, int, int]] = []
        while True:
            c1, c2 = self.conclude(p1), self.conclude(p2)
            b = c2.antecedent[pos]
            r1, r2 = p1.rule, p2.rule
            if c1.antecedent == (b,):  # identity elimination
                out = p2
            elif len(c2.antecedent) == 1 and c2.consequent == b:
                out = p1
            elif (src := _source(r2, pos)) is not None:  # right-premise commutation
                around.append((_shifted(r2, len(c1.antecedent) - 1, src), (), ()))
                p2, pos = p2.premises[0], src
                continue
            elif type(r2) is RTensor:
                qa, qb = p2.premises
                la = self._ant_len(qa)
                around.append((r2, (), (qb,)) if pos < la else (r2, (qa,), ()))
                p2, pos = (qa, pos) if pos < la else (qb, pos - la)
                continue
            elif type(r1) in (LUnit, LTensor, Exchange):  # left-premise commutation
                around.append((_shifted(r1, pos, -1), (), ()))
                p1 = p1.premises[0]
                continue
            elif type(r2) is LUnit and type(r1) is RUnit:  # primary reductions: r2 introduces B
                out = p2.premises[0]
            elif type(r2) is LTensor and type(r1) is RTensor:
                second.append((p1.premises[0], pos, len(around)))
                p1, p2, pos = p1.premises[1], p2.premises[0], pos + 1
                continue
            else:  # an axiom leaf introduces the cut term; keep this cut
                out = self._cut(p1, p2, pos)
            floor = second[-1][2] if second else 0
            while len(around) > floor:
                rule, before, after = around.pop()
                out = out if rule is None else Proof(rule, (*before, out, *after))
            if not second:
                return out
            p1, pos, _ = second.pop()
            p2 = out


def eliminate_cuts(proof: Proof, mode: Mode) -> Proof:
    """Remove cuts innermost-first, at any depth; the conclusion is preserved.

    A proof that does not check, with every axiom leaf licensed, raises the
    :class:`ProofError` that :func:`check` raises.  Cuts whose cut term comes
    from a theory axiom leaf cannot be removed and remain in the result;
    :func:`tensorlogic.kernel.cut_paths` reports them.
    """
    check(proof, mode, _PERMISSIVE)
    return fold(proof, _Eliminator(mode).eliminate)


# --- named transformations ---------------------------------------------------


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise TransformMismatch(detail)


def _as_cut(node: Proof, detail: str) -> None:
    _require(isinstance(node.rule, Cut), detail)


class _Rewriter(_Pass):
    # (1) two stacked cuts, reassociated through the left premise
    def cut_cut_v_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut whose left premise is a cut")
        inner, pc = node.premises
        _as_cut(inner, "left premise is not a cut")
        pa, pb = inner.premises
        q = self._epos(node)
        p = self._epos(inner)
        return self._cut(pa, self._cut(pb, pc, q), q + p)

    def cut_cut_v_inv(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut whose right premise is a cut")
        pa, inner = node.premises
        _as_cut(inner, "right premise is not a cut")
        pb, pc = inner.premises
        q = self._epos(inner)
        r = self._epos(node)
        len_b = self._ant_len(pb)
        _require(q <= r < q + len_b, "outer cut item lies outside the inner left block")
        return self._cut(self._cut(pa, pb, r - q), pc, q)

    # (2) two independent cuts into one proof, order swapped
    def cut_cut_h_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut whose right premise is a cut")
        px, inner = node.premises
        _as_cut(inner, "right premise is not a cut")
        py, ppsi = inner.premises
        q = self._epos(inner)
        r = self._epos(node)
        _require(r < q, "outer cut item is not left of the inner block")
        len_x = self._ant_len(px)
        new_inner = self._cut(px, ppsi, r)
        return self._cut(py, new_inner, q + len_x - 1)

    def cut_cut_h_inv(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut whose right premise is a cut")
        px, inner = node.premises
        _as_cut(inner, "right premise is not a cut")
        py, ppsi = inner.premises
        q = self._epos(inner)
        r = self._epos(node)
        len_y = self._ant_len(py)
        _require(r >= q + len_y, "outer cut item is not right of the inner block")
        new_inner = self._cut(px, ppsi, r - len_y + 1)
        return self._cut(py, new_inner, q)

    # (3) a tensored pair cut against its own left fusion, split in two
    def cut_tensor_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut of a right-tensor against a left-tensor")
        pt, pl = node.premises
        _require(isinstance(pt.rule, RTensor), "left premise is not a right-tensor step")
        _require(isinstance(pl.rule, LTensor), "right premise is not a left-tensor step")
        pos = self._epos(node)
        _require(pl.rule.position == pos, "the left-tensor does not fuse the cut item")
        pa, pb = pt.premises
        (pc,) = pl.premises
        return self._cut(pa, self._cut(pb, pc, pos + 1), pos)

    def cut_tensor_inv(self, node: Proof) -> Proof:
        _as_cut(node, "expected two nested cuts at adjacent positions")
        pa, inner = node.premises
        _as_cut(inner, "right premise is not a cut")
        pb, pc = inner.premises
        p = self._epos(node)
        _require(self._epos(inner) == p + 1, "inner cut is not at the adjacent position")
        new_left = Proof(RTensor(), (pa, pb))
        new_right = Proof(LTensor(p), (pc,))
        return self._cut(new_left, new_right, p)

    # (4) the unit cut against its own insertion
    def one_cut_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a unit cut")
        p1, p2 = node.premises
        _require(isinstance(p1.rule, RUnit), "left premise is not the unit rule")
        _require(isinstance(p2.rule, LUnit), "right premise is not a unit insertion")
        _require(p2.rule.position == self._epos(node), "the insertion is not at the cut position")
        return p2.premises[0]

    def one_cut_inv(self, node: Proof) -> Proof:
        pos = self._ant_len(node)
        return self._cut(Proof(RUnit()), Proof(LUnit(pos), (node,)), pos)

    # (5) left-tensor inside the cut's left premise
    def lx_cut_l_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut with a left-tensor left premise")
        p1, p2 = node.premises
        _require(isinstance(p1.rule, LTensor), "left premise is not a left-tensor step")
        pos = self._epos(node)
        return Proof(_shifted(p1.rule, pos, -1), (self._cut(p1.premises[0], p2, pos),))

    def lx_cut_l_inv(self, node: Proof) -> Proof:
        _require(isinstance(node.rule, LTensor), "expected a left-tensor over a cut")
        (inner,) = node.premises
        _as_cut(inner, "the premise is not a cut")
        p1, p2 = inner.premises
        pos = self._epos(inner)
        s = node.rule.position
        len_g = self._ant_len(p1)
        _require(pos <= s and s + 1 <= pos + len_g - 1, "fused pair is not inside the spliced block")
        return self._cut(Proof(_shifted(node.rule, -pos, -1), (p1,)), p2, pos)

    # (6) left-tensor inside the cut's right premise, away from the cut item
    def lx_cut_r_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut with a left-tensor right premise")
        p1, p2 = node.premises
        _require(isinstance(p2.rule, LTensor), "right premise is not a left-tensor step")
        pos = self._epos(node)
        src = _source(p2.rule, pos)
        _require(src is not None, "the left-tensor fuses the cut item")
        rule = _shifted(p2.rule, self._ant_len(p1) - 1, src)
        return Proof(rule, (self._cut(p1, p2.premises[0], src),))

    def lx_cut_r_inv(self, node: Proof) -> Proof:
        _require(isinstance(node.rule, LTensor), "expected a left-tensor over a cut")
        (inner,) = node.premises
        _as_cut(inner, "the premise is not a cut")
        p1, p2 = inner.premises
        pos = self._epos(inner)
        s = node.rule.position
        len_g = self._ant_len(p1)
        if s + 1 < pos:
            return self._cut(p1, Proof(node.rule, (p2,)), pos - 1)
        if s >= pos + len_g:
            return self._cut(p1, Proof(_shifted(node.rule, 1 - len_g, -1), (p2,)), pos)
        raise TransformMismatch("fused pair overlaps the spliced block")

    # (7) cut into one factor of a right-tensor
    def rx_cut_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut into a right-tensor")
        p1, p2 = node.premises
        _require(isinstance(p2.rule, RTensor), "right premise is not a right-tensor step")
        pos = self._epos(node)
        qa, qb = p2.premises
        la = self._ant_len(qa)
        if pos < la:
            return Proof(RTensor(), (self._cut(p1, qa, pos), qb))
        return Proof(RTensor(), (qa, self._cut(p1, qb, pos - la)))

    def rx_cut_inv(self, node: Proof) -> Proof:
        _require(isinstance(node.rule, RTensor), "expected a right-tensor with a cut factor")
        qa, qb = node.premises
        if isinstance(qa.rule, Cut):
            p = self._epos(qa)
            return self._cut(qa.premises[0], Proof(RTensor(), (qa.premises[1], qb)), p)
        if isinstance(qb.rule, Cut):
            p = self._epos(qb)
            return self._cut(qb.premises[0], Proof(RTensor(), (qa, qb.premises[1])), p + self._ant_len(qa))
        raise TransformMismatch("neither factor ends in a cut")

    # (8) cut against an identity proof on the right
    def r_id_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut against a right identity")
        p1, p2 = node.premises
        c2 = self.conclude(p2)
        _require(
            len(c2.antecedent) == 1 and c2.antecedent[0] == c2.consequent,
            "right premise is not an identity-shaped proof",
        )
        return p1

    def r_id_inv(self, node: Proof) -> Proof:
        return self._cut(node, identity_proof(self.conclude(node).consequent, self.mode), 0)

    # (9) cut against an identity proof on the left
    def l_id_fwd(self, node: Proof) -> Proof:
        _as_cut(node, "expected a cut against a left identity")
        p1, p2 = node.premises
        c1 = self.conclude(p1)
        _require(
            len(c1.antecedent) == 1 and c1.antecedent[0] == c1.consequent,
            "left premise is not an identity-shaped proof",
        )
        return p2

    def l_id_inv(self, node: Proof) -> Proof:
        conc = self.conclude(node)
        _require(len(conc.antecedent) > 0, "the antecedent is empty")
        pos = len(conc.antecedent) - 1 if self.mode is Mode.T else 0
        item = conc.antecedent[pos]
        return self._cut(identity_proof(item, self.mode), node, pos)

    # (10) left-tensor commuted past a right-tensor
    def lx_rx_fwd(self, node: Proof) -> Proof:
        _require(isinstance(node.rule, RTensor), "expected a right-tensor over a left-tensor")
        pa, pb = node.premises
        _require(isinstance(pa.rule, LTensor), "left factor is not a left-tensor step")
        q = pa.rule.position
        return Proof(LTensor(q), (Proof(RTensor(), (pa.premises[0], pb)),))

    def lx_rx_inv(self, node: Proof) -> Proof:
        _require(isinstance(node.rule, LTensor), "expected a left-tensor over a right-tensor")
        (inner,) = node.premises
        _require(isinstance(inner.rule, RTensor), "the premise is not a right-tensor step")
        qa, qb = inner.premises
        q = node.rule.position
        _require(q + 1 <= self._ant_len(qa) - 1, "fused pair is not inside the left factor")
        return Proof(RTensor(), (Proof(LTensor(q), (qa,)), qb))

    # (11) unit insertion commuted past a right-tensor
    def l1_rx_fwd(self, node: Proof) -> Proof:
        _require(isinstance(node.rule, RTensor), "expected a right-tensor over a unit insertion")
        pa, pb = node.premises
        _require(isinstance(pa.rule, LUnit), "left factor is not a unit insertion")
        q = pa.rule.position
        return Proof(LUnit(q), (Proof(RTensor(), (pa.premises[0], pb)),))

    def l1_rx_inv(self, node: Proof) -> Proof:
        _require(isinstance(node.rule, LUnit), "expected a unit insertion over a right-tensor")
        (inner,) = node.premises
        _require(isinstance(inner.rule, RTensor), "the premise is not a right-tensor step")
        qa, qb = inner.premises
        q = node.rule.position
        _require(q <= self._ant_len(qa), "insertion is not inside the left factor")
        return Proof(RTensor(), (Proof(LUnit(q), (qa,)), qb))


# name -> the forward and inverse methods of ``_Rewriter``
_DISPATCH = {
    "cut-cut-v": ("cut_cut_v_fwd", "cut_cut_v_inv"),
    "cut-cut-h": ("cut_cut_h_fwd", "cut_cut_h_inv"),
    "cut-tensor": ("cut_tensor_fwd", "cut_tensor_inv"),
    "one-cut": ("one_cut_fwd", "one_cut_inv"),
    "lx-cut-l": ("lx_cut_l_fwd", "lx_cut_l_inv"),
    "lx-cut-r": ("lx_cut_r_fwd", "lx_cut_r_inv"),
    "rx-cut": ("rx_cut_fwd", "rx_cut_inv"),
    "r-id": ("r_id_fwd", "r_id_inv"),
    "l-id": ("l_id_fwd", "l_id_inv"),
    "lx-rx": ("lx_rx_fwd", "lx_rx_inv"),
    "l1-rx": ("l1_rx_fwd", "l1_rx_inv"),
}

TRANSFORMS = tuple(_DISPATCH)


def apply_transform(
    proof: Proof, path: NodePath, name: str, mode: Mode, direction: str = "forward"
) -> Proof:
    """Apply the named transformation at ``path`` and return the whole proof.

    ``direction`` is ``"forward"`` or ``"inverse"``.  Raises
    :class:`TransformMismatch` when the subproof does not fit the pattern.
    """
    if name not in _DISPATCH:
        raise ValueError(f"unknown transformation {name!r}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    rw = _Rewriter(mode)
    fn = getattr(rw, _DISPATCH[name][0 if direction == "forward" else 1])
    node = subproof_at(proof, path)
    return replace_at(proof, path, fn(node))


# --- derived eliminations ----------------------------------------------------


def eliminate_left_unit(proof: Proof, mode: Mode, site: int) -> Proof:
    """From a proof of ``Gamma, 1, Delta |- A`` derive ``Gamma, Delta |- A``
    by cutting ``|- 1`` against the unit item at ``site``."""
    conc = check(proof, mode, _PERMISSIVE)
    if not (0 <= site < len(conc.antecedent)) or conc.antecedent[site] != UNIT:
        raise PositionOutOfRange(f"antecedent item {site} is not the unit")
    return cut_proofs(Proof(RUnit()), proof, site, mode, len(conc.antecedent))


def eliminate_left_tensor(proof: Proof, mode: Mode, site: int) -> Proof:
    """From ``Gamma, A (x) B, Delta |- C`` derive ``Gamma, A, B, Delta |- C``
    by cutting the canonical proof of ``A, B |- A (x) B`` against it."""
    conc = check(proof, mode, _PERMISSIVE)
    if not 0 <= site < len(conc.antecedent):
        raise PositionOutOfRange(f"no antecedent item {site}")
    item = conc.antecedent[site]
    if not isinstance(item, Tensor):
        raise RuleMismatch(f"antecedent item {site} is not a tensor")
    pair = synthesize_proof(Inference((item.left, item.right), item), mode)
    return cut_proofs(pair, proof, site, mode, len(conc.antecedent))


def _unit_paths(term: Term) -> list[tuple[int, ...]]:
    """The paths (0 left, 1 right) of the units in ``term``, left to right."""
    out, stack = [], [(term, ())]
    while stack:
        t, path = stack.pop()
        if t is UNIT:
            out.append(path)
        elif type(t) is Tensor:
            stack += ((t.right, path + (1,)), (t.left, path + (0,)))
    return out


def _drop_at(term: Term, path: tuple[int, ...]) -> Term:
    """Replace the tensor node above the unit at the nonempty ``path`` by its
    other child, rebuilding the tensors above it with a loop."""
    spine = [term]  # the tensors from the root down to the one replaced
    for i in path[:-1]:
        spine.append(spine[-1].right if i else spine[-1].left)
    new = spine[-1].left if path[-1] else spine[-1].right
    for node, i in zip(spine[-2::-1], path[-2::-1]):
        new = Tensor(node.left, new) if i else Tensor(new, node.right)
    return new


def eliminate_right_unit(proof: Proof, mode: Mode, site: int) -> Proof:
    """Remove the ``site``-th unit factor (left to right) from the consequent
    ``C`` by cutting the proof against the canonical proof of ``C |- C'``,
    where ``C'`` drops that factor."""
    c = check(proof, mode, _PERMISSIVE).consequent
    paths = [p for p in _unit_paths(c) if p]  # a bare-unit consequent is not a droppable factor
    if not 0 <= site < len(paths):
        raise PositionOutOfRange(f"consequent has {len(paths)} unit factors, requested {site}")
    drop = synthesize_proof(Inference((c,), _drop_at(c, paths[site])), mode)
    return cut_proofs(proof, drop, 0, mode, 1)


# --- canonical forms ---------------------------------------------------------


def canonicalize(proof: Proof, mode: Mode) -> Proof:
    """The canonical cut-free proof of this proof's conclusion.

    Cut elimination preserves the conclusion, and the canonical proof of an
    inference is determined by the conclusion alone, so the canonical form is
    rebuilt directly from the checked conclusion.  Proofs using theory axiom
    leaves are rejected (they fail :func:`check` without a theory).
    """
    conclusion = check(proof, mode)
    return synthesize_proof(conclusion, mode)


def proofs_equivalent(p1: Proof, p2: Proof, mode: Mode) -> bool:
    """Two proofs are equivalent iff they check to the same conclusion.

    Their canonical forms then coincide, since :func:`canonicalize` depends
    on the conclusion alone.
    """
    return check(p1, mode) == check(p2, mode)
