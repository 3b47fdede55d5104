"""Shared random generators for the test suite."""

from __future__ import annotations

import random

from tensorlogic import (
    UNIT,
    Atom,
    ConvAxiom,
    Cut,
    Exchange,
    Id,
    Inference,
    LAxiom,
    LTensor,
    LUnit,
    Mode,
    Proof,
    RAxiom,
    RTensor,
    RUnit,
    Tensor,
    check,
    cut_proofs,
    identity_proof,
)

ATOMS = ("A", "B", "C")


def random_term(rng: random.Random, atoms=ATOMS, depth: int = 2):
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return Atom(rng.choice(atoms))
    if roll < 0.65:
        return UNIT
    return Tensor(random_term(rng, atoms, depth - 1), random_term(rng, atoms, depth - 1))


def random_inference(rng: random.Random, atoms=ATOMS, max_items: int = 3, depth: int = 2):
    n = rng.randrange(max_items + 1)
    antecedent = tuple(random_term(rng, atoms, depth) for _ in range(n))
    return Inference(antecedent, random_term(rng, atoms, depth))


def random_balanced_inference(rng: random.Random, atoms=ATOMS, max_items: int = 3):
    """An inference whose two sides carry the same atom multiset."""
    names = [rng.choice(atoms) for _ in range(rng.randrange(1, 2 * max_items))]
    antecedent = _group(rng, list(names))
    shuffled = names[:]
    rng.shuffle(shuffled)
    consequent = _tree(rng, shuffled)
    return Inference(tuple(antecedent), consequent)


def _group(rng: random.Random, names: list[str]) -> list:
    items = []
    while names:
        k = rng.randrange(1, min(3, len(names)) + 1)
        chunk, names = names[:k], names[k:]
        items.append(_tree(rng, chunk))
    if rng.random() < 0.2:
        items.insert(rng.randrange(len(items) + 1), UNIT)
    return items


def _tree(rng: random.Random, names: list[str]):
    if not names:
        return UNIT
    if len(names) == 1:
        return Atom(names[0])
    k = rng.randrange(1, len(names))
    return Tensor(_tree(rng, names[:k]), _tree(rng, names[k:]))


def random_proof(rng: random.Random, mode: Mode, steps: int = 10, atoms=ATOMS, theory=None) -> Proof:
    """A random valid proof built forward from leaves.

    Grows a pool from identity and unit leaves by tensoring, fusing,
    inserting units, exchanging (mode ``t``) and cutting; cuts reuse pool
    proofs with matching consequents where possible.  With a ``theory`` the
    pool also starts with one axiom leaf per axiom, and the proof checks in
    that theory.
    """
    pool = [Proof(Id(Atom(rng.choice(atoms)))) for _ in range(3)]
    pool.append(Proof(RUnit()))
    if theory is not None:
        pool += [Proof(RAxiom(x)) for x in theory.available]
        pool += [Proof(LAxiom(y)) for y in theory.disposable]
        pool += [Proof(ConvAxiom(a, b)) for a, b in theory.conversions]
    concs = [check(p, mode, theory) for p in pool]

    def push(p):
        pool.append(p)
        concs.append(check(p, mode, theory))

    for _ in range(steps):
        op = rng.choice("rx rx l1 lx ex cut".split())
        i = rng.randrange(len(pool))
        p, c = pool[i], concs[i]
        n = len(c.antecedent)
        if op == "rx":
            j = rng.randrange(len(pool))
            push(Proof(RTensor(), (p, pool[j])))
        elif op == "l1":
            push(Proof(LUnit(rng.randrange(n + 1)), (p,)))
        elif op == "lx" and n >= 2:
            push(Proof(LTensor(rng.randrange(n - 1)), (p,)))
        elif op == "ex" and n >= 2 and mode is Mode.T:
            i2 = rng.randrange(n - 1)
            j2 = rng.randrange(i2 + 1, n)
            k2 = rng.randrange(j2 + 1, n + 1)
            push(Proof(Exchange(i2, j2, k2), (p,)))
        elif op == "cut" and n >= 1:
            pos = rng.randrange(n)
            item = c.antecedent[pos]
            mates = [q for q, cq in zip(pool, concs) if cq.consequent == item]
            p1 = rng.choice(mates) if mates and rng.random() < 0.7 else identity_proof(item, mode)
            push(cut_proofs(p1, p2=p, pos=pos, mode=mode, n2=n))
    return pool[rng.randrange(max(0, len(pool) - 5), len(pool))]


def random_small_proof(rng: random.Random, mode: Mode, max_size: int = 25) -> Proof:
    for _ in range(50):
        p = random_proof(rng, mode, steps=rng.randrange(3, 10))
        if p.size() <= max_size:
            return p
    return identity_proof(Atom("A"), mode)


# --- occurrence wiring -------------------------------------------------------


def wiring(proof: Proof, mode: Mode) -> list[int]:
    """For each atom occurrence of the consequent, left to right, the index of
    the antecedent atom occurrence that feeds it.

    This is the Kelly-Mac Lane graph of an axiom-free proof: unlike the
    conclusion, it tells the swap of ``A, A |- A * A`` from the identity.
    """
    return _wire(proof, mode)[1]


def _wire(proof: Proof, mode: Mode) -> tuple[list[int], list[int]]:
    """``(sizes, links)``: the atom count of each antecedent item, and the
    wiring of the consequent's occurrences into the flattened antecedent."""
    rule = proof.rule
    wired = [_wire(p, mode) for p in proof.premises]
    if isinstance(rule, Id):
        return [1], [0]
    if isinstance(rule, RUnit):
        return [], []
    if isinstance(rule, LUnit):
        ((sizes, links),) = wired
        return sizes[: rule.position] + [0] + sizes[rule.position :], links
    if isinstance(rule, LTensor):
        ((sizes, links),) = wired
        q = rule.position
        return sizes[:q] + [sizes[q] + sizes[q + 1]] + sizes[q + 2 :], links
    if isinstance(rule, RTensor):
        (s1, l1), (s2, l2) = wired
        return s1 + s2, l1 + [x + sum(s1) for x in l2]
    if isinstance(rule, Exchange):
        ((sizes, links),) = wired
        i, j, k = rule.i, rule.j, rule.k
        order = list(range(i)) + list(range(j, k)) + list(range(i, j)) + list(range(k, len(sizes)))
        starts = [sum(sizes[:t]) for t in range(len(sizes))]
        moved = [starts[t] + r for t in order for r in range(sizes[t])]
        new_index = {old: new for new, old in enumerate(moved)}
        return [sizes[t] for t in order], [new_index[x] for x in links]
    if isinstance(rule, Cut):
        (s1, l1), (s2, l2) = wired
        pos = len(s2) - 1 if mode is Mode.T else rule.position
        start, width, grown = sum(s2[:pos]), s2[pos], sum(s1)

        def through(x: int) -> int:
            if x < start:
                return x
            if x < start + width:  # fed by the cut term: follow the left premise
                return start + l1[x - start]
            return x - width + grown

        return s2[:pos] + s1 + s2[pos + 1 :], [through(x) for x in l2]
    raise ValueError(f"no wiring through {rule!r}")


# --- transformation instances ------------------------------------------------


def _rx(a: Proof, b: Proof) -> Proof:
    return Proof(RTensor(), (a, b))


def _idp(term, mode=Mode.TPRIME) -> Proof:
    return identity_proof(term, mode)


def _flat(rng: random.Random, term, mode) -> Proof:
    """A random proof of ``... |- term`` with a nonempty antecedent."""
    if isinstance(term, Tensor) and rng.random() < 0.6:
        return _rx(_flat(rng, term.left, mode), _flat(rng, term.right, mode))
    return identity_proof(term, mode)


def transform_instance(rng: random.Random, name: str, direction: str) -> Proof:
    """A mode ``tprime`` proof whose root matches the named transformation."""
    B = random_term(rng, depth=1)
    C = random_term(rng, depth=1)
    D = Atom(rng.choice(ATOMS))
    E = random_term(rng, depth=1)
    X, Y, Z = (Atom(n) for n in ("A", "B", "C"))
    m = Mode.TPRIME
    cut = Cut

    if direction == "forward":
        if name == "cut-cut-v":
            pbx = _rx(_idp(C), _flat(rng, D, m))
            inner = Proof(cut(0), (_flat(rng, C, m), pbx))
            pc = _rx(_idp(Tensor(C, D)), _flat(rng, E, m))
            return Proof(cut(0), (inner, pc))
        if name == "cut-cut-h":
            ppsi = _rx(Proof(Id(X)), _rx(Proof(Id(Y)), Proof(Id(Z))))
            inner = Proof(cut(2), (_flat(rng, Z, m), ppsi))
            return Proof(cut(0), (_flat(rng, X, m), inner))
        if name == "cut-tensor":
            pt = _rx(_flat(rng, C, m), _flat(rng, D, m))
            body = _rx(_idp(C), _rx(_idp(D), _flat(rng, E, m)))
            pl = Proof(LTensor(0), (body,))
            return Proof(cut(0), (pt, pl))
        if name == "one-cut":
            inner = _flat(rng, B, m)
            n = len(check(inner, m).antecedent)
            pos = rng.randrange(n + 1)
            return Proof(cut(pos), (Proof(RUnit()), Proof(LUnit(pos), (inner,))))
        if name == "lx-cut-l":
            pp = _rx(_idp(C), _idp(D))
            p1 = Proof(LTensor(0), (pp,))
            p2 = _rx(_idp(Tensor(C, D)), _flat(rng, E, m))
            return Proof(cut(0), (p1, p2))
        if name == "lx-cut-r":
            inner = _rx(_idp(B), _rx(Proof(Id(X)), Proof(Id(Y))))
            p2 = Proof(LTensor(1), (inner,))
            return Proof(cut(0), (_flat(rng, B, m), p2))
        if name == "rx-cut":
            if rng.random() < 0.5:
                p2 = _rx(_idp(B), _flat(rng, E, m))
                return Proof(cut(0), (_flat(rng, B, m), p2))
            qa = _flat(rng, E, m)
            la = len(check(qa, m).antecedent)
            p2 = _rx(qa, _idp(B))
            return Proof(cut(la), (_flat(rng, B, m), p2))
        if name == "r-id":
            return Proof(cut(0), (_flat(rng, B, m), _idp(B)))
        if name == "l-id":
            p2 = _rx(_idp(B), _flat(rng, E, m))
            return Proof(cut(0), (_idp(B), p2))
        if name == "lx-rx":
            pa = Proof(LTensor(0), (_rx(_idp(C), _idp(D)),))
            return _rx(pa, _flat(rng, E, m))
        if name == "l1-rx":
            body = _flat(rng, C, m)
            n = len(check(body, m).antecedent)
            pa = Proof(LUnit(rng.randrange(n + 1)), (body,))
            return _rx(pa, _flat(rng, E, m))
    else:
        if name == "cut-cut-v":
            pb = _rx(_idp(D), _flat(rng, E, m))
            pc = _rx(_idp(Tensor(D, E)), _flat(rng, C, m))
            inner = Proof(cut(0), (pb, pc))
            return Proof(cut(0), (_flat(rng, D, m), inner))
        if name == "cut-cut-h":
            ppsi = _rx(Proof(Id(X)), _rx(Proof(Id(Y)), Proof(Id(Z))))
            inner = Proof(cut(0), (_idp(X), ppsi))
            return Proof(cut(2), (_flat(rng, Z, m), inner))
        if name == "cut-tensor":
            pc = _rx(_idp(C), _rx(_idp(D), _flat(rng, E, m)))
            inner = Proof(cut(1), (_flat(rng, D, m), pc))
            return Proof(cut(0), (_flat(rng, C, m), inner))
        if name == "one-cut":
            return _flat(rng, B, m)
        if name == "lx-cut-l":
            p1 = _rx(_idp(C), _idp(D))
            p2 = _rx(_idp(Tensor(C, D)), _flat(rng, E, m))
            return Proof(LTensor(0), (Proof(cut(0), (p1, p2)),))
        if name == "lx-cut-r":
            p2 = _rx(_idp(B), _rx(Proof(Id(X)), Proof(Id(Y))))
            return Proof(LTensor(1), (Proof(cut(0), (_idp(B), p2)),))
        if name == "rx-cut":
            qa = Proof(cut(0), (_flat(rng, C, m), _idp(C)))
            if rng.random() < 0.5:
                return _rx(qa, _flat(rng, E, m))
            return _rx(_flat(rng, E, m), qa)
        if name == "r-id":
            return _flat(rng, B, m)
        if name == "l-id":
            return _rx(_idp(B), _flat(rng, E, m))
        if name == "lx-rx":
            qa = _rx(_idp(C), _rx(_idp(D), _idp(E)))
            n = len(check(qa, m).antecedent)
            return Proof(LTensor(rng.randrange(n - 1)), (_rx(qa, _flat(rng, B, m)),))
        if name == "l1-rx":
            qa = _rx(_idp(C), _idp(D))
            n = len(check(qa, m).antecedent)
            return Proof(LUnit(rng.randrange(n + 1)), (_rx(qa, _flat(rng, B, m)),))
    raise ValueError(f"unknown transformation {name!r}")


# --- monoid models -----------------------------------------------------------


def random_model(rng: random.Random, atoms=ATOMS, max_elements: int = 4):
    """A random valid ordered commutative monoid with a random valuation.

    Drawn from known-lawful families: truncated addition, max-semilattices,
    and modular addition, each with a compatible order.
    """
    from tensorlogic.monoid import MonoidModel

    k = rng.randrange(2, max_elements + 1)
    els = tuple(f"e{i}" for i in range(k))
    family = rng.choice(("trunc", "max", "mod"))
    if family == "trunc":
        op = {(a, b): min(a + b, k - 1) for a in range(k) for b in range(k)}
        order = rng.choice(("eq", "le", "ge"))
    elif family == "max":
        op = {(a, b): max(a, b) for a in range(k) for b in range(k)}
        order = rng.choice(("eq", "le"))
    else:
        op = {(a, b): (a + b) % k for a in range(k) for b in range(k)}
        order = "eq"
    leq = {(a, a) for a in range(k)}
    if order == "le":
        leq = {(a, b) for a in range(k) for b in range(k) if a <= b}
    elif order == "ge":
        leq = {(a, b) for a in range(k) for b in range(k) if a >= b}
    valuation = {name: f"e{rng.randrange(k)}" for name in atoms}
    return MonoidModel(
        els,
        "e0",
        {(f"e{a}", f"e{b}"): f"e{v}" for (a, b), v in op.items()},
        frozenset((f"e{a}", f"e{b}") for a, b in leq),
        valuation,
    )
