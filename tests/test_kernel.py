import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import (
    Atom,
    Inference,
    Mode,
    ParseError,
    Proof,
    ProofError,
    apply_transform,
    check,
    cut_paths,
    cut_proofs,
    eliminate_cuts,
    eliminate_left_tensor,
    eliminate_left_unit,
    eliminate_right_unit,
    identity_proof,
    parse_inference,
    parse_proof,
    parse_term,
    proofs_equivalent,
    render_proof,
    tensor_of,
    tensor_proofs,
    to_mode_t,
)
from tensorlogic import kernel
from tensorlogic.theory import parse_theory
from tensorlogic.transforms import _Pass

from fixtures import NEGATIVE, POSITIVE
from helpers import random_proof, random_term

MODES = {"t": Mode.T, "tprime": Mode.TPRIME}


def _theory(text):
    return parse_theory(text) if text else None


@pytest.mark.parametrize("sexpr,mode,theory,conclusion", POSITIVE)
def test_fixture_checks(sexpr, mode, theory, conclusion):
    proof = parse_proof(sexpr)
    assert check(proof, MODES[mode], _theory(theory)) == parse_inference(conclusion)


@pytest.mark.parametrize("sexpr,mode,theory,error", NEGATIVE)
def test_fixture_rejections(sexpr, mode, theory, error):
    with pytest.raises((ProofError, ParseError)) as exc:
        check(parse_proof(sexpr), MODES[mode], _theory(theory))
    assert type(exc.value).__name__ == error


def test_fixture_corpus_size():
    assert len(POSITIVE) + len(NEGATIVE) >= 60


def test_error_classes_are_proof_errors():
    for cls in (
        kernel.ArityError,
        kernel.RuleMismatch,
        kernel.PositionOutOfRange,
        kernel.ExchangeNotAllowed,
        kernel.AxiomNotLicensed,
    ):
        assert issubclass(cls, ProofError)


seeds = st.integers(0, 2**32 - 1)
modes_st = st.sampled_from([Mode.T, Mode.TPRIME])


@given(seeds, modes_st)
def test_identity_proof_proves_identity(seed, mode):
    from tensorlogic import Inference

    t = random_term(random.Random(seed))
    proof = identity_proof(t, mode)
    assert check(proof, mode) == Inference((t,), t)


@given(seeds, modes_st)
@settings(max_examples=60)
def test_tensor_proofs_tensors_conclusions(seed, mode):
    rng = random.Random(seed)
    t1, t2 = random_term(rng), random_term(rng)
    p = tensor_proofs(identity_proof(t1, mode), identity_proof(t2, mode))
    conc = check(p, mode)
    assert len(conc.antecedent) == 1
    assert conc.antecedent[0].left == t1 and conc.antecedent[0].right == t2
    assert conc.consequent.left == t1 and conc.consequent.right == t2


@given(seeds, modes_st)
@settings(max_examples=100)
def test_random_proofs_check(seed, mode):
    proof = random_proof(random.Random(seed), mode)
    check(proof, mode)  # must not raise


@given(seeds, modes_st)
@settings(max_examples=80)
def test_render_parse_proof_round_trip(seed, mode):
    proof = random_proof(random.Random(seed), mode)
    assert parse_proof(render_proof(proof)) == proof


_A, _B = Atom("A"), Atom("B")
_ID_A, _ID_B = Proof(kernel.Id(_A)), Proof(kernel.Id(_B))
_AB = Proof(kernel.RTensor(), (_ID_A, _ID_B))

# one instance of each rule and its s-expression
RULE_TEXTS = [
    (_ID_A, "(id A)"),
    (Proof(kernel.RUnit()), "(r1)"),
    (Proof(kernel.LUnit(1), (_ID_A,)), "(l1 1 (id A))"),
    (Proof(kernel.LTensor(0), (_AB,)), "(lx 0 (rx (id A) (id B)))"),
    (_AB, "(rx (id A) (id B))"),
    (Proof(kernel.Cut(), (_ID_A, _ID_A)), "(cut (id A) (id A))"),
    (Proof(kernel.Cut(1), (_ID_B, _AB)), "(cut 1 (id B) (rx (id A) (id B)))"),
    (Proof(kernel.Exchange(0, 1, 2), (_AB,)), "(ex 0 1 2 (rx (id A) (id B)))"),
    (Proof(kernel.RAxiom(parse_term("A * (B * 1)"))), "(ax-r A * (B * 1))"),
    (Proof(kernel.LAxiom(parse_term("(A * B) * A"))), "(ax-l A * B * A)"),
    (Proof(kernel.ConvAxiom(parse_term("A * B"), _B)), "(conv A * B B)"),
]

# the s-expression above -> the repr of its rule
RULE_REPRS = {
    "(id A)": "Id(atom=Atom('A'))",
    "(r1)": "RUnit()",
    "(l1 1 (id A))": "LUnit(position=1)",
    "(lx 0 (rx (id A) (id B)))": "LTensor(position=0)",
    "(rx (id A) (id B))": "RTensor()",
    "(cut (id A) (id A))": "Cut(position=None)",
    "(cut 1 (id B) (rx (id A) (id B)))": "Cut(position=1)",
    "(ex 0 1 2 (rx (id A) (id B)))": "Exchange(i=0, j=1, k=2)",
    "(ax-r A * (B * 1))": "RAxiom(term=Tensor(left=Atom('A'), right=Tensor(left=Atom('B'), right=Unit())))",
    "(ax-l A * B * A)": "LAxiom(term=Tensor(left=Tensor(left=Atom('A'), right=Atom('B')), right=Atom('A')))",
    "(conv A * B B)": "ConvAxiom(source=Tensor(left=Atom('A'), right=Atom('B')), target=Atom('B'))",
}


@pytest.mark.parametrize("proof,text", RULE_TEXTS)
def test_each_rule_renders_and_parses(proof, text):
    """Each rule renders and parses, shows its fields, pickles back to the
    one live rule, and refuses assignment."""
    assert render_proof(proof) == text
    assert parse_proof(text) == proof
    rule = proof.rule
    assert repr(rule) == RULE_REPRS[text]
    assert repr(proof).startswith(f"Proof(rule={RULE_REPRS[text]}, premises=(")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(rule, protocol)) is rule
        assert pickle.loads(pickle.dumps(proof, protocol)) == proof
    for name in (*rule.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(rule, name, None)
    with pytest.raises(AttributeError):
        proof.rule = rule
    assert kernel.LUnit(0) != kernel.LTensor(0)
    assert kernel.Cut() == kernel.Cut(None) and hash(kernel.Cut()) == hash(kernel.Cut(None))


def test_deep_proofs_compare():
    """``==``, ``hash`` and ``size`` walk a proof with an explicit stack, so
    two separately built 10,000-deep proofs compare."""

    def chain(leaf):
        proof = Proof(leaf)
        for _ in range(10_000):
            proof = Proof(kernel.LUnit(0), (proof,))
        return proof

    first, second = chain(kernel.RUnit()), chain(kernel.RUnit())
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first.size() == 10_001
    assert first != chain(kernel.RAxiom(Atom("A")))


def test_deep_proof_repr():
    """``repr`` walks with an explicit stack: a 10,000-deep chain shows, and
    a small proof shows the text recorded from the dataclass ``repr``."""
    proof = Proof(kernel.RUnit())
    for _ in range(10_000):
        proof = Proof(kernel.LUnit(0), (proof,))
    text = repr(proof)
    assert text.startswith("Proof(rule=LUnit(position=0), premises=(Proof(rule=LUnit(position=0), premises=(Proof(")
    assert text.endswith("Proof(rule=RUnit(), premises=())" + ",))" * 10_000)
    small = parse_proof("(cut 1 (l1 0 (id B)) (rx (id A) (ex 0 1 2 (rx (id B) (r1)))))")
    assert repr(small) == (
        "Proof(rule=Cut(position=1), premises=(Proof(rule=LUnit(position=0), premises=(Proof(rule=Id(atom=Atom('B')),"
        " premises=()),)), Proof(rule=RTensor(), premises=(Proof(rule=Id(atom=Atom('A')), premises=()),"
        " Proof(rule=Exchange(i=0, j=1, k=2), premises=(Proof(rule=RTensor(), premises=(Proof(rule=Id(atom=Atom('B')),"
        " premises=()), Proof(rule=RUnit(), premises=()))),))))))"
    )


def _cut_chain(n, head):
    """``(cut (id A) (cut (id A) ... (id A)))``: ``n`` cuts nested in the right premise."""
    return f"({head} (id A) " * n + "(id A)" + ")" * n


@pytest.mark.parametrize("mode,head", [(Mode.T, "cut"), (Mode.TPRIME, "cut 0")])
def test_deep_identity_cut_chain(mode, head):
    """Parsing, checking, cut elimination, a transform at the deepest cut,
    equivalence and ``repr`` handle a 10,000-deep cut chain without
    recursing."""
    proof = parse_proof(_cut_chain(10_000, head))
    assert proof.size() == 20_001
    assert check(proof, mode) == parse_inference("A |- A")
    assert eliminate_cuts(proof, mode) == parse_proof("(id A)")
    assert apply_transform(proof, (1,) * 9_999, "l-id", mode) == parse_proof(_cut_chain(9_999, head))
    assert proofs_equivalent(proof, parse_proof("(id A)"), mode)
    assert repr(proof).count("Cut(") == 10_000


def test_to_mode_t_deep_cut_chain():
    """Each premise's conclusion is built once, so converting a 10,000-deep
    positional cut chain is linear: well under the 5 s budget (about 0.1 s)."""
    proof = parse_proof(_cut_chain(10_000, "cut 0"))
    start = time.monotonic()
    converted = to_mode_t(proof)
    assert check(converted, Mode.T) == parse_inference("A |- A")
    assert time.monotonic() - start < 5


def test_to_mode_t_deep_left_cut_chain():
    """Cuts nested in the left premise, each cutting the first of two items so
    that it becomes Exchange, Cut and Exchange: the left premise's antecedent
    length comes from the same memo, so 2,000 levels convert well under the
    5 s budget (about 0.1 s)."""
    text = "(r1)"
    for _ in range(2_000):
        text = f"(cut 0 {text} (l1 0 (l1 0 (r1))))"
    proof = parse_proof(text)
    start = time.monotonic()
    converted = to_mode_t(proof)
    assert check(converted, Mode.T) == check(proof, Mode.TPRIME) == parse_inference(", ".join(["1"] * 2_000) + " |- 1")
    assert time.monotonic() - start < 5


def test_cut_paths_deep_chain():
    paths = cut_paths(parse_proof(_cut_chain(2_000, "cut")))
    assert paths == [(1,) * depth for depth in range(2_000)]


@pytest.mark.parametrize(
    "text,message",
    [
        ("(foo A)", "unknown proof rule 'foo'"),
        ("(id *)", "expected an atom name, got '*'"),
        ("(ex 0 x 2 (id A))", "expected an integer, got 'x'"),
    ],
)
def test_proof_parse_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_proof(text)
    assert str(exc.value) == message


def test_cut_position_may_be_negative():
    # parsed as given; check then rejects the position
    assert parse_proof("(cut -1 (id A) (id A))").rule == kernel.Cut(-1)


@given(seeds)
@settings(max_examples=80)
def test_to_mode_t_preserves_conclusion(seed):
    proof = random_proof(random.Random(seed), Mode.TPRIME)
    conc = check(proof, Mode.TPRIME)
    assert check(to_mode_t(proof), Mode.T) == conc


@given(seeds, modes_st)
@settings(max_examples=80)
def test_cut_proofs_splices_at_position(seed, mode):
    rng = random.Random(seed)
    proof = random_proof(rng, mode)
    conc = check(proof, mode)
    if not conc.antecedent:
        return
    pos = rng.randrange(len(conc.antecedent))
    item = conc.antecedent[pos]
    p1 = identity_proof(item, mode)
    combined = cut_proofs(p1, proof, pos, mode, len(conc.antecedent))
    assert check(combined, mode) == conc


@given(seeds, modes_st)
@settings(max_examples=60)
def test_eliminate_left_unit(seed, mode):
    rng = random.Random(seed)
    base = random_proof(rng, mode)
    conc = check(base, mode)
    pos = rng.randrange(len(conc.antecedent) + 1)
    padded = Proof(kernel.LUnit(pos), (base,))
    out = eliminate_left_unit(padded, mode, pos)
    assert check(out, mode) == conc


@given(seeds, modes_st)
@settings(max_examples=60)
def test_eliminate_left_tensor(seed, mode):
    rng = random.Random(seed)
    base = random_proof(rng, mode)
    conc = check(base, mode)
    if len(conc.antecedent) < 2:
        return
    pos = rng.randrange(len(conc.antecedent) - 1)
    fused = Proof(kernel.LTensor(pos), (base,))
    out = eliminate_left_tensor(fused, mode, pos)
    assert check(out, mode) == conc


@given(seeds, modes_st)
@settings(max_examples=60)
def test_eliminate_right_unit(seed, mode):
    from tensorlogic.transforms import _drop_at, _unit_paths

    rng = random.Random(seed)
    base = random_proof(rng, mode)
    conc = check(base, mode)
    units = [p for p in _unit_paths(conc.consequent) if p]
    if not units:
        return
    site = rng.randrange(len(units))
    out = eliminate_right_unit(base, mode, site)
    got = check(out, mode)
    assert got.antecedent == conc.antecedent
    assert got.consequent == _drop_at(conc.consequent, units[site])


def test_cut_paths_reports_every_cut():
    proof = parse_proof("(cut (id A) (ex 0 1 2 (cut (id B) (rx (id A) (id B)))))")
    paths = cut_paths(proof)
    assert () in paths and (1, 0) in paths and len(paths) == 2


def test_proof_size():
    assert parse_proof("(id A)").size() == 1
    assert parse_proof("(rx (id A) (r1))").size() == 3


# each NEGATIVE fixture -> the message its error carries
NEGATIVE_MESSAGES = {
    "(id A * B)": "expected ')', got '*'",
    "(id 1)": "expected an atom name, got '1'",
    "(lx 0 (id A))": "tensor fusion at 0 in antecedent of length 1",
    "(lx 1 (rx (id A) (id B)))": "tensor fusion at 1 in antecedent of length 2",
    "(l1 2 (id A))": "unit insertion at 2 in antecedent of length 1",
    "(ex 0 1 2 (id A))": "exchange blocks (0,1,2) in antecedent of length 1",
    "(ex 1 1 2 (rx (id A) (id B)))": "exchange blocks (1,1,2) in antecedent of length 2",
    "(ex 0 1 2 (rx (id A) (id B)))": "Exchange is only available in mode t",
    "(cut (id A) (id B))": "cut term mismatch: left premise proves A, right premise holds B at position 0",
    "(cut 0 (id A) (id A))": "Cut carries no position in mode t (the last item is cut)",
    "(cut (id A) (id A))": "Cut requires a position in mode tprime",
    "(cut 1 (id A) (id A))": "cut at 1 in antecedent of length 1",
    "(cut (id A) (r1))": "Cut right premise needs a nonempty antecedent",
    "(ax-r A)": "no availability axiom for A",
    "(ax-r B)": "no availability axiom for B",
    "(ax-l A)": "no disposability axiom for A",
    "(conv B A)": "no conversion axiom B -> A",
    "(rx (id A))": "expected '(', got ')'",
}


@pytest.mark.parametrize("sexpr,mode,theory,error", NEGATIVE)
def test_fixture_rejection_messages(sexpr, mode, theory, error):
    with pytest.raises((ProofError, ParseError)) as exc:
        check(parse_proof(sexpr), MODES[mode], _theory(theory))
    assert type(exc.value).__name__ == error
    assert str(exc.value) == NEGATIVE_MESSAGES[sexpr]


def _shared_proofs():
    """Proofs in which one subproof object is a premise twice."""
    ab = parse_proof("(rx (id A) (id B))")
    ab2 = Proof(kernel.RTensor(), (ab, ab))
    id_a = parse_proof("(id A)")
    fused = Proof(kernel.LTensor(0), (ab,))
    return {
        "rx": ab2,
        "ex": Proof(kernel.Exchange(1, 2, 4), (ab2,)),
        "cut": Proof(kernel.Cut(), (ab, Proof(kernel.LTensor(2), (ab2,)))),
        "cut-tprime": Proof(kernel.Cut(1), (ab, Proof(kernel.LTensor(2), (ab2,)))),
        "cut-self": Proof(kernel.Cut(), (id_a, id_a)),
        "cut-self-tprime": Proof(kernel.Cut(0), (id_a, id_a)),
        "cut-fused": Proof(kernel.Cut(), (fused, fused)),
        "cut-mismatch": Proof(kernel.Cut(), (ab, ab2)),
        "arity": Proof(kernel.RTensor(), (ab,)),
    }


# (name, mode) -> the conclusion, or the error class and message
SHARED_RESULTS = {
    ("rx", Mode.T): "A, B, A, B |- A * B * (A * B)",
    ("ex", Mode.T): "A, A, B, B |- A * B * (A * B)",
    ("cut", Mode.T): "A, B, A, B |- A * B * (A * B)",
    ("cut-tprime", Mode.T): ("RuleMismatch", "Cut carries no position in mode t (the last item is cut)"),
    ("cut-self", Mode.T): "A |- A",
    ("cut-self-tprime", Mode.T): ("RuleMismatch", "Cut carries no position in mode t (the last item is cut)"),
    ("cut-fused", Mode.T): "A * B |- A * B",
    ("cut-mismatch", Mode.T): (
        "RuleMismatch",
        "cut term mismatch: left premise proves A * B, right premise holds B at position 3",
    ),
    ("arity", Mode.T): ("ArityError", "RTensor takes 2 premises, got 1"),
    ("rx", Mode.TPRIME): "A, B, A, B |- A * B * (A * B)",
    ("ex", Mode.TPRIME): ("ExchangeNotAllowed", "Exchange is only available in mode t"),
    ("cut", Mode.TPRIME): ("RuleMismatch", "Cut requires a position in mode tprime"),
    ("cut-tprime", Mode.TPRIME): (
        "RuleMismatch",
        "cut term mismatch: left premise proves A * B, right premise holds B at position 1",
    ),
    ("cut-self", Mode.TPRIME): ("RuleMismatch", "Cut requires a position in mode tprime"),
    ("cut-self-tprime", Mode.TPRIME): "A |- A",
    ("cut-fused", Mode.TPRIME): ("RuleMismatch", "Cut requires a position in mode tprime"),
    ("cut-mismatch", Mode.TPRIME): ("RuleMismatch", "Cut requires a position in mode tprime"),
    ("arity", Mode.TPRIME): ("ArityError", "RTensor takes 2 premises, got 1"),
}


@pytest.mark.parametrize("name,mode", list(SHARED_RESULTS))
def test_check_of_shared_subproofs(name, mode):
    """``check`` hands each step its premises' antecedent lists to edit in
    place; a subproof object met twice gives each use its own list."""
    proof = _shared_proofs()[name]
    want = SHARED_RESULTS[name, mode]
    for _ in range(2):
        if isinstance(want, str):
            assert check(proof, mode) == parse_inference(want)
        else:
            with pytest.raises(ProofError) as exc:
                check(proof, mode)
            assert (type(exc.value).__name__, str(exc.value)) == want


@given(seeds, modes_st)
@settings(max_examples=40)
def test_check_leaves_memo_values_alone(seed, mode):
    """Checking a proof twice gives equal conclusions, and neither ``check``
    nor concluding the whole tree changes a conclusion a pass holds."""
    proof = random_proof(random.Random(seed), mode)
    first = check(proof, mode)
    assert check(proof, mode) == first
    conclusions = _Pass(mode)
    for premise in proof.premises:
        conclusions.conclude(premise)
    held = {key: (inf, inf.antecedent, inf.consequent) for key, (_, inf) in conclusions.memo.items()}
    assert check(proof, mode) == first
    assert conclusions.conclude(proof) == first
    for key, (inf, antecedent, consequent) in held.items():
        assert conclusions.memo[key][1] is inf
        assert inf.antecedent is antecedent and inf.consequent is consequent


@given(seeds, modes_st)
@settings(max_examples=60)
def test_render_parse_check_round_trip_of_larger_proofs(seed, mode):
    proof = random_proof(random.Random(seed), mode, steps=60)
    again = parse_proof(render_proof(proof))
    assert again == proof
    assert check(again, mode) == check(proof, mode)


def test_check_of_deep_combs_is_linear():
    """Each step edits its premise's antecedent list in place, so checking
    the canonical proof of a 20,000-atom left comb takes under 1 s and at
    most 3 times as long as for 10,000 atoms (best of 3 each).  Each fusion
    at position 0 still moves the rest of the list, a quadratic term with a
    small constant: the ratio reads 2.5 to 2.75 on 2 cores."""
    combs = {n: tensor_of(Atom(f"A{i}") for i in range(n)) for n in (10_000, 20_000)}
    proofs = {n: identity_proof(comb, Mode.T) for n, comb in combs.items()}
    best = dict.fromkeys(combs, float("inf"))
    for _ in range(3):  # the sizes take turns, so that a slow spell of the host hits both
        for n, proof in proofs.items():
            start = time.perf_counter()
            conclusion = check(proof, Mode.T)
            best[n] = min(best[n], time.perf_counter() - start)
            assert conclusion == Inference((combs[n],), combs[n])
    assert best[20_000] < 1
    assert best[20_000] <= 3 * best[10_000]
