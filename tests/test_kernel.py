import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import (
    Atom,
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
    tensor_proofs,
    to_mode_t,
)
from tensorlogic import kernel
from tensorlogic.theory import parse_theory

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
