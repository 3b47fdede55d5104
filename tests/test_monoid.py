import random

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic import Mode, check, decide, Decision, parse_inference, parse_term
from tensorlogic.monoid import (
    MonoidModel,
    entails,
    entails_free,
    forces,
    free_forces,
    load_model,
    parse_model,
    validate_model,
)
from tensorlogic.terms import Atom, Inference, atom_list, atom_vector, tensor_of

from helpers import random_inference, random_model, random_proof, random_term

seeds = st.integers(0, 2**32 - 1)

THRESHOLD = """
elements e a b ;
op a a = b ; op a b = b ; op b b = b ;
le e a ; le a b ; le e b ;
val P = a ; val Q = b ;
"""


def test_parse_model_and_validate():
    m = parse_model(THRESHOLD)
    assert m.unit == "e"
    assert m.mul("a", "a") == "b"
    assert m.mul("e", "b") == "b"  # implied unit row
    assert m.le("a", "a")  # implied reflexivity
    assert validate_model(m) == []


def test_parse_model_errors():
    from tensorlogic import ParseError

    with pytest.raises(ParseError):
        parse_model("op a b = c ;")  # no elements
    with pytest.raises(ParseError):
        parse_model("elements e a ; op a a = e ; op a a = a ;")  # conflict
    with pytest.raises(ParseError):
        parse_model("elements e ; frobnicate x ;")


def test_validate_reports_violations():
    m = parse_model("elements e a ; op a a = a ; le a e ;")
    m2 = MonoidModel(m.elements, m.unit, dict(m.op), m.leq, {"P": "zzz"})
    assert any("valuation" in v for v in validate_model(m2))
    bad_op = dict(m.op)
    bad_op[("a", "a")] = "zzz"
    m3 = MonoidModel(m.elements, m.unit, bad_op, m.leq, {})
    assert validate_model(m3)


def test_forcing_clauses():
    m = parse_model(THRESHOLD)
    assert forces(m, "a", parse_term("P"))
    assert forces(m, "e", parse_term("P"))
    assert not forces(m, "b", parse_term("P"))
    assert forces(m, "e", parse_term("1"))
    assert not forces(m, "a", parse_term("1"))
    assert forces(m, "b", parse_term("P * P"))  # b = a . a
    assert forces(m, "b", parse_term("Q"))


def test_entailment_on_threshold_model():
    m = parse_model(THRESHOLD)
    assert entails(m, parse_inference("P |- P"))
    assert entails(m, parse_inference("P * P |- Q"))
    assert not entails(m, parse_inference("Q |- P"))
    assert entails(m, parse_inference("|- 1"))
    # a forces P but does not force the unit, so P |- 1 fails at a
    assert not entails(m, parse_inference("P |- 1"))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_random_models_are_valid(seed):
    model = random_model(random.Random(seed))
    assert validate_model(model) == []


@given(seeds, st.sampled_from([Mode.T, Mode.TPRIME]))
@settings(max_examples=100, deadline=None)
def test_soundness_random_proofs(seed, mode):
    """Whatever a proof concludes is entailed in every model."""
    rng = random.Random(seed)
    proof = random_proof(rng, mode)
    conc = check(proof, mode)
    for _ in range(3):
        model = random_model(rng)
        assert entails(model, conc), (conc, model)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_free_model_matches_multiset_criterion(seed):
    """The antecedent's atoms force the consequent in the free model exactly
    when ``decide`` proves the inference in mode t.  The consequent nests
    tensors three deep; half the time the antecedent holds its atoms in
    another order, so both verdicts occur."""
    rng = random.Random(seed)
    deep = tensor_of(random_term(rng, depth=1) for _ in range(4))
    antecedent = random_inference(rng, max_items=2).antecedent
    if rng.random() < 0.5:
        names = atom_list(deep)
        rng.shuffle(names)
        antecedent = tuple(Atom(name) for name in names)
    inf = Inference(antecedent, deep)
    provable = decide(inf, Mode.T) is Decision.PROVABLE
    assert free_forces(atom_vector(inf.antecedent), inf.consequent) == provable
    assert entails_free(inf) == provable


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_free_forcing_is_exact_multiset_coverage(seed):
    from collections import Counter

    rng = random.Random(seed)
    from helpers import random_term

    t = random_term(rng, depth=2)
    vec = atom_vector(t)
    assert free_forces(Counter(vec), t)
    off = Counter(vec)
    off.update({"A": 1})
    assert not free_forces(off, t)


def test_models_refute_unprovable_inferences():
    # a model whose entailment separates provable from unprovable inferences
    m = parse_model(THRESHOLD)
    assert not entails(m, parse_inference("Q |- P"))  # unprovable and refuted
    assert entails(m, parse_inference("P, Q |- Q * P"))  # provable and entailed


def test_load_model(tmp_path):
    path = tmp_path / "threshold.model"
    path.write_text(THRESHOLD)
    m = load_model(path)
    assert validate_model(m) == []
