import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tensorlogic import (
    UNIT,
    Atom,
    Inference,
    ParseError,
    Tensor,
    atom_list,
    atom_vector,
    parse_inference,
    parse_term,
    render_inference,
    render_term,
    tensor_of,
)

atoms_st = st.sampled_from([Atom("A"), Atom("B"), Atom("C"), Atom("Q_A"), Atom("Q(0.5)")])
terms_st = st.deferred(
    lambda: st.one_of(atoms_st, st.just(UNIT), st.builds(Tensor, terms_st, terms_st))
)
inferences_st = st.builds(
    Inference, st.tuples() | st.tuples(terms_st) | st.tuples(terms_st, terms_st), terms_st
)


@given(terms_st)
def test_term_render_parse_round_trip(t):
    assert parse_term(render_term(t)) == t


@given(inferences_st)
def test_inference_render_parse_round_trip(inf):
    assert parse_inference(render_inference(inf)) == inf


def test_parse_examples():
    assert parse_term("A * B * C") == Tensor(Tensor(Atom("A"), Atom("B")), Atom("C"))
    assert parse_term("A * (B * C)") == Tensor(Atom("A"), Tensor(Atom("B"), Atom("C")))
    assert parse_term("1") == UNIT
    assert parse_term("Q(0.5)") == Atom("Q(0.5)")
    assert parse_term("-(C*Q_B)") == Atom("-(C*Q_B)")
    inf = parse_inference("A, B * 1 |- A * B")
    assert inf.antecedent == (Atom("A"), Tensor(Atom("B"), UNIT))
    assert parse_inference("|- 1") == Inference((), UNIT)


def test_unicode_aliases():
    assert parse_term("A ⊗ 𝟙") == Tensor(Atom("A"), UNIT)
    assert parse_inference("A ⊢ A") == parse_inference("A |- A")


@pytest.mark.parametrize(
    "bad",
    ["", "A *", "* A", "A B", "A |- B |- C", "0", "A * 0", "(A", "A)", "1x |- A", "-"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_inference(bad) if "|-" in bad else parse_term(bad)


def test_atom_name_rules():
    with pytest.raises(ParseError):
        parse_term("Q(0.5")  # unbalanced attached suffix
    assert parse_term("_x") == Atom("_x")
    assert parse_term("-E") == Atom("-E")


def test_atom_vector_ignores_units():
    t = parse_term("A * (1 * (B * A))")
    assert atom_vector(t) == {"A": 2, "B": 1}
    assert atom_list(t) == ["A", "B", "A"]
    assert atom_vector((t, UNIT)) == {"A": 2, "B": 1}


def test_tensor_of():
    assert tensor_of(()) == UNIT
    assert tensor_of((Atom("A"),)) == Atom("A")
    assert tensor_of((Atom("A"), Atom("B"), UNIT)) == parse_term("A * B * 1")


def test_render_parenthesisation():
    assert render_term(parse_term("(A * B) * C")) == "A * B * C"
    assert render_term(parse_term("A * (B * C)")) == "A * (B * C)"
    assert render_inference(parse_inference("|-1")) == "|- 1"


def test_deep_terms_hash():
    """A term's hash is built from its children's kept hashes, so hashing a
    deep comb does not recurse, alone or inside an ``Inference``."""
    comb = tensor_of(Atom(f"A{i}") for i in range(10_000))
    assert hash(comb) == hash(comb)
    inf = Inference((comb,), comb)
    assert hash(inf) == hash(Inference((comb,), comb))


def test_equal_terms_hash_equal():
    text = "A * (B * 1) * (Q(0.5) * (C * A)), B |- (A * B) * 1"
    first, second = parse_inference(text), parse_inference(text)
    assert first.consequent is not second.consequent
    assert first == second and hash(first) == hash(second)
    for x, y in zip(first.antecedent, second.antecedent):
        assert hash(x) == hash(y)


def test_unpickled_terms_rehash():
    """A term's kept hash is not pickled, since string hashes differ between
    processes: a term hashed and pickled under another hash seed is still
    found in a set of equal terms."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    script = (
        "import pickle, sys\n"
        "from tensorlogic import parse_term\n"
        "t = parse_term('A * (B * C)')\n"
        "hash(t)\n"
        "sys.stdout.buffer.write(pickle.dumps(t))"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout
    assert pickle.loads(out) in {parse_term("A * (B * C)")}
