import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tensorlogic import (
    UNIT,
    Atom,
    Inference,
    ParseError,
    Tensor,
    Unit,
    atom_list,
    atom_vector,
    parse_inference,
    parse_term,
    render_inference,
    render_term,
    tensor_of,
)
from tensorlogic.terms import _lex

from helpers import random_inference

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


@given(st.integers(0, 2**32 - 1))
def test_larger_inferences_render_parse_round_trip(seed):
    inf = random_inference(random.Random(seed), max_items=10, depth=5)
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
    """A term's hash is its identity, so hashing a deep comb does not
    recurse, alone or inside an ``Inference``."""
    comb = tensor_of(Atom(f"A{i}") for i in range(10_000))
    assert hash(comb) == hash(comb)
    inf = Inference((comb,), comb)
    assert hash(inf) == hash(Inference((comb,), comb))


def test_deep_terms_repr():
    """A tensor's ``repr`` is built from an explicit stack, so a 10,000-atom
    comb shows, with the text a recursive ``repr`` gives."""
    assert repr(parse_term("A * (B * 1)")) == "Tensor(left=Atom('A'), right=Tensor(left=Atom('B'), right=Unit()))"
    names = [f"A{i}" for i in range(10_000)]
    left = repr(tensor_of(Atom(n) for n in names))
    assert left.startswith("Tensor(left=" * 9_999 + "Atom('A0'), right=Atom('A1')), right=Atom('A2'))")
    assert left.endswith(", right=Atom('A9999'))")
    right = repr(_right_comb(names))
    assert right.startswith("Tensor(left=Atom('A0'), right=Tensor(left=Atom('A1'), right=")
    assert right.endswith("right=Atom('A9999')" + ")" * 9_999)


def test_equal_terms_hash_equal():
    text = "A * (B * 1) * (Q(0.5) * (C * A)), B |- (A * B) * 1"
    first, second = parse_inference(text), parse_inference(text)
    assert first.consequent is second.consequent
    assert first == second and hash(first) == hash(second)
    for x, y in zip(first.antecedent, second.antecedent):
        assert hash(x) == hash(y)


def test_unpickled_terms_rehash():
    """Unpickling rebuilds a term through its constructor, so a term hashed
    and pickled under another hash seed, where string hashes differ, comes
    back as the live term and is found in a set of equal terms."""
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
    assert pickle.loads(out) is parse_term("A * (B * C)")


def _right_comb(names):
    out = Atom(names[-1])
    for name in reversed(names[:-1]):
        out = Tensor(Atom(name), out)
    return out


def test_equal_terms_are_one_object():
    assert Atom("A") is Atom("A")
    assert Unit() is UNIT
    assert Tensor(Atom("A"), Unit()) is Tensor(Atom("A"), UNIT)
    assert parse_term("A * (B * 1)") is Tensor(Atom("A"), Tensor(Atom("B"), UNIT))
    assert Tensor(left=Atom("A"), right=Atom("B")) is parse_term("A * B")
    assert Tensor(Atom("A"), Atom("B")) is not Tensor(Atom("B"), Atom("A"))


def test_deep_equal_terms_compare():
    """``==`` is identity, so two separately built 10,000-atom combs compare
    without recursion, alone or inside an ``Inference``."""
    names = [f"A{i}" for i in range(10_000)]
    for build in (lambda: tensor_of(Atom(n) for n in names), lambda: _right_comb(names)):
        first, second = build(), build()
        assert first == second and first is second
        assert Inference((first,), second) == Inference((second,), first)
    assert tensor_of(Atom(n) for n in names) != _right_comb(names)


def _walk_size(t):
    return 1 + _walk_size(t.left) + _walk_size(t.right) if isinstance(t, Tensor) else 1


@given(terms_st)
def test_size_and_occurrences_fields(t):
    assert t.size == _walk_size(t)
    assert t.occurrences == len(atom_list(t))


def test_threads_that_race_share_one_term():
    """Threads that build the same new terms at once end with one object
    per term: a lost race in the intern tables would give two."""
    n_threads, names = 4, [f"Race{i}" for i in range(3_000)]
    built = [None] * n_threads
    start = threading.Barrier(n_threads)

    def build(k):
        start.wait()
        built[k] = [Tensor(Atom(x), Tensor(Atom(x), UNIT)) for x in names]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for terms in built[1:]:
        assert all(x is y for x, y in zip(terms, built[0], strict=True))


def test_pickle_and_copy_return_the_live_term():
    for t in (Atom("Q(0.5)"), UNIT, parse_term("A * (B * 1) * C")):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t


def test_terms_are_immutable():
    t = parse_term("A * B")
    for term, field in ((t.left, "name"), (UNIT, "size"), (t, "left"), (t, "size"), (t, "occurrences")):
        with pytest.raises(AttributeError):
            setattr(term, field, Atom("C"))
        with pytest.raises(AttributeError):
            delattr(term, field)
    assert t == Tensor(Atom("A"), Atom("B")) and t.size == 3


def test_parse_deep_terms():
    """The parser keeps open brackets on an explicit stack, so nesting depth
    cannot crash it."""
    n = 10_000
    names = [f"A{i}" for i in range(n)]
    right = _right_comb(names)
    assert parse_term(" * (".join(names) + ")" * (n - 1)) is right
    assert parse_term("(" * n + "A" + ")" * n) is Atom("A")
    assert parse_inference(f"{render_term(right)} |- {render_term(right)}") == Inference((right,), right)
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_term("(" * n + "A")


def test_render_deep_terms():
    n = 10_000
    names = [f"A{i}" for i in range(n)]
    left, right = tensor_of(Atom(x) for x in names), _right_comb(names)
    assert render_term(left) == " * ".join(names)
    assert render_term(right) == " * (".join(names[:-1]) + " * " + names[-1] + ")" * (n - 2)
    for t in (left, right):
        assert parse_term(render_term(t)) is t


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of input"),
        ("A *", "unexpected end of input"),
        ("(A", "unexpected end of input"),
        ("* A", "expected a term, got '\\*'"),
        ("()", "expected a term, got '\\)'"),
        ("(A B)", "expected '\\)', got 'B'"),
        ("A)", "trailing input after term: '\\)'"),
        ("A * 0", "expected a term, got '0'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError, match=message):
        parse_term(text)


# text -> its tokens, pinned from a lexer that read one character at a time
LEX_TOKENS = [
    ("Q(0.5)", ["Q(0.5)"]),
    ("-Q(0.5)", ["-Q(0.5)"]),
    ("-(C*Q_B)", ["-(C*Q_B)"]),
    ("A*B", ["A", "*", "B"]),
    ("A1", ["A1"]),
    ("1A", ["1", "A"]),
    ("12", ["12"]),
    ("1_", ["1", "_"]),
    ("0 01 x9", ["0", "01", "x9"]),
    ("--", ["--"]),
    ("-1", ["-1"]),
    ("a1-b_2", ["a1-b_2"]),
    ("Q(a)b", ["Q(a)", "b"]),
    ("Q(a)(b)", ["Q(a)", "(", "b", ")"]),
    ("A (B)", ["A", "(", "B", ")"]),
    ("Q(a\nb)", ["Q(a\nb)"]),
    ("|-|-", ["|-", "|-"]),
    ("A ⊗ 𝟙 ⊢ A", ["A", "*", "1", "|-", "A"]),
    ("A⊗B⊢𝟙", ["A", "*", "B", "|-", "1"]),
    ("\tA,\nB\t|-\n1", ["A", ",", "B", "|-", "1"]),
    ("A\r\n,\x0bB\xa0", ["A", ",", "B"]),
    (" \t ", []),
    ("", []),
    ("(cut 12 (id A) (id B))", ["(", "cut", "12", "(", "id", "A", ")", "(", "id", "B", ")", ")"]),
]

# text -> the ParseError message; offsets count in the text after the aliases
# are replaced, so ``⊢`` counts two
LEX_ERRORS = [
    ("|", "unexpected character '|' at offset 0"),
    ("A|B", "unexpected character '|' at offset 1"),
    ("A  |", "unexpected character '|' at offset 3"),
    ("B|-|", "unexpected character '|' at offset 3"),
    ("A ⊢ |", "unexpected character '|' at offset 5"),
    ("é", "unexpected character 'é' at offset 0"),
    ("A é", "unexpected character 'é' at offset 2"),
    ("-", "'-' is not a name by itself"),
    ("- A", "'-' is not a name by itself"),
    ("A -", "'-' is not a name by itself"),
    ("Q(0.5", "unbalanced parentheses in name at offset 0"),
    ("A Q(0.5", "unbalanced parentheses in name at offset 2"),
    ("A(", "unbalanced parentheses in name at offset 0"),
    ("x -(", "unbalanced parentheses in name at offset 2"),
    ("A -(", "unbalanced parentheses in name at offset 2"),
    ("é Q(", "unexpected character 'é' at offset 0"),
    ("Q( é", "unbalanced parentheses in name at offset 0"),
]


@pytest.mark.parametrize("text,tokens", LEX_TOKENS)
def test_lexer_tokens(text, tokens):
    assert _lex(text) == tokens


@pytest.mark.parametrize("text,message", LEX_ERRORS)
def test_lexer_errors(text, message):
    with pytest.raises(ParseError) as exc:
        _lex(text)
    assert str(exc.value) == message


def test_lexer_spec_changes():
    """Two inputs outside the documented syntax that a lexer reading one
    character at a time took: a name suffix holding parentheses was one
    name and is an unbalanced suffix, and a digit that is not a decimal
    digit, such as ``²``, was a token (``(id ²)`` read it as an atom) and is
    an unexpected character.  Decimal digits of any script make digit runs."""
    with pytest.raises(ParseError, match=r"^unbalanced parentheses in name at offset 0$"):
        _lex("Q((a))")
    with pytest.raises(ParseError, match=r"^unexpected character '²' at offset 4$"):
        _lex("(l1 ² (id A))")
    assert _lex("(l1 ٣ (id A))") == ["(", "l1", "٣", "(", "id", "A", ")", ")"]
