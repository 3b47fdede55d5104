import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensorlogic import Atom, Inference, Mode, cli, tensor_of
from tensorlogic.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_NO, EXIT_UNKNOWN, EXIT_YES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_exit_codes(capsys):
    assert run(capsys, "decide", "A * B |- B * A")[0] == EXIT_YES
    assert run(capsys, "--mode", "tprime", "decide", "A * B |- B * A")[0] == EXIT_NO
    assert run(capsys, "decide", "A |- A * A")[0] == EXIT_NO


def test_decide_json(capsys):
    code, out, _ = run(capsys, "--json", "decide", "A |- A")
    assert code == EXIT_YES
    assert json.loads(out) == {"verdict": "provable"}


def test_prove_round_trips_through_check(capsys, tmp_path):
    code, out, _ = run(capsys, "prove", "A * (B * C) |- (C * A) * B")
    assert code == EXIT_YES
    proof_file = tmp_path / "p.proof"
    proof_file.write_text(out)
    code, out, _ = run(capsys, "check", str(proof_file))
    assert code == EXIT_YES
    assert "A * (B * C) |- C * A * B" in out  # minimal parenthesisation


def test_prove_not_provable(capsys):
    assert run(capsys, "prove", "A |- B")[0] == EXIT_NO


def test_check_invalid_proof(capsys, tmp_path):
    proof_file = tmp_path / "bad.proof"
    proof_file.write_text("(lx 0 (id A))")
    code, out, _ = run(capsys, "check", str(proof_file))
    assert code == EXIT_NO
    assert "invalid" in out


def test_search_exit_codes(capsys):
    assert run(capsys, "search", "A, B |- B * A")[0] == EXIT_YES
    assert run(capsys, "--max-nodes", "200", "search", "A |- B")[0] == EXIT_UNKNOWN


def test_elim_cut_and_canon_and_equiv(capsys, tmp_path):
    cutty = tmp_path / "cutty.proof"
    cutty.write_text("(cut (rx (id A) (id B)) (lx 0 (ex 0 1 2 (rx (id B) (id A)))))")
    code, out, _ = run(capsys, "elim-cut", str(cutty))
    assert code == EXIT_YES
    assert "cut" not in out.split("\n")[0]

    code, canon_out, _ = run(capsys, "canon", str(cutty))
    assert code == EXIT_YES

    other = tmp_path / "other.proof"
    other.write_text(canon_out.strip())
    assert run(capsys, "equiv", str(cutty), str(other))[0] == EXIT_YES
    ident = tmp_path / "ident.proof"
    ident.write_text("(lx 0 (rx (id A) (id B)))")
    assert run(capsys, "equiv", str(cutty), str(ident))[0] == EXIT_NO


def test_theory_decide_paper_examples(capsys):
    cases = [
        ("theories/cloning.thy", "C |- C * C", EXIT_YES),
        ("theories/locc.thy", "E * Q_A |- Q_B", EXIT_YES),
        ("theories/locc-weak.thy", "E * Q_A |- Q_B", EXIT_YES),
        ("theories/locc-weak.thy", "E |- Q_A * Q_B", EXIT_NO),
        ("theories/coherence.thy", "Q(1) |- Q(0.5)", EXIT_YES),
        ("theories/coherence.thy", "Q(0.5) |- 1", EXIT_YES),
        ("theories/coherence.thy", "1 |- Q(1)", EXIT_NO),
    ]
    for path, inference, expected in cases:
        code, _, _ = run(capsys, "--theory", path, "theory", "decide", inference)
        assert code == expected, (path, inference)


def test_theory_decide_honours_tprime(capsys, tmp_path):
    """A mode-``t`` witness is no ``tprime`` proof: the ``tprime`` answer is
    ``unknown``, never ``provable``."""
    theory = tmp_path / "t.thy"
    theory.write_text("atoms A C ; free C ;")
    argv = ("--theory", str(theory), "theory", "decide", "A * C |- C * A")
    assert run(capsys, *argv)[0] == EXIT_YES
    assert run(capsys, "--mode", "tprime", *argv)[:2] == (EXIT_UNKNOWN, "unknown\n")
    assert run(capsys, "--mode", "tprime", "decide", "A * C |- C * A")[0] == EXIT_NO


def test_decide_deep_right_comb(capsys):
    """The parser does not recurse, so a 10,000-deep right comb is answered."""
    n = 10_000
    comb = " * (".join(f"A{i}" for i in range(n)) + ")" * (n - 1)
    assert run(capsys, "decide", f"{comb} |- {comb}")[0] == EXIT_YES
    assert run(capsys, "decide", f"{comb} |- {comb} * A0")[0] == EXIT_NO


def test_numeric_flags(capsys):
    """A huge node budget is a budget, not an internal error, and a negative
    count is an input error."""
    assert run(capsys, "--max-nodes", "1000000000", "search", "A |- A")[:2] == (EXIT_YES, "(id A)\n")
    for argv in (
        ("--max-nodes", "-1", "search", "A |- A"),
        ("--cap", "-1", "--theory", "theories/cloning.thy", "theory", "decide", "C |- C * C"),
        ("coherence", "sweep", "--max-atoms", "-1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_INPUT
        assert "expected a non-negative integer, got '-1'" in capsys.readouterr().err


def test_theory_decide_json_payload(capsys):
    code, out, _ = run(
        capsys, "--json", "--theory", "theories/cloning.thy", "theory", "decide", "C |- C * C"
    )
    assert code == EXIT_YES
    payload = json.loads(out)
    assert payload["verdict"] == "provable"
    assert payload["counts"]["available"] == [1]


def test_model_check(capsys, tmp_path):
    model = tmp_path / "m.model"
    model.write_text(
        "elements e a b ; op a a = b ; op a b = b ; op b b = b ;"
        "le e a ; le a b ; le e b ; val P = a ; val Q = b ;"
    )
    assert run(capsys, "model", "check", str(model), "P * P |- Q")[0] == EXIT_YES
    assert run(capsys, "model", "check", str(model), "Q |- P")[0] == EXIT_NO
    broken = tmp_path / "broken.model"
    broken.write_text("elements e a ; op a a = zzz ;")
    assert run(capsys, "model", "check", str(broken), "P |- P")[0] == EXIT_INPUT


def test_coherence_sweep(capsys):
    code, out, _ = run(capsys, "coherence", "sweep", "--max-atoms", "1")
    assert code == EXIT_YES
    assert "0 failure" in out
    code, _, _ = run(capsys, "--mode", "tprime", "coherence", "sweep", "--max-atoms", "1")
    assert code == EXIT_YES


@pytest.mark.parametrize("mode,atoms,checked", [("t", 1, 37), ("tprime", 1, 20), ("t", 2, 132), ("tprime", 2, 90)])
def test_coherence_sweep_counts(capsys, mode, atoms, checked):
    code, out, _ = run(capsys, "--json", "--mode", mode, "coherence", "sweep", "--max-atoms", str(atoms))
    assert code == EXIT_YES
    assert json.loads(out) == {"checked": checked, "failures": []}


def test_input_errors_exit_3(capsys):
    assert run(capsys, "decide", "A |-")[0] == EXIT_INPUT
    assert run(capsys, "check", "/no/such/file.proof")[0] == EXIT_INPUT
    assert run(capsys, "--theory", "/no/such/file.thy", "theory", "decide", "A |- A")[0] == EXIT_INPUT
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_INPUT


def test_non_utf8_input_exits_3(capsys, tmp_path):
    """A proof, model or theory file that is not UTF-8 is bad input, not an
    internal fault."""
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe(\x00i\x00d\x00")
    for argv in (
        ("check", str(path)),
        ("model", "check", str(path), "A |- A"),
        ("--theory", str(path), "theory", "decide", "A |- A"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


ROOT = Path(__file__).resolve().parent.parent


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter from the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


def test_theory_decide_imports_no_numeric_stack():
    """A fresh CLI process decides in a theory without importing SciPy or
    NumPy, which would add most of a second to every start-up."""
    script = (
        "import sys\n"
        "from tensorlogic.cli import main\n"
        "codes = [main(['--theory', 'theories/locc.thy', 'theory', 'decide', t])"
        " for t in ('E * Q_A |- Q_B', 'E |- E * E')]\n"
        "print(codes, sorted(m for m in ('scipy', 'numpy') if m in sys.modules))\n"
    )
    proc = fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"[{EXIT_YES}, {EXIT_NO}] []"


def test_each_command_imports_only_its_modules(tmp_path):
    """``import tensorlogic`` loads no submodule; ``decide`` loads only
    ``cli``, ``terms``, ``kernel`` and ``decision``, and ``check`` only
    ``cli``, ``terms`` and ``kernel``, so the checker never loads synthesis;
    ``search`` without a theory loads what ``decide`` loads and no ``theory``;
    neither loads ``dataclasses`` or ``json``: a process pays for what it
    runs."""
    swap = tmp_path / "swap.proof"
    swap.write_text("(lx 0 (ex 0 1 2 (rx (id B) (id A))))")
    for argv, answer, modules in (
        (["decide", "A |- A"], "provable", "cli decision kernel terms"),
        (["check", str(swap)], "valid: A * B |- B * A", "cli kernel terms"),
        (["search", "A, B |- B * A"], "(ex 0 1 2 (rx (id B) (id A)))", "cli decision kernel terms"),
    ):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import tensorlogic\n"
            "print(sorted(m for m in sys.modules if m.startswith('tensorlogic.')))\n"
            "from tensorlogic.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in set(sys.modules) - before if m.startswith('tensorlogic.')))\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        proc = fresh("-c", script)
        assert proc.returncode == 0, proc.stderr
        package, verdict, command, loaded = proc.stdout.splitlines()
        assert verdict == answer
        assert package == "[]"
        assert command == f"{EXIT_YES} {[f'tensorlogic.{m}' for m in modules.split()]}"
        for name in ("dataclasses", "json"):
            assert f"'{name}'" not in loaded


# the package's public names: the five modules that export them, and their exports
PUBLIC = (
    "Atom ConvAxiom Cut Decision Exchange Id Inference LAxiom LTensor LUnit Mode NotProvableError ParseError"
    " Proof ProofError Prover RAxiom RTensor RUnit SearchResult TRANSFORMS Tensor Term Theory TheoryVerdict"
    " TransformMismatch UNIT Unit apply_transform atom_list atom_vector bounded_search canonicalize check"
    " cut_paths cut_proofs decide decide_in_theory decision eliminate_cuts eliminate_left_tensor"
    " eliminate_left_unit eliminate_right_unit encode_conversion identity_proof is_provable kernel lift"
    " load_theory make_theory parse_inference parse_proof parse_term parse_theory proofs_equivalent"
    " render_inference render_proof render_term synthesize_proof tensor_of tensor_proofs terms theory"
    " to_mode_t transforms"
).split()


def test_check_mode_t_reversal(tmp_path):
    """A fresh ``check`` of the 32-atom mode-t reversal, whose proof nests 496
    Exchange steps (528 levels), answers: the parser and the checker do not
    recurse.  The proof is rendered here under a raised recursion limit,
    since ``render_proof`` still recurses."""
    from tensorlogic import render_inference, render_proof, synthesize_proof

    atoms = [Atom(f"R{i}") for i in range(32)]
    reversal = Inference(tuple(atoms), tensor_of(atoms[::-1]))
    proof = synthesize_proof(reversal, Mode.T)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5_000)
    try:
        text = render_proof(proof)
    finally:
        sys.setrecursionlimit(limit)
    path = tmp_path / "reversal.proof"
    path.write_text(text + "\n")
    proc = fresh("-m", "tensorlogic.cli", "check", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_YES, f"valid: {render_inference(reversal)}\n", "")


def test_lazy_package_exports():
    """Every public name loads its module on first use; a star import binds
    exactly the public names, and an unknown name is an ``AttributeError``."""
    import tensorlogic
    from tensorlogic import kernel, theory

    assert tensorlogic.__all__ == PUBLIC
    namespace: dict = {}
    exec("from tensorlogic import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert namespace["kernel"] is kernel and namespace["Cut"] is kernel.Cut
    assert tensorlogic.Theory is theory.Theory
    assert set(PUBLIC) <= set(dir(tensorlogic))
    with pytest.raises(AttributeError):
        tensorlogic.no_such_name
    with pytest.raises(ImportError):
        exec("from tensorlogic import no_such_name", {})


def test_undeclared_theory_atom_exits_3(capsys, tmp_path):
    """A bad theory file is an input error, also in a fresh process, where
    ``theory`` loads only when the command reads the file."""
    path = tmp_path / "bad.thy"
    path.write_text("atoms A ; free B ;")
    argv = ("--theory", str(path), "theory", "decide", "A |- A")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: availability axiom uses undeclared atom 'B'\n"
    proc = fresh("-m", "tensorlogic.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_INPUT, "", err)


def test_internal_error_exits_4(capsys, monkeypatch):
    """A fault inside a command is neither an answer (0, 1, 2) nor an input
    error (3): it keeps its traceback and ends with a one-line message."""

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_decide", broken)
    code, out, err = run(capsys, "decide", "A |- A")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert err.strip().splitlines()[-1] == "error: internal: RuntimeError: boom"
