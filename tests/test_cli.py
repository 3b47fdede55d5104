import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensorlogic import cli
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


def test_theory_decide_imports_no_numeric_stack():
    """A fresh CLI process decides in a theory without importing SciPy or
    NumPy, which would add most of a second to every start-up."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from tensorlogic.cli import main\n"
        "codes = [main(['--theory', 'theories/locc.thy', 'theory', 'decide', t])"
        " for t in ('E * Q_A |- Q_B', 'E |- E * E')]\n"
        "print(codes, sorted(m for m in ('scipy', 'numpy') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"[{EXIT_YES}, {EXIT_NO}] []"


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
