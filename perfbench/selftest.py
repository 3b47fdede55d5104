"""Self-test of the benchmark's oracles, on cases worked out by hand.

    python3 perfbench/selftest.py

It imports nothing from tensorlogic and exits 0 when every case holds.
"""

from __future__ import annotations

import itertools
import sys

import oracle as O


def check_terms() -> None:
    t = O.parse_term("A * (B * C) * Q(0.5)")
    assert t == (("A", ("B", "C")), "Q(0.5)"), t
    assert O.render_term(t) == "A * (B * C) * Q(0.5)"
    assert O.leaves(t) == ["A", "B", "C", "Q(0.5)"]
    assert O.parse_inference("|- 1") == ((), O.UNIT)
    assert O.parse_inference("A, B * C |- C") == (("A", ("B", "C")), "C")
    deep = O.left_comb([f"P{i}" for i in range(5000)])  # deeper than the recursion limit
    text = O.render_term(deep)
    assert O.render_term(O.parse_term(text)) == text and O.size(O.parse_term(text)) == 9999
    for names in (["A"], ["A", "B"], list("ABCDEFG")):
        for shape in O.SHAPES.values():
            assert O.leaves(shape(names)) == names


def check_proofs() -> None:
    swap = O.parse_proof("(ex 0 1 2 (rx (id B) (id A)))")
    assert O.check_proof(swap, "t") == (("A", "B"), ("B", "A"))
    assert O.proof_nodes(swap) == 4
    assert O.render_proof(swap) == "(ex 0 1 2 (rx (id B) (id A)))"
    for bad, mode in (("(ex 0 1 2 (rx (id B) (id A)))", "tprime"), ("(lx 1 (rx (id B) (id A)))", "t"), ("(cut 0 (id A) (id B))", "tprime")):
        try:
            O.check_proof(O.parse_proof(bad), mode)
        except O.OracleError:
            continue
        raise AssertionError(f"accepted {bad} in mode {mode}")
    # a mode-t cut acts on the last item of the right premise
    cut = O.parse_proof("(cut (rx (id A) (id B)) (lx 0 (rx (id A) (id B))))")
    assert O.check_proof(cut, "t") == (("A", "B"), ("A", "B"))
    assert O.count_rule(cut, "cut") == 1
    th = O.parse_theory("atoms C ; free C ;")
    dup = O.parse_proof("(cut (ax-r C) (rx (id C) (id C)))")
    assert O.check_proof(dup, "t", th) == (("C",), ("C", "C"))


def check_theories() -> None:
    weak = O.parse_theory(
        "atoms C Q_A Q_B E ; free C ; dispose C ; dispose Q_A ; dispose Q_B ;"
        " convert E -> C * Q_B ; convert E -> Q_A * C ;"
    )
    w = {"C": 0, "Q_A": 1, "Q_B": 1, "E": 1}
    assert O.refutes(weak, w, ("E",), ("Q_A", "Q_B"))
    assert not O.refutes(weak, w, ("E",), ("Q_A", "C"))
    assert not O.refutes(weak, {"C": 1}, ("E",), ("Q_A", "Q_B"))  # violates the free C column
    assert sorted(O.apply_forward(weak, ["E"], [("convert", 1), ("free", 0)])) == ["C", "C", "Q_A"]
    try:
        O.apply_forward(weak, ["C"], [("convert", 0)])
    except O.OracleError:
        pass
    else:
        raise AssertionError("converted an atom that is not held")


def check_models() -> None:
    # the sum rule agrees with brute-force forcing on Z_n as an ordered model
    for n in (3, 4):
        els = [f"z{i}" for i in range(n)]
        for vals in itertools.product(range(n), repeat=3):
            valuation = dict(zip("PQR", vals))
            model = O.OrderedModel(
                els,
                {(els[a], els[b]): els[(a + b) % n] for a in range(n) for b in range(n)},
                {(e, e) for e in els},
                {p: els[v] for p, v in valuation.items()},
            )
            assert model.is_valid()
            for ant, cons in ((("P", "Q"), "R"), (("P",), ("Q", "R")), ((), "P")):
                assert model.entails(ant, cons) == O.zn_entails(n, valuation, ant, cons), (n, vals, ant, cons)
    # in the capped sum, P * P forces whatever is above 2 * v(P)
    m = O.truncated_sum_model(2, {"P": 1, "Q": 2, "R": 0})
    assert m.is_valid() and m.entails(("P", "P"), "Q") and not m.entails(("P", "P"), "R")
    assert O.max_model(2, {"P": 1}).entails(("P", "P"), "P")


def check_coherence() -> None:
    assert O.coherence_instances(3, "t") == 359
    assert O.coherence_instances(2, "t") == 132
    assert O.coherence_instances(2, "tprime") == 90


def main() -> int:
    for case in (check_terms, check_proofs, check_theories, check_models, check_coherence):
        case()
        print(f"{case.__name__}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
