"""Proof kernel and decision toolchain for a tensor-only sequent calculus.

The package is lazy (PEP 562): ``import tensorlogic`` loads no submodule,
and each public name below loads its module on first use, so a process pays
only for the modules it runs.
"""

from importlib import import_module as _import_module

# module -> the public names it gives the package
_EXPORTS = {
    "decision": (
        "Decision NotProvableError Prover SearchResult bounded_search decide identity_proof is_provable"
        " synthesize_proof"
    ),
    "kernel": (
        "ConvAxiom Cut Exchange Id LAxiom LTensor LUnit Mode Proof ProofError RAxiom RTensor RUnit check"
        " cut_paths cut_proofs parse_proof render_proof tensor_proofs to_mode_t"
    ),
    "terms": (
        "UNIT Atom Inference ParseError Tensor Term Unit atom_list atom_vector parse_inference parse_term"
        " render_inference render_term tensor_of"
    ),
    "theory": (
        "Theory TheoryVerdict decide_in_theory encode_conversion lift load_theory make_theory parse_theory"
    ),
    "transforms": (
        "TRANSFORMS TransformMismatch apply_transform canonicalize eliminate_cuts eliminate_left_tensor"
        " eliminate_left_unit eliminate_right_unit proofs_equivalent"
    ),
}

# public name -> its module; a module's own name gives the module
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
