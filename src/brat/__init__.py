"""Exact arithmetic for unital AF algebras: supernatural numbers,
ordered-group divisibility, and Bratteli-diagram invariants.

Each public name loads its submodule on first use (PEP 562), so
`python -m brat` imports only the layers its command calls."""

_SUBMODULE = {name: module for module, names in (
    ("bratteli", "BratteliDiagram DiagramError DimensionVector MuResult Premorphism PremorphismReport "
                 "TowerProfile Violation canonical_premorphism divide_element k0_unit_divisor maximal_uhf "
                 "odometer rational_subgroup_witness scale_unit_stage telescope tower_profile uhf_diagram "
                 "uhf_embeds verify_premorphism"),
    ("dot", "export_dot"),
    ("ordered_group", "CyclicOrderedGroup DivisorClosureReport QuadraticElement QuadraticIrrationalGroup "
                      "coprime_divisor_property is_unperforated max_supernatural quadratic_sign "
                      "rational_subgroup_member representable_with_denominator scale_unit semigroup_member "
                      "unit_divisor"),
    ("rational", "Rational"),
    ("supernatural", "OMEGA SupernaturalNumber"),
) for name in names.split()}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    value = globals()[name] = getattr(import_module("." + _SUBMODULE[name], __name__), name)
    return value
