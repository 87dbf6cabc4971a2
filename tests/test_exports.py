import multivirt
import test_colorings
import test_constructions
import test_invariants
import test_model
import test_moves
import test_planar
import test_verify

# A value type is covered by the contract of the export that reads it, which
# checks its fields there, or that returns it.
_VALUE_TYPES = {
    "CatalogEntry": "parse_vgc",
    "Coloring": "psi",
    "ColoringMode": "build_system",
    "CrossingRecord": "Diagram",
    "Granularity": "segments",
    "IndexPair": "crossing_indices",
    "InvariantReport": "invariant_report",
    "MoveSite": "apply_move",
    "Passage": "Diagram",
    "Provenance": "build_system",
    "Role": "Diagram",
    "SNF": "smith_normal_form",
}


def _contracts() -> set[str]:
    """The exports that a junk contract calls: each slot of a contract
    table is named for its export, then the argument, except in the table
    of `verify_theorems`, whose slots are its arguments."""
    tables = (
        test_colorings._hostile_calls(),
        test_constructions._construction_calls(),
        test_invariants._invariant_calls(),
        test_model._model_calls(),
        test_moves._move_calls(),
    )
    named = {slot.split("-")[0] for table in tables for slot in table}
    assert test_verify._hostile_calls()  # the slots of verify_theorems
    return named | {"verify_theorems"} | {f.__name__ for f in test_planar._PLANAR_EXPORTS}


def test_every_callable_export_has_a_junk_contract():
    """Each callable in `multivirt.__all__` is called with junk by a contract
    test, or is a value type that such a contract reads or returns; the
    error classes are what every contract raises."""
    contracts = _contracts()
    uncovered = [
        name
        for name in multivirt.__all__
        if callable(export := getattr(multivirt, name))
        and not (isinstance(export, type) and issubclass(export, multivirt.MultivirtError))
        and name not in contracts
        and _VALUE_TYPES.get(name) not in contracts
    ]
    assert not uncovered, f"exports with no junk contract: {uncovered}"
    assert _VALUE_TYPES.keys() <= set(multivirt.__all__) - contracts
