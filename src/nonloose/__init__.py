"""Exact invariants and non-looseness certificates for Legendrian knots.

The library computes classical and rational classical invariants of
Legendrian and transverse knots from combinatorial front words and contact
(+-1)-surgery presentations, entirely in exact arithmetic, and packages the
resulting looseness obstructions and depth/tension/order bounds as tagged
certificates.

``import nonloose`` loads no submodule: each name below, and each submodule
(``nonloose.surgery``, ...), is imported on first use, so a command loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The names the package exports, by the submodule that defines each.
_EXPORTED_BY = {
    "calculus": ("ClassicalPair", "RationalData", "dual_invariants"),
    "certify": (
        "Certificate",
        "CheckResult",
        "Depth2Witness",
        "Reason",
        "Verdict",
        "bennequin_null",
        "bennequin_rational",
        "bundle_is_consistent",
        "certificate_bounds",
        "check_consistency",
        "depth2_check",
        "depth_one_dual",
        "order_bounds",
        "order_zero_by_tb_bound",
        "possurg_depth_one",
        "tension_certificate",
        "tension_less_than_depth_search",
        "tension_one_dual",
        "tension_refinement",
        "tension_upper_bound",
        "transverse_bennequin",
        "transverse_transfer",
        "unknot_verdict",
    ),
    "diagram": (
        "Direction",
        "EventKind",
        "FrontEvent",
        "FrontWord",
        "OrientedFront",
        "destabilize_front",
        "detect_syntactic_destabilization",
        "parse_front",
        "resolve_orientation",
        "reverse_orientation",
        "rot",
        "serialize_front",
        "stabilize_front",
        "tb",
    ),
    "errors": ("DomainError",),
    "knotdata": (
        "KnotRecord",
        "load_records",
        "named_example",
        "negative_torus_record",
        "positive_torus_record",
        "unknot_record",
    ),
    "linalg": ("det_exact",),
    "surgery": (
        "SurgeryComponent",
        "SurgeryDiagram",
        "diagram_from_json",
        "linking_matrix",
        "rational_invariants",
    ),
}
# every submodule: those that export a name, and the command line
_SUBMODULES = (*_EXPORTED_BY, "cli")
_EXPORTS = {name: module for module, names in _EXPORTED_BY.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import an exported name's submodule, or a submodule, on first use."""
    home = _EXPORTS.get(name)
    if home is not None:
        value = getattr(import_module(f"{__name__}.{home}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
