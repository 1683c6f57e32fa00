"""roughmarket: probability-free trading constructions and variation
functionals on positive step price paths.

The public names load on first use (PEP 562).  ``_EXPORTS`` is the one table
of them: each submodule with the names it defines, in ``__all__`` order.
The first lookup of a name imports its submodule, binds the name here and
returns it, so later lookups are plain attribute hits and every name is the
submodule's own object.  A process therefore loads only the modules its
calls reach: ``import roughmarket`` alone loads ``_version``; ``var_phi``
adds ``errors``, ``paths`` and ``variation``; ``verify_prop3_bound`` adds
``strategies`` and ``mixtures`` too; ``run_experiment`` loads them all.
Submodules resolve as attributes as well (``roughmarket.mixtures``).
"""

import importlib

from ._version import __version__

#: submodule -> the public names it defines
_EXPORTS = {
    "paths": (
        "PricePath",
        "GeneratorSpec",
        "make_path",
        "generate",
        "discretize",
        "read_path",
        "write_path",
    ),
    "variation": (
        "VariationFunctional",
        "psi",
        "var_phi",
        "var_p",
        "brute_force_var_phi",
        "var_signed",
        "CrossingCount",
        "crossings",
        "grid_crossings",
        "phi_admissible",
        "qvar_profile",
        "variation_growth_profile",
    ),
    "strategies": (
        "StoppingRule",
        "HitBelow",
        "HitAbove",
        "AtIndex",
        "SimpleStrategy",
        "CapitalTrace",
        "run_simple",
        "doob_strategy",
        "clairvoyant_strategy",
        "upper_prob_singleton",
        "borrowing_free_check",
        "BorrowReport",
    ),
    "mixtures": (
        "GridLevel",
        "GridStrategyMixture",
        "run_mixture",
        "volatility_mixture",
        "Prop3Report",
        "verify_prop3_bound",
        "unboundedness_mixture",
        "crossing_explosion_mixture",
    ),
    "experiments": (
        "ExperimentConfig",
        "RunReport",
        "run_experiment",
        "emit_plot_data",
        "write_report",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors"}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
