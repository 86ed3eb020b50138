"""Free cartesian category toolkit.

Typed arrow terms over generating letters, their graphs, reduction to a
unique normal form, a decision procedure for equality of arrows, and
witnesses showing that any extra equation collapses models to preorders.
"""

from .collapse import CollapseWitness, collapse_witness, verify_witness
from .decide import equal_in_cart, equal_via_normal_forms, normal_form, synth_from_graph
from .errors import (
    AlreadyEqual,
    FreecartError,
    IncompatibleGraph,
    InternalError,
    InvalidRedex,
    ModeViolation,
    TypeMismatch,
    Unrealizable,
)
from .graphs import TypedGraph, graph_of, graph_to_json_dict
from .rewrite import (
    Degree,
    RedexKind,
    ReductionStep,
    ReductionTrace,
    degree,
    find_redex,
    is_atomized_k_composition,
    is_normal_form,
    normalize,
    step,
)
from .syntax import (
    Diagnostic,
    ParseError,
    parse_arrow,
    parse_graph,
    parse_object,
    print_arrow,
    print_object,
)
from .terms import (
    ArrowTerm,
    ArrowType,
    Bang,
    Compose,
    Identity,
    LetterObj,
    Mode,
    ObjectExpr,
    Pair,
    Product,
    Proj1,
    Proj2,
    Terminal,
    assoc_l,
    assoc_r,
    compose,
    delta,
    dup,
    iter_subterms,
    letters_of,
    product_of_arrows,
    replace_subterm,
    sigma,
    substitute_all_letters,
    subterm_at,
    swap,
    typecheck,
)

__version__ = "0.1.0"


def __getattr__(name):
    # run_cli is imported on first use (PEP 562): importing .cli here
    # would load it before `python -m freecart.cli` runs it as __main__,
    # and runpy warns about that on every command.
    if name == "run_cli":
        from .cli import run_cli

        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
