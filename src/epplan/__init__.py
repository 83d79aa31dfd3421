"""Epistemic planning over automata-presented first-order structures."""

from .automata import (
    PAD,
    Alphabet,
    Automaton,
    accepts,
    automaton_from_json,
    automaton_to_json,
    boolean_combine,
    canonicalize,
    complement,
    enumerate_upto,
    equivalent,
    is_empty,
    is_empty_witness,
    project,
    regex_to_automaton,
    substitute_tracks,
)
from .logic import (
    Atom,
    And,
    Exists,
    FALSE,
    Forall,
    Formula,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    Signature,
    TRUE,
    classify,
    format_formula,
    history_signature,
    parse_formula,
    standard_translation,
)
from .presentation import (
    AutomaticPresentation,
    brute_force_check,
    check_sentence,
    compile_formula,
    defined_relation,
    validate,
)
from .epistemic import (
    ActionModel,
    EpistemicModel,
    UpdateCache,
    action_from_json,
    action_to_json,
    eval_foel,
    iterate_update,
    model_from_json,
    model_to_json,
    product_update,
)
from .planner import (
    ClassAutomaton,
    InterpClass,
    PlanResult,
    QuotientResult,
    bfs_plan,
    class_quotient,
    decide_plan,
    history_presentation,
    solution_automaton,
)
from .cli import (
    TmDescription,
    build_language_demo,
    build_tm_config_graph,
    main,
    tm_from_json,
    tm_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
