"""Petri-net kernel.

Provides the place/transition net substrate underlying signal transition
graphs: net structure and markings, token-flow semantics, reachability-graph
generation, structural property checks (free choice, state machine, marked
graph, liveness, safeness, redundant places), place invariants, and the
decomposition into strongly connected one-token state-machine components
(SM-cover) that the structural synthesis method relies on.
"""

from repro.petri.net import PetriNet, Place, Transition
from repro.petri.marking import Marking
from repro.petri.reachability import ReachabilityGraph, build_reachability_graph
from repro.petri.properties import (
    is_free_choice,
    is_marked_graph,
    is_state_machine,
    is_safe,
    is_live,
    redundant_places,
)
from repro.petri.invariants import place_invariants
from repro.petri.smcover import StateMachineComponent, compute_sm_components, compute_sm_cover

__all__ = [
    "PetriNet",
    "Place",
    "Transition",
    "Marking",
    "ReachabilityGraph",
    "build_reachability_graph",
    "is_free_choice",
    "is_marked_graph",
    "is_state_machine",
    "is_safe",
    "is_live",
    "redundant_places",
    "place_invariants",
    "StateMachineComponent",
    "compute_sm_components",
    "compute_sm_cover",
]
