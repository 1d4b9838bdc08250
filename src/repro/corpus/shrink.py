"""Greedy delta-debugging of failing corpus specs.

Two levels, applied in order by the campaign runner:

* :func:`shrink_recipe` reduces over the *composition tree* — drop whole
  idioms (with their dependent rewires), rewires and mutations from the
  recipe and keep any reduction that still fails.  This removes entire
  subsystems at once and is where most of the shrinking happens.
* :func:`shrink_stg` then reduces the STG itself — drop signals,
  transitions, places and arcs one at a time, and lower multi-token
  markings — until no single removal preserves the failure (a 1-minimal
  counterexample).

Every candidate is round-tripped through the canonical ``.g`` writer and
parser before testing, so the minimal STG that lands in quarantine is
exactly the artifact a replay will parse.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.stg.parser import GFormatError, parse_g
from repro.stg.stg import STG
from repro.stg.writer import write_g

Predicate = Callable[[STG], bool]


def _still_fails(candidate: STG, failing: Predicate) -> bool:
    """True when the canonicalized candidate still reproduces the failure.

    Any exception — a malformed net, an unwritable STG, a crash in the
    predicate that is not the failure itself — rejects the candidate; the
    shrinker only moves between *valid* specs.
    """
    try:
        canonical = parse_g(write_g(candidate))
    except (GFormatError, KeyError, ValueError):
        return False
    try:
        return bool(failing(canonical))
    except Exception:  # noqa: BLE001 — predicates decide, never crash the loop
        return False


def _without_signal(stg: STG, signal: str) -> Optional[STG]:
    if len(stg.signal_names) <= 1:
        return None
    clone = stg.copy()
    for transition in list(clone.transitions_of_signal(signal)):
        clone.net.remove_transition(transition)
    for place in list(clone.places):
        if not (clone.net.preset(place) | clone.net.postset(place)):
            clone.net.remove_place(place)
    clone.remove_labels(clone.transitions_of_signal(signal))
    clone._signals.pop(signal, None)
    clone._initial_values.pop(signal, None)
    return clone


def _without_transition(stg: STG, transition: str) -> STG:
    clone = stg.copy()
    clone.net.remove_transition(transition)
    clone.remove_labels((transition,))
    for place in list(clone.places):
        if not (clone.net.preset(place) | clone.net.postset(place)):
            clone.net.remove_place(place)
    return clone


def _without_place(stg: STG, place: str) -> STG:
    clone = stg.copy()
    clone.net.remove_place(place)
    return clone


def _without_arc(stg: STG, source: str, target: str) -> STG:
    clone = stg.copy()
    clone.net.remove_arc(source, target)
    return clone


def _with_one_token(stg: STG, place: str) -> STG:
    clone = stg.copy()
    clone.net.set_initial_tokens(place, 1)
    return clone


def shrink_stg(stg: STG, failing: Predicate, max_rounds: int = 20) -> STG:
    """Greedy 1-minimal reduction of a failing STG.

    Repeats first-improvement passes (signals, transitions, places, arcs,
    token counts — in deterministic sorted order) until a full round makes
    no progress or ``max_rounds`` is hit.
    """
    current = stg
    for _ in range(max_rounds):
        progressed = False

        for signal in sorted(current.signal_names):
            candidate = _without_signal(current, signal)
            if candidate is not None and _still_fails(candidate, failing):
                current = parse_g(write_g(candidate))
                progressed = True
                break
        if progressed:
            continue

        for transition in sorted(current.transitions):
            candidate = _without_transition(current, transition)
            if _still_fails(candidate, failing):
                current = parse_g(write_g(candidate))
                progressed = True
                break
        if progressed:
            continue

        for place in sorted(current.places):
            candidate = _without_place(current, place)
            if _still_fails(candidate, failing):
                current = parse_g(write_g(candidate))
                progressed = True
                break
        if progressed:
            continue

        for source, target in sorted(current.net.arcs()):
            candidate = _without_arc(current, source, target)
            if _still_fails(candidate, failing):
                current = parse_g(write_g(candidate))
                progressed = True
                break
        if progressed:
            continue

        for place in sorted(current.initial_marking):
            if current.initial_marking.tokens(place) > 1:
                candidate = _with_one_token(current, place)
                if _still_fails(candidate, failing):
                    current = parse_g(write_g(candidate))
                    progressed = True
                    break

        if not progressed:
            break
    return current


def shrink_recipe(recipe: dict, failing: Predicate) -> dict:
    """Reduce a recipe over the composition tree (idioms, rewires, mutations).

    Returns the smallest recipe whose replayed STG still fails.  Dropping an
    idiom also drops every rewire that references one of its transitions
    (they could not replay otherwise).
    """
    from repro.corpus.generator import build_from_recipe
    from repro.corpus.idioms import IDIOMS

    def replay_fails(candidate: dict) -> bool:
        try:
            stg = build_from_recipe(candidate)
        except (KeyError, ValueError):
            return False
        return _still_fails(stg, failing)

    current = dict(recipe)
    if current.get("kind") == "random":
        # no composition tree; only the mutation list can shrink
        mutations = list(current.get("mutations", ()))
        for index in range(len(mutations) - 1, -1, -1):
            candidate = dict(current)
            candidate["mutations"] = mutations[:index] + mutations[index + 1:]
            if replay_fails(candidate):
                mutations = candidate["mutations"]
                current = candidate
        return current

    progressed = True
    while progressed:
        progressed = False

        idioms = list(current.get("idioms", ()))
        for index in range(len(idioms) - 1, -1, -1):
            prefix = idioms[index]["prefix"]
            candidate = dict(current)
            candidate["idioms"] = idioms[:index] + idioms[index + 1:]
            candidate["rewires"] = [
                rewire
                for rewire in current.get("rewires", ())
                if not rewire["source"].startswith(prefix)
                and not rewire["target"].startswith(prefix)
            ]
            if candidate["idioms"] and replay_fails(candidate):
                current = candidate
                progressed = True
                break
        if progressed:
            continue

        idioms = list(current.get("idioms", ()))
        for index, entry in enumerate(idioms):
            _, param_spec = IDIOMS.get(entry["name"], (None, {}))
            for key in sorted(entry.get("params", {})):
                value = entry["params"][key]
                low = param_spec.get(key, (1, value))[0]
                if not isinstance(value, int) or value <= low:
                    continue
                smaller = dict(entry, params=dict(entry["params"], **{key: value - 1}))
                candidate = dict(current)
                candidate["idioms"] = idioms[:index] + [smaller] + idioms[index + 1:]
                if replay_fails(candidate):
                    current = candidate
                    progressed = True
                    break
            if progressed:
                break
        if progressed:
            continue

        rewires = list(current.get("rewires", ()))
        for index in range(len(rewires) - 1, -1, -1):
            candidate = dict(current)
            candidate["rewires"] = rewires[:index] + rewires[index + 1:]
            if replay_fails(candidate):
                current = candidate
                progressed = True
                break
        if progressed:
            continue

        mutations = list(current.get("mutations", ()))
        for index in range(len(mutations) - 1, -1, -1):
            candidate = dict(current)
            candidate["mutations"] = mutations[:index] + mutations[index + 1:]
            if replay_fails(candidate):
                current = candidate
                progressed = True
                break

    return current
