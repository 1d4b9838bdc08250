"""Seeded compositional STG generation with validity classification.

A *recipe* is a JSON-able description of how one corpus spec was built:
which idioms were instantiated (name, prefix, parameters), how they were
rewired together (synchronization place pairs between transitions of
different idioms), and which mutation operators were applied afterwards
(with concrete arguments).  :func:`build_from_recipe` replays a recipe to
the identical STG — the property the shrinker's delta-debugging over the
composition tree relies on.

Generation is deterministic: spec ``index`` under seed ``S`` derives its
RNG from the string ``"{S}|{index}|{attempt}"`` (Python seeds strings via
SHA-512, independent of ``PYTHONHASHSEED``), so a campaign is reproducible
across processes and machines.

Candidates whose state space explodes past the exploration budget are
discarded and regenerated; the survivors are *classified* (safe vs
k-bounded, consistent, live, synthesizable) rather than filtered —
inconsistent STGs are exactly what the graph-level differential checks
need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.api.spec import Spec
from repro.corpus.idioms import IDIOMS, build_idiom
from repro.petri.reachability import (
    StateSpaceLimitExceeded,
    build_reachability_graph,
)
from repro.stg.consistency import find_autoconcurrent_pairs
from repro.stg.encoding import EncodingError, encode_reachability_graph
from repro.stg.signals import SignalType
from repro.stg.stg import STG

#: mutation operators the generator may record in a recipe
MUTATIONS = ("add_signal", "drop_signal", "retime_transition", "perturb_arc", "bump_token")


@dataclass
class Classification:
    """Validity-filter verdict for one generated STG."""

    states: int
    klass: str  # "safe" | "k-bounded"
    consistent: bool
    live: bool
    synthesizable: bool


@dataclass
class CorpusSpec:
    """One generated spec plus its recipe and classification."""

    spec: Spec
    seed: int
    index: int
    recipe: dict
    states: int
    klass: str
    consistent: bool
    live: bool
    synthesizable: bool

    def summary(self) -> dict:
        return {
            "name": self.spec.name,
            "hash": self.spec.content_hash,
            "states": self.states,
            "class": self.klass,
            "consistent": self.consistent,
            "live": self.live,
            "synthesizable": self.synthesizable,
        }


@dataclass
class GeneratorConfig:
    """Shape knobs of the generator (all JSON-able)."""

    max_idioms: int = 3
    max_rewires: int = 2
    max_mutations: int = 2
    #: probability that a spec is a pure-random STG (the machinery promoted
    #: from the PR 4 differential tests) instead of an idiom composition
    random_stg_rate: float = 0.2
    #: exploration budget for the validity filter
    max_markings: int = 600


# ---------------------------------------------------------------------- #
# Pure-random STGs (promoted from tests/test_compiled_statebased.py)
# ---------------------------------------------------------------------- #


def random_stg(rng: random.Random, allow_unsafe: bool = False) -> STG:
    """A random small STG (usually inconsistent — that is the point).

    This is the randomized-STG machinery of the PR 4 differential tests,
    promoted here so both the test-suite and the corpus generator draw from
    one implementation.
    """
    stg = STG("rand")
    signals = ["a", "b", "c"][: rng.randint(1, 3)]
    for signal in signals:
        stg.add_signal(
            signal,
            SignalType.OUTPUT if rng.random() < 0.5 else SignalType.INPUT,
        )
    for signal in signals:
        copies = rng.randint(1, 2)
        for index in range(copies):
            for direction in "+-":
                suffix = f"/{index}" if index else ""
                stg.add_transition(f"{signal}{direction}{suffix}")
    places = [f"p{i}" for i in range(rng.randint(2, 6))]
    for place in places:
        stg.add_place(place)
    for transition in stg.transitions:
        for place in rng.sample(places, rng.randint(1, min(2, len(places)))):
            stg.add_arc(place, transition)
        for place in rng.sample(places, rng.randint(1, min(2, len(places)))):
            stg.add_arc(transition, place)
    stg.set_marking(rng.sample(places, rng.randint(1, len(places))))
    if allow_unsafe:
        stg.net.set_initial_tokens(rng.choice(places), 2)
    return stg


# ---------------------------------------------------------------------- #
# Recipe replay
# ---------------------------------------------------------------------- #


def _compose(components: list[STG], name: str) -> STG:
    """Merge disjointly-named STGs into one (signals, net, marking, values)."""
    merged = STG(name)
    for component in components:
        for signal, signal_type in component.signals.items():
            merged.add_signal(signal, signal_type)
        for transition in component.transitions:
            merged.add_transition(transition)
        for place in component.places:
            merged.net.add_place(place)
        for place in component.places:
            for target in component.net.postset(place):
                merged.net.add_arc(place, target)
            for source in component.net.preset(place):
                merged.net.add_arc(source, place)
        for place, count in component.initial_marking.items():
            merged.net.set_initial_tokens(place, count)
        for signal, value in component.initial_values.items():
            merged.set_initial_value(signal, value)
    return merged


def _apply_rewire(stg: STG, rewire: dict, index: int) -> None:
    """Couple two transitions with a marked/unmarked sync place pair.

    ``forward`` waits on ``source`` before ``target`` may fire; ``back``
    (initially marked) returns the credit when ``target`` fires, so the
    token count of the coupling is conserved and boundedness is preserved.
    """
    source = rewire["source"]
    target = rewire["target"]
    forward = f"sync{index}f"
    back = f"sync{index}b"
    stg.add_place(forward)
    stg.add_place(back, tokens=1)
    stg.net.add_arc(source, forward)
    stg.net.add_arc(forward, target)
    stg.net.add_arc(target, back)
    stg.net.add_arc(back, source)


def _apply_mutation(stg: STG, mutation: dict) -> None:
    """Apply one recorded mutation operator (concrete arguments, no RNG)."""
    op = mutation["op"]
    if op == "add_signal":
        # splice x+ after one transition and x- after another
        signal = mutation["signal"]
        stg.add_signal(signal, SignalType.INTERNAL)
        rise, fall = f"{signal}+", f"{signal}-"
        stg.add_transition(rise)
        stg.add_transition(fall)
        stg.add_arc(mutation["after_rise"], rise)
        stg.add_arc(rise, fall)
        stg.add_arc(fall, mutation["before_fall"])
        stg.set_initial_value(signal, 0)
    elif op == "drop_signal":
        signal = mutation["signal"]
        for transition in list(stg.transitions_of_signal(signal)):
            for place in list(stg.net.preset(transition)):
                if _is_orphan_place(stg, place, transition):
                    stg.net.remove_place(place)
            for place in list(stg.net.postset(transition)):
                if stg.net.is_place(place) and _is_orphan_place(stg, place, transition):
                    stg.net.remove_place(place)
            stg.net.remove_transition(transition)
        stg.remove_labels(stg.transitions_of_signal(signal))
        stg._signals.pop(signal, None)
        stg._initial_values.pop(signal, None)
    elif op == "retime_transition":
        # reverse one implicit place: <t1,t2> becomes t2 -> p -> t1
        place = mutation["place"]
        source = mutation["source"]
        target = mutation["target"]
        stg.net.remove_arc(source, place)
        stg.net.remove_arc(place, target)
        stg.net.add_arc(target, place)
        stg.net.add_arc(place, source)
    elif op == "perturb_arc":
        if mutation.get("remove"):
            stg.net.remove_arc(mutation["source"], mutation["target"])
        else:
            stg.net.add_arc(mutation["source"], mutation["target"])
    elif op == "bump_token":
        place = mutation["place"]
        stg.net.set_initial_tokens(
            place, stg.initial_marking.tokens(place) + mutation.get("by", 1)
        )
    else:
        raise ValueError(f"unknown mutation operator {op!r}")


def _is_orphan_place(stg: STG, place: str, transition: str) -> bool:
    """True when removing ``transition`` leaves ``place`` fully disconnected."""
    if not stg.net.is_place(place):
        return False
    neighbours = (stg.net.preset(place) | stg.net.postset(place)) - {transition}
    return not neighbours


def build_from_recipe(recipe: dict) -> STG:
    """Replay a recipe to its STG (deterministic, RNG-free)."""
    if recipe.get("kind") == "random":
        rng = random.Random(recipe["rng_seed"])
        stg = random_stg(rng, allow_unsafe=recipe.get("allow_unsafe", False))
    else:
        components = [
            build_idiom(entry["name"], entry["prefix"], entry.get("params"))
            for entry in recipe["idioms"]
        ]
        stg = _compose(components, recipe.get("name", "corpus"))
        for index, rewire in enumerate(recipe.get("rewires", ())):
            _apply_rewire(stg, rewire, index)
    for mutation in recipe.get("mutations", ()):
        _apply_mutation(stg, mutation)
    stg.name = recipe.get("name", stg.name)
    return stg


# ---------------------------------------------------------------------- #
# Random recipe construction
# ---------------------------------------------------------------------- #


def _random_recipe(rng: random.Random, config: GeneratorConfig, name: str) -> dict:
    if rng.random() < config.random_stg_rate:
        recipe: dict = {
            "kind": "random",
            "name": name,
            "rng_seed": rng.randrange(1 << 30),
            "allow_unsafe": rng.random() < 0.3,
            "mutations": [],
        }
        return recipe
    idiom_names = sorted(IDIOMS)
    count = rng.randint(1, max(1, config.max_idioms))
    idioms = []
    for i in range(count):
        idiom = rng.choice(idiom_names)
        _, param_spec = IDIOMS[idiom]
        params = {
            key: rng.randint(low, high) for key, (low, high) in param_spec.items()
        }
        idioms.append({"name": idiom, "prefix": f"g{i}_", "params": params})
    recipe = {"kind": "compose", "name": name, "idioms": idioms, "rewires": [], "mutations": []}
    stg = build_from_recipe(recipe)
    if count > 1:
        for _ in range(rng.randint(0, config.max_rewires)):
            first, second = rng.sample(range(count), 2)
            source = _transition_of(rng, stg, idioms[first]["prefix"])
            target = _transition_of(rng, stg, idioms[second]["prefix"])
            if source and target:
                recipe["rewires"].append({"source": source, "target": target})
        stg = build_from_recipe(recipe)
    for _ in range(rng.randint(0, config.max_mutations)):
        mutation = _random_mutation(rng, stg)
        if mutation is None:
            continue
        recipe["mutations"].append(mutation)
        stg = build_from_recipe(recipe)
    return recipe


def _transition_of(rng: random.Random, stg: STG, prefix: str) -> Optional[str]:
    candidates = sorted(t for t in stg.transitions if t.startswith(prefix))
    return rng.choice(candidates) if candidates else None


def _random_mutation(rng: random.Random, stg: STG) -> Optional[dict]:
    op = rng.choice(MUTATIONS)
    transitions = sorted(stg.transitions)
    places = sorted(stg.places)
    if not transitions or not places:
        return None
    if op == "add_signal":
        existing = set(stg.signal_names)
        index = 0
        while f"x{index}" in existing:
            index += 1
        return {
            "op": op,
            "signal": f"x{index}",
            "after_rise": rng.choice(transitions),
            "before_fall": rng.choice(transitions),
        }
    if op == "drop_signal":
        droppable = [s for s in stg.signal_names if len(stg.signal_names) > 1]
        if not droppable:
            return None
        return {"op": op, "signal": rng.choice(sorted(droppable))}
    if op == "retime_transition":
        implicit = sorted(
            place
            for place in places
            if len(stg.net.preset(place)) == 1 and len(stg.net.postset(place)) == 1
        )
        if not implicit:
            return None
        place = rng.choice(implicit)
        return {
            "op": op,
            "place": place,
            "source": next(iter(stg.net.preset(place))),
            "target": next(iter(stg.net.postset(place))),
        }
    if op == "perturb_arc":
        place = rng.choice(places)
        transition = rng.choice(transitions)
        if rng.random() < 0.5 and transition in stg.net.postset(place):
            return {"op": op, "remove": True, "source": place, "target": transition}
        if transition in stg.net.postset(place):
            return None
        return {"op": op, "source": place, "target": transition}
    if op == "bump_token":
        marked = sorted(stg.initial_marking)
        if not marked:
            return None
        return {"op": op, "place": rng.choice(marked), "by": rng.choice((1, 2))}
    return None


# ---------------------------------------------------------------------- #
# Classification (the validity filter)
# ---------------------------------------------------------------------- #


def classify_stg(stg: STG, max_markings: int = 600) -> Optional[Classification]:
    """Classify a candidate; ``None`` when its state space explodes."""
    try:
        graph = build_reachability_graph(stg.net, max_markings=max_markings)
    except StateSpaceLimitExceeded:
        return None
    states = len(graph)
    if graph._compiled is None:
        safe = all(marking.is_safe() for marking in graph.markings)
    else:
        safe = graph._compiled.bits == 1  # the 1-bit rung completes on safe nets only
    live = not graph.deadlocks()
    consistent = True
    try:
        encode_reachability_graph(stg, graph, strict=True)
    except EncodingError:
        consistent = False
    if consistent and find_autoconcurrent_pairs(stg, graph):
        consistent = False
    synthesizable = bool(
        consistent and live and stg.non_input_signals and states > 1
    )
    return Classification(
        states=states,
        klass="safe" if safe else "k-bounded",
        consistent=consistent,
        live=live,
        synthesizable=synthesizable,
    )


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #


def generate_spec(
    seed: int, index: int, config: Optional[GeneratorConfig] = None
) -> CorpusSpec:
    """Generate corpus spec ``index`` of the stream seeded with ``seed``.

    Invalid candidates (state-space explosion, empty nets, unwritable
    specs) are regenerated deterministically until one passes the validity
    filter, so every ``(seed, index)`` pair names exactly one spec.
    """
    config = config or GeneratorConfig()
    name = f"corpus_{seed}_{index}"
    for attempt in range(1000):
        rng = random.Random(f"{seed}|{index}|{attempt}")
        try:
            recipe = _random_recipe(rng, config, name)
            stg = build_from_recipe(recipe)
            if not stg.signal_names or not stg.transitions:
                continue
            if not stg.initial_marking:
                continue
            classification = classify_stg(stg, config.max_markings)
            if classification is None:
                continue
            spec = Spec.from_stg(stg, name=name)
            # the canonical text must replay to the same canonical text —
            # the content-hash stability contract of the corpus
            if Spec.load(spec.text).content_hash != spec.content_hash:
                continue
        except (KeyError, ValueError):
            continue  # a mutation produced a malformed net; regenerate
        return CorpusSpec(
            spec=spec,
            seed=seed,
            index=index,
            recipe=recipe,
            states=classification.states,
            klass=classification.klass,
            consistent=classification.consistent,
            live=classification.live,
            synthesizable=classification.synthesizable,
        )
    raise RuntimeError(f"generator failed to produce a valid spec for {name}")


def generate_corpus(
    count: int,
    seed: int = 0,
    config: Optional[GeneratorConfig] = None,
) -> Iterator[CorpusSpec]:
    """Yield ``count`` classified corpus specs, deterministically by seed."""
    config = config or GeneratorConfig()
    for index in range(count):
        yield generate_spec(seed, index, config)
