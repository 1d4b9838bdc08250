"""The idiom library: closed STG fragments the generator composes.

Each builder returns a *complete* STG — live, consistent and bounded by
construction — whose signal names carry a caller-chosen prefix so several
instances can be merged into one net without collisions.  The idioms are
the structures the paper synthesizes: Muller pipeline stages (Table VII),
handshake chains, mutex/ME arbiters (the non-free-choice class), input
selectors (free-choice), and credit-carrying handshakes whose pool place
holds multiple tokens (the k-bounded class exercised by the packed
:class:`~repro.petri.compiled.CompiledBoundedNet` kernel).

Builders take only JSON-able parameters so a generator *recipe* — the list
of ``(idiom, prefix, params)`` entries plus rewires and mutations — replays
to the identical STG, which is what makes delta-debugging over the
composition tree possible.
"""

from __future__ import annotations

from repro.stg.signals import SignalType
from repro.stg.stg import STG


def _ring(stg: STG, transitions: list[str]) -> None:
    """Close ``transitions`` into a cycle, marking the place that closes it."""
    count = len(transitions)
    for i, source in enumerate(transitions):
        stg.add_arc(source, transitions[(i + 1) % count])
    stg.net.set_initial_tokens(f"<{transitions[-1]},{transitions[0]}>", 1)


def independent_cell(prefix: str) -> STG:
    """A single 4-phase handshake cell: r+ a+ r- a- (Table VII's array unit)."""
    stg = STG(f"{prefix}cell")
    r, a = f"{prefix}r", f"{prefix}a"
    stg.add_signal(r, SignalType.INPUT)
    stg.add_signal(a, SignalType.OUTPUT)
    for label in (f"{r}+", f"{a}+", f"{r}-", f"{a}-"):
        stg.add_transition(label)
    _ring(stg, [f"{r}+", f"{a}+", f"{r}-", f"{a}-"])
    stg.set_initial_values({r: 0, a: 0})
    return stg


def muller_stage_chain(prefix: str, stages: int = 2) -> STG:
    """A Muller pipeline with ``stages`` C-latches (the Table VII generator)."""
    stages = max(1, int(stages))
    stg = STG(f"{prefix}muller")
    r = f"{prefix}r"
    cs = [f"{prefix}c{i}" for i in range(stages)]
    stg.add_signal(r, SignalType.INPUT)
    for c in cs:
        stg.add_signal(c, SignalType.OUTPUT)
    for signal in [r] + cs:
        stg.add_transition(f"{signal}+")
        stg.add_transition(f"{signal}-")
    stg.add_arc(f"{r}+", f"{cs[0]}+")
    stg.add_arc(f"{cs[0]}+", f"{r}-")
    stg.add_arc(f"{r}-", f"{cs[0]}-")
    stg.add_arc(f"{cs[0]}-", f"{r}+")
    for i in range(stages - 1):
        stg.add_arc(f"{cs[i]}+", f"{cs[i + 1]}+")
        stg.add_arc(f"{cs[i + 1]}+", f"{cs[i]}-")
        stg.add_arc(f"{cs[i]}-", f"{cs[i + 1]}-")
        stg.add_arc(f"{cs[i + 1]}-", f"{cs[i]}+")
    stg.net.set_initial_tokens(f"<{cs[0]}-,{r}+>", 1)
    for i in range(stages - 1):
        stg.net.set_initial_tokens(f"<{cs[i + 1]}-,{cs[i]}+>", 1)
    stg.set_initial_values({signal: 0 for signal in [r] + cs})
    return stg


def handshake_chain(prefix: str, cells: int = 2) -> STG:
    """Sequential 4-phase handshakes: cell ``i`` completes before ``i+1``."""
    cells = max(1, int(cells))
    stg = STG(f"{prefix}chain")
    transitions: list[str] = []
    for i in range(cells):
        r, a = f"{prefix}r{i}", f"{prefix}a{i}"
        stg.add_signal(r, SignalType.INPUT)
        stg.add_signal(a, SignalType.OUTPUT)
        for label in (f"{r}+", f"{a}+", f"{r}-", f"{a}-"):
            stg.add_transition(label)
        transitions.extend([f"{r}+", f"{a}+", f"{r}-", f"{a}-"])
    _ring(stg, transitions)
    stg.set_initial_values({signal: 0 for signal in stg.signal_names})
    return stg


def mutex_pair(prefix: str) -> STG:
    """Two clients arbitrating over a shared ME place (non-free-choice).

    Each client cycles ``ri+ gi+ ri- gi-``; the grant rise consumes the
    mutex token, the grant fall returns it — the fork-place discipline of
    the dining-philosophers family.
    """
    stg = STG(f"{prefix}mutex")
    me = f"{prefix}me"
    stg.add_place(me, tokens=1)
    for i in (1, 2):
        r, g = f"{prefix}r{i}", f"{prefix}g{i}"
        stg.add_signal(r, SignalType.INPUT)
        stg.add_signal(g, SignalType.OUTPUT)
        for label in (f"{r}+", f"{g}+", f"{r}-", f"{g}-"):
            stg.add_transition(label)
        _ring(stg, [f"{r}+", f"{g}+", f"{r}-", f"{g}-"])
        stg.add_arc(me, f"{g}+")
        stg.add_arc(f"{g}-", me)
    stg.set_initial_values({signal: 0 for signal in stg.signal_names})
    return stg


def selector(prefix: str, branches: int = 2) -> STG:
    """A free-choice input selection among ``branches`` request/done pairs.

    A choice place offers its token to every branch's request rise (the
    environment picks one); the branch completes its 4-phase cycle and
    returns the token.
    """
    branches = max(2, int(branches))
    stg = STG(f"{prefix}select")
    choice = f"{prefix}choice"
    stg.add_place(choice, tokens=1)
    for i in range(branches):
        s, d = f"{prefix}s{i}", f"{prefix}d{i}"
        stg.add_signal(s, SignalType.INPUT)
        stg.add_signal(d, SignalType.OUTPUT)
        for label in (f"{s}+", f"{d}+", f"{s}-", f"{d}-"):
            stg.add_transition(label)
        stg.add_arc(choice, f"{s}+")
        stg.add_arc(f"{s}+", f"{d}+")
        stg.add_arc(f"{d}+", f"{s}-")
        stg.add_arc(f"{s}-", f"{d}-")
        stg.add_arc(f"{d}-", choice)
    stg.set_initial_values({signal: 0 for signal in stg.signal_names})
    return stg


def credit_handshake(prefix: str, credit: int = 2) -> STG:
    """A 4-phase handshake with a ``credit``-token pool place (k-bounded).

    The pool never gates behaviour — the handshake ring serializes the
    request anyway — but its token count swings between ``credit - 1`` and
    ``credit``, forcing the k-bounded packed kernel (or, past the bits
    ladder, the dict-based reference path) while the observable behaviour
    stays that of the plain handshake.
    """
    credit = max(2, int(credit))
    stg = STG(f"{prefix}credit")
    r, a = f"{prefix}r", f"{prefix}a"
    stg.add_signal(r, SignalType.INPUT)
    stg.add_signal(a, SignalType.OUTPUT)
    for label in (f"{r}+", f"{a}+", f"{r}-", f"{a}-"):
        stg.add_transition(label)
    _ring(stg, [f"{r}+", f"{a}+", f"{r}-", f"{a}-"])
    pool = f"{prefix}pool"
    stg.add_place(pool, tokens=credit)
    stg.add_arc(pool, f"{r}+")
    stg.add_arc(f"{a}-", pool)
    stg.set_initial_values({r: 0, a: 0})
    return stg


def token_ring(prefix: str, cells: int = 2) -> STG:
    """A DME-style token-ring arbiter over ``cells`` clients.

    Each client runs its own 4-phase cycle ``ri+ gi+ ri- gi-``; a single
    privilege token circulates through explicit places ``t0..t{n-1}`` —
    the grant rise of cell ``i`` consumes ``ti``, the grant fall forwards
    the token to ``t{(i+1) % n}`` — so grants are serialized in ring order
    while requests stay concurrent (the distributed mutual-exclusion
    structure of the DME arbiter papers).

    Instances are live, bounded and consistent but *not* CSC-clean for
    ``cells ≥ 2``: the token's position is invisible in the signal code
    (all-quiet states recur with the privilege at different cells), which
    is exactly why real DME cells add internal state signals.  In the
    corpus this idiom therefore exercises the coding-analysis and
    USC/CSC-conflict paths of the check suite rather than the synthesis
    backends.
    """
    cells = max(2, int(cells))
    stg = STG(f"{prefix}dme")
    for i in range(cells):
        r, g = f"{prefix}r{i}", f"{prefix}g{i}"
        stg.add_signal(r, SignalType.INPUT)
        stg.add_signal(g, SignalType.OUTPUT)
        for label in (f"{r}+", f"{g}+", f"{r}-", f"{g}-"):
            stg.add_transition(label)
        _ring(stg, [f"{r}+", f"{g}+", f"{r}-", f"{g}-"])
    for i in range(cells):
        stg.add_place(f"{prefix}t{i}", tokens=1 if i == 0 else 0)
    for i in range(cells):
        stg.add_arc(f"{prefix}t{i}", f"{prefix}g{i}+")
        stg.add_arc(f"{prefix}g{i}-", f"{prefix}t{(i + 1) % cells}")
    stg.set_initial_values({signal: 0 for signal in stg.signal_names})
    return stg


#: name -> (builder, parameter spec); the parameter spec maps each keyword
#: to the inclusive (low, high) integer range the generator samples from.
IDIOMS: dict = {
    "independent_cell": (independent_cell, {}),
    "muller_stage_chain": (muller_stage_chain, {"stages": (1, 3)}),
    "handshake_chain": (handshake_chain, {"cells": (1, 3)}),
    "mutex_pair": (mutex_pair, {}),
    "selector": (selector, {"branches": (2, 3)}),
    "credit_handshake": (credit_handshake, {"credit": (2, 5)}),
    "token_ring": (token_ring, {"cells": (2, 3)}),
}


def build_idiom(name: str, prefix: str, params: dict | None = None) -> STG:
    """Instantiate one idiom by name (the recipe-replay entry point)."""
    builder, _spec = IDIOMS[name]
    return builder(prefix, **(params or {}))
