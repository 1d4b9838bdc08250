"""Correctness oracle: what a right answer looks like for each operation.

Every distinct spec of a run gets one *reference* circuit, computed once
and then checked by means that do not trust the program's own analyses:

* where the spec's state space is small enough, :func:`check_next_state`
  enumerates it with this file's own token game (no ``repro`` reachability,
  encoding or region code) and requires the circuit to produce the value the
  specification implies for every implemented signal at every reachable
  state;
* the scalable families that cannot be enumerated are held to hand-written
  literal bounds from their closed forms (:data:`LITERAL_BOUNDS`), which
  the self-tests confirm at enumerable sizes.  Fewer literals still pass.

Each timed operation must then return the reference circuit exactly (same
digest, literals and mapped area), or the same typed error.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import deque

#: markings the oracle's own enumeration explores before giving up
ENUMERATION_CAP = 12500

#: family → literal bound as a function of the size parameter
LITERAL_BOUNDS = {
    "muller_pipeline": lambda n: 6 * n - 5,
    "independent_cells": lambda n: n,
    "philosophers": lambda n: 3 * n,
    "glatch": lambda n: 4 * n,
}


#: family → a lower bound on its reachable markings, for the families whose
#: large sizes are held to :data:`LITERAL_BOUNDS` without trying to
#: enumerate them
STATE_COUNT_FLOOR = {
    "muller_pipeline": lambda n: 2**n,
    "independent_cells": lambda n: 4**n,
}


class OracleError(AssertionError):
    """A reference circuit failed its independent check."""


def _family(name: str, table: dict):
    match = re.fullmatch(r"([a-z_]+)_(\d+)", name)
    if match is None or match.group(1) not in table:
        return None
    return table[match.group(1)](int(match.group(2)))


def literal_bound(name: str):
    """The closed-form literal bound of a scalable-family spec, or None."""
    return _family(name, LITERAL_BOUNDS)


def circuit_digest(circuit) -> str:
    """Content digest of a circuit's implementations (metadata excluded)."""
    body = [circuit.implementations[s].to_json() for s in sorted(circuit.implementations)]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _explore(stg, cap: int):
    """The token game behind :func:`enumerate_states` and :func:`well_formed`.

    Returns ``(markings, edges, init, moves)``: each reachable marking with
    the parity of its state code, the ``(marking, move, successor)`` firings,
    the signals' initial values and the transitions as moves; ``None`` when
    more than ``cap`` markings are reachable.  Raises :class:`OracleError`
    if the specification is inconsistent (a marking reached with two codes,
    or a transition firing against the signal's current value).
    """
    net = stg.net
    places = net.places
    index = {place: i for i, place in enumerate(places)}
    bit = {signal: 1 << i for i, signal in enumerate(stg.signal_names)}
    moves = []
    for transition in stg.transitions:
        pre = [index[p] for p in net.preset(transition)]
        post = [index[p] for p in net.postset(transition)]
        signal = stg.signal_of(transition)
        moves.append((pre, post, signal, bit[signal], stg.direction_of(transition)))
    initial = stg.initial_marking
    start = tuple(initial[place] for place in places)
    init = dict(stg.initial_values)
    parity_of = {start: 0}
    edges = []
    queue = deque([start])
    while queue:
        marking = queue.popleft()
        parity = parity_of[marking]
        for move, (pre, post, signal, mask, direction) in enumerate(moves):
            if any(marking[p] == 0 for p in pre):
                continue
            flipped = 1 if parity & mask else 0
            before = 0 if direction == "+" else 1
            if signal not in init:
                init[signal] = before ^ flipped
            elif init[signal] ^ flipped != before:
                raise OracleError(f"{signal}{direction} fires against the signal's value")
            tokens = list(marking)
            for p in pre:
                tokens[p] -= 1
            for p in post:
                tokens[p] += 1
            successor = tuple(tokens)
            known = parity_of.get(successor)
            if known is None:
                if len(parity_of) >= cap:
                    return None
                parity_of[successor] = parity ^ mask
                queue.append(successor)
            elif known != parity ^ mask:
                raise OracleError("a marking is reachable with two state codes")
            edges.append((marking, move, successor))
    return parity_of, edges, init, moves


def enumerate_states(stg, cap: int = ENUMERATION_CAP):
    """Reachable ``(code, excited signals)`` pairs by a plain token game.

    Returns ``None`` when more than ``cap`` markings are reachable; raises
    :class:`OracleError` if the specification is inconsistent.
    """
    explored = _explore(stg, cap)
    return None if explored is None else _states(stg, explored)


def _states(stg, explored):
    parity_of, _, init, moves = explored
    states = []
    for marking, parity in parity_of.items():
        code = {
            signal: init.get(signal, 0) ^ ((parity >> i) & 1)
            for i, signal in enumerate(stg.signal_names)
        }
        excited = {
            signal
            for pre, _, signal, _, _ in moves
            if all(marking[p] > 0 for p in pre)
        }
        states.append((code, excited))
    return states


def satisfies_csc(stg, states) -> bool:
    """Complete state coding: equal codes excite the same non-input signals."""
    outputs = set(stg.non_input_signals)
    excited_at = {}
    for code, excited in states:
        key = tuple(code[s] for s in stg.signal_names)
        if excited_at.setdefault(key, excited & outputs) != excited & outputs:
            return False
    return True


def well_formed(stg, cap: int) -> bool:
    """Whether ``stg`` is in the paper's class of specifications.

    Safe, live (every transition can fire again from every reachable
    marking: the marking graph is strongly connected and fires every
    transition), consistent and with complete state coding, with at most
    ``cap`` reachable markings and some non-input signal to implement.
    Decided by this file's token game alone, so that which specs a
    workload sends does not depend on the program it measures.
    """
    try:
        explored = _explore(stg, cap)
    except OracleError:
        return False
    if explored is None or not stg.non_input_signals:
        return False
    parity_of, edges, _, moves = explored
    if len(parity_of) < 2:
        return False
    if any(tokens > 1 for marking in parity_of for tokens in marking):
        return False
    if len({move for _, move, _ in edges}) != len(moves):
        return False
    start = next(iter(parity_of))
    predecessors = {}
    for marking, _, successor in edges:
        predecessors.setdefault(successor, []).append(marking)
    back = {start}
    queue = deque([start])
    while queue:
        for marking in predecessors.get(queue.popleft(), ()):
            if marking not in back:
                back.add(marking)
                queue.append(marking)
    return len(back) == len(parity_of) and satisfies_csc(stg, _states(stg, explored))


def check_next_state(stg, circuit, states) -> None:
    """Raise :class:`OracleError` unless ``circuit`` implements ``stg``.

    ``states`` is the output of :func:`enumerate_states`: at each reachable
    state an excited non-input signal must switch and a stable one must
    hold, as the circuit's next-state function computes it.
    """
    outputs = stg.non_input_signals
    missing = set(outputs) - set(circuit.implementations)
    if missing:
        raise OracleError(f"signals not implemented: {sorted(missing)}")
    for code, excited in states:
        for signal in outputs:
            implied = 1 - code[signal] if signal in excited else code[signal]
            if circuit.next_value(signal, code) != implied:
                raise OracleError(
                    f"{signal} next value wrong at code "
                    + "".join(str(code[s]) for s in stg.signal_names)
                )


def certify(name: str, stg, circuit, literals: int) -> int | None:
    """Independently check one reference circuit.

    Returns the number of reachable markings the check enumerated, or
    ``None`` when the spec was held to its closed-form literal bound.
    """
    floor = _family(name, STATE_COUNT_FLOOR)
    states = enumerate_states(stg) if floor is None or floor <= ENUMERATION_CAP else None
    if states is not None:
        check_next_state(stg, circuit, states)
        return len(states)
    bound = literal_bound(name)
    if bound is None:
        raise OracleError(f"{name}: not enumerable and no closed-form bound")
    if literals > bound:
        raise OracleError(f"{name}: {literals} literals exceed the bound {bound}")
    return None


def summarize(report) -> dict:
    """The parts of a report the oracle and the layer metrics read."""
    synthesis = report.synthesis
    record = {
        "literals": synthesis.literals,
        "digest": circuit_digest(synthesis.circuit),
        "area": report.mapping.total_area if report.mapping is not None else None,
        "markings": synthesis.markings,
    }
    if report.verification is not None:
        record["speed_independent"] = report.verification.speed_independent
    if report.mapped_verification is not None:
        record["equivalent"] = report.mapped_verification.equivalent
    signals = (synthesis.details or {}).get("signals")
    if signals:
        kinds = [kind for info in signals.values() for kind in info.values() if isinstance(kind, dict)]
        record["candidates"] = sum(kind.get("candidates", 0) for kind in kinds)
        record["conflicts"] = sum(kind.get("conflicts", 0) for kind in kinds)
    return record
