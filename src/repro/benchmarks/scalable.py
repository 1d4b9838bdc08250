"""Scalable benchmark generators (Tables VI and VII).

The paper demonstrates the structural method on specifications whose
reachability graphs exceed 10^27 markings: Muller pipelines, dining
philosophers, and arrays of independent cells.  The generators below build
those STGs parametrically; their marking counts are also available in closed
form so the experiment harness can report state-space sizes without
enumerating them.
"""

from __future__ import annotations

from repro.stg.stg import STG


def muller_pipeline(stages: int) -> STG:
    """A Muller pipeline with ``stages`` C-latches (Table VII).

    Stage ``i`` is a C-element ``c<i>`` whose set condition is "predecessor
    high and successor low" and whose reset condition is the complement; the
    request input ``r`` feeds the first stage and the last stage is closed
    through an acknowledging environment.  The STG is choice free (a marked
    graph) and its marking count grows exponentially with the number of
    stages.
    """
    if stages < 1:
        raise ValueError("a Muller pipeline needs at least one stage")
    signals = [f"c{i}" for i in range(stages)]
    edges: list[tuple[str, str]] = []
    marking: list[str] = []

    # The environment request r toggles: r+ allows c0+, c0+ allows r-,
    # r- allows c0- once the token moved on, etc.
    edges.append(("r+", "c0+"))
    edges.append(("c0+", "r-"))
    edges.append(("r-", "c0-"))
    edges.append(("c0-", "r+"))
    # Chain: ci+ enables c(i+1)+ ; c(i+1)+ enables ci- ; ci- enables c(i+1)- ;
    # c(i+1)- enables ci+ (the classic 4-phase token ring of a Muller
    # pipeline).
    for i in range(stages - 1):
        edges.append((f"c{i}+", f"c{i + 1}+"))
        edges.append((f"c{i + 1}+", f"c{i}-"))
        edges.append((f"c{i}-", f"c{i + 1}-"))
        edges.append((f"c{i + 1}-", f"c{i}+"))

    stg = STG.from_edges(
        name=f"muller_pipeline_{stages}",
        inputs=["r"],
        outputs=signals,
        edges=edges,
        marking=[],
        initial_values={"r": 0} | {signal: 0 for signal in signals},
    )
    # Initial marking: the pipeline is empty; r+ is enabled and each stage
    # waits for its predecessor.  The implicit places that must carry the
    # initial tokens are the "backward" arcs: <c0-,r+> for the environment
    # and <c(i+1)-,ci+> for every stage boundary, plus <ci-,c(i+1)-> is empty.
    marking = ["<c0-,r+>"]
    for i in range(stages - 1):
        marking.append(f"<c{i + 1}-,c{i}+>")
    stg.set_marking(marking)
    return stg


def dining_philosophers(philosophers: int) -> STG:
    """Dining philosophers as an STG (Table VII, a non-free-choice example).

    Each philosopher ``i`` raises a request ``r<i>`` (input), picks up both
    forks, eats (output ``e<i>`` rises), releases the forks and lowers the
    request.  Neighbouring philosophers share a fork place, so the underlying
    net has non-free-choice conflicts — the class of nets the paper handles
    through SM-covers rather than the free-choice results.
    """
    if philosophers < 2:
        raise ValueError("at least two philosophers are required")
    stg = STG(f"philosophers_{philosophers}")
    from repro.stg.signals import SignalType

    for i in range(philosophers):
        stg.add_signal(f"r{i}", SignalType.INPUT)
        stg.add_signal(f"e{i}", SignalType.OUTPUT)
    # fork places shared by neighbours
    for i in range(philosophers):
        stg.add_place(f"fork{i}", tokens=1)
    for i in range(philosophers):
        left = f"fork{i}"
        right = f"fork{(i + 1) % philosophers}"
        think = f"think{i}"
        hungry = f"hungry{i}"
        eating = f"eating{i}"
        done = f"done{i}"
        stg.add_place(think, tokens=1)
        stg.add_place(hungry)
        stg.add_place(eating)
        stg.add_place(done)
        stg.add_transition(f"r{i}+")
        stg.add_transition(f"e{i}+")
        stg.add_transition(f"r{i}-")
        stg.add_transition(f"e{i}-")
        # think --r+--> hungry --(+forks) e+--> eating --r- --> done --e- --> think
        stg.add_arc(think, f"r{i}+")
        stg.add_arc(f"r{i}+", hungry)
        stg.add_arc(hungry, f"e{i}+")
        stg.add_arc(left, f"e{i}+")
        stg.add_arc(right, f"e{i}+")
        stg.add_arc(f"e{i}+", eating)
        stg.add_arc(eating, f"r{i}-")
        stg.add_arc(f"r{i}-", done)
        stg.add_arc(done, f"e{i}-")
        stg.add_arc(f"e{i}-", think)
        stg.add_arc(f"e{i}-", left)
        stg.add_arc(f"e{i}-", right)
        stg.set_initial_value(f"r{i}", 0)
        stg.set_initial_value(f"e{i}", 0)
    return stg


def independent_cells(cells: int) -> STG:
    """An array of independent two-phase cells (the >10^27-state rows).

    Every cell is a tiny handshake ``q<i>+ ; a<i>+ ; q<i>- ; a<i>-`` running
    independently of the others, so the number of reachable markings is
    ``4^cells`` while the STG grows linearly.  ``cells = 45`` exceeds 10^27
    markings.
    """
    if cells < 1:
        raise ValueError("at least one cell is required")
    edges: list[tuple[str, str]] = []
    marking: list[str] = []
    inputs: list[str] = []
    outputs: list[str] = []
    for i in range(cells):
        request, acknowledge = f"q{i}", f"a{i}"
        inputs.append(request)
        outputs.append(acknowledge)
        edges.extend(
            [
                (f"{request}+", f"{acknowledge}+"),
                (f"{acknowledge}+", f"{request}-"),
                (f"{request}-", f"{acknowledge}-"),
                (f"{acknowledge}-", f"{request}+"),
            ]
        )
        marking.append(f"<{acknowledge}-,{request}+>")
    stg = STG.from_edges(
        name=f"independent_cells_{cells}",
        inputs=inputs,
        outputs=outputs,
        edges=edges,
        marking=[],
        initial_values={s: 0 for s in inputs + outputs},
    )
    stg.set_marking(marking)
    return stg


def independent_cells_marking_count(cells: int) -> int:
    """Closed-form marking count of :func:`independent_cells` (``4^cells``)."""
    return 4 ** cells
