"""Concurrency relations of an STG (Section V-A).

The concurrency relation CR relates pairs of nodes (places and transitions)
that can be simultaneously "active": two places that can be simultaneously
marked, a place that can be marked while a transition is enabled (without the
transition consuming its token), and two transitions that can be enabled
without disabling each other.

For live and safe free-choice nets the relation is computed exactly by a
polynomial fixed-point algorithm in the style of Kovalyov and Esparza
(reference [29] of the paper):

* initially, all pairs of distinct places marked at the initial marking and
  all pairs of distinct output places of a transition are concurrent;
* a node ``x`` is concurrent with a transition ``t`` when it is concurrent
  with every input place of ``t`` (and is not itself an input or output place
  of ``t``); in that case ``x`` also becomes concurrent with every output
  place of ``t``;
* iterate to a fixed point.

For non-free-choice nets the result is a conservative over-approximation,
which is the safe direction for the synthesis method.

The relation is stored as one bitset row (a plain ``int``) per node over an
interned node order; the name-based accessors decode at the API boundary.
The fixed point keeps a worklist of transitions.  Evaluating ``t`` computes
every node the rule relates to it at once,

    ``C_t = AND(rows[p] for p in •t) & ~(•t | t• | {t})``,

and ORs ``C_t`` into ``rows[t]`` and into ``rows[o]`` for each ``o ∈ t•``:
the forward direction only.  ``C_t`` depends only on the rows of ``t``'s
input places, so ``t`` is queued again only when one of them grows.  When
the worklist drains, one whole-matrix transpose
(:func:`repro.structural.bitmatrix.transpose`) adds the deferred transposed
bits, ``rows[i] |= column i``, and re-queues the consumers of every place
whose row grew; the rounds repeat until one adds nothing.  The rule is
monotone, so deferring the transposed bits does not move the least fixed
point.  An evaluation costs ``|•t|`` big-integer ANDs, and a round one
transpose: three whole-matrix delta swaps plus one byte slice per node,
instead of one interpreter step per inserted pair.  The per-pair worklist
kept as :func:`_reference_compute_concurrency_relation` instead checks the
rule once per (inserted pair, consumer of its place).

The *signal concurrency relation* SCR relates a node to a signal when it is
concurrent with some transition of that signal (Definition 3).
"""

from __future__ import annotations

from collections import deque

from repro.stg.stg import STG
from repro.structural.bitmatrix import transpose


class ConcurrencyRelation:
    """The symmetric concurrency relation over the nodes of an STG."""

    def __init__(self, stg: STG):
        self.stg = stg
        net = stg.net
        self._names: list[str] = net.nodes  # places first, then transitions
        self._num_places = net.num_places()
        self._index: dict[str, int] = {
            name: i for i, name in enumerate(self._names)
        }
        self._rows: list[int] = [0] * len(self._names)
        # signal -> bitmask over node indices of the signal's transitions
        self._signal_masks: dict[str, int] = {}
        # signal -> bitmask over place indices of the places concurrent to it
        self._signal_place_masks: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Construction (used by the computation function)
    # ------------------------------------------------------------------ #

    def _add(self, first: str, second: str) -> None:
        """Add the symmetric pair of two distinct nodes."""
        i = self._index[first]
        j = self._index[second]
        if i != j:
            self._rows[i] |= 1 << j
            self._rows[j] |= 1 << i

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def are_concurrent(self, first: str, second: str) -> bool:
        """True if the two nodes are (conservatively) concurrent."""
        i = self._index.get(first)
        j = self._index.get(second)
        if i is None or j is None:
            return False
        return bool(self._rows[i] >> j & 1)

    def _signal_mask(self, signal: str) -> int:
        """Bitmask of the node indices of a signal's transitions (memoised)."""
        mask = self._signal_masks.get(signal)
        if mask is None:
            mask = 0
            lookup = self._index.get
            for transition in self.stg.transitions_of_signal(signal):
                j = lookup(transition)
                if j is not None:
                    mask |= 1 << j
            self._signal_masks[signal] = mask
        return mask

    def node_concurrent_with_signal(self, node: str, signal: str) -> bool:
        """Signal concurrency relation SCR (Definition 3).

        True when the node is concurrent with some transition of ``signal``
        — one intersection of the node's bitset row with the signal's
        transition mask.
        """
        index = self._index.get(node)
        if index is None:
            return False
        return bool(self._rows[index] & self._signal_mask(signal))

    def place_names(self) -> list[str]:
        """The place names in the order of the place bits (the net's)."""
        return self._names[: self._num_places]

    def signal_place_mask(self, signal: str) -> int:
        """SCR over the places, as one mask over the place bits (memoised).

        Bit ``i`` is set when place ``i`` is concurrent with some transition
        of ``signal``.  The relation is symmetric, so this is the OR of the
        rows of the signal's transitions, restricted to the places: answered
        once per signal instead of once per (place, signal) query.
        """
        mask = self._signal_place_masks.get(signal)
        if mask is None:
            mask = 0
            rows = self._rows
            transitions = self._signal_mask(signal)
            while transitions:
                low = transitions & -transitions
                mask |= rows[low.bit_length() - 1]
                transitions ^= low
            mask &= (1 << self._num_places) - 1
            self._signal_place_masks[signal] = mask
        return mask

    def pairs(self) -> set[frozenset[str]]:
        """All concurrent pairs as frozensets."""
        result: set[frozenset[str]] = set()
        names = self._names
        for i, row in enumerate(self._rows):
            row >>= i + 1  # emit each symmetric pair once
            base = i + 1
            while row:
                low = row & -row
                result.add(frozenset((names[i], names[base + low.bit_length() - 1])))
                row ^= low
        return result

    def transition_pairs(self) -> set[frozenset[str]]:
        """Concurrent transition-transition pairs only."""
        result: set[frozenset[str]] = set()
        names = self._names
        num_places = self._num_places
        for i in range(num_places, len(names)):
            row = self._rows[i] >> (i + 1)
            base = i + 1
            while row:
                low = row & -row
                result.add(frozenset((names[i], names[base + low.bit_length() - 1])))
                row ^= low
        return result

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """JSON-serializable form: the node order plus one hex row per node.

        The node order is recorded explicitly so a reader can detect a
        mismatch against the net it rebuilds the relation over (the bit
        positions are only meaningful relative to that order).
        """
        return {
            "nodes": list(self._names),
            "rows": [format(row, "x") for row in self._rows],
        }

    @classmethod
    def from_json(cls, stg: STG, data: dict) -> "ConcurrencyRelation":
        """Rebuild a relation over ``stg`` from :meth:`to_json` output.

        Raises :class:`ValueError` when the serialized node order does not
        match the net's (the rows would be misinterpreted bit-by-bit).
        """
        relation = cls(stg)
        nodes = list(data.get("nodes", ()))
        if nodes != relation._names:
            raise ValueError(
                "serialized concurrency relation does not match the net: "
                f"{len(nodes)} nodes vs {len(relation._names)}"
            )
        rows = [int(row, 16) for row in data.get("rows", ())]
        if len(rows) != len(relation._rows):
            raise ValueError("serialized concurrency relation has wrong row count")
        relation._rows = rows
        return relation


def compute_concurrency_relation(stg: STG) -> ConcurrencyRelation:
    """Fixed-point computation of the concurrency relation.

    The worklist holds transitions (see the module docstring): a transition
    is re-evaluated only after the row of one of its input places grew, and
    one evaluation applies the inference rule to every node at once, setting
    the forward bits.  A drained worklist that set any bit is followed by
    one transpose that sets the transposed bits and re-queues; the rounds
    stop when a drain or a transpose adds nothing (5 transposes on
    muller_pipeline_32 and 128, 2 on dining_philosophers_64, none on
    dma_ctrl).  The fixed point runs entirely on node indices and bitset
    rows; names only appear in the seed extraction and in the returned
    relation's accessors.
    """
    net = stg.net
    relation = ConcurrencyRelation(stg)
    index = relation._index
    rows = relation._rows
    num_places = relation._num_places

    def add(i: int, j: int) -> None:
        if i != j:
            rows[i] |= 1 << j
            rows[j] |= 1 << i

    transition_indices = [index[t] for t in net.transitions]
    pre_places: dict[int, list[int]] = {}
    post_places: dict[int, list[int]] = {}
    # per transition: the bits no inferred partner may carry (itself and its
    # adjacent places)
    excluded: dict[int, int] = {}
    consumers: list[list[int]] = [[] for _ in range(num_places)]
    for transition, t_index in zip(net.transitions, transition_indices):
        inputs = [index[place] for place in net.preset(transition)]
        outputs = [index[place] for place in net.postset(transition)]
        for p_index in inputs:
            consumers[p_index].append(t_index)
        mask = 1 << t_index
        for p_index in inputs + outputs:
            mask |= 1 << p_index
        pre_places[t_index] = inputs
        post_places[t_index] = outputs
        excluded[t_index] = mask

    # Seed: places simultaneously marked initially.
    marked = sorted(net.initial_marking.marked_places)
    marked_indices = [index[p] for p in marked if p in index]
    for i, first in enumerate(marked_indices):
        for second in marked_indices[i + 1:]:
            add(first, second)
    # Seed: output places of the same transition are simultaneously marked
    # right after it fires.
    for t_index in transition_indices:
        outputs = post_places[t_index]
        for i, first in enumerate(outputs):
            for second in outputs[i + 1:]:
                add(first, second)

    # Propagation: ``C_t`` is every node concurrent with all input places of
    # ``t``; it becomes concurrent with ``t`` and with every output place of
    # ``t``.  Only those forward rows take the new bits here; the transposed
    # bits wait for the whole-matrix transpose that ends each round.  A place
    # whose row grows re-queues its consumers, the only transitions whose
    # ``C_t`` can grow with it.
    queued = [False] * len(rows)
    worklist: deque[int] = deque()

    def requeue(p_index: int) -> None:
        for consumer in consumers[p_index]:
            if not queued[consumer]:
                queued[consumer] = True
                worklist.append(consumer)

    for t_index in transition_indices:
        if pre_places[t_index]:
            queued[t_index] = True
            worklist.append(t_index)
    while worklist:
        grew = False
        while worklist:
            t_index = worklist.popleft()
            queued[t_index] = False
            inputs = pre_places[t_index]
            common = rows[inputs[0]]
            for p_index in inputs[1:]:
                common &= rows[p_index]
            common &= ~excluded[t_index]
            for target in (t_index, *post_places[t_index]):
                new = common & ~rows[target]
                if new:
                    rows[target] |= new
                    grew = True
                    if target < num_places:
                        requeue(target)
        if not grew:
            break  # the rows are still symmetric: nothing to transpose
        for i, column in enumerate(transpose(rows)):
            new = column & ~rows[i]
            if new:
                rows[i] |= new
                if i < num_places:
                    requeue(i)
    return relation


def _reference_compute_concurrency_relation(stg: STG) -> ConcurrencyRelation:
    """Per-pair worklist fixed point: the differential oracle.

    Every pair of nodes is queued once when it is inserted, and each pair
    re-checks the inference rule for the consumers of its places.
    :func:`compute_concurrency_relation` returns the same rows
    (``tests/test_structural_fixed_points.py`` pins this).
    """
    net = stg.net
    relation = ConcurrencyRelation(stg)
    index = relation._index
    rows = relation._rows
    num_places = relation._num_places
    worklist: deque[tuple[int, int]] = deque()

    append = worklist.append

    def add(i: int, j: int) -> None:
        if i != j and not rows[i] >> j & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            append((i, j))

    # Per-transition masks over the node-index space, and per-place consumer
    # lists, precomputed once (as index-addressed arrays) so the fixed point
    # never touches name sets or hashes.
    num_nodes = len(relation._names)
    transition_indices = [index[t] for t in net.transitions]
    pre_mask: list[int] = [0] * num_nodes
    adjacent_mask: list[int] = [0] * num_nodes
    post_places: list[list[int]] = [[] for _ in range(num_nodes)]
    consumers: list[list[int]] = [[] for _ in range(num_places)]
    for transition, t_index in zip(net.transitions, transition_indices):
        pre = 0
        for place in net.preset(transition):
            p_index = index[place]
            pre |= 1 << p_index
            consumers[p_index].append(t_index)
        post = 0
        outputs = []
        for place in net.postset(transition):
            p_index = index[place]
            post |= 1 << p_index
            outputs.append(p_index)
        pre_mask[t_index] = pre
        adjacent_mask[t_index] = pre | post
        post_places[t_index] = outputs

    # Seed: places simultaneously marked initially.
    marked = sorted(net.initial_marking.marked_places)
    marked_indices = [index[p] for p in marked if p in index]
    for i, first in enumerate(marked_indices):
        for second in marked_indices[i + 1:]:
            add(first, second)
    # Seed: output places of the same transition are simultaneously marked
    # right after it fires.
    for t_index in transition_indices:
        outputs = sorted(post_places[t_index])
        for i, first in enumerate(outputs):
            for second in outputs[i + 1:]:
                add(first, second)

    # Propagation: when ``node`` becomes concurrent with a place, only the
    # transitions consuming that place can newly satisfy the inference rule
    # ("node concurrent with every input place of t").  The rule body is
    # inlined: it runs once per (pair, adjacent transition) and dominates the
    # fixed point on densely concurrent nets.
    popleft = worklist.popleft
    while worklist:
        first, second = popleft()
        for node, other in ((first, second), (second, first)):
            if other >= num_places:
                continue
            for t_index in consumers[other]:
                if node == t_index or adjacent_mask[t_index] >> node & 1:
                    continue
                pre = pre_mask[t_index]
                if pre and rows[node] & pre == pre:
                    if not rows[node] >> t_index & 1:
                        rows[node] |= 1 << t_index
                        rows[t_index] |= 1 << node
                        append((node, t_index))
                    for output in post_places[t_index]:
                        if output != node and not rows[node] >> output & 1:
                            rows[node] |= 1 << output
                            rows[output] |= 1 << node
                            append((node, output))
    return relation


def concurrency_from_reachability(stg: STG) -> ConcurrencyRelation:
    """Exact concurrency relation extracted from the reachability graph.

    Used as a test oracle for :func:`compute_concurrency_relation` on small
    STGs; exponential in the worst case.
    """
    from repro.petri.reachability import build_reachability_graph

    net = stg.net
    graph = build_reachability_graph(net)
    relation = ConcurrencyRelation(stg)
    for marking in graph:
        marked = sorted(marking.marked_places)
        enabled = sorted(graph.enabled_transitions(marking))
        # place || place
        for i, first in enumerate(marked):
            for second in marked[i + 1:]:
                relation._add(first, second)
        # place || transition: the place stays marked while the transition
        # fires (it is not an input place of the transition).
        for place in marked:
            for transition in enabled:
                if place not in net.preset(transition):
                    relation._add(place, transition)
        # transition || transition (true concurrency: neither disables the
        # other).
        for i, first in enumerate(enabled):
            after_first = net.fire(first, marking)
            for second in enabled[i + 1:]:
                if net.is_enabled(second, after_first):
                    after_second = net.fire(second, marking)
                    if net.is_enabled(first, after_second):
                        relation._add(first, second)
    return relation
