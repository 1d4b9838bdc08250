"""A suite of small and medium asynchronous-controller STGs.

The paper evaluates its method on the classic asynchronous benchmark set
(chu, vbe, nowick, sbuf, pe-send-ifc families).  Those original files are not
distributed with the paper, so this module provides *re-creations*: a suite
of realistic controller specifications covering the same structural variety —
purely sequential handshakes, fork/join concurrency, free choice between
operating modes, phase converters, and one specification with a CSC violation
(used by the coding tests and excluded from the synthesis-quality tables).

Every STG is written in the astg ``.g`` format and parsed through the public
parser, so the suite doubles as a parser regression test.  All properties
assumed by the synthesis flow (free choice, liveness, safeness, consistency,
CSC where claimed) are asserted in ``tests/test_classic_benchmarks.py``.
"""

from __future__ import annotations

from repro.stg.parser import parse_g
from repro.stg.stg import STG

#: ``.g`` sources of the benchmark suite, keyed by name.
CLASSIC_SOURCES: dict[str, str] = {
    # Purely sequential request/acknowledge wrapper (4 states).
    "handshake_seq": """
.model handshake_seq
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
""",
    # Parallelizer, broad protocol: one master handshake forks two
    # subordinate handshakes whose rising phases complete before the master
    # acknowledge and whose falling phases overlap the master release.
    "parallelizer": """
.model parallelizer
.inputs req d1 d2
.outputs r1 r2 ack
.graph
req+ r1+ r2+
r1+ d1+
r2+ d2+
d1+ ack+
d2+ ack+
ack+ req-
req- r1- r2-
r1- d1-
r2- d2-
d1- ack-
d2- ack-
ack- req+
.marking { <ack-,req+> }
.end
""",
    # Sequencer, broad protocol: the two subordinate handshakes run one
    # after the other inside the rising phase of the master.
    "sequencer": """
.model sequencer
.inputs req d1 d2
.outputs r1 r2 ack
.graph
req+ r1+
r1+ d1+
d1+ r2+
r2+ d2+
d2+ ack+
ack+ req-
req- r1-
r1- d1-
d1- r2-
r2- d2-
d2- ack-
ack- req+
.marking { <ack-,req+> }
.end
""",
    # Selector: a free choice between two operating modes decided by which
    # environment signal rises; each mode runs its own handshake.
    "selector": """
.model selector
.inputs s1 s2 d
.outputs r ack1 ack2
.graph
p0 s1+ s2+
s1+ r+/1
r+/1 d+/1
d+/1 ack1+
ack1+ s1-
s1- r-/1
r-/1 d-/1
d-/1 ack1-
ack1- p0
s2+ r+/2
r+/2 d+/2
d+/2 ack2+
ack2+ s2-
s2- r-/2
r-/2 d-/2
d-/2 ack2-
ack2- p0
.marking { p0 }
.end
""",
    # Read/write port controller: free choice between a read and a write
    # cycle sharing the enable/acknowledge signals (satisfies CSC but not
    # USC — two markings in different modes share a binary code).
    "rw_port": """
.model rw_port
.inputs rd wr ack
.outputs en
.graph
p0 rd+ wr+
rd+ en+/1
en+/1 ack+/1
ack+/1 rd-
rd- en-/1
en-/1 ack-/1
ack-/1 p0
wr+ en+/2
en+/2 ack+/2
ack+/2 wr-
wr- en-/2
en-/2 ack-/2
ack-/2 p0
.marking { p0 }
.end
""",
    # Two-phase to four-phase protocol converter; the output toggles in the
    # middle of each four-phase handshake so every state has a unique code.
    "converter_2to4": """
.model converter_2to4
.inputs i a
.outputs r o
.graph
i+ r+/1
r+/1 a+/1
a+/1 o+
o+ r-/1
r-/1 a-/1
a-/1 i-
i- r+/2
r+/2 a+/2
a+/2 o-
o- r-/2
r-/2 a-/2
a-/2 i+
.marking { <a-/2,i+> }
.end
""",
    # Dual-rail completion detector: a two-input C-element.
    "completion": """
.model completion
.inputs t f
.outputs done
.graph
p0 t+
p1 f+
t+ done+
f+ done+
done+ t-
done+ f-
t- done-
f- done-
done- p0
done- p1
.marking { p0 p1 }
.end
""",
    # Fully sequential pipeline stage controller (8-state cycle).
    "pipeline_ctrl": """
.model pipeline_ctrl
.inputs ri ao
.outputs ai ro
.graph
ri+ ro+
ro+ ao+
ao+ ai+
ai+ ri-
ri- ro-
ro- ao-
ao- ai-
ai- ri+
.marking { <ai-,ri+> }
.end
""",
    # Semi-decoupled latch controller: input and output handshakes overlap.
    # This specification has a genuine CSC conflict (it needs a state signal
    # to be implementable) and is used as the negative example of the coding
    # tests.
    "latch_ctrl": """
.model latch_ctrl
.inputs rin aout
.outputs ain rout
.graph
rin+ ain+
ain+ rin- rout+
rin- ain-
ain- rin+
rout+ aout+
aout+ rout-
rout- aout- ain-
aout- rout+
.marking { <ain-,rin+> <aout-,rout+> }
.end
""",
    # Mode-selecting DMA-style controller: a free choice between a direct
    # transfer (one bus handshake) and an extended transfer that chains a
    # second handshake on a dedicated request before completing.
    "dma_ctrl": """
.model dma_ctrl
.inputs single burst gnt xgnt
.outputs breq xreq done
.graph
p0 single+ burst+
single+ breq+/1
breq+/1 gnt+/1
gnt+/1 done+/1
done+/1 single-
single- breq-/1
breq-/1 gnt-/1
gnt-/1 done-/1
done-/1 p0
burst+ breq+/2
breq+/2 gnt+/2
gnt+/2 xreq+
xreq+ xgnt+
xgnt+ done+/2
done+/2 burst-
burst- breq-/2
breq-/2 gnt-/2
gnt-/2 xreq-
xreq- xgnt-
xgnt- done-/2
done-/2 p0
.marking { p0 }
.end
""",
}

#: Names whose specification intentionally violates CSC (kept for the coding
#: tests; excluded from the synthesis-quality tables).
CSC_VIOLATING: frozenset[str] = frozenset({"latch_ctrl"})


def classic_names(synthesizable_only: bool = False) -> list[str]:
    """Names of the classic benchmark suite, in a stable order."""
    names = sorted(CLASSIC_SOURCES)
    if synthesizable_only:
        names = [name for name in names if name not in CSC_VIOLATING]
    return names


def load_classic(name: str) -> STG:
    """Parse one classic benchmark by name."""
    try:
        source = CLASSIC_SOURCES[name]
    except KeyError as error:
        raise KeyError(f"unknown classic benchmark {name!r}") from error
    return parse_g(source, name=name)
