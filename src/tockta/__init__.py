"""Discrete-time CSP to UPPAAL timed-automata translation with bounded
trace-equivalence checking between the two.

The package has three layers: the process language (`cspast`, `parser`,
`semantics`), the automata side (`tamodel`, `translate`, `taexec`,
`uppaalxml`), and the comparison harness (`harness`, `cli`).  Both
engines' state spaces are searched by the same routines (`lts`).
"""

from .cspast import (
    CspProcess,
    CspSpec,
    ExtChoice,
    GenPar,
    Hide,
    IntChoice,
    Interleave,
    Interrupt,
    Prefix,
    Ref,
    Rename,
    Seq,
    Skip,
    SpecError,
    Stop,
    alphabet,
    format_process,
    format_spec,
)
from .harness import check_spec, compare_traces, generate_corpus, prove_stop_base
from .parser import parse, parse_file
from .semantics import TraceSet, csp_traces, initials, step, traces_from_text, traces_to_text
from .taexec import network_traces, raw_network_traces
from .tamodel import NetworkModel, erasure_set, validate
from .translate import assemble
from .uppaalxml import emit, load, load_file, save_file

__version__ = "0.1.0"
