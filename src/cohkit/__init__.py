"""Quantum coherence measures with a certified robustness SDP solver.

Import each name from the submodule that defines it: ``states`` (states,
sampling, JSON files), ``linalg``, ``measures`` (the l1, relative-entropy and
robustness quantifiers and the ordering decision), ``sdp`` (the robustness
SDP and its certificates), ``validation`` (the measure-axiom suite),
``experiments`` (the Monte-Carlo harness) and ``cli``.
"""

__version__ = "0.1.0"
