"""gesturelink: hand-landmark gesture encoding and LLM-agent grounding.

Pipeline: parse a 21-point landmark stream, detect gesture windows at
the chest-level trigger, encode the two-channel gesture state matrix,
describe it with an LLM, then ground the gesture to one interface
function through an inference/context agent dialogue. A scripted
transport backend makes every stage replayable offline.
"""

__version__ = "0.1.0"
