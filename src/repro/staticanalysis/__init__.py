"""Static analysis layer: the shared decode graph over a text section.

One :class:`DecodeGraph` per section (:mod:`.decode_graph`, shared
through :func:`shared_decode_graph`) reads each offset's decode once;
its successor and distance tables drive the syntactic scan, and its
reachability table is the sound semantic prefilter of gadget
extraction.
"""

from .decode_graph import DecodeGraph, shared_decode_graph

__all__ = ["DecodeGraph", "shared_decode_graph"]
