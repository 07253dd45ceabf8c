"""Versioned JSON protocol of the bounds-serving HTTP API.

This module is the single source of truth for the ``/v1`` wire schema:
both the server (:mod:`repro.server.app`) and the stdlib client
(:mod:`repro.server.client`) encode and decode through it, so the two can
never drift apart.  **Schema version 1** — the ``version`` field is part of
every request and response; a request carrying any other version is
rejected with a structured ``unsupported-version`` error, which is what
lets a future ``/v2`` coexist with clients pinned to ``/v1``.

Request (``POST /v1/bounds``)::

    {"version": 1,
     "queries": [{"graph": <graph-ref>,
                  "memory_size": 16,
                  "num_processors": 1,          # optional, default 1
                  "normalization": "normalized", # optional
                  "k": null,                     # optional truncation pin
                  "method": "spectral"}]}        # or "convex-min-cut"

Graph references come in three forms (server-side filesystem paths are
deliberately *not* one of them — path refs stay a local CLI affordance):

* ``{"family": "fft", "size": 4}`` — a named generator family, rebuilt
  server-side (the cheap, cacheable form the sweeps use);
* ``{"num_vertices": n, "edges": [[u, v], ...]}`` — an inline edge list
  for graphs the server has no generator for (e.g. traced programs);
* ``{"fingerprint": "ab12..."}`` — a graph the server has already seen
  inline, addressed by the structural fingerprint returned in every
  answer; clients upload an edge list once and re-query by handle.

Response::

    {"version": 1,
     "answers": [{... BoundAnswer fields ..., "fingerprint": "..."}]}

``"method": "spectral-coarse"`` is accepted as an alias of ``spectral``:
its answers carry the exact bound in ``bound``, ``bound_lo`` and
``bound_hi`` alike (the last two are ``null`` for every other method).

Errors are structured objects, never bare strings::

    {"version": 1,
     "error": {"code": "unknown-graph", "message": "...", "detail": {...}}}

with the HTTP status carried alongside (400 malformed/invalid, 404 unknown
fingerprint, 413 oversized batch/body/inline graph, 429 overload — see
:mod:`repro.server.runner` — and 500 for everything unexpected).  The
runner's transport raises :class:`ProtocolError` too, for a request it
cannot frame (400, 411, 414, 431).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.compgraph import ComputationGraph
from repro.runtime.families import FAMILY_BUILDERS, GraphSpec
from repro.runtime.service import (
    KNOWN_METHODS,
    KNOWN_NORMALIZATIONS,
    BoundAnswer,
    BoundQuery,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_QUERIES_PER_REQUEST",
    "MAX_INLINE_VERTICES",
    "ProtocolError",
    "GraphRegistry",
    "DecodedQuery",
    "decode_bounds_request",
    "encode_bounds_request",
    "encode_answers",
    "decode_answers",
    "encode_error",
]

PROTOCOL_VERSION = 1

#: Hard batch ceiling: admission control bounds concurrent *solves*, this
#: bounds how much work a single request can smuggle in.
MAX_QUERIES_PER_REQUEST = 1024

#: Inline-graph vertex ceiling: the body-size cap bounds the edge list but
#: not ``num_vertices``, and building a graph allocates O(num_vertices)
#: before anything else can validate it — an 80-byte request must not be
#: able to make the server allocate gigabytes.  Graphs beyond this belong
#: on disk next to the server (`.npz` + the local CLI), not in a request.
MAX_INLINE_VERTICES = 1_000_000

_QUERY_FIELDS = {"graph", "memory_size", "num_processors", "normalization", "k", "method"}
_ANSWER_FIELDS = frozenset(field.name for field in fields(BoundAnswer))
_GRAPH_REF_FORMS = ("family/size", "num_vertices/edges", "fingerprint")


class ProtocolError(Exception):
    """A structured protocol violation, mapped to one HTTP error response."""

    def __init__(
        self,
        message: str,
        code: str = "bad-request",
        status: int = 400,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.code = code
        self.status = int(status)
        self.detail = detail


class GraphRegistry:
    """LRU registry of inline-submitted graphs, keyed by fingerprint.

    Lets clients upload an edge list once and re-query it with a
    ``{"fingerprint": ...}`` reference.  Re-registering an identical graph
    returns the *same* :class:`ComputationGraph` object, so the service's
    identity-keyed engine LRU keeps serving the warm engine instead of
    rebuilding one per request.
    """

    def __init__(self, max_graphs: int = 128) -> None:
        if max_graphs < 1:
            raise ValueError(f"max_graphs must be positive, got {max_graphs}")
        self._max_graphs = int(max_graphs)
        self._graphs: "OrderedDict[str, ComputationGraph]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._graphs)

    def register(self, graph: ComputationGraph) -> Tuple[ComputationGraph, str]:
        """Record ``graph``; returns the canonical instance and fingerprint."""
        fingerprint = graph.fingerprint()
        with self._lock:
            existing = self._graphs.get(fingerprint)
            if existing is not None:
                graph = existing
            else:
                self._graphs[fingerprint] = graph
            self._graphs.move_to_end(fingerprint)
            while len(self._graphs) > self._max_graphs:
                self._graphs.popitem(last=False)
        return graph, fingerprint

    def get(self, fingerprint: str) -> Optional[ComputationGraph]:
        with self._lock:
            graph = self._graphs.get(fingerprint)
            if graph is not None:
                self._graphs.move_to_end(fingerprint)
            return graph


@dataclass(frozen=True)
class DecodedQuery:
    """One wire query, decoded: the service query plus serving metadata.

    ``fingerprint`` is set for inline/fingerprint graph refs and echoed in
    the answer so clients learn the re-query handle.
    """

    query: BoundQuery
    fingerprint: Optional[str] = None


def _check_version(payload: Dict[str, object]) -> None:
    version = payload.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r}; this server speaks "
            f"version {PROTOCOL_VERSION}",
            code="unsupported-version",
        )


def _int_field(mapping: Dict[str, object], name: str, default=None):
    value = mapping.get(name, default)
    if value is default:
        return default
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(
            f"field {name!r} must be an integer, got {type(value).__name__}",
            code="invalid-query",
        )
    return int(value)


def _decode_graph_ref(
    ref: object, registry: Optional[GraphRegistry]
) -> Tuple[Union[GraphSpec, ComputationGraph], Optional[str]]:
    """A wire graph reference -> (service graph ref, fingerprint)."""
    if not isinstance(ref, dict):
        raise ProtocolError(
            f"'graph' must be an object with one of {_GRAPH_REF_FORMS}",
            code="invalid-graph-ref",
        )
    if "family" in ref:
        if set(ref) != {"family", "size"}:
            raise ProtocolError(
                "a family graph ref carries exactly the fields 'family' and 'size'",
                code="invalid-graph-ref",
            )
        family = ref["family"]
        if not isinstance(family, str) or family not in FAMILY_BUILDERS:
            raise ProtocolError(
                f"unknown graph family {family!r}",
                code="unknown-family",
                detail={"known_families": sorted(FAMILY_BUILDERS)},
            )
        size = _int_field(ref, "size")
        if size is None:
            raise ProtocolError("a family graph ref needs an integer 'size'",
                                code="invalid-graph-ref")
        return GraphSpec(family=family, size_param=size), None
    if "edges" in ref or "num_vertices" in ref:
        if set(ref) != {"num_vertices", "edges"}:
            raise ProtocolError(
                "an inline graph ref carries exactly the fields 'num_vertices' "
                "and 'edges'",
                code="invalid-graph-ref",
            )
        num_vertices = _int_field(ref, "num_vertices")
        edges = ref["edges"]
        if num_vertices is None or num_vertices < 0:
            raise ProtocolError(
                "'num_vertices' must be a non-negative integer",
                code="invalid-graph-ref",
            )
        if num_vertices > MAX_INLINE_VERTICES:
            raise ProtocolError(
                f"inline graphs carry at most {MAX_INLINE_VERTICES} vertices, "
                f"got {num_vertices}; save the graph as .npz and query it "
                f"through the local CLI instead",
                code="graph-too-large",
                status=413,
            )
        if not (
            isinstance(edges, list)
            and all(
                isinstance(e, list) and len(e) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in e)
                for e in edges
            )
        ):
            raise ProtocolError(
                "'edges' must be a list of [tail, head] integer pairs",
                code="invalid-graph-ref",
            )
        graph = ComputationGraph(num_vertices)
        if edges:
            try:
                graph.add_edges_array(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
            except (ValueError, OverflowError) as exc:
                # OverflowError: an edge id outside int64 is still a malformed
                # ref (400), not a server fault (500).
                raise ProtocolError(str(exc), code="invalid-graph-ref")
        if registry is not None:
            graph, fingerprint = registry.register(graph)
        else:
            fingerprint = graph.fingerprint()
        return graph, fingerprint
    if "fingerprint" in ref:
        if set(ref) != {"fingerprint"} or not isinstance(ref["fingerprint"], str):
            raise ProtocolError(
                "a fingerprint graph ref carries exactly one string field "
                "'fingerprint'",
                code="invalid-graph-ref",
            )
        fingerprint = str(ref["fingerprint"])
        graph = registry.get(fingerprint) if registry is not None else None
        if graph is None:
            raise ProtocolError(
                f"no graph with fingerprint {fingerprint!r} is registered on this "
                f"server; submit it inline once first",
                code="unknown-graph",
                status=404,
            )
        return graph, fingerprint
    raise ProtocolError(
        f"unrecognised graph ref {sorted(ref)}; expected one of {_GRAPH_REF_FORMS}",
        code="invalid-graph-ref",
    )


def _decode_query(
    payload: object, registry: Optional[GraphRegistry]
) -> DecodedQuery:
    if not isinstance(payload, dict):
        raise ProtocolError("each query must be an object", code="invalid-query")
    unknown = set(payload) - _QUERY_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown query field(s) {sorted(unknown)}; known fields are "
            f"{sorted(_QUERY_FIELDS)}",
            code="invalid-query",
        )
    if "graph" not in payload:
        raise ProtocolError("each query needs a 'graph' reference",
                            code="invalid-query")
    graph, fingerprint = _decode_graph_ref(payload["graph"], registry)
    memory_size = _int_field(payload, "memory_size")
    if memory_size is None or memory_size < 0:
        raise ProtocolError(
            "'memory_size' must be a non-negative integer",
            code="invalid-query",
        )
    # Every bound is float arithmetic on M.  Up to 2**53 every integer M is
    # an exact float and 2kM stays finite for every k; near the float
    # maximum 2kM overflows at every k, and the answer would carry a
    # -Infinity, which is not JSON.
    if memory_size > 2**53:
        raise ProtocolError("'memory_size' must be at most 2**53",
                            code="invalid-query")
    num_processors = _int_field(payload, "num_processors", 1)
    if num_processors < 1:
        raise ProtocolError("'num_processors' must be >= 1", code="invalid-query")
    k = _int_field(payload, "k", None)
    if k is not None and k < 1:
        raise ProtocolError("'k' must be >= 1 when given", code="invalid-query")
    # Closed vocabularies, rejected *here* rather than by the service: the
    # strings label the repro_queries_total metric, and unvalidated values
    # would let clients grow the label cardinality without bound.
    normalization = payload.get("normalization", "normalized")
    if not isinstance(normalization, str) or normalization not in KNOWN_NORMALIZATIONS:
        raise ProtocolError(
            f"unknown normalization {normalization!r}; expected one of "
            f"{sorted(KNOWN_NORMALIZATIONS)}",
            code="invalid-query",
        )
    method = payload.get("method", "spectral")
    if not isinstance(method, str) or method not in KNOWN_METHODS:
        raise ProtocolError(
            f"unknown method {method!r}; expected one of {sorted(KNOWN_METHODS)}",
            code="invalid-query",
        )
    query = BoundQuery(
        graph=graph,
        memory_size=memory_size,
        num_processors=num_processors,
        normalization=normalization,
        k=k,
        method=method,
    )
    return DecodedQuery(query=query, fingerprint=fingerprint)


def decode_bounds_request(
    payload: object, registry: Optional[GraphRegistry] = None
) -> List[DecodedQuery]:
    """Validate and decode a ``POST /v1/bounds`` body.

    Raises :class:`ProtocolError` (with a structured code and HTTP status)
    on any schema violation; on success every returned query is ready for
    :meth:`~repro.runtime.service.BoundService.submit`.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    _check_version(payload)
    unknown = set(payload) - {"version", "queries"}
    if unknown:
        raise ProtocolError(f"unknown request field(s) {sorted(unknown)}")
    queries = payload.get("queries")
    if not isinstance(queries, list) or not queries:
        raise ProtocolError("'queries' must be a non-empty list")
    if len(queries) > MAX_QUERIES_PER_REQUEST:
        raise ProtocolError(
            f"a request carries at most {MAX_QUERIES_PER_REQUEST} queries, "
            f"got {len(queries)}",
            code="batch-too-large",
            status=413,
        )
    return [_decode_query(query, registry) for query in queries]


def _encode_graph_ref(graph) -> Dict[str, object]:
    if isinstance(graph, GraphSpec):
        if graph.path is not None:
            raise ProtocolError(
                "path graph refs are local-only; send the graph inline "
                "(num_vertices/edges) instead",
                code="invalid-graph-ref",
            )
        return {"family": graph.family, "size": int(graph.size_param)}
    if isinstance(graph, ComputationGraph):
        return {
            "num_vertices": graph.num_vertices,
            "edges": [[int(u), int(v)] for u, v in graph.edges()],
        }
    raise ProtocolError(
        f"cannot encode a graph ref of type {type(graph).__name__}",
        code="invalid-graph-ref",
    )


def encode_bounds_request(
    queries: Sequence[Union[BoundQuery, Dict[str, object]]]
) -> Dict[str, object]:
    """Encode queries as a ``POST /v1/bounds`` body (the client half).

    Accepts :class:`BoundQuery` objects (graphs as :class:`GraphSpec` or
    live :class:`ComputationGraph`, sent inline) and raw wire dicts (e.g.
    ``{"graph": {"fingerprint": ...}, ...}``) interchangeably.
    """
    encoded: List[Dict[str, object]] = []
    for query in queries:
        if isinstance(query, dict):
            encoded.append(query)
            continue
        item: Dict[str, object] = {
            "graph": _encode_graph_ref(query.graph),
            "memory_size": int(query.memory_size),
        }
        if query.num_processors != 1:
            item["num_processors"] = int(query.num_processors)
        if query.normalization != "normalized":
            item["normalization"] = query.normalization
        if query.k is not None:
            item["k"] = int(query.k)
        if query.method != "spectral":
            item["method"] = query.method
        encoded.append(item)
    return {"version": PROTOCOL_VERSION, "queries": encoded}


def encode_answers(
    answers: Sequence[BoundAnswer],
    fingerprints: Optional[Sequence[Optional[str]]] = None,
) -> Dict[str, object]:
    """Encode a batch of answers as the ``POST /v1/bounds`` response body."""
    if fingerprints is None:
        fingerprints = [None] * len(answers)
    payload = []
    for answer, fingerprint in zip(answers, fingerprints):
        item = answer.as_dict()
        if fingerprint is not None:
            item["fingerprint"] = fingerprint
        payload.append(item)
    return {"version": PROTOCOL_VERSION, "answers": payload}


def decode_answers(payload: object) -> List[BoundAnswer]:
    """Decode a ``POST /v1/bounds`` response body (the client half)."""
    if not isinstance(payload, dict):
        raise ProtocolError("response body must be a JSON object",
                            code="invalid-response")
    _check_version(payload)
    answers = payload.get("answers")
    if not isinstance(answers, list):
        raise ProtocolError("response carries no 'answers' list",
                            code="invalid-response")
    decoded = []
    for item in answers:
        if not isinstance(item, dict):
            raise ProtocolError("each answer must be an object",
                                code="invalid-response")
        # Fields this version does not know (``fingerprint``, or one a
        # server of another version sends) are skipped; missing ones fail.
        known = {k: v for k, v in item.items() if k in _ANSWER_FIELDS}
        try:
            decoded.append(BoundAnswer(**known))
        except TypeError as exc:
            raise ProtocolError(str(exc), code="invalid-response")
    return decoded


def encode_error(
    message: str,
    code: str = "bad-request",
    detail: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The structured error body every non-2xx response carries."""
    error: Dict[str, object] = {"code": code, "message": message}
    if detail is not None:
        error["detail"] = detail
    return {"version": PROTOCOL_VERSION, "error": error}
