"""Print the 72-answer ``BoundService`` comparison set as canonical JSON.

The set is fft 3–8, bhk 6–9 and matmul 3–5 at M = 4 and 16 in both
normalisations (52 spectral answers), plus ``convex-min-cut`` at both memory
sizes on the graphs of at most 500 vertices (20 answers).  Timing and trace
fields are dropped, so two source trees that answer alike print the same
bytes.  To compare a change with its parent:

    PYTHONPATH=src python tests/answer_set.py > change.json
    PYTHONPATH=/path/to/parent/src python tests/answer_set.py > parent.json
    cmp parent.json change.json

With ``--store DIR`` the service answers through a spectrum store at DIR:
the first run writes it, a second run on the same DIR re-reads it.  The
service's eigensolve and max-flow counts go to stderr, so a re-read shows
``eigensolves=0 flow_calls=0``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService

GRAPHS = [("fft", s) for s in range(3, 9)] + [("bhk", s) for s in range(6, 10)] + [
    ("matmul", s) for s in range(3, 6)
]
MEMORY_SIZES = (4, 16)
CONVEX_MAX_VERTICES = 500
DROPPED = ("elapsed_seconds", "eig_elapsed_seconds", "trace_id")


def queries():
    for family, size in GRAPHS:
        spec = GraphSpec(family=family, size_param=size)
        for M in MEMORY_SIZES:
            for normalization in ("normalized", "unnormalized"):
                yield BoundQuery(spec, M, normalization=normalization)
        if spec.build().num_vertices <= CONVEX_MAX_VERTICES:
            for M in MEMORY_SIZES:
                yield BoundQuery(spec, M, method="convex-min-cut")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", default=None, help="spectrum store directory")
    args = parser.parse_args(argv)
    service = BoundService(store=args.store)
    answers = []
    for answer in service.submit(list(queries())):
        item = answer.as_dict()
        for name in DROPPED:
            item.pop(name, None)
        answers.append(item)
    json.dump(answers, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    counters = service.counters()
    print(
        f"{len(answers)} answers, eigensolves={counters['cache_misses']} "
        f"flow_calls={counters['flow_calls']}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
