"""Seeded request sets for the three benchmark workloads.

Every request is a structured `verlinde` request (a JSON-ready dict).  The
same seed gives the same list in the same order.  The seed orders the
requests of every workload; on `pointsum` and `classical` it also picks the
weights.  The row/level/genus grid itself is fixed, so the cost of a request
set barely depends on the seed.  Why each workload exists is in README.md.

Usage: PYTHONPATH=src python bench/workloads.py WORKLOAD SEED
"""

import json
import random
import sys

WORKLOADS = ("crosscheck", "pointsum", "classical")

# request tolerance; the CLI default, written out so the check and the
# request cannot drift apart
TOLERANCE = 1e-5

_TWIST_JSON = {"identity": ("identity", 1), "diagram2": ("diagram", 2),
               "diagram3": ("diagram", 3), "standard4": ("standard", 4)}

# (type, rank, twist, level): the five standard twisted rows at levels 2-4
CROSSCHECK_ROWS = (
    ("E", 6, "diagram2", 2),
    ("D", 4, "diagram3", 4),
    ("A", 5, "diagram2", 2),
    ("D", 5, "diagram2", 2),
    ("A", 4, "standard4", 3),
    ("A", 3, "diagram2", 4),
)

# fusion tables whose cost is the warm dims memo
FUSION_ROWS = (
    ("A", 5, "diagram2", 4),
    ("D", 5, "diagram2", 3),
    ("E", 6, "diagram2", 4),
    ("A", 3, "diagram2", 4),
)

# (type, rank, twist, level, pairs a, genus_bar); each factorized request
# takes 0.6-1.3 s on 2 cores.  Left out: (A4, standard4) c=3 a=3 (50 s),
# (D4, diagram3) c=3 a=3 and (A5, diagram2) c=3 (4-20 s, and some exit 2 on
# the 1e-7 imaginary-part guard), and (E6, diagram2), whose cost is E6 orbits.
CURVE_ROWS = (
    ("A", 3, "diagram2", 3, 3, 1),
    ("A", 3, "diagram2", 3, 2, 2),
    ("D", 4, "diagram3", 2, 3, 0),
    ("D", 4, "diagram3", 3, 1, 1),
    ("D", 4, "diagram3", 3, 2, 0),
    ("A", 4, "standard4", 2, 3, 1),
    ("A", 4, "standard4", 2, 3, 2),
    ("A", 5, "diagram2", 2, 3, 0),
    ("A", 5, "diagram2", 2, 2, 1),
)
CURVE_FREE_POINTS = 1

# (type, rank, level) with the identity twist, genus 1, three distinct
# nonzero weights: every lambda+rho orbit has the full size |W|
CLASSICAL_ROWS = (
    ("A", 7, 2),
    ("E", 6, 2),
    ("D", 6, 2),
    ("F", 4, 3),
    ("B", 4, 3),
    ("C", 4, 3),
    ("G", 2, 5),
)
CLASSICAL_GENUS = 1
CLASSICAL_WEIGHTS = 3


def _request(lie_type, rank, tag, level, computation, **fields):
    kind, order = _TWIST_JSON[tag]
    doc = {"version": 1, "algebra": {"type": lie_type, "rank": rank},
           "twist": {"kind": kind, "order": order}, "level": level,
           "computation": computation,
           "options": {"tolerance": TOLERANCE, "format": "structured"}}
    doc.update(fields)
    return doc


def _crosscheck(rng):
    return [_request(t, r, tag, c, "crosscheck")
            for t, r, tag, c in CROSSCHECK_ROWS]


def _pointsum(rng):
    # imported here: the benchmark process itself loads this module only for
    # WORKLOADS, and must not load numpy (see the __main__ block)
    from twistblocks import (ambient_alphabet, build_root_datum, build_twist,
                             weight_alphabet)
    reqs = [_request(t, r, tag, c, "fusion_table") for t, r, tag, c in FUSION_ROWS]
    for t, r, tag, c, a, g in CURVE_ROWS:
        twist = build_twist(build_root_datum(t, r), tag)
        twisted = weight_alphabet(twist, c).members
        ambient = ambient_alphabet(twist, c)
        weights = {"twisted": [list(rng.choice(twisted)) for _ in range(2 * a)],
                   "ambient": [list(rng.choice(ambient))
                               for _ in range(CURVE_FREE_POINTS)]}
        for comp in ("general", "factorized"):
            reqs.append(_request(t, r, tag, c, comp, genus_bar=g, pairs=a,
                                 weights=weights))
    return reqs


def _classical(rng):
    from twistblocks import ambient_alphabet, build_root_datum, build_twist
    reqs = []
    for t, r, c in CLASSICAL_ROWS:
        twist = build_twist(build_root_datum(t, r), "identity")
        nonzero = [w for w in ambient_alphabet(twist, c) if any(w)]
        chosen = rng.sample(nonzero, CLASSICAL_WEIGHTS)
        reqs.append(_request(t, r, "identity", c, "classical",
                             genus_bar=CLASSICAL_GENUS,
                             weights={"ambient": [list(w) for w in chosen]}))
    return reqs


_BUILDERS = {"crosscheck": _crosscheck, "pointsum": _pointsum,
             "classical": _classical}


def requests(workload, seed):
    """The workload's request list for this seed, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _BUILDERS[workload](rng)
    rng.shuffle(reqs)
    return reqs


if __name__ == "__main__":
    # run in a child so that the benchmark process never imports numpy: a
    # child's ru_maxrss includes its parent's resident set at fork time
    print(json.dumps(requests(sys.argv[1], int(sys.argv[2]))))
