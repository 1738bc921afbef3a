"""Inputs of the four workloads.

Two kinds of randomness, kept apart on purpose:

* The **catalog** (``catalog.json``) fixes which queries each workload
  compiles, serves or evaluates, together with their oracle-verified
  reference answers.  It is drawn once from :data:`CATALOG_SEED` by
  ``python3 perfbench/refs.py`` and committed, so every ``--seed``
  measures the same mix of work and the reference answers never have to
  be recomputed inside a timed run.
* The run's ``--seed`` draws everything else: the variable names of each
  compiled and evaluated query, the order of ops within a round, the
  renaming and padding of every served request, and the node labels of
  the database.  Compiled and evaluated queries are renamed with their
  names' sort order and their atom order kept (:func:`rename`): the
  pipeline's enumeration order and the evaluator's join plan both follow
  that order, and a free rephrasing changed the work itself (517 instead
  of 832 candidates for one HTW(2) compile, 3x the evaluation time for
  one query), which made per-run figures multimodal.  The catalog holds
  one evaluated query under two phrasings instead, so that cost stays in
  view.  The served requests are rephrased freely: the server keys and
  computes on a canonical representative, which is what it is measured
  for.  The template sequence of the request log comes from the catalog
  seed, so every run sees the same hits and misses.

The catalog builders import the program; the phrasing helpers do not.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from checks import parse, variables

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG_PATH = os.path.join(HERE, "catalog.json")

#: Seed of the committed catalog (``refs.py`` draws the queries from it).
CATALOG_SEED = 2012

#: Serving: distinct templates in the log vs. results the cache may hold.
SERVE_TEMPLATES = 24
SERVE_CACHE_CAPACITY = 8
ZIPF_SKEW = 1.1
PAD_SHARE = 0.3

#: Evaluation: the skewed digraph database.
DB_NODES = 3000
DB_EDGES = 40000
DB_SKEW = 0.9


def load_catalog() -> dict:
    with open(CATALOG_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------- phrasings


def to_text(head, atoms) -> str:
    body = ", ".join(f"{name}({', '.join(args)})" for name, args in atoms)
    return f"Q({', '.join(head)}) :- {body}"


def rename(text: str, rng: random.Random) -> str:
    """The query under fresh variable names in the same sort order, atoms
    in the same order."""
    head, atoms = parse(text)
    names = sorted(variables(atoms))
    pool = sorted({f"{rng.choice('abcdefghuvwz')}{rng.randrange(1000)}" for _ in range(4 * len(names))})
    fresh = dict(zip(names, sorted(rng.sample(pool, len(names)))))
    return to_text(tuple(fresh[h] for h in head),
                   [(name, tuple(fresh[a] for a in args)) for name, args in atoms])


def rephrase(text: str, rng: random.Random, *, pad: int = 0) -> str:
    """A renamed, reordered phrasing of a query; ``pad`` extra atoms that
    fold back into the query (hom-equivalent, not isomorphic)."""
    head, atoms = parse(text)
    names = variables(atoms)
    fresh = [f"{rng.choice('abcdefghuvwz')}{i}" for i in range(len(names) + pad)]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    atoms = [(name, tuple(mapping[a] for a in args)) for name, args in atoms]
    base = list(atoms)
    for extra in fresh[len(names):]:
        # Copy an atom with one argument replaced by a fresh variable: the
        # fresh variable maps back onto the replaced one.
        name, args = rng.choice(base)
        position = rng.randrange(len(args))
        atoms.append((name, args[:position] + (extra,) + args[position + 1:]))
    rng.shuffle(atoms)
    return to_text(tuple(mapping[h] for h in head), atoms)


def zipf_log(templates: int):
    """An endless stream of template indices, Zipf(``ZIPF_SKEW``) over
    ranks in catalog order, drawn from the catalog seed."""
    rng = random.Random(CATALOG_SEED)
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(templates)))
    population = range(templates)
    while True:
        yield from rng.choices(population, cum_weights=weights, k=256)


def digraph_edges(seed: int) -> list[tuple[int, int]]:
    """The skewed digraph of the evaluation workload.

    Its shape (Zipf endpoint draws) comes from :data:`CATALOG_SEED`, so
    every run evaluates over the same graph: which hubs happen to carry
    self-loops decides the size of Q'(D), and a fresh shape per seed moved
    the per-run figures by up to 2x.  ``seed`` relabels the nodes.
    """
    shape = random.Random(CATALOG_SEED)
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** DB_SKEW for rank in range(DB_NODES)))
    population = range(DB_NODES)
    sources = shape.choices(population, cum_weights=weights, k=DB_EDGES)
    targets = shape.choices(population, cum_weights=weights, k=DB_EDGES)
    relabel = list(population)
    random.Random(seed).shuffle(relabel)
    return sorted({(relabel[u], relabel[v]) for u, v in zip(sources, targets)})


# --------------------------------------------------------------- catalog


def _first_outside(cls, draw, *, max_answers=None, seed=CATALOG_SEED):
    """Draw queries until one lies outside ``cls`` (and, if given, has at
    most ``max_answers`` approximations, so the oracle can verify them)."""
    from repro.core.approximation import all_approximations

    rng = random.Random(seed)
    while True:
        query = draw(rng.randrange(1 << 30))
        if cls.contains_query(query):
            continue
        if max_answers is not None and len(all_approximations(query, cls)) > max_answers:
            continue
        return query


def catalog_queries() -> dict:
    """The catalog's queries as ``{workload: [(name, query, class spec)]}``."""
    from repro.core.classes import class_from_name
    from repro.cq import parse_query
    from repro.cq.query import Atom, ConjunctiveQuery
    from repro.workloads.random_queries import cycle_with_chords, random_cq, random_graph_query

    def graph(n, m, head=0):
        return lambda s: random_graph_query(n, m, seed=s, head_size=head)

    def ternary(n, m):
        return lambda s: random_cq({"R": 3}, n, m, seed=s)

    def dense_mixed(s):
        rng = random.Random(s)
        names = [f"x{i}" for i in range(6)]
        atoms = [
            Atom("E", (a, b) if rng.random() < 0.5 else (b, a))
            for a, b in itertools.combinations(names, 2)
            if rng.random() < 0.9
        ]
        atoms.append(Atom("R", tuple(rng.sample(names, 3))))
        return ConjunctiveQuery((), atoms)

    tw1, tw2 = class_from_name("TW1"), class_from_name("TW2")
    htw1, htw2, ac = class_from_name("HTW1"), class_from_name("HTW2"), class_from_name("AC")
    out = {
        "compile-graph": [
            ("C7+chord", cycle_with_chords(7, [(0, 3)]), "TW1"),
            ("C8+chord", cycle_with_chords(8, [(0, 4)]), "TW1"),
            ("rand7x10", _first_outside(tw1, graph(7, 10), seed=1), "TW1"),
            ("rand8x11", _first_outside(tw1, graph(8, 11), seed=2), "TW1"),
            ("rand7x14", _first_outside(tw2, graph(7, 14), seed=3), "TW2"),
            ("rand7x16", _first_outside(tw2, graph(7, 16), seed=4), "TW2"),
            ("rand8x18", _first_outside(tw2, graph(8, 18), seed=5), "TW2"),
            ("rand9x12", _first_outside(tw2, graph(9, 12), seed=6), "TW2"),
        ],
        "compile-hyper": [
            ("tern6x4a", _first_outside(htw1, ternary(6, 4), max_answers=8, seed=11), "HTW1"),
            ("tern6x5a", _first_outside(htw1, ternary(6, 5), max_answers=8, seed=12), "HTW1"),
            ("tern6x4b", _first_outside(ac, ternary(6, 4), max_answers=8, seed=13), "AC"),
            ("tern6x5b", _first_outside(ac, ternary(6, 5), max_answers=8, seed=14), "AC"),
            ("mixed6", _first_outside(htw2, dense_mixed, max_answers=4, seed=15), "HTW2"),
        ],
        "approx-eval": [
            ("C3h1", cycle_with_chords(3, head_size=1), "TW1"),
            ("C4h1", cycle_with_chords(4, head_size=1), "TW1"),
            ("C5+chord h1", cycle_with_chords(5, [(0, 2)], head_size=1), "TW1"),
            ("C5+chord h2", cycle_with_chords(5, [(1, 3)], head_size=2), "TW1"),
            ("C6+chord h2", cycle_with_chords(6, [(0, 3)], head_size=2), "TW1"),
            # The C5+chord h2 query again, under other variable names: its
            # approximation is the same up to renaming, yet the evaluator
            # takes about 3x longer on it (the join plan follows the names).
            ("C5+chord h2 renamed", parse_query(
                "Q(c1, g2) :- E(g2, v0), E(v0, a4), E(c1, g2), E(a4, c1), E(b3, v0), E(g2, b3)"
            ), "TW1"),
        ],
    }
    serve = []
    chords = [(6, [(0, 2)]), (6, [(0, 3)]), (6, [(1, 4)]), (7, [(0, 3)]), (7, [(0, 2)]),
              (7, [(1, 5)]), (6, [(0, 2), (3, 5)]), (7, [(0, 3), (2, 5)])]
    for length, chord in chords:
        serve.append((f"C{length}+{chord}", cycle_with_chords(length, chord), "TW1"))
    rng = random.Random(CATALOG_SEED)
    seen = set()
    while len(serve) < SERVE_TEMPLATES:
        n = rng.choice((6, 7))
        query = _first_outside(tw1, graph(n, n + 3), seed=rng.randrange(1 << 30))
        key = str(query)
        if key not in seen:
            seen.add(key)
            serve.append((f"rand{n}x{n + 3}-{len(serve)}", query, "TW1"))
    out["serve-zipf"] = serve
    return out
