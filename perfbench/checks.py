"""Correctness checks written apart from the program under test.

Nothing here imports ``repro``: queries are parsed from their printed
form, homomorphisms are found by a plain backtracking search, class
membership uses textbook tests (forest, series-parallel reduction, GYO),
and answers over a database are computed by a tree evaluator of its own.
"""

from __future__ import annotations

import re
from collections import defaultdict

_ATOM = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(([^()]*)\)")


class CheckFailure(AssertionError):
    """An output of the program that the benchmark's own checks reject."""


def parse(text: str) -> tuple[tuple, list[tuple]]:
    """``"Q(x) :- E(x, y), R(x, y, z)"`` -> ``(("x",), [("E", ("x", "y")), ...])``."""
    head_text, _, body_text = text.partition(":-")
    head_match = _ATOM.search(head_text)
    if head_match is None or not body_text.strip():
        raise CheckFailure(f"unreadable query {text!r}")
    head = tuple(a.strip() for a in head_match.group(2).split(",") if a.strip())
    atoms = [
        (name, tuple(a.strip() for a in args.split(",")))
        for name, args in _ATOM.findall(body_text)
    ]
    return head, atoms


def variables(atoms) -> list:
    seen: dict = {}
    for _, args in atoms:
        for arg in args:
            seen.setdefault(arg, None)
    return list(seen)


# ------------------------------------------------------------------ homs


def find_hom(source, target) -> dict | None:
    """A homomorphism between two parsed queries, heads mapped position-wise.

    ``source``/``target`` are ``(head, atoms)`` pairs; returns the variable
    map or ``None``.  Plain backtracking, variables in order of first
    occurrence with already-constrained ones first.
    """
    (s_head, s_atoms), (t_head, t_atoms) = source, target
    if len(s_head) != len(t_head):
        return None
    facts = defaultdict(set)
    for name, args in t_atoms:
        facts[name].add(args)
    mapping: dict = {}
    for s, t in zip(s_head, t_head):
        if mapping.setdefault(s, t) != t:
            return None
    order = [v for v in variables(s_atoms) if v not in mapping]
    by_var = defaultdict(list)
    for atom in s_atoms:
        for arg in atom[1]:
            by_var[arg].append(atom)
    t_domain = variables(t_atoms)

    def consistent(var) -> bool:
        for name, args in by_var[var]:
            if all(a in mapping for a in args):
                if tuple(mapping[a] for a in args) not in facts[name]:
                    return False
        return True

    for var in mapping:
        if not consistent(var):
            return None

    def search(i: int) -> bool:
        if i == len(order):
            return True
        var = order[i]
        for value in t_domain:
            mapping[var] = value
            if consistent(var) and search(i + 1):
                return True
            del mapping[var]
        return False

    return dict(mapping) if search(0) else None


def equivalent(a, b) -> bool:
    return find_hom(a, b) is not None and find_hom(b, a) is not None


# ------------------------------------------------------------ membership


def _primal(atoms) -> dict:
    adjacency: dict = defaultdict(set)
    for _, args in atoms:
        for x in args:
            adjacency.setdefault(x, set())
            for y in args:
                if x != y:
                    adjacency[x].add(y)
    return adjacency


def treewidth_at_most(atoms, k: int) -> bool | None:
    """TW(1): the primal graph is a forest.  TW(2): series-parallel
    reduction (drop vertices of degree <= 1, bypass degree-2 vertices)
    empties the graph.  ``None`` for larger ``k`` (no cheap test here)."""
    adjacency = {v: set(n) for v, n in _primal(atoms).items()}
    if k == 1:
        edges = sum(len(n) for n in adjacency.values()) // 2
        parent = {v: v for v in adjacency}

        def root(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for v, neighbours in adjacency.items():
            for w in neighbours:
                parent[root(v)] = root(w)
        components = len({root(v) for v in adjacency})
        return edges == len(adjacency) - components
    if k == 2:
        changed = True
        while changed and adjacency:
            changed = False
            for v in list(adjacency):
                neighbours = adjacency[v]
                if len(neighbours) <= 2:
                    if len(neighbours) == 2:
                        x, y = neighbours
                        adjacency[x].add(y)
                        adjacency[y].add(x)
                    for w in neighbours:
                        adjacency[w].discard(v)
                    del adjacency[v]
                    changed = True
        return not adjacency
    return None


def acyclic(atoms) -> bool:
    """GYO reduction: alpha-acyclicity of the query hypergraph (= HTW(1))."""
    edges = [set(args) for _, args in atoms]
    changed = True
    while changed:
        changed = False
        counts = defaultdict(int)
        for edge in edges:
            for v in edge:
                counts[v] += 1
        for edge in edges:
            lonely = {v for v in edge if counts[v] == 1}
            if lonely:
                edge -= lonely
                changed = True
        kept = []
        for i, edge in enumerate(edges):
            absorbed = any(
                j != i and edge <= other and (edge != other or j < i)
                for j, other in enumerate(edges)
            )
            if absorbed or not edge:
                changed = True
            else:
                kept.append(edge)
        edges = kept
    return not edges


def member(query, cls: str) -> bool | None:
    """Independent class membership; ``None`` where no cheap test exists."""
    _, atoms = query
    if cls == "TW1":
        return treewidth_at_most(atoms, 1)
    if cls == "TW2":
        return treewidth_at_most(atoms, 2)
    if cls in ("AC", "HTW1"):
        return acyclic(atoms)
    return None


def check_frontier(query_text: str, cls: str, answers: list[str], reference: list[str]) -> None:
    """Every answer is in the class (where testable), contained in Q, pairwise
    non-equivalent, and the set matches the oracle-verified reference."""
    query = parse(query_text)
    parsed = [parse(a) for a in answers]
    for text, answer in zip(answers, parsed):
        if find_hom(query, answer) is None:
            raise CheckFailure(f"{text} is not contained in {query_text}")
        if member(answer, cls) is False:
            raise CheckFailure(f"{text} is not in {cls}")
    for i in range(len(parsed)):
        for j in range(i + 1, len(parsed)):
            if equivalent(parsed[i], parsed[j]):
                raise CheckFailure(f"{answers[i]} and {answers[j]} are equivalent")
    refs = [parse(r) for r in reference]
    if len(refs) != len(parsed):
        raise CheckFailure(
            f"{query_text}/{cls}: {len(parsed)} answers, reference has {len(refs)}"
        )
    for text, answer in zip(answers, parsed):
        if not any(equivalent(answer, ref) for ref in refs):
            raise CheckFailure(f"{text} matches no reference answer of {query_text}")


def check_answers(query_text: str, cls: str, approximation: str, answers, reference: list[str],
                  graph: "Graph") -> None:
    """One approximate-then-evaluate op: Q' is one of the reference answers
    (up to equivalence) and passes :func:`check_frontier` against it, Q'(D)
    equals the tree evaluator's answers, and every answer of Q' is an
    answer of Q."""
    parsed = parse(approximation)
    matching = [r for r in reference if equivalent(parse(r), parsed)]
    if not matching:
        raise CheckFailure(f"{approximation} matches no reference answer of {query_text}")
    check_frontier(query_text, cls, [approximation], matching[:1])
    expected = tree_answers(parsed, graph)
    if set(answers) != expected:
        raise CheckFailure(f"Q'(D) has {len(answers)} answers, the tree evaluator {len(expected)}")
    query = parse(query_text)
    for answer in answers:
        if not has_answer(query, graph, answer):
            raise CheckFailure(f"{answer} is an answer of Q' but not of Q")


# ------------------------------------------------------------ databases


class Graph:
    """A digraph database over relation ``E`` with adjacency sets."""

    def __init__(self, edges) -> None:
        self.edges = set(edges)
        self.out: dict = defaultdict(set)
        self.into: dict = defaultdict(set)
        for u, v in self.edges:
            self.out[u].add(v)
            self.into[v].add(u)
        self.nodes = set(self.out) | set(self.into)
        self.loops = {u for u, v in self.edges if u == v}


def _constraints(atoms):
    loops = set()
    pairs: dict = defaultdict(set)  # (x, y) -> {"xy", "yx"} directions
    for name, (x, y) in atoms:
        if name != "E":
            raise CheckFailure(f"unsupported relation {name}")
        if x == y:
            loops.add(x)
        else:
            key = (x, y) if x < y else (y, x)
            pairs[key].add("fwd" if key == (x, y) else "bwd")
    return loops, pairs


def _step(graph: Graph, values, directions) -> set:
    """Values reachable from some member of ``values`` along every one of
    ``directions`` at once (fwd: value -> next, bwd: next -> value)."""
    tables = [graph.out if d == "fwd" else graph.into for d in directions]
    reach: set = set()
    for v in values:
        neighbours = [table.get(v, set()) for table in tables]
        reach |= neighbours[0].intersection(*neighbours[1:])
    return reach


def tree_answers(query, graph: Graph) -> set:
    """The answers of a forest-shaped query over ``E`` (head of size <= 2).

    Every existential branch is folded into a unary filter on its
    attachment point (a semijoin, bottom-up), then the head variables are
    joined along the tree path between them.
    """
    head, atoms = query
    if len(head) > 2 or not treewidth_at_most(atoms, 1):
        raise CheckFailure("tree evaluator handles forests with heads of size <= 2")
    loops, pairs = _constraints(atoms)
    adjacency = defaultdict(dict)
    for (x, y), dirs in pairs.items():
        adjacency[x][y] = dirs
        adjacency[y][x] = {"bwd" if d == "fwd" else "fwd" for d in dirs}

    def allowed(var):
        return set(graph.loops) if var in loops else set(graph.nodes)

    def subtree_values(var, parent) -> set:
        """Values of ``var`` extending to a hom of its subtree (away from
        ``parent``), ignoring head-ness below it."""
        values = allowed(var)
        for child, dirs in adjacency[var].items():
            if child == parent:
                continue
            child_values = subtree_values(child, var)
            # v survives if some child value w is adjacent in every direction
            back = {"bwd" if d == "fwd" else "fwd" for d in dirs}
            values &= _step(graph, child_values, back)
        return values

    if not head:
        raise CheckFailure("tree evaluator needs a head")
    if len(head) == 1:
        return {(v,) for v in subtree_values(head[0], None)}
    source, target = head
    path = _path(adjacency, source, target)
    if path is None:
        left = subtree_values(source, None)
        right = subtree_values(target, None)
        return {(a, b) for a in left for b in right}
    on_path = set(path)

    def filtered(var):
        values = allowed(var)
        for child, dirs in adjacency[var].items():
            if child in on_path:
                continue
            back = {"bwd" if d == "fwd" else "fwd" for d in dirs}
            values &= _step(graph, subtree_values(child, var), back)
        return values

    filters = {var: filtered(var) for var in path}
    answers = set()
    for a in filters[source]:
        frontier = {a}
        for prev, nxt in zip(path, path[1:]):
            frontier = _step(graph, frontier, adjacency[prev][nxt]) & filters[nxt]
            if not frontier:
                break
        for b in frontier:
            answers.add((a, b))
    if source == target:
        answers = {(a, a) for a in filters[source]}
    return answers


def _path(adjacency, source, target):
    if source == target:
        return [source]
    parents = {source: None}
    queue = [source]
    for var in queue:
        for nxt in adjacency[var]:
            if nxt not in parents:
                parents[nxt] = var
                queue.append(nxt)
    if target not in parents:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    return path[::-1]


def has_answer(query, graph: Graph, answer: tuple) -> bool:
    """Is ``answer`` an answer of ``query`` on ``graph``?  Backtracking with
    the head fixed; the next variable is always the one with the fewest
    candidates, each candidate set the intersection of the neighbourhoods
    its bound neighbours allow."""
    head, atoms = query
    loops, pairs = _constraints(atoms)
    links = defaultdict(list)  # var -> [(other, directions seen from var)]
    for (x, y), dirs in pairs.items():
        links[x].append((y, dirs))
        links[y].append((x, {"bwd" if d == "fwd" else "fwd" for d in dirs}))
    mapping: dict = {}
    for h, a in zip(head, answer):
        if mapping.setdefault(h, a) != a:
            return False
    empty: set = set()

    def candidates(var):
        sets = [graph.loops] if var in loops else []
        for other, dirs in links[var]:
            if other in mapping:
                w = mapping[other]
                for d in dirs:  # fwd: E(var, other), so var is a predecessor of w
                    sets.append(graph.into.get(w, empty) if d == "fwd" else graph.out.get(w, empty))
        if not sets:
            return graph.nodes
        sets.sort(key=len)
        return sets[0].intersection(*sets[1:])

    for h in mapping:
        if mapping[h] not in candidates(h):
            return False
    free = [v for v in variables(atoms) if v not in mapping]

    def search() -> bool:
        if not free:
            return True
        options = [(candidates(v), v) for v in free]
        values, var = min(options, key=lambda item: len(item[0]))
        free.remove(var)
        for value in values:
            mapping[var] = value
            if search():
                return True
        mapping.pop(var, None)
        free.append(var)
        return False

    return search()
