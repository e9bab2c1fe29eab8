"""Seeded synthetic workloads for the benchmark, frozen inside the benchmark.

The generator imports nothing from ``augdist`` and nothing from the tests, so
a change to the program or to the test generators cannot shift a workload:
the same (workload, seed) always writes byte-identical files.

Entries and rules draw from one API vocabulary spread over several packages.
A rule's fix is a call sequence on one receiver type plus a helper type from
another package; its misuse calls the wrong method once. Correct entries are
noisy variants of rule fixes and misuse entries noisy variants of rule
misuses, padded with context usage from the whole vocabulary, so rules are
applicable and the detector runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

PACKAGES = {
    "java.util": ("List", "Iterator", "Map", "Set", "Scanner", "Deque"),
    "java.io": ("File", "Reader", "Writer", "Stream", "Channel", "Buffer"),
    "net.db": ("Conn", "Stmt", "Result", "Pool", "Txn", "Cursor"),
    "org.json": ("Json", "Token", "Parser", "Array", "Object", "Schema"),
    "android.app": ("Activity", "Dialog", "Intent", "Service", "Fragment", "Bundle"),
    "java.lang": ("String", "Builder", "Thread", "Runtime", "Process", "Class"),
    "java.net": ("Socket", "Url", "Http", "Server", "Address", "Packet"),
    "javax.crypto": ("Cipher", "Key", "Mac", "Digest", "Random", "Spec"),
}
METHODS = (
    "open()", "close()", "get()", "put()", "next()", "hasNext()",
    "size()", "add()", "read()", "write()", "flush()", "init()",
)
# Literal data nodes carry no API, so they land in the package-less cluster.
LITERALS = ("<return>", "null", "0", "true")
ORDER_EDGES = ("order", "sel")

TYPES = tuple((package, name) for package, names in PACKAGES.items() for name in names)
PACKAGE_NAMES = tuple(PACKAGES)

# The two rules bundled with the test corpus, frozen here as
# (name, fix nodes, fix edges, id of the fix call the misuse lacks).
BUNDLED_RULES = (
    (
        "rule_iter",
        (
            ("l", "List", "data", "java.util.List"),
            ("it", "List.iterator()", "action", "java.util.List"),
            ("i", "Iterator", "data", "java.util.Iterator"),
            ("hn", "Iterator.hasNext()", "action", "java.util.Iterator"),
            ("nx", "Iterator.next()", "action", "java.util.Iterator"),
        ),
        (
            ("l", "it", "recv"), ("it", "i", "def"), ("i", "hn", "recv"),
            ("i", "nx", "recv"), ("hn", "nx", "sel"),
        ),
        "hn",
    ),
    (
        "rule_other",
        (
            ("c", "Conn", "data", "net.db.Conn"),
            ("op", "Conn.open()", "action", "net.db.Conn"),
            ("cl", "Conn.close()", "action", "net.db.Conn"),
        ),
        (("c", "op", "recv"), ("c", "cl", "recv"), ("op", "cl", "order")),
        "cl",
    ),
)


@dataclass(frozen=True)
class Graph:
    """Nodes as (id, label, type, api) and edges as (source, target, label)."""

    name: str
    nodes: tuple[tuple[str, str, str, str], ...]
    edges: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class Rule:
    """A fix graph and the misuse it corrects: the ``key`` call of the fix is
    missing from the misuse when ``wrong`` is empty, else renamed to it."""

    name: str
    fix: Graph
    key: str
    wrong: str = ""

    @property
    def misuse(self) -> Graph:
        return misuse_variant(self, self.fix, self.key, f"{self.name}/misuse")


def misuse_variant(rule: Rule, graph: Graph, key: str, name: str) -> Graph:
    """``graph`` with the node ``key`` changed the way ``rule`` misuses it."""
    if rule.wrong:
        nodes = tuple((n[0], rule.wrong) + n[2:] if n[0] == key else n for n in graph.nodes)
        return Graph(name, nodes, graph.edges)
    return Graph(
        name,
        tuple(node for node in graph.nodes if node[0] != key),
        tuple(edge for edge in graph.edges if key not in edge[:2]),
    )


@dataclass(frozen=True)
class Shape:
    """Sizes that define a workload; only the seed varies between runs."""

    entries: int  # half correct, half misuse
    entry_nodes: tuple[int, int]  # inclusive range of entry node counts
    rules: int  # 0 means the two bundled rules
    rule_nodes: int  # node count of every generated rule's fix side
    relabel: float  # chance that a call copied from a rule is renamed


SHAPES = {
    "wide-corpus": Shape(entries=200, entry_nodes=(10, 25), rules=2, rule_nodes=8, relabel=0.15),
    "many-rules": Shape(entries=40, entry_nodes=(8, 16), rules=20, rule_nodes=7, relabel=0.15),
    "small-search": Shape(entries=60, entry_nodes=(4, 6), rules=0, rule_nodes=0, relabel=0.1),
}
# Exact search cannot finish on the corpus workloads' graphs, so those
# workloads time ``astar-ged`` on a slice shaped like ``small-search``. The
# search's cost depends on the labels, so the slice is large enough for
# that to average out between seeds.
SEARCH_SLICE = Shape(entries=32, entry_nodes=(4, 6), rules=0, rule_nodes=0, relabel=0.1)


def _api(package: str, type_name: str) -> str:
    return f"{package}.{type_name}"


def make_rule(rng: random.Random, name: str, size: int, types) -> Rule:
    """A call sequence on a receiver plus a helper object it defines.

    Layout: receiver data node, calls on it chained by control-flow edges,
    the first call defining a helper object of another package, and the
    remaining nodes as calls on the helper, no method called twice on one
    type. ``types`` gives the receiver and helper (package, type) pairs. The
    misuse makes one call with a method the fix does not call, so both sides
    have the same shape.
    """
    (package, main), (helper_package, helper) = types
    main_api = _api(package, main)
    helper_api = _api(helper_package, helper)
    main_calls = max(2, (size - 2) // 2)
    helper_calls = size - 2 - main_calls
    nodes = [("r", main, "data", main_api)]
    edges = []
    for k, method in enumerate(rng.sample(METHODS, main_calls)):
        nodes.append((f"m{k}", f"{main}.{method}", "action", main_api))
        edges.append(("r", f"m{k}", "recv"))
        if k:
            edges.append((f"m{k - 1}", f"m{k}", rng.choice(ORDER_EDGES)))
    nodes.append(("h", helper, "data", helper_api))
    edges.append(("m0", "h", "def"))
    for k, method in enumerate(rng.sample(METHODS, helper_calls)):
        nodes.append((f"u{k}", f"{helper}.{method}", "action", helper_api))
        edges.append(("h", f"u{k}", "recv"))
        if k:
            edges.append((f"u{k - 1}", f"u{k}", "order"))
    key_id, key_label = rng.choice([node[:2] for node in nodes if node[2] == "action"])
    type_name = key_label.split(".")[0]
    # A method the fix never calls on that type: a repeated label would
    # change the feature counts well beyond the one renamed call.
    called = {label for _, label, _, _ in nodes}
    wrong = rng.choice([f"{type_name}.{m}" for m in METHODS if f"{type_name}.{m}" not in called])
    return Rule(name, Graph(f"{name}/fix", tuple(nodes), tuple(edges)), key_id, wrong)


def bundled_rules() -> list[Rule]:
    return [Rule(name, Graph(f"{name}/fix", nodes, edges), key) for name, nodes, edges, key in BUNDLED_RULES]


def _call(rng: random.Random, type_name: str, reserved: frozenset[str]) -> str:
    return rng.choice([label for m in METHODS if (label := f"{type_name}.{m}") not in reserved])


def _context_node(
    rng: random.Random, node_id: str, kind: str, package: str, reserved: frozenset[str]
) -> tuple[str, str, str, str]:
    if kind == "literal":
        return (node_id, rng.choice(LITERALS), "data", "")
    type_name = rng.choice(PACKAGES[package])
    if kind == "data":
        return (node_id, type_name, "data", _api(package, type_name))
    return (node_id, _call(rng, type_name, reserved), "action", _api(package, type_name))


def make_incident(
    rng: random.Random, index: int, rule: Rule, size: int, relabel: float, reserved: frozenset[str]
) -> tuple[Graph, Graph]:
    """A correct entry and its misuse twin, sharing all noise and context.

    The correct entry is the rule's fix with each call other than the key
    renamed with chance ``relabel`` (another call on the same type), padded
    with context usage to ``size`` nodes; each context node is wired to one
    earlier node by a data- or control-flow edge. The misuse twin differs
    from it only where the rule's misuse differs from its fix, so entries
    unrelated to a rule weigh the same on both sides of its inequalities.
    Noise never produces a ``reserved`` call (any rule's key or wrong call):
    one would shift the feature counts of one twin only.
    """
    ids = {}
    nodes = []
    for position, (node_id, label, node_type, api) in enumerate(rule.fix.nodes):
        ids[node_id] = f"n{position}"
        if node_type == "action" and node_id != rule.key and rng.random() < relabel:
            label = _call(rng, label.split(".")[0], reserved)
        nodes.append((f"n{position}", label, node_type, api))
    edges = [(ids[s], ids[t], label) for s, t, label in rule.fix.edges]
    while len(nodes) < size:
        # Where a context node attaches, what kind it is and its package
        # follow from the position alone, so the seed changes labels but not
        # graph shapes, which set the cost of the structure-only distances,
        # nor the per-package split, which sets that of the split variants.
        position = len(nodes)
        turn = (7 * position + 3 * index) % 20
        kind = "literal" if turn < 2 else "data" if turn < 7 else "action"
        package = PACKAGE_NAMES[(3 * position + index) % len(PACKAGE_NAMES)]
        node = _context_node(rng, f"n{position}", kind, package, reserved)
        anchor = nodes[(5 * position + index) % position]
        if node[2] == "data":
            edges.append((node[0], anchor[0], rng.choice(("recv", "para"))) if anchor[2] == "action"
                         else (anchor[0], node[0], "order"))
        elif anchor[2] == "data":
            edges.append((anchor[0], node[0], "recv"))
        else:
            edges.append((anchor[0], node[0], rng.choice(ORDER_EDGES)))
        nodes.append(node)
    correct = Graph(f"c{index:04d}", tuple(nodes), tuple(edges))
    return correct, misuse_variant(rule, correct, ids[rule.key], f"m{index:04d}")


@dataclass(frozen=True)
class Corpus:
    rules: tuple[Rule, ...]
    correct: tuple[Graph, ...]
    misuse: tuple[Graph, ...]


def make_corpus(shape: Shape, seed: int, tag: str) -> Corpus:
    """The corpus of one shape; ``tag`` separates the random streams of shapes.

    Incidents go to the rules in turn, so every rule has related entries.
    """
    rng = random.Random(f"{tag}:{seed}")
    if shape.rules:
        # Rules use disjoint types, so no rule's entries speak for another.
        # Rule k draws its two types from packages 2k and 2k + 1, so the
        # seed changes which types but not which packages a rule spans.
        pools = {package: rng.sample(names, len(names)) for package, names in PACKAGES.items()}
        types = [
            (package, pools[package].pop())
            for package in (PACKAGE_NAMES[k % len(PACKAGE_NAMES)] for k in range(2 * shape.rules))
        ]
        rules = [
            make_rule(rng, f"r{k:02d}", shape.rule_nodes, types[2 * k : 2 * k + 2])
            for k in range(shape.rules)
        ]
    else:
        rules = bundled_rules()
    reserved = frozenset(
        label for rule in rules for node_id, label, _, _ in rule.fix.nodes if node_id == rule.key
    ) | {rule.wrong for rule in rules if rule.wrong}
    # Sizes and rules cycle through the incidents rather than being drawn:
    # sizes drive the cost of most distances, so the mix of (rule, size)
    # must not vary with the seed.
    low, high = shape.entry_nodes
    pairs = [
        make_incident(
            rng, index, rules[index % len(rules)], low + index % (high - low + 1), shape.relabel, reserved
        )
        for index in range(shape.entries // 2)
    ]
    return Corpus(tuple(rules), tuple(c for c, _ in pairs), tuple(m for _, m in pairs))


def probe_pairs(seed: int, size: int, count: int) -> list[tuple[Graph, Graph]]:
    """Pairs of ``size``-node usages of the same two types, for sizing the
    exact search: one data node per type, calls on them chained in order."""
    rng = random.Random(f"probe:{size}:{seed}")
    pairs = []
    for index in range(count):
        types = rng.sample(TYPES, 2)
        pair = []
        for side in "ab":
            nodes = [(f"d{k}", name, "data", _api(package, name)) for k, (package, name) in enumerate(types)]
            edges = []
            for position in range(len(nodes), size):
                owner = rng.randrange(2)
                package, name = types[owner]
                node_id = f"n{position}"
                edges.append((f"d{owner}", node_id, "recv"))
                if position > len(types):
                    edges.append((nodes[-1][0], node_id, rng.choice(ORDER_EDGES)))
                nodes.append((node_id, _call(rng, name, frozenset()), "action", _api(package, name)))
            pair.append(Graph(f"p{size}-{index}{side}", tuple(nodes), tuple(edges)))
        pairs.append(tuple(pair))
    return pairs


# -- DOT output -----------------------------------------------------------------


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_line(node: tuple[str, str, str, str], extra: str = "") -> str:
    node_id, label, node_type, api = node
    return (
        f"  {_quote(node_id)} [label={_quote(label)}, type={_quote(node_type)}, "
        f"api={_quote(api)}{extra}];"
    )


def _edge_line(source: str, target: str, label: str) -> str:
    return f"  {_quote(source)} -> {_quote(target)} [label={_quote(label)}];"


def graph_dot(graph: Graph) -> str:
    lines = [f"digraph {_quote(graph.name)} {{"]
    lines += [_node_line(node) for node in graph.nodes]
    lines += [_edge_line(*edge) for edge in graph.edges]
    return "\n".join(lines + ["}"]) + "\n"


def rule_dot(rule: Rule) -> str:
    """Misuse nodes get an ``M`` id prefix and fix nodes ``F``; each misuse
    node maps to its fix twin, and a missing key call to an empty node."""
    misuse = rule.misuse
    lines = [f"digraph {_quote(rule.name)} {{"]
    lines += [_node_line(("M" + n[0],) + n[1:], ', part="misuse"') for n in misuse.nodes]
    lines += [_node_line(("F" + n[0],) + n[1:], ', part="fix"') for n in rule.fix.nodes]
    lines += [_edge_line("M" + s, "M" + t, label) for s, t, label in misuse.edges]
    lines += [_edge_line("F" + s, "F" + t, label) for s, t, label in rule.fix.edges]
    lines += [_edge_line("M" + n[0], "F" + n[0], "transform") for n in misuse.nodes]
    if not rule.wrong:
        lines.append('  "eps" [label="", type="empty", part="misuse"];')
        lines.append(_edge_line("eps", "F" + rule.key, "transform"))
    return "\n".join(lines + ["}"]) + "\n"


def write_corpus(corpus: Corpus, directory: Path) -> None:
    """Lay the corpus out as ``augdist evaluate`` reads it: DOT entries and
    ``labels.csv`` in ``directory``, rule files in ``directory/rules``."""
    rules_dir = directory / "rules"
    rules_dir.mkdir(parents=True, exist_ok=True)
    for rule in corpus.rules:
        (rules_dir / f"{rule.name}.dot").write_text(rule_dot(rule), encoding="utf-8")
    rows = ["name,label"]
    for label, graphs in (("correct", corpus.correct), ("misuse", corpus.misuse)):
        for graph in graphs:
            (directory / f"{graph.name}.dot").write_text(graph_dot(graph), encoding="utf-8")
            rows.append(f"{graph.name},{label}")
    (directory / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def properties(corpus: Corpus) -> dict[str, float]:
    """Shape figures a workload reports about itself."""
    graphs = [*corpus.correct, *corpus.misuse]
    packages = [
        len({node[3].rsplit(".", 1)[0] if "." in node[3] else "misc" for node in graph.nodes})
        for graph in graphs
    ]
    return {
        "entries": len(graphs),
        "rules": len(corpus.rules),
        "nodes_mean": sum(len(g.nodes) for g in graphs) / len(graphs),
        "edges_mean": sum(len(g.edges) for g in graphs) / len(graphs),
        "distinct_labels": len({node[1] for g in graphs for node in g.nodes}),
        "packages_per_graph": sum(packages) / len(packages),
    }
