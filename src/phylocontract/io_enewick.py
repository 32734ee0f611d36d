"""Extended Newick and edge-list serialization.

Grammar:

    network    := subtree ";"
    subtree    := leaf_label | hybrid_ref | "(" subtree ("," subtree)* ")" [internal_label] [hybrid_def]
    hybrid_def := "#H" integer
    hybrid_ref := [leaf_label] "#H" integer

All occurrences of one #Hn tag denote a single node; its in-edges are the
union across occurrences and exactly one occurrence may carry children.
Branch lengths (":" number) are parsed and discarded with a warning.

Edge-list format: one `u v` line per edge (alphanumeric node names),
then a `#leaves` header followed by one `name label` line per leaf.
"""

from __future__ import annotations

import warnings

from .errors import (
    DuplicateHybridDefinition,
    SyntaxError as ParseError,
    UnknownNode,
    UnresolvedHybridTag,
)
from .network_core import Network, NodeId, _label_indices, validate

__all__ = ["parse_enewick", "write_enewick", "parse_edgelist", "write_edgelist"]

_UNQUOTED_STOP = set("(),;:#'") | set(" \t\r\n")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _coords(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message: str, pos: int | None = None) -> ParseError:
        line, col = self._coords(self.pos if pos is None else pos)
        return ParseError(message, line=line, col=col)

    def tokens(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
                continue
            self.pos = i
            if ch in "(),;:":
                yield (ch, ch, i)
                i += 1
            elif ch == "#":
                j = i + 1
                if j >= n or text[j] != "H":
                    raise self.error("expected 'H' after '#'", i)
                j += 1
                k = j
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j:
                    raise self.error("expected integer after '#H'", i)
                yield ("hybrid", int(text[j:k]), i)
                i = k
            elif ch == "'":
                j = i + 1
                out = []
                while True:
                    if j >= n:
                        raise self.error("unterminated quoted label", i)
                    if text[j] == "'":
                        if j + 1 < n and text[j + 1] == "'":
                            out.append("'")
                            j += 2
                            continue
                        j += 1
                        break
                    out.append(text[j])
                    j += 1
                yield ("label", "".join(out), i)
                i = j
            else:
                j = i
                while j < n and text[j] not in _UNQUOTED_STOP:
                    j += 1
                yield ("label", text[i:j], i)
                i = j
        self.pos = n
        yield ("end", None, n)


class _Parser:
    def __init__(self, text: str):
        self.lexer = _Lexer(text)
        self.stream = self.lexer.tokens()
        self.tok = next(self.stream)
        self.next_id: NodeId = 0
        self.edges: set[tuple[NodeId, NodeId]] = set()
        self.labels: dict[NodeId, str] = {}
        self.hybrid_node: dict[int, NodeId] = {}
        self.hybrid_defined: set[int] = set()
        self.nodes: set[NodeId] = set()

    def advance(self):
        self.tok = next(self.stream, ("end", None, len(self.lexer.text)))

    def expect(self, kind: str):
        if self.tok[0] != kind:
            raise self.lexer.error(
                f"expected {kind!r}, found {self.tok[1]!r}", self.tok[2]
            )
        value = self.tok[1]
        self.advance()
        return value

    def fresh(self) -> NodeId:
        u = self.next_id
        self.next_id += 1
        self.nodes.add(u)
        return u

    def hybrid(self, tag: int) -> NodeId:
        if tag not in self.hybrid_node:
            self.hybrid_node[tag] = self.fresh()
        return self.hybrid_node[tag]

    def set_label(self, u: NodeId, label: str, pos: int):
        if self.labels.get(u, label) != label:
            raise self.lexer.error(
                f"conflicting labels {self.labels[u]!r} and {label!r} for one hybrid",
                pos,
            )
        self.labels[u] = label

    def subtree(self) -> NodeId:
        """One loop: "(" opens a group; each finished node (a leaf, a hybrid
        reference, or a group at its ")") joins the innermost open group."""
        groups: list[list[NodeId]] = []  # children so far of each open "("
        while True:
            kind, value, pos = self.tok
            if kind == "(":
                self.advance()
                groups.append([])
                continue
            if kind == "label":
                self.advance()
                if self.tok[0] == "hybrid":
                    tag = self.tok[1]
                    self.advance()
                    node = self.hybrid(tag)
                    self.set_label(node, value, pos)
                else:
                    node = self.fresh()
                    self.labels[node] = value
            elif kind == "hybrid":
                self.advance()
                node = self.hybrid(value)
            else:
                raise self.lexer.error(f"unexpected token {value!r}", pos)
            while True:
                if self.tok[0] == ":":
                    self.advance()
                    num_kind, num, num_pos = self.tok
                    try:
                        length = float(num) if num_kind == "label" else None
                    except ValueError:
                        length = None
                    if length is None:
                        raise self.lexer.error("expected branch length after ':'", num_pos)
                    self.advance()
                    warnings.warn(f"branch length {num} discarded", stacklevel=4)
                if not groups:
                    return node
                groups[-1].append(node)
                if self.tok[0] == ",":
                    self.advance()
                    break
                self.expect(")")
                label = None
                if self.tok[0] == "label":
                    label = self.tok[1]
                    self.advance()
                if self.tok[0] == "hybrid":
                    tag = self.tok[1]
                    tag_pos = self.tok[2]
                    self.advance()
                    node = self.hybrid(tag)
                    if tag in self.hybrid_defined:
                        raise DuplicateHybridDefinition(f"#H{tag}")
                    self.hybrid_defined.add(tag)
                    if label is not None:
                        self.set_label(node, label, tag_pos)
                else:
                    node = self.fresh()  # internal_label, if any, is dropped
                for c in groups.pop():
                    self.edges.add((node, c))

    def network(self) -> Network:
        self.subtree()
        self.expect(";")
        self.expect("end")
        for tag, node in sorted(self.hybrid_node.items()):
            if tag not in self.hybrid_defined and node not in self.labels:
                raise UnresolvedHybridTag(f"#H{tag}")
        return validate(self.edges, self.labels, nodes=self.nodes)


def parse_enewick(text: str) -> Network:
    return _Parser(text).network()


_SAFE_LABEL = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-|"
)


def _quote(label: str) -> str:
    if label and all(ch in _SAFE_LABEL for ch in label):
        return label
    return "'" + label.replace("'", "''") + "'"


def write_enewick(n: Network) -> str:
    """Canonical serialization.

    Children are ordered by their clade's sorted label tuple; reticulations
    receive #H tags numbered in traversal discovery order, with the first
    visit carrying the children.
    """
    d = n.clades()
    tags: dict[NodeId, int] = {}
    out: list[str] = []
    stack: list[NodeId | str] = [n.root]  # nodes to emit and text to copy
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif u in n.leaf_label:
            out.append(_quote(n.leaf_label[u]))
        elif u in tags:
            out.append(f"#H{tags[u]}")
        else:
            close = ")"
            if len(n.pred[u]) >= 2:
                tags[u] = len(tags) + 1
                close = f")#H{tags[u]}"
            stack.append(close)
            # The lowest set bit leads each sort key; when those differ, it
            # alone decides the order and the full index tuple is not built.
            kids = n.succ[u]
            low = [d[c] & -d[c] for c in kids]
            if len(set(low)) == len(kids):
                children = [c for _, c in sorted(zip(low, kids))]
            else:
                children = sorted(kids, key=lambda c: (_label_indices(d[c]), c))
            for i, c in enumerate(reversed(children)):
                if i:
                    stack.append(",")
                stack.append(c)
            out.append("(")
    out.append(";")
    return "".join(out)


def parse_edgelist(text: str) -> Network:
    ids: dict[str, NodeId] = {}

    def node(name: str) -> NodeId:
        return ids.setdefault(name, len(ids))

    edges: set[tuple[NodeId, NodeId]] = set()
    labels: dict[NodeId, str] = {}
    in_leaves = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "#leaves":
            in_leaves = True
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"expected two fields, found {line!r}", line=lineno)
        a, b = parts
        if in_leaves:
            if a not in ids:
                raise UnknownNode(f"leaf {a!r} at line {lineno} not in any edge")
            if ids[a] in labels:
                raise ParseError(f"leaf {a!r} labeled twice", line=lineno)
            labels[ids[a]] = b
        else:
            if len(b.split()) != 1:
                raise ParseError(f"expected two fields, found {line!r}", line=lineno)
            edges.add((node(a), node(b)))
    return validate(edges, labels, nodes=set(ids.values()))


def write_edgelist(n: Network) -> str:
    lines = [f"{u} {v}" for u, v in sorted(n.edges())]
    lines.append("#leaves")
    for u in sorted(n.leaf_label):
        lines.append(f"{u} {n.leaf_label[u]}")
    return "\n".join(lines) + "\n"
