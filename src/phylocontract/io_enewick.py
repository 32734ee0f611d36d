"""Extended Newick and edge-list serialization.

Grammar (the extended Newick of Cardona, Rosselló and Valiente, BMC
Bioinformatics 9:532, 2008):

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

import re
import warnings
from itertools import islice

from .errors import (
    DuplicateHybridDefinition,
    SyntaxError as ParseError,
    UnknownNode,
    UnresolvedHybridTag,
)
from .network_core import Network, NodeId, _label_indices, validate

__all__ = ["parse_enewick", "write_enewick", "parse_edgelist", "write_edgelist"]

_QUOTED = r"'[^']*(?:''[^']*)*'"  # "''" inside stands for one quote
# One match per token: a mark, an unquoted label, a hybrid tag or a quoted
# label. " \t\r\n" match nothing and are skipped. A "#" without "H" and
# digits matches as a malformed token of its own, and so does an
# unterminated quote, together with the rest of the text.
_TOKEN = re.compile(
    r"[(),;:]|[^(),;:#' \t\r\n]+|#H\d+|#H?|" + _QUOTED + r"(?!')|'[\s\S]*"
)
# Malformed tokens, each a "#" and at most one more character: the
# unterminated quote is renamed "#'". The parser raises a malformed token's
# error once the token becomes the lookahead, as a lexer that reads one
# token ahead would.
_MALFORMED = {
    "#": "expected 'H' after '#'",
    "#H": "expected integer after '#H'",
    "#'": "unterminated quoted label",
}
_NOT_LABEL = "(),;:#"  # first characters; "" (the end) is in any string


def _value(tok: str):
    """A token as an error message names it: a label's text, a hybrid
    tag's integer, a mark itself, or None at the end."""
    if not tok or tok in _MALFORMED:
        return None
    if tok[0] == "#":
        return int(tok[2:])
    if tok[0] == "'":
        return tok[1:-1].replace("''", "'")
    return tok


def _error(
    text: str, toks: list[str], i: int, message: str | None = None, at: int | None = None
) -> ParseError:
    """The syntax error to raise with token i as the lookahead: the
    lookahead's own error if it is malformed, else `message` at token `at`
    (default i). Positions are computed only here."""
    if toks[i] in _MALFORMED:
        message, at = _MALFORMED[toks[i]], i
    elif at is None:
        at = i
    if at == len(toks) - 1:
        pos = len(text)
    else:
        pos = next(islice(_TOKEN.finditer(text), at, None)).start()
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return ParseError(message, line=line, col=col)


def parse_enewick(text: str) -> Network:
    """One pass over the token list, with an explicit stack: "(" opens a
    group, and each finished node (a leaf, a hybrid reference, or a group
    at its ")") joins the innermost open group. Leaves and hybrids are
    numbered at first sight, groups at their ")"."""
    toks = _TOKEN.findall(text)
    if toks and toks[-1][0] == "'" and not re.fullmatch(_QUOTED, toks[-1]):
        toks[-1] = "#'"
    toks.append("")  # the end
    labels: dict[NodeId, str] = {}
    hybrid_node: dict[int, NodeId] = {}
    hybrid_defined: set[int] = set()
    stack: list[NodeId] = []  # finished nodes of the open groups
    opens: list[int] = []  # where each open group's nodes start on the stack
    tails: list[NodeId] = []  # the edges, as two parallel lists
    heads: list[NodeId] = []
    next_id: NodeId = 0
    i = 0
    while True:
        tok = toks[i]
        if tok == "(":
            opens.append(len(stack))
            i += 1
            continue
        i += 1
        if tok[:1] == "#" and len(tok) > 2:
            node = hybrid_node.setdefault(int(tok[2:]), next_id)
            next_id += node == next_id
        elif tok[:1] not in _NOT_LABEL:
            label = tok if tok[0] != "'" else tok[1:-1].replace("''", "'")
            tok = toks[i]
            if tok[:1] == "#" and len(tok) > 2:
                i += 1
                node = hybrid_node.setdefault(int(tok[2:]), next_id)
                next_id += node == next_id
                if labels.get(node, label) != label:
                    message = f"conflicting labels {labels[node]!r} and {label!r} for one hybrid"
                    raise _error(text, toks, i, message, at=i - 2)
            else:
                node = next_id
                next_id += 1
            labels[node] = label
        else:
            raise _error(text, toks, i - 1, f"unexpected token {_value(tok)!r}")
        while True:
            tok = toks[i]
            if tok == ":":
                i += 1
                num = toks[i]
                length = None
                if num[:1] not in _NOT_LABEL:
                    num = _value(num)
                    try:
                        length = float(num)
                    except ValueError:
                        pass
                if length is None:
                    raise _error(text, toks, i, "expected branch length after ':'")
                i += 1
                tok = toks[i]
                if tok in _MALFORMED:
                    raise _error(text, toks, i)
                warnings.warn(f"branch length {num} discarded", stacklevel=2)
            if not opens:
                break
            stack.append(node)
            if tok == ",":
                i += 1
                break
            if tok != ")":
                raise _error(text, toks, i, f"expected ')', found {_value(tok)!r}")
            i += 1
            tok = toks[i]
            label = None
            if tok[:1] not in _NOT_LABEL:
                label = _value(tok)
                i += 1
                tok = toks[i]
            if tok[:1] == "#" and len(tok) > 2:
                i += 1
                tag = int(tok[2:])
                node = hybrid_node.setdefault(tag, next_id)
                next_id += node == next_id
                if tag in hybrid_defined:
                    if toks[i] in _MALFORMED:
                        raise _error(text, toks, i)
                    raise DuplicateHybridDefinition(f"#H{tag}")
                hybrid_defined.add(tag)
                if label is not None:
                    if labels.get(node, label) != label:
                        message = f"conflicting labels {labels[node]!r} and {label!r} for one hybrid"
                        raise _error(text, toks, i, message, at=i - 1)
                    labels[node] = label
            else:
                node = next_id  # internal_label, if any, is dropped
                next_id += 1
            start = opens.pop()
            tails += [node] * (len(stack) - start)
            heads += stack[start:]
            del stack[start:]
        if not opens:
            break
    if toks[i] != ";":
        raise _error(text, toks, i, f"expected ';', found {_value(toks[i])!r}")
    if toks[i + 1]:
        raise _error(text, toks, i + 1, f"expected 'end', found {_value(toks[i + 1])!r}")
    for tag, node in sorted(hybrid_node.items()):
        if tag not in hybrid_defined and node not in labels:
            raise UnresolvedHybridTag(f"#H{tag}")
    return validate(zip(tails, heads), labels, nodes=range(next_id))


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

    edges: list[tuple[NodeId, NodeId]] = []  # in line order, as validate reads them
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
            edges.append((node(a), node(b)))
    return validate(edges, labels, nodes=range(len(ids)))


def write_edgelist(n: Network) -> str:
    lines = [f"{u} {v}" for u, v in sorted(n.edges())]
    lines.append("#leaves")
    for u in sorted(n.leaf_label):
        lines.append(f"{u} {n.leaf_label[u]}")
    return "\n".join(lines) + "\n"
