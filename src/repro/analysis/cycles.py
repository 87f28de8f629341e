"""Cycle detection over the runtime sanitizer's lock acquisition graph.

The sanitizer records acquisition order per lock *instance* and reduces
"can these locks deadlock" to "does the acquisition-order graph contain a
cycle"; this is the DFS that answers it, over any hashable node type.
"""

from __future__ import annotations

from typing import Hashable, Iterator, TypeVar

Node = TypeVar("Node", bound=Hashable)


def find_cycles(adjacency: "dict[Node, set[Node]]") -> "Iterator[list[Node]]":
    """Yield one witness cycle per strongly-entangled region (iterative DFS).

    Each yielded list is a closed walk ``[a, b, ..., a]`` (first node
    repeated at the end).  Nodes absent from ``adjacency``'s keys are
    treated as sinks.  Deterministic: children are explored in sorted
    order, so the same graph always yields the same witnesses.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adjacency, WHITE)
    for root in sorted(adjacency):
        if color[root] != WHITE:
            continue
        path: "list[Node]" = []
        stack: "list[tuple[Node, Iterator[Node]]]" = [
            (root, iter(sorted(adjacency[root])))
        ]
        color[root] = GRAY
        path.append(root)
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color.get(child, BLACK) == GRAY:
                    yield path[path.index(child) :] + [child]
                elif color.get(child, BLACK) == WHITE:
                    color[child] = GRAY
                    path.append(child)
                    stack.append((child, iter(sorted(adjacency.get(child, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
