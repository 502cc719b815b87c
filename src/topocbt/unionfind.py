"""Disjoint-set forest with union by size and path compression."""

from __future__ import annotations


class UnionFind:
    def __init__(self) -> None:
        self._parent: dict = {}
        self._size: dict = {}

    def find(self, x):
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1
            return x
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def component_count(self) -> int:
        return sum(1 for x, p in self._parent.items() if x == p)
