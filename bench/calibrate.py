"""Fixed reference task, timed next to every measured invocation.

The benchmark runs this script in a child process right before and right
after each ``topo`` invocation and each set-up, and reports their wall
times relative to the mean of the two.  The machine's speed drifts (on a
shared host, a child can run up to twice as slowly for minutes at a
time); a ratio to a task measured moments apart on the same machine
cancels most of that drift, where the raw time cannot.

The task does the kind of work that dominates a ``topo`` invocation, in
plain Python that never imports ``topodata``, so it stays the same on
every commit: it builds a random DAG of objects and answers reachability
queries through small methods over memoised frozensets.  It imports
nothing else and keeps the sets small, because interpreter start-up and
bulk work in C slow down less than bytecode when the host is contended.
Timed side by side over 12 windows of 40 s, the ratios to this task
spread less from window to window than the ratios to a version that also
imported the CLI's standard modules, kept sets of 200 and round-tripped
JSON: 0.047 against 0.074 of the median on ``overlay``, 0.035 against
0.057 on ``cad_extrude`` (interquartile range).  Takes about 0.15 s,
interpreter start included.
"""

import random


class Node:
    def __init__(self, name, children):
        self.name = name
        self.children = children
        self._down = None

    def down(self):
        if self._down is None:
            seen = {self.name}
            for child in self.children:
                seen |= child.down()
            # capped, so the sets stay small; which members survive the
            # cap depends on the string hash seed, the amount of work not
            self._down = frozenset(seen) if len(seen) < 40 else frozenset(list(seen)[:40])
        return self._down

    def below(self, other):
        return other.name in self.down()


rng = random.Random(7)
n = 2000
nodes = []
for i in range(n):
    nodes.append(Node(f"e{n - i}", [nodes[j] for j in rng.sample(range(i), min(i, 3))]))
hits = sum(1 for a in nodes[-1100:] for b in nodes[::3] if a.below(b))
