"""The reference probe: a fixed computation that every timing is divided by.

On a shared virtual machine the speed of identical code drifts by up to 2x
in epochs of about a second, and no hardware counters are exposed.  The
probe runs right before and right after every timed job; dividing the job's
time by the mean of the two probe times cancels most of that drift.

The probe imports nothing from baokit and does the three kinds of work
baokit spends its time on: an interpreter walking a tree of small objects
through function calls and attribute loads (about a tenth of its time),
small-object allocation into a dict (three fifths), and shifts and ORs of
a 64 KiB integer (the rest).  A tight arithmetic loop is left out: on a
2-vCPU virtual machine it slowed about 1.6 times less than baokit's jobs
did.  The probe runs with the garbage collector off, so a collection
triggered by the program's garbage cannot land in it.
"""

import gc
import random
import time


class _Node:
    __slots__ = ("op", "left", "right", "leaf")

    def __init__(self, op, left=None, right=None, leaf=0):
        self.op = op
        self.left = left
        self.right = right
        self.leaf = leaf


def _tree(depth: int, index: int = 0) -> _Node:
    if depth == 0:
        return _Node("leaf", leaf=index % 5)
    op = ("and", "or", "xor")[index % 3]
    return _Node(op, _tree(depth - 1, 2 * index + 1), _tree(depth - 1, 2 * index + 2))


def _evaluate(node: _Node, env: dict) -> bool:
    if node.op == "leaf":
        return env[node.leaf]
    left = _evaluate(node.left, env)
    right = _evaluate(node.right, env)
    if node.op == "and":
        return left and right
    if node.op == "or":
        return left or right
    return left != right


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


_TREE = _tree(8)
# 64 KiB, a width in the middle of baokit's range.
_WIDE = random.Random(1305).getrandbits(1 << 19) | 1


def _work() -> int:
    hits = 0
    for mask in range(4):
        env = {k: bool((mask >> k) & 1) or k == 4 for k in range(5)}
        hits += _evaluate(_TREE, env)
    table = {}
    for i in range(2500):
        table[i] = _Pair(i, (i, i + 1))
    out = 0
    for s in range(1, 24):
        out |= _WIDE >> s
    return hits + len(table) + (out & 1)


def probe() -> float:
    """Seconds taken by one run of the fixed computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
