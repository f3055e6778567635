"""Replacement policies with way-mask-aware victim selection.

The partitioning mechanism works "by modifying the cache-replacement
algorithm" (paper Section 2.1): a victim is only ever chosen among the ways
a domain is allowed to replace. Both policies here accept an
``allowed_ways`` iterable on victim selection for that reason.
"""

from repro.util.errors import ValidationError


class TrueLru:
    """Exact LRU over one cache set.

    Maintains a recency list (most-recent first). Used by small inner
    caches and as a reference implementation in tests.
    """

    def __init__(self, num_ways):
        if num_ways < 1:
            raise ValidationError("a set needs at least one way")
        self.num_ways = num_ways
        self._recency = list(range(num_ways))

    def touch(self, way):
        """Mark ``way`` most recently used."""
        self._recency.remove(way)
        self._recency.insert(0, way)

    def victim(self, allowed_ways=None):
        """Return the least-recently-used way among ``allowed_ways``."""
        if allowed_ways is None:
            return self._recency[-1]
        allowed = set(allowed_ways)
        if not allowed:
            raise ValidationError("victim selection requires at least one allowed way")
        for way in reversed(self._recency):
            if way in allowed:
                return way
        raise ValidationError("allowed ways are outside this set")

    def recency_order(self):
        """Most-recent-first order; exposed for tests."""
        return list(self._recency)


class PseudoLruTree:
    """Tree-based pseudo-LRU (the policy used by Sandy Bridge's LLC).

    A binary tree of direction bits covers the ways (padded to a power of
    two). On a touch, bits along the path are set to point *away* from the
    touched way; the victim walk follows the bits. When a subtree contains
    no allowed (or no existing) way, the walk detours to the other side —
    this is exactly how masked replacement composes with PLRU in hardware.
    """

    def __init__(self, num_ways):
        if num_ways < 1:
            raise ValidationError("a set needs at least one way")
        self.num_ways = num_ways
        self._leaves = 1
        while self._leaves < num_ways:
            self._leaves *= 2
        # Internal nodes of a complete binary tree, root at index 1.
        self._bits = [0] * self._leaves

    def touch(self, way):
        """Update direction bits so the walk points away from ``way``."""
        if not 0 <= way < self.num_ways:
            raise ValidationError(f"way {way} out of range")
        node, lo, hi = 1, 0, self._leaves
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                self._bits[node] = 1  # point right, away from the touched way
                node, hi = 2 * node, mid
            else:
                self._bits[node] = 0  # point left
                node, lo = 2 * node + 1, mid
        return self

    def victim(self, allowed_ways=None):
        """Walk the tree to a victim way, constrained to ``allowed_ways``."""
        if allowed_ways is None:
            allowed = set(range(self.num_ways))
        else:
            allowed = {w for w in allowed_ways if 0 <= w < self.num_ways}
        if not allowed:
            raise ValidationError("victim selection requires at least one allowed way")

        node, lo, hi = 1, 0, self._leaves
        while hi - lo > 1:
            mid = (lo + hi) // 2
            left_ok = any(lo <= w < mid for w in allowed)
            right_ok = any(mid <= w < hi for w in allowed)
            go_right = self._bits[node] == 1
            if go_right and not right_ok:
                go_right = False
            elif not go_right and not left_ok:
                go_right = True
            if go_right:
                node, lo = 2 * node + 1, mid
            else:
                node, hi = 2 * node, mid
        return lo

    def bits(self):
        """The raw direction bits; exposed for tests."""
        return list(self._bits)
