# lint-relpath: repro/cluster/flow_inv102.py
"""Golden fixture: INV102 free-vector writes without a generation bump."""


class MiniLedger:
    def __init__(self, n):
        self.local_used_mb = [0] * n
        self.generation = 0

    def _log_free_many(self, nodes):
        self.generation += len(nodes)

    def silent_touch(self, node, mb):
        self.local_used_mb[node] += mb  # EXPECT: INV102

    def suppressed_touch(self, node, mb):
        self.local_used_mb[node] += mb  # repro: noqa[INV102]

    def logged_touch(self, node, mb):
        self.local_used_mb[node] += mb
        self._log_free_many([node])

    def check_invariants(self):
        pass
