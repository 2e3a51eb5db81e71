# lint-relpath: repro/cluster/flow_inv104.py
"""Golden fixture: INV104 ledger mutations invisible to provenance taps."""


class MiniLedger:
    def __init__(self, n):
        self.remote_held_mb = [0] * n
        self.allocations = {}

    def _notify_demand(self, lenders):
        pass

    def _log_free_many(self, nodes):
        pass

    def silent_hold(self, node, mb):
        self.remote_held_mb[node] += mb  # EXPECT: INV104

    def suppressed_hold(self, node, mb):
        self.remote_held_mb[node] += mb  # repro: noqa[INV104]

    def notified_hold(self, node, mb):
        self.remote_held_mb[node] += mb
        self._notify_demand([node])

    def logged_commit(self, jid, alloc, node):
        self.allocations[jid] = alloc
        self._log_free_many([node])

    def check_invariants(self):
        pass
