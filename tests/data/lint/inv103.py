# lint-relpath: repro/cluster/flow_inv103.py
"""Golden fixture: INV103 lender mutations without listener notify."""


class MiniLender:
    def __init__(self, n):
        self.lender_jobs = [dict() for _ in range(n)]
        self.lent_mb = [0] * n

    def _notify_demand(self, lenders):
        pass

    def _log_free_many(self, nodes):
        pass

    def _write_columns(self, local, lent, held, logged):
        for node, mb in lent.items():
            self.lent_mb[node] += mb
        self._log_free_many(logged)

    def silent_borrow(self, lender, jid, mb):  # EXPECT: INV103
        self.lender_jobs[lender][jid] = mb

    def suppressed_borrow(self, lender, jid, mb):  # repro: noqa[INV103]
        self.lender_jobs[lender][jid] = mb

    def notified_borrow(self, lender, jid, mb):
        self.lender_jobs[lender][jid] = mb
        self._notify_demand([lender])

    def silent_set_lent(self, node, delta):  # EXPECT: INV103
        self._write_columns({}, {node: delta}, {}, [node])

    def notified_set_lent(self, node, delta):
        self._write_columns({}, {node: delta}, {}, [node])
        self._notify_demand([node])

    def local_only_write(self, node, delta):
        self._write_columns({node: delta}, {}, {}, [node])

    def check_invariants(self):
        pass
