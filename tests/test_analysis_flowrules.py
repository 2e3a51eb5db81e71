"""Cross-module tests for the deep flow rules (repro.analysis.flowrules)."""

import pytest

from repro.analysis import lint_project_sources


def rules_fired(sources):
    return sorted({f.rule for f in lint_project_sources(sources)})


def findings_for(sources, rule):
    return [f for f in lint_project_sources(sources) if f.rule == rule]


# ----------------------------------------------------------------------
# DET101 — unordered float accumulation
# ----------------------------------------------------------------------

def test_det101_cross_module_float_summary():
    sources = {
        "repro/metrics/score.py": (
            "def weight(x) -> float:\n"
            "    return x * 0.5\n"
        ),
        "repro/metrics/agg.py": (
            "from repro.metrics.score import weight\n"
            "\n"
            "def total(items):\n"
            "    acc = 0.0\n"
            "    for it in set(items):\n"
            "        acc += weight(it)\n"
            "    return acc\n"
        ),
    }
    hits = findings_for(sources, "DET101")
    assert len(hits) == 1
    assert hits[0].path == "repro/metrics/agg.py"


def test_det101_int_accumulation_is_clean():
    sources = {
        "repro/metrics/agg.py": (
            "def total(free, excluded):\n"
            "    return sum(int(free[node]) for node in excluded)\n"
        ),
    }
    assert findings_for(sources, "DET101") == []


def test_det101_sorted_iteration_is_clean():
    sources = {
        "repro/metrics/agg.py": (
            "def total(items):\n"
            "    acc = 0.0\n"
            "    for it in sorted(set(items)):\n"
            "        acc += it * 0.5\n"
            "    return acc\n"
        ),
    }
    assert findings_for(sources, "DET101") == []


# ----------------------------------------------------------------------
# DET102 — environment-derived seeds
# ----------------------------------------------------------------------

def test_det102_env_flows_into_seed_call():
    sources = {
        "repro/core/boot.py": (
            "import os\n"
            "import random\n"
            "\n"
            "def init():\n"
            "    raw = os.environ.get('SEED', '0')\n"
            "    random.seed(raw)\n"
        ),
    }
    assert len(findings_for(sources, "DET102")) >= 1


def test_det102_literal_seed_is_clean():
    sources = {
        "repro/core/boot.py": (
            "import random\n"
            "\n"
            "def init():\n"
            "    random.seed(1234)\n"
        ),
    }
    assert findings_for(sources, "DET102") == []


# ----------------------------------------------------------------------
# UNIT101 — float flowing into *_mb names
# ----------------------------------------------------------------------

def test_unit101_cross_module_float_return():
    sources = {
        "repro/cluster/sizing.py": (
            "def overhead(n) -> float:\n"
            "    return n * 1.5\n"
        ),
        "repro/cluster/req.py": (
            "from repro.cluster.sizing import overhead\n"
            "\n"
            "def build(n):\n"
            "    extra = overhead(n)\n"
            "    request_mb = extra\n"
            "    return request_mb\n"
        ),
    }
    hits = findings_for(sources, "UNIT101")
    assert len(hits) == 1
    assert hits[0].path == "repro/cluster/req.py"


def test_unit101_int_rounded_is_clean():
    sources = {
        "repro/cluster/req.py": (
            "def build(n):\n"
            "    request_mb = int(round(n * 1.5))\n"
            "    return request_mb\n"
        ),
    }
    assert findings_for(sources, "UNIT101") == []


# ----------------------------------------------------------------------
# RACE001 — worker writes to shared module state
# ----------------------------------------------------------------------

_WORKER_MODULE = (
    "_CACHE = {}\n"
    "_SCRATCH = {}\n"
    "\n"
    "def reset():\n"
    "    _SCRATCH.clear()\n"
    "\n"
    "def work(item):\n"
    "    _CACHE[item] = item\n"
    "    _SCRATCH[item] = item\n"
    "    return item\n"
)


def test_race001_unsanctioned_global_write_fires():
    sources = {
        "repro/experiments/w.py": _WORKER_MODULE,
        "repro/experiments/d.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.experiments.w import work, reset\n"
            "\n"
            "def launch(items):\n"
            "    with ProcessPoolExecutor(initializer=reset) as pool:\n"
            "        return [pool.submit(work, i) for i in items]\n"
        ),
    }
    hits = findings_for(sources, "RACE001")
    # _CACHE write fires; _SCRATCH is sanctioned by the initializer.
    assert len(hits) == 1
    assert "_CACHE" in hits[0].message


def test_race001_silent_without_dispatch():
    sources = {"repro/experiments/w.py": _WORKER_MODULE}
    assert findings_for(sources, "RACE001") == []


# ----------------------------------------------------------------------
# RACE003 — unpicklable dispatch targets
# ----------------------------------------------------------------------

def test_race003_lambda_target():
    sources = {
        "repro/experiments/d.py": (
            "def launch(pool, items):\n"
            "    return [pool.submit(lambda i: i, x) for x in items]\n"
        ),
    }
    assert len(findings_for(sources, "RACE003")) == 1


# ----------------------------------------------------------------------
# INV101/102/103 — ledger coherence
# ----------------------------------------------------------------------

_OWNER_MODULE = (
    "class Led:\n"
    "    def __init__(self, n):\n"
    "        self.lent_mb = [0] * n\n"
    "        self.generation = 0\n"
    "        self.lender_jobs = [dict() for _ in range(n)]\n"
    "\n"
    "    def _log_free_many(self, nodes):\n"
    "        self.generation += len(nodes)\n"
    "\n"
    "    def _notify_demand(self, lenders):\n"
    "        pass\n"
    "\n"
    "    def lend(self, node, mb):\n"
    "        self.lent_mb[node] += mb\n"
    "        self._log_free_many([node])\n"
    "        self._notify_demand([node])\n"
    "\n"
    "    def check_invariants(self):\n"
    "        pass\n"
)


def test_inv101_cross_module_poke():
    sources = {
        "repro/cluster/led.py": _OWNER_MODULE,
        "repro/policies/poke.py": (
            "from repro.cluster.led import Led\n"
            "\n"
            "def steal(led: Led, node, mb):\n"
            "    led.lent_mb[node] -= mb\n"
        ),
    }
    hits = findings_for(sources, "INV101")
    assert len(hits) == 1
    assert hits[0].path == "repro/policies/poke.py"


def test_inv101_through_mutator_is_clean():
    sources = {
        "repro/cluster/led.py": _OWNER_MODULE,
        "repro/policies/ok.py": (
            "from repro.cluster.led import Led\n"
            "\n"
            "def borrow(led: Led, node, mb):\n"
            "    led.lend(node, mb)\n"
        ),
    }
    assert findings_for(sources, "INV101") == []


def test_inv102_silent_free_vector_write():
    sources = {
        "repro/cluster/led.py": (
            "class Led:\n"
            "    def __init__(self, n):\n"
            "        self.local_used_mb = [0] * n\n"
            "        self.generation = 0\n"
            "\n"
            "    def _log_free_many(self, nodes):\n"
            "        self.generation += len(nodes)\n"
            "\n"
            "    def silent(self, node, mb):\n"
            "        self.local_used_mb[node] += mb\n"
            "\n"
            "    def check_invariants(self):\n"
            "        pass\n"
        ),
    }
    hits = findings_for(sources, "INV102")
    assert len(hits) == 1


def test_inv101_flags_columnar_remote_held_poke():
    sources = {
        "repro/cluster/led.py": _OWNER_MODULE.replace(
            "self.lent_mb = [0] * n",
            "self.lent_mb = [0] * n\n        self.remote_held_mb = [0] * n",
        ),
        "repro/policies/poke.py": (
            "from repro.cluster.led import Led\n"
            "\n"
            "def steal(led: Led, node, mb):\n"
            "    led.remote_held_mb[node] -= mb\n"
        ),
    }
    hits = findings_for(sources, "INV101")
    assert len(hits) == 1
    assert hits[0].path == "repro/policies/poke.py"


def test_inv102_bulk_sink_is_clean():
    """Fancy-indexed column writes that log through _log_free_many (the
    columnar bulk sink) satisfy INV102."""
    sources = {
        "repro/cluster/led.py": (
            "class Led:\n"
            "    def __init__(self, n):\n"
            "        self.local_used_mb = [0] * n\n"
            "        self.generation = 0\n"
            "\n"
            "    def _log_free_many(self, nodes):\n"
            "        self.generation += len(nodes)\n"
            "\n"
            "    def touch_many(self, nodes, deltas):\n"
            "        self.local_used_mb[nodes] += deltas\n"
            "        self._log_free_many(nodes)\n"
            "\n"
            "    def check_invariants(self):\n"
            "        pass\n"
        ),
    }
    assert findings_for(sources, "INV102") == []


def test_inv102_bulk_write_without_any_sink_fires():
    sources = {
        "repro/cluster/led.py": (
            "class Led:\n"
            "    def __init__(self, n):\n"
            "        self.local_used_mb = [0] * n\n"
            "        self.generation = 0\n"
            "\n"
            "    def _log_free_many(self, nodes):\n"
            "        self.generation += len(nodes)\n"
            "\n"
            "    def touch_many(self, nodes, deltas):\n"
            "        self.local_used_mb[nodes] += deltas\n"
            "\n"
            "    def check_invariants(self):\n"
            "        pass\n"
        ),
    }
    assert len(findings_for(sources, "INV102")) == 1


def test_inv103_silent_lender_write():
    sources = {
        "repro/cluster/led.py": (
            "class Led:\n"
            "    def __init__(self, n):\n"
            "        self.lender_jobs = [dict() for _ in range(n)]\n"
            "\n"
            "    def _notify_demand(self, lenders):\n"
            "        pass\n"
            "\n"
            "    def silent(self, lender, jid, mb):\n"
            "        self.lender_jobs[lender][jid] = mb\n"
            "\n"
            "    def check_invariants(self):\n"
            "        pass\n"
        ),
    }
    assert len(findings_for(sources, "INV103")) == 1


_FUNNEL_MODULE = (
    "class Led:\n"
    "    def __init__(self, n):\n"
    "        self.lent_mb = [0] * n\n"
    "        self.local_used_mb = [0] * n\n"
    "\n"
    "    def _notify_demand(self, lenders):\n"
    "        pass\n"
    "\n"
    "    def _log_free_many(self, nodes):\n"
    "        pass\n"
    "\n"
    "    def _write_columns(self, local, lent, held, logged):\n"
    "        for n, d in lent.items():\n"
    "            self.lent_mb[n] += d\n"
    "        for n, d in local.items():\n"
    "            self.local_used_mb[n] += d\n"
    "        self._log_free_many(logged)\n"
    "\n"
    "{body}"
    "\n"
    "    def check_invariants(self):\n"
    "        pass\n"
)


@pytest.mark.parametrize("body, hits", [
    # Lending deltas through the funnel, positionally or by keyword.
    ("    def lend(self, n, d):\n"
     "        self._write_columns({}, {n: d}, {}, [n])\n", 1),
    ("    def lend(self, n, d, lent):\n"
     "        self._write_columns({}, lent=lent, held={}, logged=[n])\n", 1),
    # Lending deltas with the notify (directly or transitively): clean.
    ("    def lend(self, n, d):\n"
     "        self._write_columns({}, {n: d}, {}, [n])\n"
     "        self._notify_demand([n])\n", 0),
    # A literal empty lending dict is a local-only write: clean.
    ("    def grow(self, n, d):\n"
     "        self._write_columns({n: d}, {}, {}, [n])\n", 0),
    # A direct lent_mb element write outside the funnel.
    ("    def poke(self, n, d):\n"
     "        self.lent_mb[n] += d\n"
     "        self._log_free_many([n])\n", 1),
])
def test_inv103_column_funnel_lending(body, hits):
    """Lending that flows through the column write funnel must reach
    _notify_demand in the caller; the funnel itself is exempt."""
    sources = {"repro/cluster/led.py": _FUNNEL_MODULE.format(body=body)}
    assert len(findings_for(sources, "INV103")) == hits


def test_inv104_untapped_remote_write_fires():
    sources = {
        "repro/cluster/led.py": (
            "class Led:\n"
            "    def __init__(self, n):\n"
            "        self.remote_held_mb = [0] * n\n"
            "\n"
            "    def _notify_demand(self, lenders):\n"
            "        pass\n"
            "\n"
            "    def silent(self, node, mb):\n"
            "        self.remote_held_mb[node] += mb\n"
            "\n"
            "    def check_invariants(self):\n"
            "        pass\n"
        ),
    }
    assert len(findings_for(sources, "INV104")) == 1


def test_inv104_transitive_notify_is_clean():
    sources = {
        "repro/cluster/led.py": (
            "class Led:\n"
            "    def __init__(self, n):\n"
            "        self.remote_held_mb = [0] * n\n"
            "        self.allocations = {}\n"
            "\n"
            "    def _notify_demand(self, lenders):\n"
            "        pass\n"
            "\n"
            "    def _touch(self, node):\n"
            "        self._notify_demand([node])\n"
            "\n"
            "    def add_remote(self, jid, node, mb, alloc):\n"
            "        self.remote_held_mb[node] += mb\n"
            "        self.allocations[jid] = alloc\n"
            "        self._touch(node)\n"
            "\n"
            "    def check_invariants(self):\n"
            "        pass\n"
        ),
    }
    assert findings_for(sources, "INV104") == []


def test_inv104_ignores_non_owner_classes():
    sources = {
        "repro/cluster/other.py": (
            "class NotALedger:\n"
            "    def __init__(self, n):\n"
            "        self.remote_held_mb = [0] * n\n"
            "\n"
            "    def poke(self, node, mb):\n"
            "        self.remote_held_mb[node] += mb\n"
        ),
    }
    assert findings_for(sources, "INV104") == []


def test_shallow_rules_still_run_in_project_mode():
    sources = {
        "repro/core/x.py": "def f(total, n):\n    share_mb = total / n\n    return share_mb\n",
    }
    fired = rules_fired(sources)
    assert "UNIT001" in fired
