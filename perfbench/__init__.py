"""The repository benchmark: four workloads and a traced layer ledger.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload solo-64 --seed 1 --seconds 45 --trace 0

Workloads: ``paper-sweep`` (:mod:`perfbench.sweep`), ``solo-64``
(:mod:`perfbench.solo`), and ``fleet-churn`` and ``fleet-closed``
(:mod:`perfbench.fleet`); ``all`` runs them in turn.  ``BENCHMARK.json``
at the repository root lists the workloads and end-to-end metrics that
are gated, with their units and regression bounds, and the per-layer
metrics of the traced run.  paper-sweep, fleet-churn and the tail
latency are printed but not gated: on a shared two-vCPU host their
runs of the same code spread by a fifth or more (paper-sweep's single
CPU-bound process follows the host's speed, which drifts by that much
within minutes with no steal to show for it).  Every traced run still
measures every layer, paper-sweep's included.  Every timing, set-up
included, is reported net of host steal: the CPU time the hypervisor
gives other tenants while the program waits to run
(:func:`perfbench.stats.net_figures`).  :data:`perfbench.ledger.MOVES`
records which end-to-end metric each per-layer metric should move, and
on which workload.  The tests of the benchmark's own logic live in
``perfbench/tests`` (``python3 -m pytest perfbench/tests``).
"""

WORKLOADS = ("paper-sweep", "solo-64", "fleet-churn", "fleet-closed")


def run_workload(name: str, seed: int, seconds: float, **options) -> dict:
    """Run one workload untraced; *options* go to its ``run``."""
    from perfbench import fleet, solo, sweep
    if name == "fleet-closed":
        options["closed"] = True
    runner = {"paper-sweep": sweep.run, "solo-64": solo.run,
              "fleet-churn": fleet.run, "fleet-closed": fleet.run}[name]
    return runner(seed, seconds, **options)
