"""Deterministic worker-pool helpers.

Work is split into an ordered chunk list and results come back in chunk
order; a caller that merges locally sorted results as a sorted union gets
output that never depends on the worker count.  Worker count 1 bypasses
multiprocessing entirely, without importing it.

A pool of two forked workers costs 15-20 ms on a 2-core host, so a
caller passes one worker when its job is small.  ``repvar.repvariety``
runs every variety that expands fewer than 500,000 tuples in the parent,
whatever the worker count.  Best of 3, two workers took 0.034 against
0.014 s on D6 genus 2 and 0.32 against 0.26 s on Q8 genus 3 (114,688
tuples), but 1.05 against 1.45 s on D6 genus 3 (912,384) and 0.34 against
0.42 s on S5 genus 2 (BENCH_19.json).
"""

from __future__ import annotations

import os


def effective_workers(requested=None):
    """Resolve the worker count: explicit flag wins, else the
    FLOERKIT_THREADS environment variable, else 1."""
    if requested is not None and requested > 0:
        return requested
    env = os.environ.get("FLOERKIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def run_chunks(fn, chunks, workers):
    """Apply fn to each chunk, preserving chunk order in the result list."""
    chunks = list(chunks)
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    from multiprocessing import get_context

    ctx = get_context("fork")
    with ctx.Pool(min(workers, len(chunks))) as pool:
        return pool.map(fn, chunks)
