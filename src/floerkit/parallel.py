"""Deterministic worker-pool helpers.

Work is split into an ordered chunk list and results come back in chunk
order; a caller whose chunks return sorted runs of consecutive keys
concatenates them into output that never depends on the worker count.
Worker count 1 bypasses multiprocessing entirely, without importing it.

A pool of two forked workers costs 15-20 ms on a 2-core host, so a
caller passes one worker when its job is small.  ``repvar.repvariety``
runs every variety that expands fewer than 500,000 tuples in the parent,
whatever the worker count.  Best of 3, two workers took 0.076 against
0.065 s on Q8 genus 3 (114,688 tuples), but 0.27 against 0.38 s on D6
genus 3 (912,384) and 0.97 against 1.30 s on S4 genus 3 (BENCH_24.json).
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
