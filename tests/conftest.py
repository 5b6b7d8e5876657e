import pytest

from floerkit import parallel


@pytest.fixture
def chunk_workers(monkeypatch):
    """The worker count of each ``parallel.run_chunks`` call, in order."""
    seen = []
    run_chunks = parallel.run_chunks

    def spy(fn, chunks, workers):
        seen.append(workers)
        return run_chunks(fn, chunks, workers)

    monkeypatch.setattr(parallel, "run_chunks", spy)
    return seen
