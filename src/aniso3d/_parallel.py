"""Deterministic worker-pool map over replicates.

Results come back in input order, so output never depends on the worker
count; ``threads <= 1`` runs in-process.
"""


def parallel_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads is None or threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # imported only to start a pool

    chunk = max(1, len(items) // (4 * threads))
    # a forked pool starts all its workers at the first submit, so start
    # no more than there are items
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
