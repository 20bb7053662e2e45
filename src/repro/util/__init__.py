"""Shared low-level data structures used across the repro library."""

from __future__ import annotations

from repro.util.bucket_queue import EdgeBuckets, MaxBucketQueue
from repro.util.disjoint_set import DisjointSet

__all__ = [
    "DisjointSet",
    "MaxBucketQueue",
    "EdgeBuckets",
]
