"""Retrieval-augmented C++ runtime optimization toolkit.

Pipeline stages: ingest a corpus of original/optimized code pairs, extract
and diff their control-flow graphs, index them by embedding similarity,
prompt a generation service with the closest example's structural context,
and evaluate the generated patches lexically and by compile-and-run timing.
"""
