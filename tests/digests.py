"""Oracle-Table digests: one hash over every entry's inputs, outputs and
concrete params, in insertion order, so two learns can be compared (or
pinned) by value rather than by model alone."""

import hashlib


def oracle_digest(table) -> str:
    """sha256 (first 16 hex digits) of ``table``'s entries and their steps."""
    digest = hashlib.sha256()
    for entry in table:
        for step in entry.steps:
            digest.update(repr((
                step.input_symbol.label,
                step.output_symbol.label,
                sorted(step.input_params.items()),
                sorted(step.output_params.items()),
            )).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]
