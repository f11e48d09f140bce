"""Lowered rejection limits, so that tests reach the samplers' rejection branches.

The real limits reject about one raw word in 2**50.  Lowering ``rng._TOP``,
the largest word any bound accepts, by 2**60 lowers every limit alike, for
the scalar ``randbelow`` loop and for the block draft, and rejects about one
word in 16.
"""

import bmwgroups.rng as rng_module


def lower_rejection_limits(monkeypatch, by: int = 1 << 60) -> list[bool]:
    """Lower every rejection limit by ``by``; returns, per draft, whether it rejected.

    The list grows as :func:`bmwgroups.rng.randbelow_draft` is called, so a
    test can assert that a block draw took the rejection branch.
    """
    monkeypatch.setattr(rng_module, "_TOP", rng_module._TOP - by)
    rejected = []
    draft = rng_module.randbelow_draft

    def recorded(*args):
        values, hit = draft(*args)
        rejected.append(bool(hit.any()))
        return values, hit

    monkeypatch.setattr(rng_module, "randbelow_draft", recorded)
    return rejected
