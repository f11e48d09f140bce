import ast
from pathlib import Path

import numpy as np
import pytest

from bmwgroups.rng import GAMMA, RngState, mix64, mix64_array, raw_block, randbelow_draft

# Reference outputs of splitmix64 seeded with 0 (published test vectors).
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vector():
    rng = RngState(0)
    assert tuple(rng._draw() for _ in range(3)) == SPLITMIX64_SEED0


def test_same_seed_same_stream():
    a = RngState(123456789)
    b = RngState(123456789)
    assert [a.randbelow(10**9) for _ in range(50)] == [
        b.randbelow(10**9) for _ in range(50)
    ]


def test_raw_block_matches_scalar_draws():
    rng = RngState(0xDEADBEEF)
    scalar = [rng._draw() for _ in range(40)]
    block = raw_block(0xDEADBEEF, 0, 40)
    assert [int(x) for x in block] == scalar
    tail = raw_block(0xDEADBEEF, 25, 15)
    assert [int(x) for x in tail] == scalar[25:]


def test_raw_block_of_a_seed_array_has_one_row_per_seed():
    seeds = np.array([0, 7, 2**64 - 1], dtype=np.uint64)
    block = raw_block(seeds, 3, 5)
    assert block.shape == (3, 5)
    for seed, row in zip(seeds.tolist(), block):
        assert row.tolist() == raw_block(seed, 3, 5).tolist()


def test_mix64_array_matches_scalar():
    xs = np.array([0, 1, GAMMA, 2**64 - 1, 0x123456789ABCDEF0], dtype=np.uint64)
    assert [int(v) for v in mix64_array(xs)] == [int(mix64(int(x))) for x in xs]


def test_randbelow_range_and_determinism():
    rng = RngState(7)
    vals = [rng.randbelow(13) for _ in range(2000)]
    assert all(0 <= v < 13 for v in vals)
    assert len(set(vals)) == 13


def test_randbelow_one_consumes_one_draw():
    rng = RngState(5)
    assert rng.randbelow(1) == 0
    assert rng.index == 1


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        RngState(1).randbelow(0)


# 2**62 + 1 rejects about a quarter of all words, so the loop's fallback
# runs there with the real limits; bound 1 never rejects.
MIXED_BOUNDS = [1, 2, 3, 1, 10**9, 7, 2**62 + 1, 1, 12, 12, 2**62 + 1, 5]


@pytest.mark.parametrize("bounds", [MIXED_BOUNDS[:6], MIXED_BOUNDS])
def test_randbelow_block_equals_the_loop(bounds):
    rejections = 0
    for seed in range(40):
        for start in (0, 3, 1000):
            block, loop = RngState(seed, start), RngState(seed, start)
            values = block.randbelow_block(bounds)
            assert values.dtype == np.int64
            assert values.tolist() == [loop.randbelow(b) for b in bounds]
            assert block.index == loop.index
            rejections += loop.index > start + len(bounds)
    if 2**62 + 1 in bounds:
        assert 0 < rejections < 120  # both branches ran
    else:
        assert rejections == 0


def test_randbelow_draft_flags_the_rows_that_reject():
    seeds = RngState(8).derived_seeds(0, 200)
    bounds = [2**62 + 1, 3]
    values, rejected = randbelow_draft(seeds, 4, bounds)
    assert values.shape == (200, 2)
    assert 0 < rejected.sum() < 200
    for seed, row, hit in zip(seeds.tolist(), values.tolist(), rejected):
        loop = RngState(seed, 4)
        assert (row != [loop.randbelow(b) for b in bounds]) <= hit
        assert hit == (loop.index > 6)


def test_randbelow_block_rejects_nonpositive_bounds():
    rng = RngState(1)
    with pytest.raises(ValueError, match="^bound must be positive$"):
        rng.randbelow_block([3, 0, 2])
    assert rng.index == 0


def test_derived_seeds_are_the_derive_seeds():
    root = RngState(99, index=5)
    seeds = root.derived_seeds(3, 50)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [root.derive(k).seed for k in range(3, 53)]
    assert root.derived_seeds(0, 0).shape == (0,)
    with pytest.raises(ValueError, match="^substream index must be non-negative$"):
        root.derived_seeds(-1, 2)
    with pytest.raises(ValueError, match="^count must be non-negative$"):
        root.derived_seeds(0, -1)


STREAM_INTERNALS = {"rejection_limit", "_TOP", "raw_block", "mix64", "mix64_array", "GAMMA"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bmwgroups"


def test_only_rng_names_the_stream_internals():
    # the stream contract lives in one module; samplers ask it for draws
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name in STREAM_INTERNALS]
    assert offenders == []


DRAWS = {"randbelow", "randbelow_block", "randbelow_draft"}
# (module, function) of every sampler; Jordan word letters are drawn in one
SAMPLERS = {
    ("permgroup.py", "_word"),
    ("radu.py", "random_filler"),
    ("randmodel.py", "sample_tuple"),
    ("randmodel.py", "sample_tuple_images_batch"),
}


def _uses(names):
    """(module, innermost function or None) of every use of one of ``names`` outside rng.py."""
    found = set()

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name in names:
                found.add((path.name, function))
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if defines else function)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "rng.py":
            visit(ast.parse(path.read_text(), str(path)), path, None)
    return found


def test_one_jordan_word_composer():
    # a second word loop would need draws of its own, or the default word stream
    assert _uses(DRAWS) == SAMPLERS
    assert _uses({"_JORDAN_SEED"}) == {
        ("permgroup.py", None),
        ("permgroup.py", "_classify_groups"),
    }


def test_derive_independent_and_pure():
    root = RngState(99)
    child_a = root.derive(0)
    child_b = root.derive(1)
    assert root.index == 0  # derivation never consumes draws
    assert child_a.seed != child_b.seed
    assert RngState(99).derive(0).seed == child_a.seed
    assert child_a._draw() != child_b._draw()


def test_derived_seeds_distinct_across_many_indices():
    root = RngState(0)
    seeds = {root.derive(k).seed for k in range(10000)}
    assert len(seeds) == 10000
