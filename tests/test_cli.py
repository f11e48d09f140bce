import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bmwgroups
from bmwgroups import cli, formats, radu, schreier
from bmwgroups.cli import main
from bmwgroups.errors import UsageError
from bmwgroups.perm import Permutation
from bmwgroups.radu import delta
from bmwgroups.randmodel import InvolutionTuple, irr_certificate, sample_tuple
from bmwgroups.rng import RngState


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def example_tuple():
    def cyc(n, *cycles):
        return Permutation.from_cycles(n, cycles)

    return InvolutionTuple(
        [
            cyc(6, (1, 2), (3, 4), (5, 6)).images,
            cyc(6, (1, 2), (3, 5), (4, 6)).images,
            cyc(6, (1, 6), (3, 5), (2, 4)).images,
        ]
    )


class TestFormats:
    def test_tuple_document_roundtrip(self):
        t = sample_tuple(3, 6, RngState(4))
        doc = formats.tuple_document(t, seed=4)
        assert formats.validate_document(doc) == formats.SCHEMA_TUPLE
        back = formats.tuple_from_document(doc)
        assert tuple(e.images for e in back.entries) == tuple(
            e.images for e in t.entries
        )

    def test_structure_set_document_roundtrip(self):
        doc = formats.structure_set_document(delta())
        assert formats.validate_document(doc) == formats.SCHEMA_STRUCTURE_SET
        assert formats.structure_set_from_document(doc) == delta()

    def test_report_document_validates(self):
        doc = formats.report_document(irr_certificate(example_tuple()))
        assert formats.validate_document(doc) == formats.SCHEMA_REPORT

    def test_estimate_document_validates(self):
        from bmwgroups.randmodel import monte_carlo

        doc = formats.estimate_document(
            monte_carlo("expected_M", 2, 6, 100, RngState(1))
        )
        assert formats.validate_document(doc) == formats.SCHEMA_ESTIMATE

    @staticmethod
    def _stdlib(doc):
        return json.dumps(doc, sort_keys=True, indent=2, default=formats.json_default) + "\n"

    def test_dumps_matches_the_stdlib_encoder_on_every_document_kind(self):
        from bmwgroups.randmodel import monte_carlo

        tup = sample_tuple(6, 7778, RngState(9))
        s0 = radu.extension(16, 30)
        docs = [
            formats.tuple_document(tup, seed=9),
            formats.report_document(irr_certificate(tup)),
            formats.report_document(irr_certificate(example_tuple())),
            formats.estimate_document(monte_carlo("certificate_rates", 6, 20, 5, RngState(2))),
            formats.estimate_document(monte_carlo("orbit_share", None, 6, 0, RngState(2))),
            formats.structure_set_document(s0, families=radu.blueprint(16, 30).families(), seed=7),
            {"m": 3, "n": 4, "structure_sets": 8452, "relabeling_classes": 164},
        ]
        for doc in docs:
            assert formats.dumps(doc) == self._stdlib(doc)

    @pytest.mark.parametrize("m,n,filler_seed", [(32, 60, None), (100, 200, 7)])
    def test_s0_document_roundtrip_at_scale(self, capsys, m, n, filler_seed):
        argv = ["s0", "--m", str(m), "--n", str(n)]
        filler = None
        if filler_seed is not None:
            argv += ["--filler-seed", str(filler_seed)]
            filler = radu.random_filler(m, n, RngState(filler_seed))
        code, out, _err = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        s = radu.extension(m, n, filler)
        assert formats.structure_set_from_document(doc) == s
        if filler_seed is not None:
            assert formats.dumps(doc) == out == self._stdlib(doc)

    def test_dumps_matches_the_stdlib_encoder_on_edge_cases(self):
        doc = {
            "empty_list": [],
            "empty_dict": {},
            "nested": [[1, 2], [], [[3]], [{}], {"b": [], "a": {}}],
            "mixed": [1, 2.5, True, None, "x", -7, 10**40],
            "tuple": (1, (2, 3)),
            "scalars": [True, False, None],
            "floats": [float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 1e300],
            "text": ["ünïcödé ✓", "quote \" backslash \\ tab \t", ""],
            "ß": {"z": 1, "a": 2, "é": 3},
            "bools_are_not_ints": [True, 1],
        }
        assert formats.dumps(doc) == self._stdlib(doc)
        assert formats.dumps({}) == self._stdlib({})
        with pytest.raises(TypeError):
            formats.dumps({"a": {1: 2}})

    def test_dumps_writes_arrays_as_the_stdlib_writes_their_lists(self, monkeypatch):
        monkeypatch.setattr(formats, "_DECIMAL_LIMIT", 50)  # limit cases without a large table
        images = sample_tuple(4, 12, RngState(3)).images
        arrays = [
            np.zeros((0, 4), dtype=np.int64),
            np.zeros((3, 0), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.array([[7]]),
            np.array([0, 3, 12, 5]),
            images.astype(np.int32),
            images.astype(np.uint8),
            images % 2 == 0,
            images - 6,  # negative entries
            np.array([[49, 0], [1, 48]]),  # the largest value the table holds
            np.array([[50, 1]]),  # at the limit
            np.array([7, 10**12]),
            np.array([[2**63]], dtype=np.uint64),
            images.T,
            images[:, ::2],
            images,  # read-only
            np.array(9),
            np.arange(8).reshape(2, 2, 2),
            np.array([[0.5, 2.0]]),
        ]
        assert not images.flags.writeable
        for arr in arrays:
            doc = {"a": arr, "b": [1, {"c": arr, "d": [arr, [arr, {"e": arr}]]}]}
            assert formats.dumps(doc) == self._stdlib(doc), arr
            assert json.loads(formats.dumps(doc))["b"][1]["c"] == arr.tolist()
        s0 = radu.extension(16, 30)
        doc = formats.structure_set_document(s0, families=radu.blueprint(16, 30).families())
        assert {type(v) for v in doc["families"].values()} == {np.ndarray}
        assert formats.dumps(doc) == self._stdlib(doc)

    def test_decimal_table_is_reused_and_bounded(self, monkeypatch):
        monkeypatch.setattr(formats, "_decimals", np.empty(0, dtype=object))
        monkeypatch.setattr(formats, "_DECIMAL_LIMIT", 64)
        formats.dumps(formats.tuple_document(sample_tuple(3, 40, RngState(0))))
        table = formats._decimals
        assert table.tolist() == [str(v) for v in range(41)]  # up to the largest image
        formats.dumps(formats.tuple_document(sample_tuple(2, 20, RngState(1))))
        assert formats._decimals is table
        doc = {
            "images": np.array([[63, 64], [100, 5]]),
            "at_the_limit": np.array([64, 0]),
            "row": np.array([63, 1]),
        }
        assert formats.dumps(doc) == self._stdlib(doc)
        assert formats._decimals.tolist() == [str(v) for v in range(64)]
        formats.dumps({"images": np.array([70, 1000])})
        assert len(formats._decimals) == 64

    def test_array_documents_validate_as_lists(self):
        doc = formats.tuple_document(sample_tuple(2, 4, RngState(0)))
        assert isinstance(doc["involutions"], np.ndarray)
        assert formats.validate_document(doc) == formats.SCHEMA_TUPLE
        for bad in (doc["involutions"] - 1, doc["involutions"] / 2):
            with pytest.raises(UsageError):
                formats.validate_document(dict(doc, involutions=bad))

    def test_bad_documents_rejected(self):
        with pytest.raises(UsageError):
            formats.validate_document({"m": 3})
        with pytest.raises(UsageError):
            formats.validate_document({"schema": "bmwgroups.tuple.v1", "m": 3, "n": 6})
        doc = formats.tuple_document(sample_tuple(2, 4, RngState(0)))
        doc["m"] = "three"
        with pytest.raises(UsageError):
            formats.validate_document(doc)

    def test_header_mismatch_rejected(self):
        doc = formats.tuple_document(sample_tuple(2, 4, RngState(0)))
        doc["m"] = 3
        with pytest.raises(UsageError):
            formats.tuple_from_document(doc)


class TestSample:
    def test_deterministic_bytes(self, capsys):
        code1, out1, err1 = run(capsys, "sample", "--m", "3", "--n", "6", "--seed", "7")
        code2, out2, err2 = run(capsys, "sample", "--m", "3", "--n", "6", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "seed: 7" in err1

    def test_odd_degree_exit_two(self, capsys):
        code, _out, err = run(capsys, "sample", "--m", "3", "--n", "5", "--seed", "7")
        assert code == 2
        assert "even" in err

    def test_count_writes_json_lines(self, capsys, tmp_path):
        out_file = tmp_path / "tuples.jsonl"
        code, out, _err = run(
            capsys,
            "sample", "--m", "2", "--n", "8", "--seed", "3", "--count", "4",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 4
        docs = [json.loads(line) for line in lines]
        assert {d["schema"] for d in docs} == {formats.SCHEMA_TUPLE}
        # successive tuples come from one advancing stream
        assert len({json.dumps(d) for d in docs}) == 4

    def test_document_validates(self, capsys):
        code, out, _err = run(capsys, "sample", "--m", "6", "--n", "12", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert formats.validate_document(doc) == formats.SCHEMA_TUPLE
        assert len(doc["involutions"]) == 6
        assert all(len(img) == 12 for img in doc["involutions"])

    def test_count_three_bytes_pinned(self, capsys):
        code, out, _err = run(capsys, "sample", "--m", "6", "--n", "200", "--count", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dc066b3b265af98bd34f2fa03fc6b0b5299f9e95ef469e8cb89434b23cd77667"
        )

    def test_count_three_seed_five_bytes_pinned(self, capsys):
        # three tuples from one stream: each starts where the last one ended
        code, out, _err = run(capsys, "sample", "--m", "6", "--n", "200", "--count", "3", "--seed", "5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a8c5d0c3554c27ade105e8cc946ef55435829093e20728fb14c3f96b49ab5e50"
        )

    def test_certify_size_bytes_pinned(self, capsys):
        # the (6, 7778) tuple document, written from the image array
        code, out, _err = run(capsys, "sample", "--m", "6", "--n", "7778", "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "156ac14c97f060b5581900557a9a4cecc6e3fed5505ff561a35fc5d2a8df900c"
        )

    def test_degree_beyond_m_to_the_fifth(self, capsys, tmp_path):
        # 7778 is the smallest even degree above 6^5
        out_file = tmp_path / "big.json"
        code, _out, _err = run(
            capsys,
            "sample", "--m", "6", "--n", "7778", "--seed", "1", "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["involutions"]) == 6
        assert all(len(img) == 7778 for img in doc["involutions"])


class TestAnalyze:
    def _write_tuple(self, tmp_path, tup):
        path = tmp_path / "tuple.json"
        path.write_text(formats.dumps(formats.tuple_document(tup)))
        return str(path)

    def test_example_report(self, capsys, tmp_path):
        path = self._write_tuple(tmp_path, example_tuple())
        code, out, _err = run(capsys, "analyze", "--input", path)
        assert code == 1  # runs fine, but not certified
        doc = json.loads(out)
        assert doc["certificates"]["white_ball_vertex"] is None
        assert doc["certificates"]["has_black_edge"] is True
        assert formats.validate_document(doc) == formats.SCHEMA_REPORT

    def test_triple_matching_tuple(self, capsys, tmp_path):
        a = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        tup = InvolutionTuple([a.images] * 3)
        path = self._write_tuple(tmp_path, tup)
        code, out, _err = run(capsys, "analyze", "--input", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["certificates"]["no_triple_matchings"] is False
        assert doc["certificates"]["triple_witness"] == {"point": 1, "coords": [1, 2, 3]}
        assert doc["conclusions"]["irreducible_certified"] is False
        assert doc["certificates"]["a_local"] is None

    def test_radius_zero_changes_only_white_ball(self, capsys, tmp_path):
        path = self._write_tuple(tmp_path, example_tuple())
        _code, out_base, _ = run(capsys, "analyze", "--input", path)
        _code, out_zero, _ = run(capsys, "analyze", "--input", path, "--radius", "0")
        base, zero = json.loads(out_base), json.loads(out_zero)
        assert base["certificates"]["white_ball_vertex"] is None
        assert zero["certificates"]["white_ball_vertex"] == 1
        for key in ("no_triple_matchings", "connected", "has_black_edge", "a_local"):
            assert base["certificates"][key] == zero["certificates"][key]

    def test_certify_size_report_bytes_pinned(self, capsys, tmp_path):
        # the report on the pinned (6, 7778) seed-0 tuple: sampler rounds and
        # freely reduced Jordan words leave every byte as it was
        path = tmp_path / "tuple.json"
        code, _out, _err = run(
            capsys, "sample", "--m", "6", "--n", "7778", "--seed", "0", "--out", str(path)
        )
        assert code == 0
        code, out, _err = run(capsys, "analyze", "--input", str(path))
        assert code == 1  # B side Sym(7778), but nothing is certified irreducible
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cbf92f03594f8f975e09904552ec3bafc62024b8c9bcae602915f7b8fab98c1c"
        )

    def test_malformed_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2 and "cannot read" in err

    def test_non_involution_tuple_exit_two(self, capsys, tmp_path):
        path = tmp_path / "notfpf.json"
        doc = {"schema": formats.SCHEMA_TUPLE, "m": 1, "n": 4, "involutions": [[2, 3, 4, 1]]}
        path.write_text(json.dumps(doc))
        code, _out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2

    def test_header_mismatch_exit_two(self, capsys, tmp_path):
        doc = formats.tuple_document(sample_tuple(2, 4, RngState(0)))
        doc["n"] = 6
        path = tmp_path / "header.json"
        path.write_text(json.dumps(doc, default=formats.json_default))
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: cannot read tuple file: tuple document header disagrees with its involutions\n"
        )

    def test_entry_beyond_int64_exit_two(self, capsys, tmp_path):
        doc = formats.tuple_document(sample_tuple(2, 4, RngState(0)))
        doc["involutions"] = doc["involutions"].tolist()  # the document holds a read-only array
        doc["involutions"][1][2] = 10**30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: cannot read tuple file:"
            " [3, 4, 1000000000000000000000000000000, 2] is not a bijection of 1..4\n"
        )

    def test_certified_report_exits_zero(self, capsys, tmp_path, monkeypatch):
        # exit code 0 is reserved for fully certified reports; no desk-scale
        # tuple reaches that state, so substitute the certificate evaluator
        import dataclasses

        import bmwgroups.cli as cli_mod
        from bmwgroups.randmodel import irr_certificate as real_certificate

        def certified(t, radius, order_guard):
            rep = real_certificate(t, radius=radius, order_guard=order_guard)
            sym = dataclasses.replace(
                rep.a_local, contains_alternating=True, is_two_transitive=True
            )
            return dataclasses.replace(
                rep,
                m=6,
                n=6,
                no_triple_matchings=True,
                white_ball_vertex=1,
                connected=True,
                has_black_edge=True,
                a_local=sym,
                b_local=sym,
            )

        monkeypatch.setattr(cli_mod.randmodel, "irr_certificate", certified)
        path = tmp_path / "tuple.json"
        path.write_text(formats.dumps(formats.tuple_document(example_tuple())))
        code, out, _err = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["conclusions"]["hereditarily_just_infinite_certified"]


    def test_order_guard_env_reaches_classification(self, capsys, tmp_path, monkeypatch):
        tup = sample_tuple(6, 200, RngState(3))
        rep = irr_certificate(tup)
        assert rep.a_local is not None  # the A side runs an exact chain at degree 6
        path = self._write_tuple(tmp_path, tup)
        monkeypatch.setenv("BMWGROUPS_ORDER_GUARD", "3")
        code, out, err = run(capsys, "analyze", "--input", path)
        assert code == 3 and out == "" and "resource guard" in err
        monkeypatch.delenv("BMWGROUPS_ORDER_GUARD")
        code, out, _err = run(capsys, "analyze", "--input", path)
        assert code == (0 if rep.hji_certified else 1)
        assert out == formats.dumps(formats.report_document(rep))


class TestCensus:
    def test_two_by_two(self, capsys):
        code, out, _err = run(capsys, "census", "--m", "2", "--n", "2")
        assert code == 0
        assert "structure_sets: 8" in out

    def test_up_to_relabeling(self, capsys):
        code, out, _err = run(capsys, "census", "--m", "2", "--n", "2", "--up-to-relabeling")
        assert code == 0
        assert "structure_sets: 8" in out
        assert "relabeling_classes: 6" in out

    def test_one_by_four(self, capsys):
        code, out, _err = run(capsys, "census", "--m", "1", "--n", "4")
        assert "structure_sets: 10" in out and code == 0

    def test_json_format(self, capsys):
        code, out, _err = run(capsys, "census", "--m", "2", "--n", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["structure_sets"] == 8 and code == 0

    def test_four_by_four_classes_json(self, capsys):
        code, out, _err = run(
            capsys, "census", "--m", "4", "--n", "4", "--up-to-relabeling", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["structure_sets"] == 444508
        assert doc["relabeling_classes"] == 1622

    def test_guard_exit_three(self, capsys):
        code, _out, err = run(capsys, "census", "--m", "5", "--n", "5")
        assert code == 3 and "guard" in err.lower()

    def test_guard_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BMWGROUPS_CENSUS_GUARD", "4")
        code, _out, _err = run(capsys, "census", "--m", "2", "--n", "3")
        assert code == 3
        monkeypatch.setenv("BMWGROUPS_CENSUS_GUARD", "9")
        code, out, _err = run(capsys, "census", "--m", "3", "--n", "3")
        assert code == 0 and "structure_sets: 478" in out


class TestS0:
    def test_build_and_verify(self, capsys, tmp_path):
        out_file = tmp_path / "s0.json"
        code, _out, err = run(
            capsys,
            "s0", "--m", "13", "--n", "14", "--verify", "--out", str(out_file),
        )
        assert code == 0
        assert "verify b_local_full_symmetric: pass" in err
        assert "verify schreier_not_bipartite: pass" in err
        doc = json.loads(out_file.read_text())
        assert formats.validate_document(doc) == formats.SCHEMA_STRUCTURE_SET
        assert "families" in doc and "seed" in doc["families"]

    def test_distinct_filler_seeds(self, capsys):
        code1, out1, _ = run(capsys, "s0", "--m", "14", "--n", "20", "--filler-seed", "1")
        code2, out2, _ = run(capsys, "s0", "--m", "14", "--n", "20", "--filler-seed", "2")
        assert code1 == code2 == 0
        assert out1 != out2

    def test_filler_document_bytes_pinned(self, capsys):
        # a filled free block over the base, and its squares read off their low corners, byte for byte
        code, out, _ = run(capsys, "s0", "--m", "14", "--n", "16", "--filler-seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a179735a0f5c4783b59f696258267588c3904ab614780fb479c33c5dc47594b5"
        )

    def test_bounds_exit_two(self, capsys):
        code, _out, _err = run(capsys, "s0", "--m", "12", "--n", "14")
        assert code == 2

    def test_verify_decides_by_theorem_without_a_chain(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("chain_order ran")

        monkeypatch.setattr(schreier, "chain_order", refuse)
        code, out, err = run(capsys, "s0", "--m", "32", "--n", "60", "--verify")
        assert code == 0
        assert len([ln for ln in err.splitlines() if ln.endswith(": pass")]) == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fe6e37d8bcdcdfbfb8929a6a6889f50b64a5db436f7ec6337084c7e95dfe13d9"
        )

    def test_odd_size_verify_bytes_pinned(self, capsys):
        # odd m and n: the outer involutions' tails end on a fixed leftover endpoint
        code, out, err = run(capsys, "s0", "--m", "33", "--n", "61", "--verify")
        assert code == 0
        assert len([ln for ln in err.splitlines() if ln.endswith(": pass")]) == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1103e5b52c434c353f4c07c5b6165a64fe107566f00155046ea7758e8a8f44c9"
        )

    def test_filled_large_verify_bytes_pinned(self, capsys):
        # a filled (100, 200) block: the B-side theorem route needs primitivity at degree 200
        code, out, err = run(
            capsys, "s0", "--m", "100", "--n", "200", "--filler-seed", "7", "--verify"
        )
        assert code == 0
        passes = [ln for ln in err.splitlines() if ln.startswith("verify ") and ln.endswith(": pass")]
        assert len(passes) == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "78fc21539d1abeee035b3938dd82629ea0fd8beb1f4d883b6932aaefc8654216"
        )


class TestMc:
    def test_expected_matches(self, capsys):
        code, out, err = run(
            capsys,
            "mc", "--kind", "expected_M", "--m", "2", "--n", "6",
            "--trials", "20000", "--seed", "5",
        )
        assert code == 0
        assert "seed: 5" in err
        doc = json.loads(out)
        assert formats.validate_document(doc) == formats.SCHEMA_ESTIMATE
        stat = doc["estimates"]["mean_shared_orbits"]
        assert abs(stat["mean"] - 0.6) <= 4 * stat["std_error"]
        assert doc["exact"]["mean_shared_orbits"] == pytest.approx(0.6)

    def test_enumeration_mode(self, capsys):
        code, out, _err = run(
            capsys,
            "mc", "--kind", "triple_matching_rate", "--m", "3", "--n", "4",
            "--trials", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "enumeration"
        assert doc["exact_repr"]["rate"] == "1/9"

    def test_enumeration_guard_exit_three(self, capsys):
        code, _out, err = run(
            capsys,
            "mc", "--kind", "expected_M", "--m", "5", "--n", "12", "--trials", "0",
        )
        assert code == 3

    def test_bad_kind_exit_two(self, capsys):
        code, _out, _err = run(capsys, "mc", "--kind", "bogus", "--n", "4")
        assert code == 2

    def test_deterministic(self, capsys):
        args = ("mc", "--kind", "overlap_rate", "--m", "3", "--n", "6",
                "--trials", "500", "--seed", "9")
        _c1, out1, _ = run(capsys, *args)
        _c2, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_order_guard_env_reaches_certificate_rates(self, capsys, monkeypatch):
        args = ("mc", "--kind", "certificate_rates", "--m", "6", "--n", "200", "--trials", "5")
        monkeypatch.setenv("BMWGROUPS_ORDER_GUARD", "3")
        code, out, err = run(capsys, *args)
        assert code == 3 and out == "" and "resource guard" in err
        monkeypatch.delenv("BMWGROUPS_ORDER_GUARD")
        code, out, _err = run(capsys, *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4364d13c5cf4b6b31708600b71ec98f6102e04df374e35c6638497ed872a3c3f"
        )

    @pytest.mark.parametrize(
        "args, digest",
        [
            (("--kind", "expected_M", "--m", "6"),
             "9bedae6251d32033d38f5840ca76112407e2ea046c5273bfc32cc74b1efa30fd"),
            (("--kind", "orbit_share"),
             "ae141aca16ec767a7abe41399183df025ccb93fb8866f9912b1bb26d660335b2"),
            (("--kind", "triple_matching_rate", "--m", "6"),
             "e35211e10d5e589e86813926e4e9b82d773c1a6a23924b1239375d53b6201e38"),
            (("--kind", "overlap_rate", "--m", "6"),
             "0feb7f448e64ca3e0c2add5fd54c048a71b413c766c264ea235e0925d0d6ec45"),
        ],
    )
    def test_batched_kind_bytes_pinned(self, capsys, args, digest):
        # 1500 trials at (6, 200) span three 512-trial batches; the first two
        # digests are those of the same trials drawn as one 4096-trial batch,
        # the last two were recorded with the (n, B) slot layout
        code, out, _err = run(capsys, "mc", *args, "--n", "200", "--trials", "1500", "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "m, n, trials, digest",
        [
            (2, 4, 0, "a486795adf4eb266fa9411bf3d75a24e6c9399290a4b9cfbec68bc3ec7f994f2"),
            (3, 6, 0, "ed8a98ac83885bb56cd9c655b9526314255c24112aea604d0fbbd4b88504550e"),
            (6, 200, 60, "423f2592d8de43f645839861de884e5dd8053c1c8454877a1eedd03a11ca09ed"),
        ],
    )
    def test_certificate_rates_bytes_pinned(self, capsys, m, n, trials, digest):
        code, out, _err = run(
            capsys,
            "mc", "--kind", "certificate_rates", "--m", str(m), "--n", str(n),
            "--trials", str(trials),
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParser:
    def test_missing_subcommand_exit_two(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag_exit_two(self, capsys):
        assert run(capsys, "census", "--m", "2", "--n", "2", "--bogus")[0] == 2

    def test_cached_parser_answers_as_fresh_ones(self, capsys):
        # no flag of one call survives into the next on the one parser
        runs = [
            ("mc", "--kind", "expected_M", "--m", "6", "--n", "20", "--trials", "50"),
            ("mc", "--kind", "orbit_share", "--n", "6", "--trials", "0"),
            ("census", "--m", "2", "--n", "2", "--bogus"),
            ("census", "--m", "2", "--n", "4"),
        ]
        cached = [run(capsys, *argv) for argv in runs]
        fresh = []
        for argv in runs:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert cached == fresh
        assert [code for code, _out, _err in cached] == [0, 0, cli.EXIT_USAGE, 0]
        assert json.loads(cached[1][1])["m"] is None
        assert cli._build_parser() is cli._build_parser()


# The commands of the benchmark's workloads, run in a fresh interpreter.
_BENCHMARK_COMMANDS = """
import contextlib, io, sys
from bmwgroups.cli import main
from bmwgroups.randmodel import irr_certificate, sample_tuple
from bmwgroups.rng import RngState
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["mc", "--kind", "certificate_rates", "--m", "6", "--n", "200",
                 "--trials", "100"]) == 0
    irr_certificate(sample_tuple(6, 7778, RngState(0)))
    assert main(["s0", "--m", "32", "--n", "60", "--verify"]) == 0
    assert main(["census", "--m", "3", "--n", "4", "--up-to-relabeling"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_benchmark_commands_do_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma, which costs megabytes of peak memory
    src = os.path.dirname(os.path.dirname(os.path.abspath(bmwgroups.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_COMMANDS], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
