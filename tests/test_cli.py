"""Operator files and the command-line surface."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qmctree import (
    DensityOperator,
    QmcSpec,
    SubsystemLayout,
    sample_density,
    sample_markov_path,
    sample_qmc,
    trace_distance,
)
from qmctree.cli import build_parser, main
from qmctree.fileio import (
    FileFormatError,
    operator_from_dict,
    operator_to_dict,
    read_density,
    read_operator,
    write_density,
    write_operator,
)
from qmctree.recovery import DEFAULT_EPS_MARGINAL, DEFAULT_EPS_NORMALITY

from conftest import PROPERTY, layouts

L3Q = SubsystemLayout(("A", "B", "C"), (2, 2, 2))


def parse_report(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestFileIO:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        state = sample_density(L3Q, seed=rng)
        path = tmp_path / "state.json"
        write_density(path, state)
        back = read_density(path)
        assert back.layout == state.layout
        np.testing.assert_array_equal(back.matrix, state.matrix)

    def test_operator_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (m + m.conj().T) / 2
        layout = SubsystemLayout(("A", "B"), (2, 2))
        path = tmp_path / "op.json"
        write_operator(path, layout, m)
        back_layout, back = read_operator(path)
        assert back_layout == layout
        np.testing.assert_array_equal(back, m)

    def test_array_conversion_matches_entry_loop(self, tmp_path, rng):
        # reference: the per-entry conversion that the array code replaced
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m[0, 0] = complex(-0.0, 5e-324)
        m[0, 1] = complex(1e308, -0.0)
        path = tmp_path / "op.json"
        write_operator(path, L3Q, m)
        rows = [[[float(v.real), float(v.imag)] for v in row] for row in m]
        expected = {"labels": ["A", "B", "C"], "dims": [2, 2, 2], "matrix": rows}
        assert path.read_text() == json.dumps(expected) + "\n"
        _, back = read_operator(path)
        loop = np.array([[complex(re, im) for re, im in row] for row in rows])
        assert back.tobytes() == loop.tobytes()

    # signed zeros, the smallest subnormal, the largest subnormal and the
    # largest finite doubles, next to arbitrary finite values
    EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                   1.7976931348623157e308, -1.7976931348623157e308]

    @PROPERTY
    @given(data=st.data(), layout=layouts(max_factors=3))
    def test_dict_json_roundtrip_bit_exact(self, data, layout):
        parts = st.sampled_from(self.EDGE_FLOATS) | st.floats(
            allow_nan=False, allow_infinity=False)
        pair = data.draw(hnp.arrays(np.float64, (layout.dim, layout.dim, 2),
                                    elements=parts))
        matrix = pair.view(complex)[..., 0]
        text = json.dumps(operator_to_dict(layout, matrix))
        back_layout, back = operator_from_dict(json.loads(text))
        assert back_layout == layout
        np.testing.assert_array_equal(back.view(np.uint64), matrix.view(np.uint64))

    @PROPERTY
    @given(layout=layouts(), seed=st.integers(0, 2**32 - 1))
    def test_density_file_roundtrip_bit_exact(self, tmp_path_factory, layout, seed):
        state = sample_density(layout, seed=seed)
        path = tmp_path_factory.mktemp("roundtrip") / "state.json"
        write_density(path, state)
        back = read_density(path)
        assert back.layout == layout
        np.testing.assert_array_equal(
            back.matrix.view(np.uint64), state.matrix.view(np.uint64))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            read_density(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": ["A"], "dims": [2]}))
        with pytest.raises(FileFormatError):
            read_density(path)

    def test_not_a_density(self, tmp_path):
        path = tmp_path / "bad.json"
        data = {
            "labels": ["A"], "dims": [2],
            "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        path.write_text(json.dumps(data))
        with pytest.raises(FileFormatError):
            read_density(path)

    @pytest.mark.parametrize("matrix", [
        [[["0.5", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],   # string
        [[[0.5, 0.0], None], [[0.0, 0.0], [0.5, 0.0]]],           # null
        [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]],                 # ragged row
        [[[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]],
         [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]],                     # triples
        [[[0.5, 0.0], [0.0, 0.0]]],                               # one row
    ], ids=["string", "null", "ragged", "triple", "row_count"])
    def test_malformed_entries(self, tmp_path, matrix):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"labels": ["A"], "dims": [2], "matrix": matrix}
        ))
        with pytest.raises(FileFormatError):
            read_operator(path)


@pytest.fixture
def qmc_files(tmp_path):
    state = sample_qmc(QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1))), seed=101)
    ab, bc = tmp_path / "ab.json", tmp_path / "bc.json"
    write_density(ab, state.marginal(("A", "B")))
    write_density(bc, state.marginal(("B", "C")))
    return state, str(ab), str(bc)


@pytest.fixture
def generic_files(tmp_path):
    state = sample_density(L3Q, seed=102)
    ab, bc = tmp_path / "gab.json", tmp_path / "gbc.json"
    write_density(ab, state.marginal(("A", "B")))
    write_density(bc, state.marginal(("B", "C")))
    return state, str(ab), str(bc)


class TestCheck:
    def test_qmc_exit_zero(self, qmc_files, capsys):
        _, ab, bc = qmc_files
        assert main(["check", ab, bc]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["verdict"] == "True"

    def test_generic_exit_one(self, generic_files, capsys):
        _, ab, bc = generic_files
        assert main(["check", ab, bc]) == 1
        report = parse_report(capsys.readouterr().out)
        assert report["verdict"] == "False"

    def test_malformed_exit_two(self, tmp_path, qmc_files, capsys):
        _, ab, _ = qmc_files
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert main(["check", ab, str(bad)]) == 2

    def test_missing_file_exit_two(self, qmc_files):
        _, ab, _ = qmc_files
        assert main(["check", ab, "/nonexistent.json"]) == 2


class TestRecover:
    def test_petz_roundtrip(self, qmc_files, tmp_path, capsys):
        state, ab, bc = qmc_files
        out = tmp_path / "out.json"
        assert main(["recover", ab, bc, "-o", str(out)]) == 0
        recovered = read_density(out)
        assert trace_distance(recovered.matrix, state.matrix) < 1e-8

    def test_maxent_agrees_with_petz(self, qmc_files, tmp_path, capsys):
        state, ab, bc = qmc_files
        out_p = tmp_path / "petz.json"
        out_m = tmp_path / "maxent.json"
        assert main(["recover", ab, bc, "-o", str(out_p)]) == 0
        assert main(
            ["recover", ab, bc, "--method", "maxent", "-o", str(out_m)]
        ) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["residual"]) <= 1e-6
        assert trace_distance(
            read_density(out_p).matrix, read_density(out_m).matrix
        ) < 1e-6

    def test_inconsistent_marginals_exit_two(self, tmp_path):
        a = sample_density(SubsystemLayout(("A", "B"), (2, 2)), seed=1)
        b = sample_density(SubsystemLayout(("B", "C"), (2, 2)), seed=2)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_density(pa, a)
        write_density(pb, b)
        assert main(["recover", str(pa), str(pb), "-o",
                     str(tmp_path / "o.json")]) == 2

    def test_zero_pre_normalization_trace_exit_two(self, tmp_path, capsys):
        # rho_AB = |01><01| and rho_BC = |00><00|: the map sends rho_AB to 0
        paths = []
        for labels, k in ((("A", "B"), 1), (("B", "C"), 0)):
            m = np.zeros((4, 4), dtype=complex)
            m[k, k] = 1.0
            paths.append(tmp_path / f"{''.join(labels)}.json")
            layout = SubsystemLayout(labels, (2, 2))
            write_density(paths[-1], DensityOperator(layout, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["recover", *map(str, paths), "--tol-marginal", "2",
                         "-o", str(tmp_path / "out.json")]) == 2
        assert "pre-normalization trace 0.000e+00" in capsys.readouterr().err


class TestSelect:
    def test_joint_markov_chain(self, tmp_path, capsys):
        # diagonal chain: every pair passes the compatibility check, so the
        # mutual-information rule applies without fallback
        rng = np.random.default_rng(103)
        from conftest import classical_chain, random_conditional
        state = classical_chain(
            np.array([0.4, 0.6]),
            random_conditional(rng, 2, 2),
            random_conditional(rng, 2, 2),
        )
        joint = tmp_path / "joint.json"
        write_density(joint, state)
        assert main(["select", "--joint", str(joint)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["rule"] == "mutual_information"
        assert report["discarded_pair"] == "AC"

    def test_pair_files_fallback_to_min_entropy(self, tmp_path, capsys):
        # generic joints fail the all-pairs hypothesis; the command warns
        # and falls back
        state = sample_density(L3Q, seed=104)
        paths = []
        for pair in [("A", "B"), ("B", "C"), ("A", "C")]:
            p = tmp_path / f"{''.join(pair)}.json"
            write_density(p, state.marginal(pair))
            paths.append(str(p))
        assert main(["select", "--pairs", *paths]) == 0
        captured = capsys.readouterr()
        report = parse_report(captured.out)
        assert report["rule"] == "min_entropy"
        assert "falling back" in captured.err

    @pytest.mark.parametrize("labels,dims", [
        ("A,B", "2,2"), ("A,B,C,D", "2,2,2,2"),
    ])
    def test_joint_without_three_labels_exit_two(
        self, tmp_path, capsys, labels, dims
    ):
        joint = tmp_path / "joint.json"
        assert main(["sample", "--labels", labels, "--dims", dims,
                     "-o", str(joint)]) == 0
        capsys.readouterr()
        assert main(["select", "--joint", str(joint)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


class TestTreeCommand:
    def test_joint_input(self, tmp_path, capsys):
        state = sample_markov_path(("A", "B", "C", "D"), (2, 2, 2, 2),
                                   seed=105)
        joint = tmp_path / "joint.json"
        write_density(joint, state)
        out = tmp_path / "est.json"
        assert main(["tree", "--joint", str(joint), "-o", str(out)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["relative_entropy_gap"]) <= 1e-6
        est = read_density(out)
        assert trace_distance(est.matrix, state.matrix) < 1e-6

    def test_tree_file_input(self, tmp_path, capsys):
        state = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=106)
        refs = {}
        for pair in [("A", "B"), ("B", "C")]:
            p = tmp_path / f"{''.join(pair)}.json"
            write_density(p, state.marginal(pair))
            refs[",".join(pair)] = str(p)
        desc = tmp_path / "tree.json"
        desc.write_text(json.dumps({
            "labels": ["A", "B", "C"], "dims": [2, 2, 2],
            "edges": [["A", "B"], ["B", "C"]],
            "marginals": refs,
        }))
        out = tmp_path / "est.json"
        assert main(["tree", "--tree-file", str(desc), "-o", str(out)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["edges"] == "AB;BC"
        assert trace_distance(read_density(out).matrix, state.matrix) < 1e-7

    def test_incompatible_tree_exit_one(self, tmp_path, capsys):
        joint = sample_density(
            SubsystemLayout(("A", "B", "C", "D"), (2, 2, 2, 2)), seed=107
        )
        path = tmp_path / "joint.json"
        write_density(path, joint)
        assert main(["tree", "--joint", str(path)]) == 1


def _valid_tree_description(tmp_path) -> dict:
    state = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=108)
    refs = {}
    for pair in [("A", "B"), ("B", "C")]:
        p = tmp_path / f"{''.join(pair)}.json"
        write_density(p, state.marginal(pair))
        refs[",".join(pair)] = str(p)
    return {"labels": ["A", "B", "C"], "dims": [2, 2, 2],
            "edges": [["A", "B"], ["B", "C"]], "marginals": refs}


class TestTreeFileValidation:
    """Malformed tree descriptions exit 2 with one error line."""

    @pytest.fixture(autouse=True)
    def no_descriptor_opens(self, monkeypatch):
        # an integer marginal reference would be opened as a file
        # descriptor (0 reads stdin); no open may see one
        real_open = open

        def guarded_open(file, *args, **kwargs):
            assert not isinstance(file, int), f"opened file descriptor {file}"
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", guarded_open)

    def run(self, tmp_path, capsys, data) -> int:
        desc = tmp_path / "tree.json"
        desc.write_text(json.dumps(data))
        code = main(["tree", "--tree-file", str(desc)])
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        return code

    def test_valid_description_accepted(self, tmp_path, capsys):
        desc = tmp_path / "tree.json"
        desc.write_text(json.dumps(_valid_tree_description(tmp_path)))
        assert main(["tree", "--tree-file", str(desc)]) == 0

    def test_top_level_not_object(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, 5) == 2

    def test_marginals_list(self, tmp_path, capsys):
        data = _valid_tree_description(tmp_path)
        data["marginals"] = list(data["marginals"].values())
        assert self.run(tmp_path, capsys, data) == 2

    def test_labels_not_a_list(self, tmp_path, capsys):
        data = _valid_tree_description(tmp_path)
        data["labels"] = 5
        assert self.run(tmp_path, capsys, data) == 2

    @pytest.mark.parametrize("edges", [5, [["A", "B"], 7], [["A", "B", "C"]]])
    def test_bad_edges(self, tmp_path, capsys, edges):
        data = _valid_tree_description(tmp_path)
        data["edges"] = edges
        assert self.run(tmp_path, capsys, data) == 2

    @pytest.mark.parametrize("ref", [0, 1, None, ["AB.json"]])
    def test_marginal_ref_not_a_string(self, tmp_path, capsys, ref):
        data = _valid_tree_description(tmp_path)
        data["marginals"]["A,B"] = ref
        assert self.run(tmp_path, capsys, data) == 2

    def test_single_vertex(self, tmp_path, capsys):
        data = {"labels": ["A"], "dims": [2], "edges": [], "marginals": {}}
        desc = tmp_path / "tree.json"
        desc.write_text(json.dumps(data))
        assert main(["tree", "--tree-file", str(desc)]) == 2
        err = capsys.readouterr().err
        assert err == "error: need at least two vertices\n"

    def test_marginal_key_not_a_pair(self, tmp_path, capsys):
        data = _valid_tree_description(tmp_path)
        data["marginals"]["A,B,C"] = data["marginals"].pop("A,B")
        desc = tmp_path / "tree.json"
        desc.write_text(json.dumps(data))
        assert main(["tree", "--tree-file", str(desc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "('A', 'B', 'C')" in err


class TestDiagram:
    def test_qmc_commutes(self, qmc_files, capsys):
        _, ab, bc = qmc_files
        assert main(["diagram", ab, bc]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["commutes"] == "True"

    def test_generic_does_not(self, generic_files, capsys):
        _, ab, bc = generic_files
        assert main(["diagram", ab, bc]) == 1
        report = parse_report(capsys.readouterr().out)
        assert float(report["distance_two_orders"]) > 1e-3


class TestCounterexample:
    def test_generic_finds_failures(self, capsys):
        assert main(["counterexample", "--samples", "20", "--seed", "7"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert int(report["failures"]) >= 1
        assert report["first_failing_index"] != "none"

    def test_qmc_no_failures(self, capsys):
        assert main([
            "counterexample", "--samples", "20", "--seed", "7", "--qmc"
        ]) == 0
        report = parse_report(capsys.readouterr().out)
        assert int(report["failures"]) == 0

    def test_zero_samples(self, capsys):
        assert main(["counterexample", "--samples", "0"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["failure_frequency"] == "0"

    def test_deterministic_under_seed(self, capsys):
        main(["counterexample", "--samples", "10", "--seed", "3"])
        first = capsys.readouterr().out
        main(["counterexample", "--samples", "10", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestSample:
    def test_random_with_marginals(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        assert main([
            "sample", "--kind", "random", "--seed", "5",
            "-o", str(out), "--marginal", "A,B", "--marginal", "B,C",
        ]) == 0
        state = read_density(out)
        ab = read_density(f"{out}.AB.json")
        assert trace_distance(
            state.marginal(("A", "B")).matrix, ab.matrix
        ) < 1e-12

    def test_qmc_kind(self, tmp_path, capsys):
        out = tmp_path / "qmc.json"
        assert main([
            "sample", "--kind", "qmc", "--blocks", "0.5:1:2,0.5:2:1",
            "--seed", "5", "-o", str(out),
        ]) == 0
        state = read_density(out)
        assert state.layout.dim_of("B") == 4

    def test_bad_blocks_exit_two(self, tmp_path):
        assert main([
            "sample", "--kind", "qmc", "--blocks", "oops",
            "-o", str(tmp_path / "x.json"),
        ]) == 2

    def test_nan_probability_exit_two_without_warning(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "sample", "--kind", "qmc", "--blocks", "nan:1:2",
                "-o", str(tmp_path / "x.json"),
            ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.json").exists()


class TestUnwritableOutput:
    """A write to a path that cannot be opened exits 2 with one error line."""

    @staticmethod
    def run(capsys, *argv):
        code = main(["sample", "--kind", "qmc", "--blocks", "1:1:2", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert str(out) in self.run(capsys, "-o", str(out))

    def test_directory_path(self, tmp_path, capsys):
        assert str(tmp_path) in self.run(capsys, "-o", str(tmp_path))

    def test_marginal_into_directory(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        (tmp_path / "x.json.AB.json").mkdir()
        self.run(capsys, "-o", str(out), "--marginal", "A,B")
        assert read_density(out).layout.labels == ("A", "B", "C")


class TestToleranceFlags:
    """Each subcommand accepts only the tolerance flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["sample", "-o", "x.json", "--tol-normality", "1e-3"],
        ["sample", "-o", "x.json", "--tol-marginal", "1e-3"],
        ["diagram", "ab.json", "bc.json", "--tol-normality", "1e-3"],
        ["diagram", "ab.json", "bc.json", "--tol-marginal", "1e-3"],
        ["recover", "ab.json", "bc.json", "-o", "x.json", "--tol-normality", "1e-3"],
    ])
    def test_unread_flag_exits_two(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["check", "ab.json", "bc.json"])
        assert args.tol_marginal == DEFAULT_EPS_MARGINAL
        assert args.tol_normality == DEFAULT_EPS_NORMALITY


class TestMalformedOperatorFiles:
    """Operator files that parse as JSON but not as operators exit 2."""

    def run(self, capsys, argv) -> int:
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        return code

    def test_non_string_labels(self, tmp_path, capsys):
        path = tmp_path / "joint.json"
        write_density(path, sample_density(SubsystemLayout(("A", "B"), (2, 2)), seed=3))
        data = json.loads(path.read_text())
        data["labels"] = [1, 2]
        path.write_text(json.dumps(data))
        assert self.run(capsys, ["tree", "--joint", str(path)]) == 2

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert self.run(capsys, ["check", str(path), str(path)]) == 2

    @pytest.mark.filterwarnings("error")
    def test_skew_part_with_overflowing_norm(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        write_operator(path, SubsystemLayout(("A",), (2,)),
                       np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex))
        assert self.run(capsys, ["check", str(path), str(path)]) == 2

    @pytest.mark.parametrize("labels, dims", [
        (["A", "B"], [2.7, 4]),
        (["A", "B"], ["2", "4"]),
        (["A", "X", "B"], [2, True, 4]),
        (["A", "B"], {"2": 0, "4": 0}),
    ], ids=["float", "string", "bool", "object"])
    def test_dims_not_integers(self, qmc_files, capsys, labels, dims):
        # each would coerce to the (2, 4) layout of the A-B marginal
        _, ab, bc = qmc_files
        with open(ab) as fh:
            data = json.load(fh)
        data["labels"], data["dims"] = labels, dims
        with open(ab, "w") as fh:
            json.dump(data, fh)
        assert self.run(capsys, ["check", ab, bc]) == 2


# keys of operator and tree files, so arbitrary objects often hit a real field
FILE_KEYS = ("labels", "dims", "matrix", "edges", "marginals")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats()
    | st.text("ABCX,.json", max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FILE_KEYS) | st.text("ABX,", max_size=3),
                      inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_text(draw, valid: dict) -> str:
    """A valid file object, truncated or with one field replaced, dropped or
    changed in one entry."""
    data = json.loads(json.dumps(valid))
    kind = draw(st.sampled_from(("truncate", "replace", "drop", "entry", "layout")))
    if kind == "truncate":
        text = json.dumps(data)
        return text[:draw(st.integers(0, len(text) - 1))]
    key = draw(st.sampled_from(sorted(data)))
    if kind == "replace":
        data[key] = draw(JSON_VALUES)
    elif kind == "drop":
        del data[key]
    elif kind == "layout":
        n = draw(st.integers(0, 4))
        data["labels"] = draw(st.lists(st.sampled_from("ABCX"), min_size=n, max_size=n))
        data["dims"] = draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    elif isinstance(data[key], list) and data[key]:
        # one entry of a list field; matrix entries go down to one number
        target = data[key]
        while True:
            i = draw(st.integers(0, len(target) - 1))
            if not isinstance(target[i], list) or not target[i] or draw(st.booleans()):
                break
            target = target[i]
        target[i] = draw(JSON_VALUES | st.sampled_from(
            [float("nan"), float("inf"), 1e308, -1e-300, 1.0, "A"]))
    elif isinstance(data[key], dict) and data[key]:
        ref = draw(st.sampled_from(sorted(data[key])))
        value = data[key].pop(ref)
        new_key = draw(st.sampled_from([ref, "A,B,C", "B,A", "A,X", ""]))
        data[key][new_key] = draw(st.just(value) | JSON_VALUES)
    return json.dumps(data)


class TestFuzzedFiles:
    """Arbitrary JSON values and mutated or truncated valid operator and tree
    files: ``check``, ``recover`` and ``tree --tree-file`` exit 0, 1 or 2
    and never raise."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        """The fixed file paths an example writes, and the valid objects."""
        d = tmp_path_factory.mktemp("fuzz")
        paths = {name: str(d / f"{name}.json") for name in ("f", "g", "t", "out")}
        state = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=108)
        ab, bc = (operator_to_dict(m.layout, m.matrix)
                  for m in (state.marginal(("A", "B")), state.marginal(("B", "C"))))
        tree = {"labels": ["A", "B", "C"], "dims": [2, 2, 2],
                "edges": [["A", "B"], ["B", "C"]],
                "marginals": {"A,B": paths["f"], "B,C": paths["g"]}}
        return paths, {"f": ab, "g": bc, "t": tree}

    @PROPERTY
    @given(data=st.data())
    def test_exit_code_contract(self, valid, data):
        paths, objects = valid
        for name, obj in objects.items():
            if data.draw(st.booleans(), label=f"break {name}"):
                text = data.draw(mutated_text(obj) | JSON_VALUES.map(json.dumps))
            else:
                text = json.dumps(obj)
            with open(paths[name], "w") as fh:
                fh.write(text)
        f, g, t, out = paths["f"], paths["g"], paths["t"], paths["out"]
        argv = data.draw(st.sampled_from((
            ["check", f, g], ["recover", f, g, "-o", out], ["tree", "--tree-file", t])))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
