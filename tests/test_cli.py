import gc
import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structiou.cli import main
from structiou.oracle import random_timed_tree, ted_objective
from structiou.treebank import (
    MAX_SPAN,
    BoundaryRow,
    BoundaryTable,
    leaves,
    parse_bracketed,
    serialize_bracketed,
    write_boundary_file,
)

GOLD_TREE = "(NP (PRP Your) (NN turn))\n"
PRED_TREE = "(VP (VBP uh) (NP (PRP Your) (NN turn)))\n"
GOLD_BOUNDS = "Your\t2.56\t2.72\nturn\t2.72\t3.01\n"
PRED_BOUNDS = "uh\t2.55\t2.56\nYour\t2.56\t2.72\nturn\t2.72\t3.01\n"
GOLDEN_EVAL_SHA256 = {
    "--labeled": "e2617bde1cbb1bffa38e8c7d7ccf4cdec7ae09dd94c9bcbe4edc7daa2be81c6b",
    "--unlabeled": "8bbe02a6182d47b9dc3fe28ba514a9351a9e5744488db39bb7e5a4d236e6facd",
}
GOLDEN_PERTURB_SHA256 = {
    "noise": "b83fde272923119b7b22fd375a5c0336e6ef841f80d15be6a6b94aab6888bc79",
    "insert": "974f61919550c971e5376617633eaeedfc72ecad427f9ecc0f0d53d4dd4db89f",
    "delete": "2c8109642a8987b01267cac2b342e8cfa8d02d040f868d9bfe2343b6853594de",
}


@pytest.fixture
def corpus(tmp_path):
    files = {}
    for name, text in (
        ("gold.trees", GOLD_TREE),
        ("pred.trees", PRED_TREE),
        ("gold.bounds", GOLD_BOUNDS),
        ("pred.bounds", PRED_BOUNDS),
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        files[name] = str(path)
    return files


class TestEval:
    def test_calibration_row(self, corpus, tmp_path, capsys):
        out = tmp_path / "scores.tsv"
        code = main([
            "eval",
            "--gold", corpus["gold.trees"],
            "--pred", corpus["pred.trees"],
            "--gold-bounds", corpus["gold.bounds"],
            "--pred-bounds", corpus["pred.bounds"],
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index\tn1\tn2\tobjective\tstruct_iou"
        assert lines[1] == "0\t5\t3\t3.0000\t0.7500"
        assert lines[-1] == "# corpus\t0.7500"

    def test_identity_even(self, corpus, tmp_path):
        out = tmp_path / "scores.tsv"
        code = main([
            "eval",
            "--gold", corpus["gold.trees"],
            "--pred", corpus["gold.trees"],
            "--even",
            "--out", str(out),
        ])
        assert code == 0
        rows = [
            l for l in out.read_text().splitlines()
            if l and not l.startswith(("index", "#"))
        ]
        assert all(r.endswith("1.0000") for r in rows)

    def test_json_mirror(self, corpus, tmp_path):
        out = tmp_path / "scores.json"
        code = main([
            "eval",
            "--gold", corpus["gold.trees"],
            "--pred", corpus["pred.trees"],
            "--gold-bounds", corpus["gold.bounds"],
            "--pred-bounds", corpus["pred.bounds"],
            "--format", "json",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sentences"][0]["struct_iou"] == pytest.approx(0.75)
        assert payload["corpus"]["value"] == pytest.approx(0.75)

    def test_line_count_mismatch_exit2(self, corpus, tmp_path):
        short = tmp_path / "short.trees"
        short.write_text("", encoding="utf-8")
        code = main([
            "eval",
            "--gold", corpus["gold.trees"],
            "--pred", str(short),
            "--even",
        ])
        assert code == 2

    def test_even_word_count_mismatch_exit2(self, tmp_path, capsys):
        """Word-indexed trees must share their words: eval --even refuses
        a pair whose word counts differ, with parseval's message."""
        gold = tmp_path / "gold.trees"
        gold.write_text("(S (NP (PRP it)) (VP (VBD ran) (ADVP (RB off))))\n")
        pred = tmp_path / "pred.trees"
        pred.write_text(
            "(S (NP (-NONE- *-1) (PRP it)) (VP (VBD ran) (ADVP (RB off))))\n"
        )
        message = "error: sentence 0: word count mismatch: gold 3, predicted 4\n"
        for argv in (["eval", "--even"], ["eval", "--even", "--unlabeled"], ["parseval"]):
            assert main(argv + ["--gold", str(gold), "--pred", str(pred)]) == 2
            assert capsys.readouterr().err == message

    def test_missing_projection_exit1(self, corpus):
        code = main([
            "eval", "--gold", corpus["gold.trees"], "--pred", corpus["pred.trees"],
        ])
        assert code == 1

    def test_even_excludes_bounds_exit1(self, corpus):
        code = main([
            "eval",
            "--gold", corpus["gold.trees"],
            "--pred", corpus["pred.trees"],
            "--even",
            "--gold-bounds", corpus["gold.bounds"],
            "--pred-bounds", corpus["pred.bounds"],
        ])
        assert code == 1

    def test_projection_error_names_sentence(self, corpus, tmp_path, capsys):
        gold = tmp_path / "two.trees"
        gold.write_text(GOLD_TREE + GOLD_TREE, encoding="utf-8")
        bounds = tmp_path / "two.bounds"
        bounds.write_text(GOLD_BOUNDS + "\nYour\t0\t1\n", encoding="utf-8")
        code = main([
            "eval",
            "--gold", str(gold),
            "--pred", str(gold),
            "--gold-bounds", str(bounds),
            "--pred-bounds", str(bounds),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: gold sentence 1: tree has 2 leaves but table has 1 rows\n"
        )

    def test_span_overflow_names_sentence(self, corpus, tmp_path, capsys):
        # scored as nan against itself before spans were bounded
        wide = tmp_path / "wide.bounds"
        wide.write_text("Your\t-1e308\t0\nturn\t0\t1e308\n", encoding="utf-8")
        code = main([
            "eval",
            "--gold", corpus["gold.trees"],
            "--pred", corpus["gold.trees"],
            "--gold-bounds", str(wide),
            "--pred-bounds", str(wide),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: gold sentence 0: boundary table spans inf seconds, over {MAX_SPAN}\n"
        )

    def test_blocks_far_apart_score_0_without_warning(self, corpus, tmp_path, capsys):
        # each block spans under MAX_SPAN, but their IoU intersection is -inf
        gold = tmp_path / "low.bounds"
        gold.write_text("Your\t-1.7e308\t-1.6e308\nturn\t-1.6e308\t-1.5e308\n",
                        encoding="utf-8")
        pred = tmp_path / "high.bounds"
        pred.write_text("Your\t1.5e308\t1.6e308\nturn\t1.6e308\t1.7e308\n",
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "eval",
                "--gold", corpus["gold.trees"],
                "--pred", corpus["gold.trees"],
                "--gold-bounds", str(gold),
                "--pred-bounds", str(pred),
            ])
        assert code == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[1] == "0\t3\t3\t0.0000\t0.0000"
        assert out.err == ""

    def test_stdout_matches_out(self, corpus, tmp_path, capsys):
        argv = [
            "eval",
            "--gold", corpus["gold.trees"],
            "--pred", corpus["pred.trees"],
            "--gold-bounds", corpus["gold.bounds"],
            "--pred-bounds", corpus["pred.bounds"],
        ]
        out = tmp_path / "scores.tsv"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_byte_order_mark_is_skipped(self, corpus, tmp_path, capsys):
        def argv(files):
            return [
                "eval",
                "--gold", files["gold.trees"],
                "--pred", files["pred.trees"],
                "--gold-bounds", files["gold.bounds"],
                "--pred-bounds", files["pred.bounds"],
            ]

        assert main(argv(corpus)) == 0
        plain = capsys.readouterr().out
        marked = {}
        for name, path in corpus.items():
            marked[name] = str(tmp_path / f"bom-{name}")
            Path(marked[name]).write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        assert main(argv(marked)) == 0
        assert capsys.readouterr().out == plain

    def test_fewer_boundary_blocks_exit2(self, corpus, tmp_path, capsys):
        gold = tmp_path / "two.trees"
        gold.write_text(GOLD_TREE + GOLD_TREE, encoding="utf-8")
        code = main([
            "eval",
            "--gold", str(gold),
            "--pred", str(gold),
            "--gold-bounds", corpus["gold.bounds"],
            "--pred-bounds", corpus["gold.bounds"],
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: gold: 2 trees but 1 boundary blocks\n"
        )

    @pytest.mark.parametrize("role", ["gold", "pred"])
    def test_boundary_error_names_file(self, corpus, tmp_path, capsys, role):
        bad = tmp_path / "g.bounds"
        bad.write_text("Your\t2.56\t2.72\nturn\t2.72\tinf\n", encoding="utf-8")
        files = {"gold": corpus["gold.bounds"], "pred": corpus["pred.bounds"]}
        files[role] = str(bad)
        code = main([
            "eval",
            "--gold", corpus["gold.trees"],
            "--pred", corpus["pred.trees"],
            "--gold-bounds", files["gold"],
            "--pred-bounds", files["pred"],
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: non-finite time field\n"
        )

    def test_tree_error_names_file(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.trees"
        bad.write_text("(NP (PRP Your) (NN turn))\n(NP (PRP Your)\n", encoding="utf-8")
        code = main(["eval", "--gold", str(bad), "--pred", str(bad), "--even"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 2")

    def test_malformed_tree_exit2(self, corpus, tmp_path):
        bad = tmp_path / "bad.trees"
        bad.write_text("(NP (PRP Your)\n", encoding="utf-8")
        code = main([
            "eval", "--gold", str(bad), "--pred", str(bad), "--even",
        ])
        assert code == 2

    @pytest.mark.parametrize("longer", ["gold", "pred"])
    @pytest.mark.parametrize("even", [True, False], ids=["even", "bounds"])
    def test_tree_count_mismatch_message(self, longer, even, tmp_path, capsys):
        # the longer file's extra tree (and block) comes last
        counts = {"gold": 2, "pred": 2, longer: 3}
        argv = ["eval", "--even"] if even else ["eval"]
        for role, count in counts.items():
            trees = tmp_path / f"{role}.trees"
            trees.write_text(count * GOLD_TREE, encoding="utf-8")
            bounds = tmp_path / f"{role}.bounds"
            bounds.write_text("\n".join(count * [GOLD_BOUNDS]), encoding="utf-8")
            argv += [f"--{role}", str(trees)]
            argv += [] if even else [f"--{role}-bounds", str(bounds)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: gold has {counts['gold']} trees but pred has {counts['pred']}\n"
        )

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_pred_boundary_block_count_mismatch(self, corpus, blocks, tmp_path,
                                                capsys):
        trees = tmp_path / "two.trees"
        trees.write_text(2 * GOLD_TREE, encoding="utf-8")
        gold_bounds = tmp_path / "gold.bounds"
        gold_bounds.write_text(GOLD_BOUNDS + "\n" + GOLD_BOUNDS, encoding="utf-8")
        pred_bounds = tmp_path / "pred.bounds"
        pred_bounds.write_text("\n".join(blocks * [GOLD_BOUNDS]), encoding="utf-8")
        code = main([
            "eval", "--gold", str(trees), "--pred", str(trees),
            "--gold-bounds", str(gold_bounds), "--pred-bounds", str(pred_bounds),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: pred: 2 trees but {blocks} boundary blocks\n"
        )

    def test_pred_syntax_error_after_valid_lines(self, corpus, tmp_path, capsys):
        pred = tmp_path / "pred.trees"
        pred.write_text(GOLD_TREE + "# comment\n" + GOLD_TREE + "(NP (PRP Your) turn)\n",
                        encoding="utf-8")
        gold = tmp_path / "gold.trees"
        gold.write_text(3 * GOLD_TREE, encoding="utf-8")
        code = main(["eval", "--gold", str(gold), "--pred", str(pred), "--even"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pred}: line 4: constituent mixes words and "
            "subconstituents (at character 19)\n"
        )

    def test_missing_pred_bounds_file(self, corpus, tmp_path, capsys):
        missing = tmp_path / "missing.bounds"
        code = main([
            "eval", "--gold", corpus["gold.trees"], "--pred", corpus["pred.trees"],
            "--gold-bounds", corpus["gold.bounds"], "--pred-bounds", str(missing),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {missing}: No such file or directory\n"
        )

    def test_boundary_row_without_three_fields(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.bounds"
        bad.write_text("Your\t2.56\t2.72\nturn 2.72\t3.01\n", encoding="utf-8")
        code = main([
            "eval", "--gold", corpus["gold.trees"], "--pred", corpus["gold.trees"],
            "--gold-bounds", corpus["gold.bounds"], "--pred-bounds", str(bad),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: expected 'word<TAB>start<TAB>end', "
            "got 'turn 2.72\\t3.01'\n"
        )


    def test_golden_digest(self, tmp_path):
        """Byte-identical TSV on a seeded corpus, in both match modes.

        The digests were recorded before the solver moved to postorder
        arrays; any change to scores, rounding or layout shows here.
        """
        rng = np.random.default_rng(2024)
        files = {}
        for role in ("gold", "pred"):
            trees = [random_timed_tree(rng, 20) for _ in range(24)]
            if role == "pred":
                # every third sentence is predicted exactly
                trees[::3] = golds[::3]
            else:
                golds = trees
            files[role] = tmp_path / f"{role}.trees"
            files[role].write_text(
                "".join(serialize_bracketed(t) + "\n" for t in trees),
                encoding="utf-8",
            )
            tables = [
                BoundaryTable(tuple(
                    BoundaryRow(leaf.word, float(leaf.start), float(leaf.end))
                    for leaf in leaves(t.root)
                ))
                for t in trees
            ]
            files[f"{role}_bounds"] = tmp_path / f"{role}.bounds"
            with open(files[f"{role}_bounds"], "w", encoding="utf-8") as f:
                write_boundary_file(tables, f)
        digests = {}
        for mode in ("--labeled", "--unlabeled"):
            out = tmp_path / f"{mode[2:]}.tsv"
            code = main([
                "eval",
                "--gold", str(files["gold"]),
                "--pred", str(files["pred"]),
                "--gold-bounds", str(files["gold_bounds"]),
                "--pred-bounds", str(files["pred_bounds"]),
                mode,
                "--out", str(out),
            ])
            assert code == 0
            digests[mode] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == GOLDEN_EVAL_SHA256


class TestParseval:
    def test_identical(self, corpus, tmp_path):
        out = tmp_path / "pv.tsv"
        code = main([
            "parseval",
            "--gold", corpus["gold.trees"],
            "--pred", corpus["gold.trees"],
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split("\t")[3] == "100.0000"

    def test_attachment_fixture(self, tmp_path):
        right = "(NP (NP (N N)) (PP (P P) (NP (NP (N N)) (PP (P P) (NP (N N))))))\n"
        left = "(NP (NP (NP (N N)) (PP (P P) (NP (N N)))) (PP (P P) (NP (N N))))\n"
        a = tmp_path / "a.trees"
        b = tmp_path / "b.trees"
        a.write_text(right, encoding="utf-8")
        b.write_text(left, encoding="utf-8")
        out = tmp_path / "pv.tsv"
        code = main([
            "parseval", "--gold", str(a), "--pred", str(b),
            "--unlabeled", "--out", str(out),
        ])
        assert code == 0
        f1 = float(out.read_text().splitlines()[1].split("\t")[3])
        assert f1 == pytest.approx(500 / 7, abs=1e-3)

    def test_deep_chain(self, tmp_path):
        words = 1200  # deeper than Python's recursion limit
        text = "".join(f"(X (W w{k}) " for k in range(words - 1))
        chain = tmp_path / "chain.trees"
        chain.write_text(text + "(W w)" + ")" * (words - 1) + "\n", encoding="utf-8")
        out = tmp_path / "pv.tsv"
        code = main([
            "parseval", "--gold", str(chain), "--pred", str(chain), "--out", str(out),
        ])
        assert code == 0
        row = out.read_text().splitlines()[1].split("\t")
        assert row[3] == "100.0000" and row[4] == str(words - 1)

    def test_micro_without_brackets_is_perfect(self, tmp_path):
        # one-word trees have no brackets; two empty sets match perfectly
        words = tmp_path / "words.trees"
        words.write_text("(UH yeah)\n(UH uh)\n", encoding="utf-8")
        out = tmp_path / "pv.tsv"
        code = main([
            "parseval", "--gold", str(words), "--pred", str(words), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1:3] == ["0\t100.0000\t100.0000\t100.0000\t0\t0",
                              "1\t100.0000\t100.0000\t100.0000\t0\t0"]
        assert lines[-1] == "# micro\t100.0000\t100.0000\t100.0000"

    def test_word_count_mismatch_exit2(self, corpus, tmp_path):
        other = tmp_path / "other.trees"
        other.write_text("(X w)\n", encoding="utf-8")
        code = main([
            "parseval", "--gold", corpus["gold.trees"], "--pred", str(other),
        ])
        assert code == 2

    def test_word_count_mismatch_names_sentence(self, tmp_path, capsys):
        gold = tmp_path / "gold.trees"
        gold.write_text("(X a)\n(S (X a) (X b) (X c))\n", encoding="utf-8")
        pred = tmp_path / "pred.trees"
        pred.write_text("(X a)\n(S (X a) (X b))\n", encoding="utf-8")
        code = main(["parseval", "--gold", str(gold), "--pred", str(pred)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sentence 1: word count mismatch: gold 3, predicted 2\n"
        )


class TestPerturb:
    def test_delta_zero_round_trips(self, corpus, tmp_path):
        out_dir = tmp_path / "p0"
        code = main([
            "perturb",
            "--gold", corpus["gold.trees"],
            "--gold-bounds", corpus["gold.bounds"],
            "--mode", "noise", "--delta", "0", "--reps", "2",
            "--seed", "1", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "rep0.trees").read_text() == GOLD_TREE
        assert (out_dir / "rep0.bounds").read_text() == GOLD_BOUNDS
        summary = (out_dir / "summary.tsv").read_text().splitlines()
        assert summary[1].split("\t")[3] == "1.0000"

    def test_byte_order_mark_is_not_written_back(self, corpus, tmp_path):
        # read as part of the first word, it would be written out with it
        marked = tmp_path / "bom-gold.bounds"
        marked.write_bytes(b"\xef\xbb\xbf" + GOLD_BOUNDS.encode("utf-8"))
        out_dir = tmp_path / "p0"
        code = main([
            "perturb",
            "--gold", corpus["gold.trees"],
            "--gold-bounds", str(marked),
            "--mode", "noise", "--delta", "0", "--reps", "1",
            "--seed", "1", "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "rep0.trees").read_bytes() == GOLD_TREE.encode("utf-8")
        assert (out_dir / "rep0.bounds").read_bytes() == GOLD_BOUNDS.encode("utf-8")

    def test_noise_degrades_more_with_delta(self, tmp_path):
        trees = "".join("(S (A a) (B b) (C c))\n" for _ in range(12))
        blocks = "\n\n".join(
            "a\t0\t1\nb\t1\t2\nc\t2\t3" for _ in range(12)
        ) + "\n"
        tf = tmp_path / "c.trees"
        bf = tmp_path / "c.bounds"
        tf.write_text(trees, encoding="utf-8")
        bf.write_text(blocks, encoding="utf-8")
        means = {}
        for delta in ("0.1", "1.0"):
            out_dir = tmp_path / f"d{delta}"
            code = main([
                "perturb", "--gold", str(tf), "--gold-bounds", str(bf),
                "--mode", "noise", "--delta", delta, "--reps", "3",
                "--seed", "5", "--out", str(out_dir),
            ])
            assert code == 0
            row = (out_dir / "summary.tsv").read_text().splitlines()[1]
            means[delta] = float(row.split("\t")[3])
        assert means["1.0"] < means["0.1"]

    def test_reproducible_summary(self, corpus, tmp_path):
        rows = []
        for name in ("x", "y"):
            out_dir = tmp_path / name
            main([
                "perturb", "--gold", corpus["gold.trees"],
                "--gold-bounds", corpus["gold.bounds"],
                "--mode", "insert", "--delta", "0.8", "--reps", "4",
                "--seed", "11", "--out", str(out_dir),
            ])
            rows.append((out_dir / "summary.tsv").read_text())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("mode", ["insert", "delete"])
    def test_deep_chain(self, mode, tmp_path):
        words = 1200  # deeper than Python's recursion limit
        text = "".join(f"(X (W w{k}) " for k in range(words - 1))
        chain = tmp_path / "chain.trees"
        chain.write_text(text + "(W w)" + ")" * (words - 1) + "\n", encoding="utf-8")
        bounds = tmp_path / "chain.bounds"
        bounds.write_text(
            "".join(f"w{k}\t{k}.0\t{k + 1}.0\n" for k in range(words)), encoding="utf-8"
        )
        out_dir = tmp_path / mode
        code = main([
            "perturb", "--gold", str(chain), "--gold-bounds", str(bounds),
            "--mode", mode, "--delta", "0.3", "--reps", "1", "--seed", "2",
            "--out", str(out_dir),
        ])
        assert code == 0
        rows = (out_dir / "rep0.bounds").read_text().splitlines()
        assert (len(rows) > words) if mode == "insert" else (len(rows) < words)

    def test_projection_error_names_sentence(self, corpus, tmp_path, capsys):
        bounds = tmp_path / "short.bounds"
        bounds.write_text("Your\t0\t1\n", encoding="utf-8")
        code = main([
            "perturb", "--gold", corpus["gold.trees"], "--gold-bounds", str(bounds),
            "--mode", "noise", "--delta", "0.5", "--out", str(tmp_path / "p"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: gold sentence 0: tree has 2 leaves but table has 1 rows\n"
        )

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_reps_below_one_exit1(self, reps, corpus, tmp_path, capsys):
        out_dir = tmp_path / "p"
        code = main([
            "perturb", "--gold", corpus["gold.trees"],
            "--gold-bounds", corpus["gold.bounds"], "--mode", "noise",
            "--delta", "0.5", "--reps", reps, "--out", str(out_dir),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --reps must be at least 1, got {reps}\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("delta", ["1.5", "-0.1", "nan"])
    def test_delta_out_of_range_exit1(self, delta, corpus, tmp_path, capsys):
        out_dir = tmp_path / "p"
        code = main([
            "perturb", "--gold", corpus["gold.trees"],
            "--gold-bounds", corpus["gold.bounds"], "--mode", "noise",
            "--delta", delta, "--out", str(out_dir),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: delta must be in [0, 1], got {float(delta)}\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("under, reason", [
        ("", "File exists"), ("sub", "Not a directory"),
    ])
    def test_out_under_a_file_exit2(self, under, reason, corpus, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        out_dir = afile / under if under else afile
        code = main([
            "perturb", "--gold", corpus["gold.trees"],
            "--gold-bounds", corpus["gold.bounds"], "--mode", "noise",
            "--delta", "0.5", "--out", str(out_dir),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {out_dir}: {reason}\n"

    @pytest.mark.parametrize("mode", ["noise", "insert", "delete"])
    def test_golden_digest(self, mode, tmp_path):
        """Byte-identical trees, boundaries and summary on a seeded corpus.

        The digests were recorded before insert and delete moved to
        postorder arrays; any change to the draws, the repaired trees or
        the scores shows here.
        """
        rng = np.random.default_rng(2025)
        trees = [random_timed_tree(rng, 30) for _ in range(16)]
        gold = tmp_path / "gold.trees"
        gold.write_text(
            "".join(serialize_bracketed(t) + "\n" for t in trees), encoding="utf-8"
        )
        bounds = tmp_path / "gold.bounds"
        with open(bounds, "w", encoding="utf-8") as f:
            write_boundary_file(
                (
                    BoundaryTable(tuple(
                        BoundaryRow(leaf.word, float(leaf.start), float(leaf.end))
                        for leaf in leaves(t.root)
                    ))
                    for t in trees
                ),
                f,
            )
        out_dir = tmp_path / mode
        code = main([
            "perturb", "--gold", str(gold), "--gold-bounds", str(bounds),
            "--mode", mode, "--delta", "0.5", "--reps", "3", "--seed", "13",
            "--out", str(out_dir),
        ])
        assert code == 0
        digest = hashlib.sha256()
        for rep in range(3):
            for suffix in ("trees", "bounds"):
                digest.update((out_dir / f"rep{rep}.{suffix}").read_bytes())
        digest.update((out_dir / "summary.tsv").read_bytes())
        assert digest.hexdigest() == GOLDEN_PERTURB_SHA256[mode]


class TestAmbiguity:
    def test_small_report(self, tmp_path):
        out = tmp_path / "amb.tsv"
        code = main([
            "ambiguity", "--n", "2", "--samples", "10", "--seed", "0",
            "--out", str(out),
        ])
        assert code == 0
        header, row = out.read_text().splitlines()
        cells = dict(zip(header.split("\t"), row.split("\t")))
        assert cells["parseval_plausible_lowest"] == "50.0000"

    def test_bad_n_exit1(self):
        assert main(["ambiguity", "--n", "0"]) == 1


class TestCorrelate:
    def write_scores(self, path, values):
        lines = ["index\tvalue"]
        lines += [f"{i}\t{v}" for i, v in enumerate(values)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_self_correlation(self, tmp_path):
        a = tmp_path / "a.tsv"
        values = [float(i % 7) + i / 100.0 for i in range(30)]
        self.write_scores(a, values)
        out = tmp_path / "rho.tsv"
        code = main([
            "correlate", str(a), str(a),
            "--group-size", "5", "--groups", "40", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        rho_line = [l for l in out.read_text().splitlines() if "spearman" in l][0]
        assert float(rho_line.split("\t")[1]) == pytest.approx(1.0)

    def test_anti_correlation(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        values = [float(i % 7) + i / 100.0 for i in range(30)]
        self.write_scores(a, values)
        self.write_scores(b, [-v for v in values])
        out = tmp_path / "rho.tsv"
        code = main([
            "correlate", str(a), str(b),
            "--group-size", "5", "--groups", "40", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        rho_line = [l for l in out.read_text().splitlines() if "spearman" in l][0]
        assert float(rho_line.split("\t")[1]) == pytest.approx(-1.0)

    def test_seed_reproducible(self, tmp_path):
        a = tmp_path / "a.tsv"
        self.write_scores(a, [float(i) for i in range(25)])
        outs = []
        for name in ("r1.tsv", "r2.tsv"):
            out = tmp_path / name
            main([
                "correlate", str(a), str(a),
                "--group-size", "4", "--groups", "20", "--seed", "8",
                "--out", str(out),
            ])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_row_mismatch_exit2(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        self.write_scores(a, [1.0, 2.0, 3.0])
        self.write_scores(b, [1.0, 2.0])
        assert main(["correlate", str(a), str(b)]) == 2

    def test_reads_eval_and_parseval_formats(self, corpus, tmp_path):
        ev = tmp_path / "ev.tsv"
        pv = tmp_path / "pv.tsv"
        trees = "".join(
            ["(NP (PRP a) (NN b))\n", "(S (X x) (Y y))\n"] * 6
        )
        tf = tmp_path / "many.trees"
        tf.write_text(trees, encoding="utf-8")
        main(["eval", "--gold", str(tf), "--pred", str(tf), "--even",
              "--out", str(ev)])
        main(["parseval", "--gold", str(tf), "--pred", str(tf),
              "--out", str(pv)])
        out = tmp_path / "rho.tsv"
        code = main([
            "correlate", str(ev), str(pv),
            "--group-size", "3", "--groups", "10", "--seed", "0",
            "--out", str(out),
        ])
        assert code == 0
        # identical inputs on both metrics: every group aggregates to the
        # ceiling, so the correlation is degenerate but the run succeeds
        assert "# degenerate\ttrue" in out.read_text()


    def test_headerless_two_columns(self, tmp_path):
        a = tmp_path / "a.tsv"
        a.write_text(
            "".join(f"{i}\t{(i * 7) % 11 + i / 100}\n" for i in range(30)),
            encoding="utf-8",
        )
        out = tmp_path / "rho.tsv"
        code = main([
            "correlate", str(a), str(a),
            "--group-size", "5", "--groups", "40", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert "# spearman\t1.0000" in out.read_text().splitlines()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_exit2(self, bad, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        self.write_scores(a, [0.5, bad, 0.25])
        assert main(["correlate", str(a), str(a)]) == 2
        assert capsys.readouterr().err == f"error: {a}: bad value in column 'value'\n"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_headerless_non_finite_exit2(self, bad, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text(f"0\t0.5\n1\t{bad}\n2\t0.25\n", encoding="utf-8")
        assert main(["correlate", str(a), str(a)]) == 2
        assert capsys.readouterr().err == (
            f"error: {a}: expected numeric second column\n"
        )

    @pytest.mark.parametrize("header", [
        "index\tn1\tn2\tobjective\tstruct_iou",
        "index\tprecision\trecall\tf1\tgold_brackets\tpred_brackets",
        "index\tvalue",
    ], ids=["eval", "parseval", "value"])
    def test_header_only_exit2(self, header, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text(header + "\n# corpus\t0.5\n", encoding="utf-8")
        assert main(["correlate", str(a), str(a)]) == 2
        assert capsys.readouterr().err == f"error: {a}: no rows\n"

    def test_unrecognized_header_exit2(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text("sentence\tscore\tweight\n0\t0.5\t1\n", encoding="utf-8")
        assert main(["correlate", str(a), str(a)]) == 2
        assert capsys.readouterr().err == (
            f"error: {a}: unrecognized score file format\n"
        )

    def test_groups_without_brackets_exit2(self, tmp_path, capsys):
        words = tmp_path / "words.trees"
        words.write_text("(UH yeah)\n(UH uh)\n(UH huh)\n", encoding="utf-8")
        pv = tmp_path / "pv.tsv"
        assert main(["parseval", "--gold", str(words), "--pred", str(words),
                     "--out", str(pv)]) == 0
        code = main(["correlate", str(pv), str(pv), "--group-size", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {pv}: 3 sentences have zero weight"
        )


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        code = main([
            "oracle-check", "--trials", "25", "--max-nodes", "6", "--seed", "3",
        ])
        assert code == 0
        assert "passed=25" in capsys.readouterr().out

    def test_single_node_degenerate(self, capsys):
        code = main([
            "oracle-check", "--trials", "1", "--max-nodes", "1", "--seed", "0",
        ])
        assert code == 0

    def test_pairs_above_guard_use_ted(self, monkeypatch, capsys):
        # seed 4 draws 32x27, 35x31 and 25x26 nodes, all above the
        # 200-pair branch-and-bound guard, so TED is the reference each time
        calls = []

        def counted(*args):
            calls.append(args)
            return ted_objective(*args)

        monkeypatch.setattr("structiou.cli.ted_objective", counted)
        code = main([
            "oracle-check", "--trials", "3", "--max-nodes", "40", "--seed", "4",
        ])
        assert code == 0
        assert "passed=3" in capsys.readouterr().out
        assert len(calls) == 3

    def test_trees_up_to_30_nodes_pass(self, capsys):
        # mixes branch and bound (products up to the guard) with TED above it
        code = main([
            "oracle-check", "--trials", "40", "--max-nodes", "30", "--seed", "0",
        ])
        assert code == 0
        assert "passed=40" in capsys.readouterr().out

    def test_trees_up_to_200_nodes_pass(self, capsys):
        code = main([
            "oracle-check", "--trials", "5", "--max-nodes", "200", "--seed", "0",
        ])
        assert code == 0
        assert "passed=5" in capsys.readouterr().out

    def test_ted_mismatch_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("structiou.cli.ted_objective", lambda *args: 1e6)
        out_dir = tmp_path / "dumps"
        code = main([
            "oracle-check", "--trials", "1", "--max-nodes", "40",
            "--seed", "4", "--out", str(out_dir),
        ])
        assert code == 3
        dump = out_dir / "oracle_counterexample_0.json"
        assert dump.read_bytes().endswith(b"}\n")
        payload = json.loads(dump.read_text())
        assert payload["reference"] == "ted"
        assert payload["oracle_objective"] == 1e6
        assert "!= ted 1000000.0" in capsys.readouterr().err

    def test_injected_fault_exits_3(self, tmp_path, monkeypatch, capsys):
        from structiou.align import Alignment

        def broken(*args):
            return Alignment(pairs=(), objective=1e6)

        monkeypatch.setattr("structiou.cli.oracle_alignment", broken)
        out_dir = tmp_path / "dumps"
        code = main([
            "oracle-check", "--trials", "2", "--max-nodes", "5",
            "--seed", "0", "--out", str(out_dir),
        ])
        assert code == 3
        dumps = list(out_dir.glob("oracle_counterexample_*.json"))
        assert len(dumps) == 2
        payload = json.loads(dumps[0].read_text())
        assert {"tree1", "tree2", "solver_objective", "oracle_objective"} <= set(
            payload
        )

    def test_recovery_fault_exits_3(self, tmp_path, monkeypatch, capsys):
        # the solver's alignment loses a pair but keeps its objective, so
        # only the pair audit can tell
        from structiou.align import Alignment, max_weight_alignment

        def dropped(*args):
            out = max_weight_alignment(*args)
            return Alignment(out.pairs[:-1], out.objective)

        monkeypatch.setattr("structiou.cli.max_weight_alignment", dropped)
        code = main([
            "oracle-check", "--trials", "6", "--max-nodes", "6",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 3
        dumps = list(tmp_path.glob("oracle_counterexample_*.json"))
        assert dumps
        for dump in dumps:
            payload = json.loads(dump.read_text())
            assert payload["solver_objective"] == payload["oracle_objective"]
            assert payload["problems"]
            assert payload["problems"][-1].startswith("matched IoU sum")
        assert "matched IoU sum" in capsys.readouterr().err

    def test_dump_reloads(self, tmp_path, monkeypatch):
        from structiou.align import Alignment

        def broken(*args):
            return Alignment(pairs=(), objective=1e6)

        monkeypatch.setattr("structiou.cli.oracle_alignment", broken)
        code = main([
            "oracle-check", "--trials", "1", "--max-nodes", "8",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 3
        payload = json.loads((tmp_path / "oracle_counterexample_0.json").read_text())
        # trial 0 scores the first two trees the seed draws
        rng = np.random.default_rng(np.random.SeedSequence(0))
        for key in ("tree1", "tree2"):
            tree, dump = random_timed_tree(rng, 8), payload[key]
            reloaded = parse_bracketed(dump["bracketed"])
            assert reloaded.labels == tree.labels
            assert reloaded.words == tree.words
            assert reloaded.first.tolist() == tree.first.tolist()
            assert dump["starts"] == tree.starts.tolist()
            assert dump["ends"] == tree.ends.tolist()

    @pytest.mark.parametrize("argv, message", [
        (["--trials", "-3"], "--trials must be at least 1, got -3"),
        (["--max-nodes", "0"], "max_nodes must be at least 1, got 0"),
    ], ids=["trials", "max-nodes"])
    def test_empty_audit_exit1(self, argv, message, capsys):
        code = main(["oracle-check", "--seed", "0", *argv])
        assert code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"


def test_unknown_command_exit1():
    assert main(["bogus"]) == 1


def _seeded_corpus(tmp_path, seed=2026, sentences=12):
    """Gold and predicted tree and boundary files from seeded timed trees.

    Each predicted tree has its gold tree's word count, so the corpus
    also suits ``parseval``; every third one equals its gold tree.
    """
    rng = np.random.default_rng(seed)
    golds, preds = [], []
    for k in range(sentences):
        gold = random_timed_tree(rng, 20)
        pred = gold
        while k % 3 and (pred is gold or len(pred.words) != len(gold.words)):
            pred = random_timed_tree(rng, 20)
        golds.append(gold)
        preds.append(pred)
    files = {}
    for role, trees in (("gold", golds), ("pred", preds)):
        files[role] = tmp_path / f"{role}.trees"
        files[role].write_text(
            "".join(serialize_bracketed(t) + "\n" for t in trees), encoding="utf-8"
        )
        files[f"{role}_bounds"] = tmp_path / f"{role}.bounds"
        with open(files[f"{role}_bounds"], "w", encoding="utf-8") as f:
            write_boundary_file(
                (
                    BoundaryTable(tuple(
                        BoundaryRow(leaf.word, float(leaf.start), float(leaf.end))
                        for leaf in leaves(t.root)
                    ))
                    for t in trees
                ),
                f,
            )
    return {name: str(path) for name, path in files.items()}


def _run_digest(tmp_path, argv):
    """sha256 of the file one successful command writes with ``--out``."""
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _write_values(path, values):
    path.write_text(
        "index\tvalue\n" + "".join(f"{i}\t{v!r}\n" for i, v in enumerate(values)),
        encoding="utf-8",
    )
    return str(path)


def _golden_argv(case, tmp_path):
    """The argument list of one golden case, with its input files written."""
    if case == "ambiguity-3":
        return ["ambiguity", "--n", "3", "--samples", "20", "--seed", "7"]
    if case == "ambiguity-8":
        return ["ambiguity", "--n", "8", "--samples", "20", "--seed", "7"]
    if case.startswith("correlate"):
        rng = np.random.default_rng(2027)
        a = rng.random(30)
        if case == "correlate-plain":
            b = 0.5 * a + 0.5 * rng.random(30)
        else:  # every group of metric b aggregates to the same value
            b = np.full(30, 0.25)
        return [
            "correlate",
            _write_values(tmp_path / "a.tsv", a.tolist()),
            _write_values(tmp_path / "b.tsv", b.tolist()),
            "--group-size", "5", "--groups", "12", "--seed", "3",
        ]
    files = _seeded_corpus(tmp_path)
    argv = [case.split("-")[0], "--gold", files["gold"], "--pred", files["pred"]]
    if case == "eval-bounds":
        argv += ["--gold-bounds", files["gold_bounds"],
                 "--pred-bounds", files["pred_bounds"]]
    elif case == "eval-even":
        argv.append("--even")
    return argv


GOLDEN_REPORT_SHA256 = {
    "eval-bounds/tsv": [
        "0d0e1553b88a226fb15f9fc78c2d083595874ced9d0801a4c05c94890e82a54a",
        "6c9e6dae1e8af31fe84dfff6e3ad6f1f2404b1960b02226f7b53d080dbc50772",
    ],
    "eval-bounds/json": [
        "0cb2ecfd73bda5a36254188dfe0f0addc79e2d9d49aacc63d3f2f776c0019306",
        "0a6a3dd909a7a35d0b4f171cf059e713d586d250ab555589c24aa88404f00360",
    ],
    "eval-even/tsv": [
        "cc80522b9ce4785ca989234e9f9a4d627dc0dd6150122df358d07efaaa11d55d",
        "e36f4c50afe036bda6f3d887483f1b55751081b32efe6f2c906ae122fea6701f",
    ],
    "eval-even/json": [
        "af511924f421083e419457ab6b50b6f494b795e0f97dc0f9a940bd5af325822f",
        "9062ce75bcd98cf354a4bc7813ea5774aa7b81d9d175883f047e2b6aac68ffcb",
    ],
    "parseval/tsv": [
        "095ae7e3f1a3130dabf67aead3184df4a437cdc1d57800ad06643ea495ea05bc",
        "4b97a30952ac7d29deb312f22d61ef80adfc27cf4838aac5751bb679154f177c",
    ],
    "parseval/json": [
        "8caed620068c986b5a4c9c33e60b1baa9d581e45dacb0daa28f31a8f1a534a3b",
        "38f83aa3fe4d8092a0c96187dfff1942fe0c47918df5d48cb178b2d0dbbf3e64",
    ],
    "ambiguity-3/tsv": [
        "71be1c413c3433b6f5247a97a04091e12d97387b09db4a5e131de1a04dbb87ba",
    ],
    "ambiguity-3/json": [
        "bf53e7beafbe35f015e6665a1df09423b6e8e4ee85fb4fca2d5e5bb8558631d6",
    ],
    "ambiguity-8/tsv": [
        "f399748fa9dfa0cfc9978c7de6188e8f4bc3083f6faeff5632e37867ce53144c",
    ],
    "ambiguity-8/json": [
        "57e723e70f107174d1edc2e95b52e37100394f275b8dd0e83ad7a220cfc67b81",
    ],
    "correlate-plain/tsv": [
        "9f98e756cc1a13f1b7776a10b00d24f9c150d881a7cd7fb77bd5fd1ac415ea37",
    ],
    "correlate-plain/json": [
        "590af0f054f08fce9ca000cec62e6dba535845bba64905b01a5cf76ee1968842",
    ],
    "correlate-degenerate/tsv": [
        "c3a07d4c0631362888512de531c8537af23a2bfeec62fe66d2a4e905c55bcece",
    ],
    "correlate-degenerate/json": [
        "91fdc45430af505c878093fb5d35deb8d7ae2fe78419e1541e6e122205d38e2a",
    ],
}


class TestGoldenReports:
    """Byte-identical output of every report command in both formats.

    The digests were recorded before the commands shared one writer;
    any change to scores, rounding, field order or layout shows here.
    """

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("case", [
        "eval-bounds", "eval-even", "parseval",
        "ambiguity-3", "ambiguity-8", "correlate-plain", "correlate-degenerate",
    ])
    def test_digest(self, case, fmt, tmp_path):
        argv = _golden_argv(case, tmp_path) + ["--format", fmt]
        modes = (["--labeled"], ["--unlabeled"])
        if case.startswith(("ambiguity", "correlate")):
            modes = ([],)
        digests = [_run_digest(tmp_path, argv + mode) for mode in modes]
        assert digests == GOLDEN_REPORT_SHA256[f"{case}/{fmt}"]


def _reject_constant(name):
    raise ValueError(f"invalid JSON constant {name}")


@pytest.mark.parametrize("case", [
    "eval-bounds", "eval-even", "parseval", "ambiguity-1", "correlate-degenerate",
])
def test_json_has_no_bare_nan(case, tmp_path):
    """Non-finite values are written as null, which every JSON reader accepts."""
    if case == "ambiguity-1":  # one plausible parse: no rival, so no lowest score
        argv = ["ambiguity", "--n", "1", "--samples", "5"]
    else:
        argv = _golden_argv(case, tmp_path)
    out = tmp_path / "report.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    if case == "ambiguity-1":
        assert payload["parseval_plausible_lowest"] is None
        assert payload["struct_iou_plausible_lowest"] is None
    elif case == "correlate-degenerate":
        assert payload["spearman"] is None


# ---------------------------------------------------------------------------
# Undecodable and mutated inputs


def _input_argv(case, files, tmp_path):
    """A command reading ``files``, for the undecodable-input cases."""
    out = str(tmp_path / "out")
    if case == "eval":
        return ["eval", "--gold", files["gold"], "--pred", files["pred"],
                "--gold-bounds", files["gold_bounds"],
                "--pred-bounds", files["pred_bounds"], "--out", out]
    if case == "eval-even":
        return ["eval", "--gold", files["gold"], "--pred", files["pred"],
                "--even", "--out", out]
    if case == "parseval":
        return ["parseval", "--gold", files["gold"], "--pred", files["pred"],
                "--out", out]
    if case == "perturb":
        return ["perturb", "--gold", files["gold"],
                "--gold-bounds", files["gold_bounds"], "--mode", "noise",
                "--delta", "0.3", "--out", out]
    return ["correlate", files["scores"], files["scores"], "--out", out]


@pytest.mark.parametrize("case, name", [
    ("eval-even", "gold"), ("eval", "pred"), ("eval", "gold_bounds"),
    ("eval", "pred_bounds"), ("parseval", "pred"), ("perturb", "gold"),
    ("perturb", "gold_bounds"), ("correlate", "scores"),
])
def test_non_utf8_input_names_file(case, name, tmp_path, capsys):
    files = _seeded_corpus(tmp_path, sentences=3)
    files["scores"] = _write_values(tmp_path / "scores.tsv", [0.5, 0.25, 1.0])
    path = Path(files[name])
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
    assert main(_input_argv(case, files, tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text (invalid start byte)\n"
    )


def test_mutated_input_exits_0_or_2(tmp_path, capsys):
    """Byte edits to one file of a valid eval input never raise past main,
    and every data error names an input file or a side."""
    files = _seeded_corpus(tmp_path, sentences=3)
    names = ("gold", "pred", "gold_bounds", "pred_bounds")
    originals = {name: Path(files[name]).read_bytes() for name in names}
    argv = _input_argv("eval", files, tmp_path)
    located = tuple(f"error: {files[name]}: " for name in names) + (
        "error: gold ", "error: gold: ", "error: pred ", "error: pred: ")
    edits = st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                  st.floats(0, 1, exclude_max=True),
                  st.sampled_from(b"()\t\n .0123456789eE-+nainfXw\xc3\xa9\xff\x80")
                  | st.integers(0, 255)),
        min_size=1, max_size=4,
    )

    @settings(max_examples=300, deadline=None, database=None)
    @given(name=st.sampled_from(names), edits=edits)
    def check(name, edits):
        data = bytearray(originals[name])
        for kind, where, byte in edits:
            at = int(where * len(data))
            if kind == "replace":
                data[at] = byte
            elif kind == "insert":
                data.insert(at, byte)
            else:
                del data[at]
        path = Path(files[name])
        path.write_bytes(bytes(data))
        capsys.readouterr()
        try:
            code = main(argv)
        finally:
            path.write_bytes(originals[name])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith(located), err

    check()


# ---------------------------------------------------------------------------
# Memory


def _cycled_corpus(directory, sentences):
    """eval argv over ``sentences`` pairs cycling through 20 seeded
    random_timed_tree pairs, each side with its own boundary file."""
    directory.mkdir()
    rng = np.random.default_rng(16)
    pairs = [(random_timed_tree(rng, 40), random_timed_tree(rng, 40))
             for _ in range(20)]
    argv = ["eval", "--out", str(directory / "scores.tsv")]
    for side, role in enumerate(("gold", "pred")):
        trees = [pairs[k % len(pairs)][side] for k in range(sentences)]
        path = directory / f"{role}.trees"
        path.write_text("".join(serialize_bracketed(t) + "\n" for t in trees),
                        encoding="utf-8")
        bounds = directory / f"{role}.bounds"
        with open(bounds, "w", encoding="utf-8") as f:
            write_boundary_file((
                BoundaryTable(tuple(
                    BoundaryRow(leaf.word, float(leaf.start), float(leaf.end))
                    for leaf in leaves(t.root)
                ))
                for t in trees
            ), f)
        argv += [f"--{role}", str(path), f"--{role}-bounds", str(bounds)]
    return argv


def _eval_peak(argv) -> int:
    """Peak traced bytes of one eval run, above what was live before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_eval_peak_memory_does_not_grow_with_corpus(tmp_path):
    """eval keeps one sentence pair's trees and tables alive at a time, so
    twenty times the sentences adds little more than their score rows."""
    small = _cycled_corpus(tmp_path / "small", 20)
    large = _cycled_corpus(tmp_path / "large", 400)
    assert main(small) == 0  # warm caches before measuring
    growth = (_eval_peak(large) - _eval_peak(small)) / (400 - 20)
    assert growth < 1024, f"{growth:.0f} B per sentence"
