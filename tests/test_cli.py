import inspect
import json
import warnings
import weakref
from pathlib import Path

import pytest

from subseg import annotate, cli, constraints, evaluation, pipeline, segmenters, srt_io
from subseg.cli import main
from subseg.annotate import AnnotatedSentence, strip_breaks
from subseg.segmenters import TrainingConfig, save_model, train

import synth

from conftest import FIGURE_SRT, FIGURE_SENTENCE, FIGURE_ANNOTATED


@pytest.fixture(scope="module")
def tiny_model_file(tmp_path_factory):
    corpus = synth.make_corpus(60, seed=14)
    model = train(corpus, TrainingConfig(epochs=4, seed=1))
    path = tmp_path_factory.mktemp("model") / "model.tsv"
    save_model(model, path)
    return path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["segment", "--out", "x"])
        assert err.value.code == 2

    def test_train_has_no_learning_rate_flag(self, capsys):
        # from zero weights a rate would only scale the model; fine-tune keeps the flag
        with pytest.raises(SystemExit) as err:
            main(["train", "--corpus", "c.txt", "--out", "m.tsv", "--learning-rate", "0.5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --learning-rate 0.5" in capsys.readouterr().err


class TestOperationalErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        status = main(
            ["segment", "--count-char", "--in", str(tmp_path / "nope.txt"),
             "--out", str(tmp_path / "out.txt")]
        )
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_model_file(self, tmp_path, capsys):
        write(tmp_path / "model.tsv", "version\t9\nweights\n")
        status = main(
            ["segment", "--model", str(tmp_path / "model.tsv"),
             "--in", str(write(tmp_path / "in.txt", "a b\n")),
             "--out", str(tmp_path / "out.txt")]
        )
        assert status == 1

    @pytest.mark.parametrize("command", ["segment", "fine-tune", "reannotate"])
    def test_bad_weight_record_names_the_model_file(self, tmp_path, capsys, tiny_model_file, command):
        lines = tiny_model_file.read_text(encoding="utf-8").splitlines()
        bad_line = lines.index("weights") + 2
        lines[bad_line - 1] = "broken record"
        model = write(tmp_path / "m.tsv", "\n".join(lines) + "\n")
        corpus = write(tmp_path / "c.txt", "a <eol> b <eob>\n")
        status = main(
            [command, "--model", str(model), "--out", str(tmp_path / "out.txt"),
             "--in" if command == "segment" else "--corpus", str(corpus)]
        )
        assert status == 1
        assert capsys.readouterr().err == (
            f"error: {model}: model line {bad_line}: bad weight record 'broken record'\n"
        )

    def test_model_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        model = tmp_path / "m.tsv"
        model.write_bytes(b"version\t1\n\xff\n")
        status = main(
            ["segment", "--model", str(model), "--in", str(write(tmp_path / "in.txt", "a b\n")),
             "--out", str(tmp_path / "out.txt")]
        )
        assert status == 1
        assert capsys.readouterr().err.startswith(f"error: {model}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("train", "--config"),
            ("train", "--profile"),
            ("train", "--corpus"),
            ("fine-tune", "--corpus"),
            ("evaluate", "--hyp"),
            ("evaluate", "--ref"),
            ("stats", "--corpus"),
            ("reannotate", "--corpus"),
            ("segment", "--in"),
            ("build-corpus", "--sentences"),
        ],
    )
    def test_input_that_is_not_utf8_names_the_file(
        self, tmp_path, capsys, tiny_model_file, command, flag
    ):
        corpus = write(tmp_path / "c.txt", "a b <eob>\n")
        (tmp_path / "srt").mkdir()
        out = tmp_path / "out.txt"
        argv = {
            "train": ["--corpus", corpus, "--out", out],
            "fine-tune": ["--model", tiny_model_file, "--corpus", corpus, "--out", out],
            "evaluate": ["--hyp", corpus, "--ref", corpus],
            "stats": ["--corpus", corpus],
            "reannotate": ["--corpus", corpus, "--model", tiny_model_file, "--out", out],
            "segment": ["--model", tiny_model_file, "--in", corpus, "--out", out],
            "build-corpus": ["--srt-dir", tmp_path / "srt", "--sentences", corpus, "--out", out],
        }[command]
        argv = [str(arg) for arg in argv]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a \xff <eob>\n")
        if flag in argv:
            argv[argv.index(flag) + 1] = str(bad)
        else:
            argv += [flag, str(bad)]
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
        assert not out.exists()

    @pytest.mark.parametrize(
        "error",
        sorted(
            (
                cls
                for module in (annotate, constraints, evaluation, pipeline, segmenters, srt_io)
                for cls in vars(module).values()
                if isinstance(cls, type)
                and issubclass(cls, Exception)
                and not issubclass(cls, Warning)
                and cls.__module__ == module.__name__
            ),
            key=lambda cls: cls.__qualname__,
        ),
        ids=lambda cls: cls.__qualname__,
    )
    def test_every_package_error_is_operational(self, error):
        # the commands report these as "error: ..." and exit 1, not with a traceback
        assert issubclass(error, cli._OPERATIONAL_ERRORS)


class TestSegment:
    def test_count_char_baseline(self, tmp_path):
        infile = write(tmp_path / "in.txt", "C'est donc toujours plus difficile.\n")
        out = tmp_path / "out.txt"
        assert main(["segment", "--count-char", "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "C'est donc toujours plus difficile. <eob>\n"

    def test_count_char_puts_an_over_long_word_on_its_own_line(self, tmp_path):
        long_word = "x" * 43
        infile = write(tmp_path / "in.txt", f"{long_word}\nok {long_word}\n")
        out = tmp_path / "out.txt"
        assert main(["segment", "--count-char", "--in", str(infile), "--out", str(out)]) == 0
        first, second = out.read_text(encoding="utf-8").splitlines()
        assert first == f"{long_word} <eob>"
        assert second in (f"ok <eob> {long_word} <eob>", f"ok <eol> {long_word} <eob>")

    def test_blank_input_line_gives_a_blank_output_line(self, tmp_path, tiny_model_file):
        infile = write(tmp_path / "in.txt", "one two three\n\nfour five six\n")
        out = tmp_path / "out.txt"
        assert main(["segment", "--count-char", "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "one two three <eob>\n\nfour five six <eob>\n"
        assert main(
            ["segment", "--model", str(tiny_model_file), "--in", str(infile), "--out", str(out)]
        ) == 0
        first, blank, second = out.read_text(encoding="utf-8").splitlines()
        assert (first.split()[0], blank, second.split()[0]) == ("one", "", "four")

    def test_a_line_ends_only_at_a_newline(self, tmp_path):
        # a form feed inside a line separates words, so the file is still two lines
        infile = write(tmp_path / "in.txt", "one\ftwo three\nfour five\n")
        out = tmp_path / "out.txt"
        assert main(["segment", "--count-char", "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "one two three <eob>\nfour five <eob>\n"

    def test_count_char_seeds_each_line_by_its_index_in_the_file(self, tmp_path):
        sentence = " ".join(["abcde"] * 40)
        infile = write(tmp_path / "in.txt", f"{sentence}\n   \n{sentence}\n")
        out = tmp_path / "out.txt"
        assert main(
            ["segment", "--count-char", "--seed", "3", "--in", str(infile), "--out", str(out)]
        ) == 0
        assert out.read_text(encoding="utf-8").splitlines() == [
            segmenters.segment_count_char(sentence, seed=3).to_text(),
            "",
            segmenters.segment_count_char(sentence, seed=5).to_text(),
        ]

    @pytest.mark.parametrize(
        "flags, line, reason",
        [
            (["--count-char"], "foo <eol> <eol> bar", "a break token must follow a word"),
            (["--model"], "foo <eol> <eol> bar", "a break token must follow a word"),
            (["--model", "--mode", "eol_only"], "foo bar <eol> baz", "eol_only input must already end with <eob>"),
        ],
        ids=["count-char", "learned", "eol_only"],
    )
    def test_a_bad_line_is_named_by_file_and_line(self, tmp_path, capsys, tiny_model_file, flags, line, reason):
        end = " <eob>" if "eol_only" in flags else ""  # the lines around it are good ones
        infile = write(tmp_path / "in.txt", f"one two three{end}\n\n{line}\nfour five{end}\n")
        out = tmp_path / "out.txt"
        if flags[0] == "--model":
            flags = [flags[0], str(tiny_model_file), *flags[1:]]
        assert main(["segment", *flags, "--in", str(infile), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {infile}:3: {reason}\n"
        assert not out.exists()

    def test_count_char_freezes_the_input_breaks(self, tmp_path):
        infile = write(tmp_path / "in.txt", "one two three <eob>\none <eob> two three\n")
        out = tmp_path / "out.txt"
        assert main(["segment", "--count-char", "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "one two three <eob>\none <eob> two three <eob>\n"

    def test_count_char_with_eol_only_adds_line_breaks_inside_the_blocks(self, tmp_path):
        block = " ".join(["abcde"] * 10)  # the 8th word would overflow the line
        infile = write(tmp_path / "in.txt", f"one two three <eob>\n{block} <eob> four <eob>\n")
        out = tmp_path / "out.txt"
        assert main(
            ["segment", "--count-char", "--mode", "eol_only", "--in", str(infile), "--out", str(out)]
        ) == 0
        seven, three = " ".join(["abcde"] * 7), " ".join(["abcde"] * 3)
        assert out.read_text(encoding="utf-8").splitlines() == [
            "one two three <eob>",
            f"{seven} <eol> {three} <eob> four <eob>",
        ]

    def test_learned_segmenter_preserves_text(self, tmp_path, tiny_model_file):
        sentences = synth.make_plain_sentences(5, seed=3)
        infile = write(tmp_path / "in.txt", "".join(f"{s}\n" for s in sentences))
        out = tmp_path / "out.txt"
        status = main(
            ["segment", "--model", str(tiny_model_file), "--in", str(infile), "--out", str(out)]
        )
        assert status == 0
        for line, source in zip(out.read_text(encoding="utf-8").splitlines(), sentences):
            assert strip_breaks(AnnotatedSentence.from_text(line)) == " ".join(source.split())

    def test_byte_identical_across_runs(self, tmp_path, tiny_model_file):
        sentences = synth.make_plain_sentences(8, seed=4)
        infile = write(tmp_path / "in.txt", "".join(f"{s}\n" for s in sentences))
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (out_a, out_b):
            assert main(
                ["segment", "--count-char", "--seed", "7", "--in", str(infile), "--out", str(out)]
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_profile_keys_are_the_profile_fields_read_as_their_types(self):
        assert cli._PROFILE_KEYS == {
            "cpl_limit": int,
            "cps_limit": float,
            "max_lines_per_block": int,
            "orphan_threshold": int,
        }

    def test_profile_file_changes_limit(self, tmp_path):
        profile = write(tmp_path / "profile.txt", "cpl_limit = 20\n")
        infile = write(tmp_path / "in.txt", " ".join(["abcde"] * 8) + "\n")
        out = tmp_path / "out.txt"
        assert main(
            ["segment", "--count-char", "--profile", str(profile),
             "--in", str(infile), "--out", str(out)]
        ) == 0
        annotated = AnnotatedSentence.from_text(out.read_text(encoding="utf-8").strip())
        from subseg.constraints import ConstraintProfile, check_cpl

        assert check_cpl(annotated, ConstraintProfile(cpl_limit=20)).conforming


class TestEvaluate:
    def test_prf_fixture_as_json(self, tmp_path, capsys):
        hyp = AnnotatedSentence.from_text(
            "w1 w2 w3 w4 w5 w6 <eob> w7 w8 w9 w10 w11 w12"
        )
        ref = AnnotatedSentence.from_text(
            "w1 w2 w3 w4 w5 w6 <eob> w7 w8 w9 w10 w11 w12 <eol>"
        )
        hyp_file = write(tmp_path / "h.txt", hyp.to_text() + "\n")
        ref_file = write(tmp_path / "r.txt", ref.to_text() + "\n")
        assert main(["evaluate", "--hyp", str(hyp_file), "--ref", str(ref_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["precision"] == 1.0
        assert report["recall"] == 0.5
        assert report["counts"] == {"correct": 1, "hyp": 1, "ref": 2}

    def test_length_mismatch_is_operational_error(self, tmp_path, capsys):
        hyp_file = write(tmp_path / "h.txt", "a <eob>\n")
        ref_file = write(tmp_path / "r.txt", "a <eob>\nb <eob>\n")
        assert main(["evaluate", "--hyp", str(hyp_file), "--ref", str(ref_file)]) == 1

    def test_json_file_holds_what_is_printed(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", "a b <eob> c <eob>\n")
        ref = write(tmp_path / "r.txt", "a <eob> b c <eob>\n")
        report = tmp_path / "report.json"
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--json", str(report)]) == 0
        assert report.read_text(encoding="utf-8") == capsys.readouterr().out
        assert json.loads(report.read_text(encoding="utf-8"))["counts"]["correct"] == 1

    def test_table_output(self, tmp_path, capsys):
        f = write(tmp_path / "s.txt", "a b <eob>\n")
        assert main(["evaluate", "--hyp", str(f), "--ref", str(f), "--table"]) == 0
        assert "precision" in capsys.readouterr().out


class TestStatsCommand:
    def test_key_value_output(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "one two <eol> three <eob>\n")
        assert main(["stats", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "sentences: 1" in out
        assert "words: 3" in out

    def test_text_output_lines(self, tmp_path, capsys):
        corpus = write(
            tmp_path / "c.txt", f"one two <eol> three <eob>\n{'a' * 45} <eob> b <eob>\n"
        )
        assert main(["stats", "--corpus", str(corpus)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "sentences: 2",
            "words: 5",
            "eol_fraction: 0.5000",
            "orphan_lines: 1",
            "conforming_sentences: 1",
            "conforming_lines: 3",
            "block_conforming_sentences: 2",
            "sentences_with_eol: 1",
        ]

    def test_bad_metadata_entry_names_the_file(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "a <eob>\nb <eob>\n")
        metadata = write(
            tmp_path / "m.yaml",
            "- {duration: 1.0, offset: 0.0, wav: t.wav}\n- {duration: x, offset: 1.0, wav: t.wav}\n",
        )
        assert main(["stats", "--corpus", str(corpus), "--metadata", str(metadata)]) == 1
        assert capsys.readouterr().err == (
            f"error: {metadata}: metadata line 2: offset/duration is not numeric\n"
        )

    def test_metadata_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "a <eob>\n")
        metadata = tmp_path / "m.yaml"
        metadata.write_bytes(b"- {duration: 1.0, offset: 0.0, wav: \xff.wav}\n")
        assert main(["stats", "--corpus", str(corpus), "--metadata", str(metadata)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {metadata}: 'utf-8' codec can't decode")

    def test_metadata_count_mismatch_is_operational_error(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "a <eob>\nb <eob>\n")
        metadata = write(tmp_path / "m.yaml", "- {duration: 1.0, offset: 0.0, wav: t.wav}\n")
        status = main(["stats", "--corpus", str(corpus), "--metadata", str(metadata), "--json"])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {metadata}: 1 metadata entries, 2 corpus sentences\n"

    def test_text_output_with_metadata_ends_with_the_cps_lines(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "I wanted to challenge the idea <eob>\n")
        metadata = write(
            tmp_path / "m.yaml", "- {duration: 1.456, offset: 537.02, wav: talk1.wav}\n"
        )
        assert main(["stats", "--corpus", str(corpus), "--metadata", str(metadata)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["cps_measured: 1", "cps_conforming: 1"]
        assert lines[0] == "sentences: 1"

    def test_json_output_with_metadata(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.txt", "I wanted to challenge the idea <eob>\n")
        metadata = write(
            tmp_path / "m.yaml", "- {duration: 1.456, offset: 537.02, wav: talk1.wav}\n"
        )
        assert main(
            ["stats", "--corpus", str(corpus), "--metadata", str(metadata), "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sentences"] == 1
        assert data["cps"] == {"measured": 1, "conforming": 1}


class TestBuildCorpusCommand:
    def test_figure_end_to_end(self, tmp_path, capsys):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "talk1.srt", FIGURE_SRT)
        sentences = write(tmp_path / "sentences.tsv", f"talk1\t{FIGURE_SENTENCE}\n")
        out = tmp_path / "corpus.txt"
        log = tmp_path / "log.tsv"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(out), "--log", str(log)]
        )
        assert status == 0
        assert out.read_text(encoding="utf-8") == FIGURE_ANNOTATED + "\n"
        assert "ok" in log.read_text(encoding="utf-8")
        assert "aligned 1/1" in capsys.readouterr().out

    def test_blank_sentence_costs_only_its_line(self, tmp_path, capsys):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "talk1.srt", FIGURE_SRT)
        sentences = write(
            tmp_path / "sentences.tsv",
            f"talk1\t{FIGURE_SENTENCE}\ntalk1\t   \ntalk1\t{FIGURE_SENTENCE}\n",
        )
        out = tmp_path / "corpus.txt"
        log = tmp_path / "log.tsv"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(out), "--log", str(log)]
        )
        assert status == 0
        assert out.read_text(encoding="utf-8") == f"{FIGURE_ANNOTATED}\n" * 2
        assert log.read_text(encoding="utf-8").splitlines() == [
            "1\ttalk1\tok\t",
            "2\ttalk1\tfailed\tempty sentence",
            "3\ttalk1\tok\t",
        ]
        assert "aligned 2/3" in capsys.readouterr().out

    def test_log_numbers_lines_of_the_sentences_file(self, tmp_path, capsys):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "talk1.srt", FIGURE_SRT)
        sentences = write(
            tmp_path / "sentences.tsv",
            f"talk1\t{FIGURE_SENTENCE}\n\ntalk1\ttotally unrelated words\n",
        )
        log = tmp_path / "log.tsv"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(tmp_path / "corpus.txt"), "--log", str(log)]
        )
        assert status == 0
        entries = [line.split("\t") for line in log.read_text(encoding="utf-8").splitlines()]
        assert [entry[:3] for entry in entries] == [["1", "talk1", "ok"], ["3", "talk1", "failed"]]
        assert "aligned 1/2" in capsys.readouterr().out

    def test_line_without_a_tab_costs_only_its_line(self, tmp_path, capsys):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "talk1.srt", FIGURE_SRT)
        sentences = write(
            tmp_path / "sentences.tsv",
            f"talk1\t{FIGURE_SENTENCE}\nno tab here\ntalk1\t{FIGURE_SENTENCE}\n",
        )
        out = tmp_path / "corpus.txt"
        log = tmp_path / "log.tsv"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(out), "--log", str(log)]
        )
        assert status == 0
        assert out.read_text(encoding="utf-8") == f"{FIGURE_ANNOTATED}\n" * 2
        assert log.read_text(encoding="utf-8").splitlines() == [
            "1\ttalk1\tok\t",
            "2\t\tfailed\texpected 'talk_id<TAB>sentence'",
            "3\ttalk1\tok\t",
        ]
        assert "aligned 2/3" in capsys.readouterr().out

    def test_malformed_srt_costs_only_its_talk(self, tmp_path, capsys):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "talk1.srt", FIGURE_SRT)
        bad = write(srt_dir / "talk2.srt", "1\n00:00:05,000 --> 00:00:01,000\nbackwards cue\n\n")
        sentences = write(
            tmp_path / "sentences.tsv",
            f"talk2\tbackwards cue\ntalk1\t{FIGURE_SENTENCE}\ntalk2\tbackwards\n",
        )
        out = tmp_path / "corpus.txt"
        log = tmp_path / "log.tsv"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(out), "--log", str(log)]
        )
        assert status == 0
        assert out.read_text(encoding="utf-8") == FIGURE_ANNOTATED + "\n"
        entries = [line.split("\t") for line in log.read_text(encoding="utf-8").splitlines()]
        assert [entry[:3] for entry in entries] == [
            ["1", "talk2", "failed"], ["2", "talk1", "ok"], ["3", "talk2", "failed"]
        ]
        for entry in (entries[0], entries[2]):
            assert entry[3].startswith(f"{bad}: ")
            assert "cue ends before it starts" in entry[3]
        captured = capsys.readouterr()
        assert "aligned 1/3" in captured.out
        assert str(bad) in captured.err

    def test_srt_dir_that_is_not_a_directory_fails_before_writing(self, tmp_path, capsys):
        sentences = write(tmp_path / "sentences.tsv", f"talk1\t{FIGURE_SENTENCE}\n")
        missing = tmp_path / "missing"
        out = tmp_path / "corpus.txt"
        status = main(
            ["build-corpus", "--srt-dir", str(missing), "--sentences", str(sentences),
             "--out", str(out), "--log", str(tmp_path / "log.tsv")]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(missing) in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["sentences.tsv"]

    def test_log_corpus_and_messages_of_every_line_kind(self, tmp_path, capsys):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "t1.srt", "1\n00:00:01,000 --> 00:00:02,000\nsome words\n\n")
        bad = write(srt_dir / "t3.srt", "1\n00:00:05,000 --> 00:00:01,000\nbackwards cue\n\n")
        write(srt_dir / "t4.srt", "1\n00:00:01,000 --> 00:00:02,000\nsay <eob> now\n\n")
        unreadable = srt_dir / "t5.srt"
        unreadable.mkdir()
        with pytest.raises(OSError) as raised:
            unreadable.read_text(encoding="utf-8")
        sentences = write(
            tmp_path / "sentences.tsv",
            "t1\tsome words\n\nno tab here\nt2\t   \nt3\tx\nt1\tother\n"
            "t4\tsay <eob> now\nt5\tx\n",
        )
        out = tmp_path / "corpus.txt"
        log = tmp_path / "log.tsv"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(out), "--log", str(log)]
        )
        assert status == 0
        reason = "cue block 1: cue ends before it starts (00:00:05,000 --> 00:00:01,000)"
        assert log.read_text(encoding="utf-8").splitlines() == [
            "1\tt1\tok\t",
            "3\t\tfailed\texpected 'talk_id<TAB>sentence'",
            "4\tt2\tfailed\tempty sentence",
            f"5\tt3\tfailed\t{bad}: {reason}",
            "6\tt1\tfailed\tno in-order tiling of talk 't1' cues reconstructs the sentence",
            "7\tt4\tfailed\tword token '<eob>' collides with a break symbol",
            f"8\tt5\tfailed\t{unreadable}: {raised.value}",
        ]
        assert out.read_text(encoding="utf-8") == "some words <eob>\n"
        captured = capsys.readouterr()
        assert captured.out == "aligned 1/7 sentences\n"
        assert captured.err == (
            f"warning: skipped {bad}: {reason}\nwarning: skipped {unreadable}: {raised.value}\n"
        )

    def test_a_sentence_line_ends_only_at_a_newline(self, tmp_path, capsys):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "talk1.srt", FIGURE_SRT)
        separated = FIGURE_SENTENCE.replace(" ", "\u2028", 1)  # a line separator between words
        sentences = write(
            tmp_path / "sentences.tsv", f"talk1\t{separated}\ntalk1\t{FIGURE_SENTENCE}\n"
        )
        out = tmp_path / "corpus.txt"
        log = tmp_path / "log.tsv"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(out), "--log", str(log)]
        )
        assert status == 0
        assert out.read_text(encoding="utf-8") == f"{FIGURE_ANNOTATED}\n" * 2
        assert log.read_text(encoding="utf-8") == "1\ttalk1\tok\t\n2\ttalk1\tok\t\n"
        assert "aligned 2/2" in capsys.readouterr().out

    def test_bare_carriage_return_in_a_cue_reads_as_a_line_break(self, tmp_path, capsys):
        # .srt files are read with universal newlines, so a cue line never
        # holds a bare carriage return by the time parse_srt sees it
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "t1.srt", "1\n00:00:01,000 --> 00:00:02,000\nfoo\rbar\n")
        sentences = write(tmp_path / "sentences.tsv", "t1\tfoo bar\n")
        out = tmp_path / "corpus.txt"
        log = tmp_path / "log.tsv"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(out), "--log", str(log)]
        )
        assert status == 0
        assert out.read_text(encoding="utf-8") == "foo <eol> bar <eob>\n"
        assert log.read_text(encoding="utf-8") == "1\tt1\tok\t\n"
        assert capsys.readouterr().err == ""

    def test_holds_at_most_two_parsed_talks(self, tmp_path, capsys, monkeypatch):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        for k in range(5):
            write(srt_dir / f"talk{k}.srt", FIGURE_SRT)
        write(srt_dir / "talk2b.srt", "1\n00:00:05,000 --> 00:00:01,000\nbackwards cue\n\n")
        sentences = write(
            tmp_path / "sentences.tsv",
            "".join(f"talk{k}\t{FIGURE_SENTENCE}\n" for k in range(5)) + "talk2b\tbackwards cue\n",
        )
        parsed, parse_srt = [], cli.parse_srt

        def tracked(text, talk_id=""):
            # the talk before the previous one must be gone by the time this one is parsed
            assert all(ref() is None for ref in parsed[:-1]), f"{talk_id}: earlier talks alive"
            doc = parse_srt(text, talk_id=talk_id)
            parsed.append(weakref.ref(doc))
            return doc

        monkeypatch.setattr(cli, "parse_srt", tracked)
        out = tmp_path / "corpus.txt"
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(out)]
        )
        assert status == 0
        assert len(parsed) == 5
        assert out.read_text(encoding="utf-8") == f"{FIGURE_ANNOTATED}\n" * 5
        captured = capsys.readouterr()
        assert "aligned 5/6" in captured.out
        assert "warning: skipped" in captured.err and "talk2b.srt" in captured.err

    def test_every_warning_names_its_talk(self, tmp_path, recwarn):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        for talk in ("talk1", "talk2"):  # a backwards start and a cue with two double-space runs
            write(
                srt_dir / f"{talk}.srt",
                "1\n00:00:05,000 --> 00:00:06,000\nlate cue\n\n"
                "2\n00:00:01,000 --> 00:00:02,000\nearly  one  two\n\n",
            )
        sentences = write(tmp_path / "sentences.tsv", "talk1\tlate cue\ntalk2\tlate cue\n")
        warnings.simplefilter("default")  # as a command line shows them: once per text and place
        status = main(
            ["build-corpus", "--srt-dir", str(srt_dir), "--sentences", str(sentences),
             "--out", str(tmp_path / "corpus.txt")]
        )
        assert status == 0
        backwards = "1 cue(s) start before their predecessor (first: cue 2 after cue 1)"
        runs = "line has 2 double-space split points; keeping only the first"
        assert [(w.category, str(w.message)) for w in recwarn] == [
            (srt_io.NonMonotonicTiming, f"talk 'talk1': {backwards}"),
            (pipeline.AnnotationWarning, f"talk 'talk1', cue 2: {runs}"),
            (srt_io.NonMonotonicTiming, f"talk 'talk2': {backwards}"),
            (pipeline.AnnotationWarning, f"talk 'talk2', cue 2: {runs}"),
        ]


class TestTrainingCommands:
    def test_train_segment_evaluate_loop(self, tmp_path, capsys):
        corpus = synth.make_corpus(40, seed=9)
        corpus_file = write(tmp_path / "corpus.txt", "".join(s.to_text() + "\n" for s in corpus))
        model_file = tmp_path / "model.tsv"
        assert main(
            ["train", "--corpus", str(corpus_file), "--out", str(model_file),
             "--epochs", "3", "--seed", "2"]
        ) == 0
        assert model_file.exists()

        plain_file = write(
            tmp_path / "plain.txt", "".join(strip_breaks(s) + "\n" for s in corpus[:10])
        )
        out_file = tmp_path / "annotated.txt"
        assert main(
            ["segment", "--model", str(model_file), "--in", str(plain_file),
             "--out", str(out_file)]
        ) == 0
        ref_file = write(tmp_path / "ref.txt", "".join(s.to_text() + "\n" for s in corpus[:10]))
        assert main(["evaluate", "--hyp", str(out_file), "--ref", str(ref_file)]) == 0

    def test_fine_tune_filters_to_eol_subset(self, tmp_path, tiny_model_file, capsys):
        corpus = synth.make_corpus(30, seed=10)
        corpus_file = write(tmp_path / "corpus.txt", "".join(s.to_text() + "\n" for s in corpus))
        out_model = tmp_path / "ft.tsv"
        status = main(
            ["fine-tune", "--model", str(tiny_model_file), "--corpus", str(corpus_file),
             "--out", str(out_model), "--epochs", "2", "--seed", "3"]
        )
        assert status == 0
        assert "containing <eol>" in capsys.readouterr().err

    def test_malformed_corpus_line_is_named(self, tmp_path, capsys):
        corpus_file = write(tmp_path / "corpus.txt", "a b <eob>\n\nc <eol> <eob>\n")
        status = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path / "m.tsv")])
        assert status == 1
        assert f"{corpus_file}:3: " in capsys.readouterr().err

    def test_train_names_a_sentence_without_a_final_eob(self, tmp_path, capsys):
        corpus_file = write(tmp_path / "corpus.txt", "a b <eob>\nc d\ne f <eob>\n")
        status = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path / "m.tsv")])
        assert status == 1
        assert f"error: {corpus_file}:2: sentence must end with <eob>" in capsys.readouterr().err
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("command", ["train", "fine-tune"])
    def test_overfull_block_is_named(self, tmp_path, tiny_model_file, capsys, command):
        corpus_file = write(
            tmp_path / "corpus.txt", "a <eol> b <eob>\n\na b <eol> c <eol> d <eob>\n"
        )
        model = ["--model", str(tiny_model_file)] if command == "fine-tune" else []
        status = main(
            [command, *model, "--corpus", str(corpus_file), "--out", str(tmp_path / "m.tsv")]
        )
        assert status == 1
        assert f"error: {corpus_file}:3: block has 3 lines (max 2)" in capsys.readouterr().err
        assert not (tmp_path / "m.tsv").exists()

    def test_fine_tune_checks_only_the_sentences_it_uses(self, tmp_path, tiny_model_file):
        # a line without <eol> is not fine-tuned on, so it is not checked either
        corpus_file = write(tmp_path / "corpus.txt", "a b\nc <eol> d <eob>\n")
        status = main(
            ["fine-tune", "--model", str(tiny_model_file), "--corpus", str(corpus_file),
             "--out", str(tmp_path / "m.tsv"), "--epochs", "1"]
        )
        assert status == 0

    def test_config_file_supplies_defaults(self, tmp_path):
        corpus = synth.make_corpus(20, seed=12)
        corpus_file = write(tmp_path / "corpus.txt", "".join(s.to_text() + "\n" for s in corpus))
        config = write(tmp_path / "config.txt", "epochs = 2\nseed = 5\n")
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(
            ["train", "--corpus", str(corpus_file), "--out", str(out_a), "--config", str(config)]
        ) == 0
        assert main(
            ["train", "--corpus", str(corpus_file), "--out", str(out_b),
             "--epochs", "2", "--seed", "5"]
        ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_fine_tune_reads_fine_tune_epochs_from_config(self, tmp_path, tiny_model_file):
        corpus = synth.make_corpus(30, seed=10)
        corpus_file = write(tmp_path / "corpus.txt", "".join(s.to_text() + "\n" for s in corpus))
        config = write(tmp_path / "config.txt", "fine_tune_epochs = 1\n")
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        common = ["fine-tune", "--model", str(tiny_model_file), "--corpus", str(corpus_file)]
        assert main(common + ["--out", str(out_a), "--config", str(config)]) == 0
        assert main(common + ["--out", str(out_b), "--epochs", "1"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_file_rejects_unknown_keys(self, tmp_path, capsys):
        corpus_file = write(tmp_path / "corpus.txt", "a b <eob>\n")
        config = write(tmp_path / "config.txt", "epochs = 2\nbeam_width = 4\n")
        status = main(
            ["train", "--corpus", str(corpus_file), "--out", str(tmp_path / "m.tsv"),
             "--config", str(config)]
        )
        assert status == 1
        assert "config.txt:2: unknown key 'beam_width'" in capsys.readouterr().err
        assert not (tmp_path / "m.tsv").exists()


class TestReannotateCommand:
    def test_end_to_end(self, tmp_path, capsys):
        corpus, _ = synth.partially_collapsed_corpus(60, seed=33, keep_eol_fraction=0.3)
        corpus_file = write(tmp_path / "corpus.txt", "".join(s.to_text() + "\n" for s in corpus))
        model = train(corpus, TrainingConfig(epochs=4, seed=2))
        model_file = tmp_path / "model.tsv"
        save_model(model, model_file)
        out_file = tmp_path / "out.txt"
        report_file = tmp_path / "report.json"
        status = main(
            ["reannotate", "--corpus", str(corpus_file), "--model", str(model_file),
             "--out", str(out_file), "--iterations", "2", "--epochs", "3",
             "--report", str(report_file), "--seed", "4"]
        )
        assert status == 0
        reports = json.loads(report_file.read_text(encoding="utf-8"))
        assert reports
        assert reports[0]["conformity_after"] >= reports[0]["conformity_before"]
        assert "iteration 1" in capsys.readouterr().out
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(corpus)

    @pytest.mark.parametrize(
        "first",
        [
            "alpha bravo charlie delta echo foxtrot golf hotel india juliet <eob>",
            "alpha bravo <eob>",
        ],
        ids=["over-long first line", "conforming first line"],
    )
    def test_broken_eol_sentence_is_named(self, tmp_path, tiny_model_file, capsys, first):
        # the <eol> sentences are the fine-tuning pool, checked as fine-tune checks them
        corpus_file = write(tmp_path / "c.txt", f"{first}\nw <eol> x <eol> y z <eob>\n")
        out_file = tmp_path / "out.txt"
        status = main(
            ["reannotate", "--corpus", str(corpus_file), "--model", str(tiny_model_file),
             "--out", str(out_file)]
        )
        assert status == 1
        assert capsys.readouterr().err == f"error: {corpus_file}:2: block has 3 lines (max 2)\n"
        assert not out_file.exists()

    def test_lenient_sentence_is_named(self, tmp_path, tiny_model_file, capsys):
        # every sentence is checked as train checks them, not only the <eol> ones
        corpus_file = write(tmp_path / "c.txt", "alpha bravo <eob>\na b c\n")
        out_file = tmp_path / "out.txt"
        status = main(
            ["reannotate", "--corpus", str(corpus_file), "--model", str(tiny_model_file),
             "--out", str(out_file)]
        )
        assert status == 1
        assert capsys.readouterr().err == f"error: {corpus_file}:2: sentence must end with <eob>\n"
        assert not out_file.exists()

    def test_config_learning_rate_reaches_fine_tuning(self, tmp_path):
        corpus, _ = synth.partially_collapsed_corpus(60, seed=33, keep_eol_fraction=0.3)
        corpus_file = write(tmp_path / "corpus.txt", "".join(s.to_text() + "\n" for s in corpus))
        model_file = tmp_path / "model.tsv"
        save_model(train(corpus, TrainingConfig(epochs=2, seed=2)), model_file)
        config = write(tmp_path / "config.txt", "learning_rate = 0.5\n")
        model_out = tmp_path / "tuned.tsv"
        status = main(
            ["reannotate", "--corpus", str(corpus_file), "--model", str(model_file),
             "--out", str(tmp_path / "out.txt"), "--model-out", str(model_out),
             "--epochs", "1", "--config", str(config)]
        )
        assert status == 0
        assert "learning_rate\t0.5\n" in model_out.read_text(encoding="utf-8")

    def test_model_out_is_the_base_model_when_no_iteration_fine_tunes(self, tmp_path, tiny_model_file):
        corpus_file = write(tmp_path / "corpus.txt", "a <eol> b <eob>\nc d <eob>\n")
        model_out = tmp_path / "out.tsv"
        status = main(
            ["reannotate", "--corpus", str(corpus_file), "--model", str(tiny_model_file),
             "--out", str(tmp_path / "out.txt"), "--model-out", str(model_out), "--iterations", "0"]
        )
        assert status == 0
        assert model_out.read_bytes() == tiny_model_file.read_bytes()


class TestSettings:
    """A flag overrides the --config key it is named after, and each command
    reads only its own keys (the README's config table, one row each)."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, tiny_model_file):
        root = tmp_path_factory.mktemp("settings")
        corpus, _ = synth.partially_collapsed_corpus(40, seed=33, keep_eol_fraction=0.3)
        plain = [" ".join(["abcde"] * 40), " ".join(["fghij"] * 30)]
        return {
            "corpus": str(write(root / "corpus.txt", "".join(s.to_text() + "\n" for s in corpus))),
            "plain": str(write(root / "plain.txt", "".join(f"{s}\n" for s in plain))),
            "model": str(tiny_model_file),
        }

    COMMANDS = {
        "train": lambda inputs, out: ["train", "--corpus", inputs["corpus"], "--out", out],
        "fine-tune": lambda inputs, out: [
            "fine-tune", "--model", inputs["model"], "--corpus", inputs["corpus"], "--out", out
        ],
        "segment --count-char": lambda inputs, out: [
            "segment", "--count-char", "--in", inputs["plain"], "--out", out
        ],
        "reannotate": lambda inputs, out: [
            "reannotate", "--model", inputs["model"], "--corpus", inputs["corpus"],
            "--out", out, "--model-out", f"{out}.model", "--report", f"{out}.json",
        ],
    }

    def run(self, tmp_path, capsys, inputs, command, config, flags):
        """Everything the command writes: its stdout and output files."""
        out = tmp_path / "out"
        argv = self.COMMANDS[command](inputs, str(out))
        if config is not None:
            argv += ["--config", str(write(tmp_path / "config.txt", config))]
        assert main([*argv, *flags]) == 0
        written = sorted(tmp_path.glob("out*"))
        files = {path.name: path.read_bytes() for path in written}
        for path in written:
            path.unlink()
        return capsys.readouterr().out, files

    @pytest.mark.parametrize(
        "command, config, flag, fast",
        [
            ("train", "epochs = 1", ["--epochs", "2"], []),
            ("fine-tune", "fine_tune_epochs = 1", ["--epochs", "2"], []),
            ("reannotate", "fine_tune_epochs = 1", ["--epochs", "2"], []),
            ("fine-tune", "learning_rate = 0.5", ["--learning-rate", "2.0"], ["--epochs", "1"]),
            ("segment --count-char", "seed = 1", ["--seed", "2"], []),
            ("reannotate", "iterations = 1", ["--iterations", "2"], ["--epochs", "1"]),
        ],
        ids=[
            "epochs-train", "fine_tune_epochs-fine-tune", "fine_tune_epochs-reannotate",
            "learning_rate-fine-tune", "seed-segment", "iterations-reannotate",
        ],
    )
    def test_a_flag_overrides_its_config_key(
        self, tmp_path, capsys, inputs, command, config, flag, fast
    ):
        # ``fast`` is in every run and only keeps training short
        both = self.run(tmp_path, capsys, inputs, command, config, flag + fast)
        assert both == self.run(tmp_path, capsys, inputs, command, None, flag + fast)
        assert both != self.run(tmp_path, capsys, inputs, command, config, fast)

    @pytest.mark.parametrize(
        "command, ignored_line",
        [
            ("train", "fine_tune_epochs = 1"),
            ("fine-tune", "epochs = 1"),
            ("train", "learning_rate = 0.5"),
        ],
        ids=["train-fine_tune_epochs", "fine-tune-epochs", "train-learning_rate"],
    )
    def test_each_trainer_ignores_the_other_epochs_key(
        self, tmp_path, capsys, inputs, command, ignored_line
    ):
        # and train ignores the learning rate, which only fine-tuning reads
        ignored = self.run(tmp_path, capsys, inputs, command, f"{ignored_line}\n", [])
        assert ignored == self.run(tmp_path, capsys, inputs, command, None, [])


class TestBadSettings:
    @pytest.fixture
    def argv(self, tmp_path, tiny_model_file):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "talk1.srt", FIGURE_SRT)
        sentences = write(tmp_path / "sentences.tsv", f"talk1\t{FIGURE_SENTENCE}\n")
        corpus = str(write(tmp_path / "corpus.txt", "a b <eol> c <eob>\n"))
        plain = str(write(tmp_path / "plain.txt", "a b c\n"))
        model, out = str(tiny_model_file), str(tmp_path / "out" / "out.txt")
        return {
            "build-corpus": ["--srt-dir", str(srt_dir), "--sentences", str(sentences),
                             "--out", out, "--log", f"{out}.log"],
            "train": ["--corpus", corpus, "--out", out],
            "fine-tune": ["--model", model, "--corpus", corpus, "--out", out],
            "segment": ["--count-char", "--in", plain, "--out", out],
            "evaluate": ["--hyp", corpus, "--ref", corpus, "--json", out],
            "stats": ["--corpus", corpus],
            "reannotate": ["--corpus", corpus, "--model", model, "--out", out,
                           "--model-out", f"{out}.model", "--report", f"{out}.json"],
        }

    @pytest.mark.parametrize(
        "command", ["build-corpus", "train", "fine-tune", "segment", "evaluate", "stats", "reannotate"]
    )
    @pytest.mark.parametrize(
        "profile", ["beam_width = 4\n", "cps_limit = nan\n"], ids=["unknown-key", "nan-limit"]
    )
    def test_a_bad_profile_fails_every_command_before_it_writes(
        self, tmp_path, capsys, argv, command, profile
    ):
        (tmp_path / "out").mkdir()
        profile_file = write(tmp_path / "profile.txt", profile)
        assert main([command, *argv[command], "--profile", str(profile_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "flag, key", [("--config", "seed"), ("--profile", "cpl_limit")], ids=["config", "profile"]
    )
    def test_a_repeated_key_is_an_error(self, tmp_path, capsys, argv, flag, key):
        settings = write(tmp_path / "settings.txt", f"{key} = 40\n{key} = 41\n")
        assert main(["stats", *argv["stats"], flag, str(settings)]) == 1
        assert capsys.readouterr().err == f"error: {settings}:2: repeated key {key!r}\n"

    @pytest.mark.parametrize(
        "flag, text, error",
        [
            ("--config", "# seed = 1\n  \nseed 1\n", "3: expected 'key = value', got 'seed 1'"),
            ("--profile", "\n  # limits\ncpl_limit = 4.5\n", "3: bad value for cpl_limit: '4.5'"),
        ],
        ids=["no-equals-sign", "wrong-type"],
    )
    def test_a_bad_settings_line_is_named(self, tmp_path, capsys, argv, flag, text, error):
        # the comment and the blank line are skipped, but still counted
        settings = write(tmp_path / "settings.txt", text)
        assert main(["stats", *argv["stats"], flag, str(settings)]) == 1
        assert capsys.readouterr().err == f"error: {settings}:{error}\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fine_tune_rejects_a_non_finite_learning_rate(
        self, tmp_path, capsys, tiny_model_file, value
    ):
        corpus_file = write(tmp_path / "corpus.txt", "a b <eol> c <eob>\n")
        status = main(
            ["fine-tune", "--model", str(tiny_model_file), "--corpus", str(corpus_file),
             "--out", str(tmp_path / "m.tsv"), "--learning-rate", value]
        )
        assert status == 1
        assert "learning rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m.tsv").exists()


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of any text input is dropped, as
    ``parse_srt`` drops one from an .srt file: each command writes the same
    stdout and files as for the input without it."""

    @pytest.fixture
    def inputs(self, tmp_path):
        srt_dir = tmp_path / "srt"
        srt_dir.mkdir()
        write(srt_dir / "talk1.srt", FIGURE_SRT)
        files = {
            "sentences": f"talk1\t{FIGURE_SENTENCE}\n",
            # a first line of exactly 42 characters, the default line limit
            "corpus": f"{'a' * 42} <eob>\nb c <eol> d <eob>\n",
            "plain": "abcde fghij klmno pqrst uvwxy\n",
            "config": "seed = 3\n",
            "profile": "cpl_limit = 10\n",
            "metadata": "- {duration: 1.0, offset: 0.0, wav: t.wav}\n"
            "- {duration: 2.0, offset: 1.0, wav: t.wav}\n",
        }
        return srt_dir, files

    COMMANDS = {
        "sentences": lambda f, out: [
            "build-corpus", "--srt-dir", f["srt"], "--sentences", f["sentences"],
            "--out", out, "--log", f"{out}.log",
        ],
        "hyp": lambda f, out: ["evaluate", "--hyp", f["corpus"], "--ref", f["plain_corpus"]],
        "corpus": lambda f, out: ["stats", "--corpus", f["corpus"]],
        "in": lambda f, out: ["segment", "--count-char", "--in", f["plain"], "--out", out],
        "config": lambda f, out: [
            "segment", "--count-char", "--in", f["plain"], "--out", out, "--config", f["config"],
        ],
        "profile": lambda f, out: ["stats", "--corpus", f["plain_corpus"], "--profile", f["profile"]],
        "metadata": lambda f, out: [
            "stats", "--corpus", f["plain_corpus"], "--metadata", f["metadata"],
        ],
    }
    # the input file each command reads with or without the mark
    MARKED = {"hyp": "corpus", "in": "plain"}

    def run(self, tmp_path, capsys, inputs, kind, bom):
        srt_dir, texts = inputs
        marked = self.MARKED.get(kind, kind)
        files = {"srt": str(srt_dir)}
        for name, text in texts.items():
            prefix = "\ufeff" if bom and name == marked else ""
            files[name] = str(write(tmp_path / f"{name}.txt", prefix + text))
        files["plain_corpus"] = str(write(tmp_path / "plain_corpus.txt", texts["corpus"]))
        out = tmp_path / "out"
        assert main(self.COMMANDS[kind](files, str(out))) == 0
        written = sorted(tmp_path.glob("out*"))
        outputs = {path.name: path.read_bytes() for path in written}
        for path in written:
            path.unlink()
        return capsys.readouterr().out, outputs

    @pytest.mark.parametrize("kind", list(COMMANDS))
    def test_a_leading_mark_is_dropped(self, tmp_path, capsys, inputs, kind):
        assert self.run(tmp_path, capsys, inputs, kind, bom=True) == self.run(
            tmp_path, capsys, inputs, kind, bom=False
        )


class TestReadme:
    """The README's command lines and config table follow the parser."""

    README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def test_every_command_line_parses(self):
        section = self.README[self.README.index("\n## Command line\n"):]
        block = section.split("```")[1]
        lines = [line.split() for line in block.splitlines() if line.startswith("subseg ")]
        assert lines
        parser = cli.build_parser()
        for argv in lines:
            assert parser.parse_args(argv[1:]).command == argv[1]

    def test_config_table_lists_the_config_keys(self):
        section = self.README[self.README.index("**Pipeline config**"):].splitlines()
        start = next(i for i, line in enumerate(section) if line.startswith("|"))
        rows = []
        for line in section[start + 2:]:  # past the header and its rule
            if not line.startswith("|"):
                break
            rows.append(line.split("|")[1].strip().strip("`"))
        assert sorted(rows) == sorted(cli._CONFIG_KEYS)

    def test_config_table_defaults_are_the_code_defaults(self):
        section = self.README[self.README.index("**Pipeline config**"):].splitlines()
        start = next(i for i, line in enumerate(section) if line.startswith("|"))
        header = [cell.strip() for cell in section[start].split("|")]
        key_column, default_column = header.index("Key"), header.index("Default")
        defaults = {}
        for line in section[start + 2:]:  # past the header and its rule
            if not line.startswith("|"):
                break
            cells = [cell.strip() for cell in line.split("|")]
            defaults[cells[key_column].strip("`")] = cells[default_column]

        def default(function, name):
            return inspect.signature(function).parameters[name].default

        rates = {
            default(segmenters.fine_tune, "learning_rate"),
            default(pipeline.reannotate, "learning_rate"),
        }
        assert len(rates) == 1  # the library's two readers of the key agree
        assert defaults == {
            "epochs": str(segmenters.TrainingConfig().epochs),
            "fine_tune_epochs": str(segmenters.DEFAULT_FINE_TUNE_EPOCHS),
            "learning_rate": str(rates.pop()),
            "seed": str(segmenters.TrainingConfig().seed),
            "iterations": str(default(pipeline.reannotate, "iterations")),
        }
