import os
import subprocess
import sys

import numpy as np
import pytest

from gibbstopics.cli import dispatch, main, parse_args
from gibbstopics.core import Hyperparams


def write_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b a\nc b\nb c a\na a\n")
    (tmp_path / "corpus.LABEL").write_text("X\nY\nY\nX\n")
    return path


class TestParse:
    def test_train_defaults(self, tmp_path):
        cmd = parse_args(["-model", "LDA", "-corpus", "c.txt", "-name", "testLDA"])
        assert cmd.mode == "LDA"
        hp = cmd.hp
        assert (hp.ntopics, hp.alpha, hp.beta, hp.niters, hp.twords, hp.sstep) == (
            20, 0.1, 0.01, 2000, 20, 0)
        assert hp.name == "testLDA"

    def test_dmm_short_text_beta(self):
        cmd = parse_args(["-model", "DMM", "-corpus", "c.txt", "-beta", "0.1", "-name", "testDMM"])
        assert cmd.mode == "DMM"
        assert cmd.hp.beta == 0.1

    def test_eval_requires_prob(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["-model", "Eval", "-label", "L", "-dir", "d"])
        assert exc.value.code != 0

    def test_inf_requires_paras(self):
        with pytest.raises(SystemExit):
            parse_args(["-model", "LDAinf", "-corpus", "c.txt"])

    def test_train_requires_corpus(self):
        with pytest.raises(SystemExit):
            parse_args(["-model", "LDA"])

    def test_unknown_flag(self):
        with pytest.raises(SystemExit):
            parse_args(["-model", "LDA", "-corpus", "c", "-bogus", "1"])

    def test_non_numeric_value(self):
        with pytest.raises(SystemExit):
            parse_args(["-model", "LDA", "-corpus", "c", "-ntopics", "many"])

    @pytest.mark.parametrize("flag,value", [
        ("-alpha", "0"), ("-alpha", "-0.1"), ("-beta", "0"), ("-ntopics", "0"),
        ("-ntopics", str(2**63)),
        ("-alpha", "inf"), ("-beta", "inf"),
        ("-niters", "0"), ("-twords", "-1"), ("-sstep", "-2"),
        ("-name", ""), ("-name", "."), ("-name", ".."), ("-name", "../x"), ("-name", "a/b"),
        ("-seed", "-1"),
    ])
    def test_out_of_range_values(self, flag, value):
        with pytest.raises(SystemExit):
            parse_args(["-model", "LDA", "-corpus", "c", flag, value])

    def test_inf_rejects_model_hyperparams(self):
        with pytest.raises(SystemExit):
            parse_args(["-model", "LDAinf", "-paras", "p", "-corpus", "c", "-alpha", "0.5"])

    def test_order_independent(self):
        a = parse_args(["-model", "LDA", "-corpus", "c", "-ntopics", "5", "-name", "n"])
        b = parse_args(["-name", "n", "-ntopics", "5", "-corpus", "c", "-model", "LDA"])
        assert a == b

    def test_defaults_equal_explicit(self):
        a = parse_args(["-model", "LDA", "-corpus", "c"])
        b = parse_args(["-model", "LDA", "-corpus", "c", "-ntopics", "20", "-alpha", "0.1",
                        "-beta", "0.01", "-niters", "2000", "-twords", "20",
                        "-name", "model", "-sstep", "0"])
        assert a == b

    def test_help_names_every_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # each option's help on its own line
        with pytest.raises(SystemExit):
            parse_args(["-h"])
        out = capsys.readouterr().out
        helps = {line.split()[0]: line for line in out.splitlines() if line.startswith("  -")}
        hp = Hyperparams()
        for name in Hyperparams.__annotations__:
            if name not in ("model", "seed"):  # -model is required; -seed defaults to entropy
                value = getattr(hp, name)
                assert f"(default {value!r}" in helps[f"-{name}"]
                assert f"-{name} {value}" in out.split("defaults:")[1]


class TestDispatch:
    def test_train_and_eval_pipeline(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        assert main(["-model", "LDA", "-corpus", str(corpus), "-name", "tLDA",
                     "-ntopics", "2", "-niters", "30", "-seed", "1"]) == 0
        assert main(["-model", "DMM", "-corpus", str(corpus), "-name", "tDMM",
                     "-ntopics", "2", "-beta", "0.1", "-niters", "30", "-seed", "1"]) == 0
        capsys.readouterr()
        assert main(["-model", "Eval", "-label", str(tmp_path / "corpus.LABEL"),
                     "-dir", str(tmp_path), "-prob", "theta"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # two score lines + mean + stddev
        assert out[0].startswith("tDMM.theta\tpurity=")
        assert out[1].startswith("tLDA.theta\tpurity=")
        assert out[2].startswith("mean\tpurity=")
        assert out[3].startswith("stddev\tpurity=")

    def test_eval_single_file_no_aggregates(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        main(["-model", "LDA", "-corpus", str(corpus), "-name", "tLDA",
              "-ntopics", "2", "-niters", "10", "-seed", "1"])
        capsys.readouterr()
        assert main(["-model", "Eval", "-label", str(tmp_path / "corpus.LABEL"),
                     "-dir", str(tmp_path), "-prob", "tLDA.theta"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1

    def test_eval_needs_no_compiler(self, tmp_path, capsys, empty_kernel_cache, monkeypatch):
        # Eval only reads matrices, so it runs with no cc and no cached library.
        (tmp_path / "corpus.LABEL").write_text("X\nY\nY\n")
        (tmp_path / "m.theta").write_text("0.9 0.1\n0.2 0.8\n0.3 0.7\n")
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        assert main(["-model", "Eval", "-label", str(tmp_path / "corpus.LABEL"),
                     "-dir", str(tmp_path), "-prob", "theta"]) == 0
        assert capsys.readouterr().out.startswith("m.theta\tpurity=1")
        assert not empty_kernel_cache.exists()

    def test_import_and_eval_load_no_hashing_modules(self, tmp_path):
        # secrets (with hmac and _hashlib) costs ~3 ms of start-up that
        # neither Eval nor loading a corpus uses; NumPy (~78 ms) and the
        # compiled library serve only the sampling modes; dataclasses, with
        # the inspect it loads, ~8 ms that the package's records do without.
        # Eval reads its labels and matrices through persistence alone.
        (tmp_path / "corpus.LABEL").write_text("X\nY\n")
        (tmp_path / "m.theta").write_text("0.9 0.1\n0.2 0.8\n")
        code = ("import sys, gibbstopics.cli; "
                "assert gibbstopics.cli.main(sys.argv[1:]) == 0; "
                "loaded = {'secrets', 'hmac', '_hashlib', 'numpy', 'gibbstopics.native', "
                "'dataclasses', 'inspect'}"
                " & set(sys.modules); "
                "assert not loaded, loaded; "
                "ours = {m for m in sys.modules if m.startswith('gibbstopics')}; "
                "assert ours == {'gibbstopics', 'gibbstopics.cli', 'gibbstopics.core', "
                "'gibbstopics.evaluation', 'gibbstopics.persistence'}, ours")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code, "-model", "Eval",
                        "-label", str(tmp_path / "corpus.LABEL"), "-dir", str(tmp_path),
                        "-prob", "theta"], check=True, env=env, capture_output=True)

    @pytest.mark.parametrize("model", ["LDA", "DMM"])
    def test_sampling_runs_load_no_evaluation(self, tmp_path, model):
        # Only Eval computes purity and NMI: a sampling run does not import
        # (or, without bytecode, compile) gibbstopics.evaluation. Nor does it
        # import dataclasses, which builds each class's methods from source.
        corpus = write_corpus(tmp_path)
        code = ("import sys, gibbstopics.cli; "
                "assert gibbstopics.cli.main(sys.argv[1:]) == 0; "
                "assert 'gibbstopics.evaluation' not in sys.modules; "
                "assert 'dataclasses' not in sys.modules")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code, "-model", model, "-corpus", str(corpus),
                        "-ntopics", "2", "-niters", "1", "-seed", "1"],
                       check=True, env=env, capture_output=True)

    def test_unreadable_corpus_diagnostic(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert main(["-model", "LDA", "-corpus", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "nope.txt" in err

    def test_invalid_utf8_diagnostic(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        corpus.write_bytes(b"a b\nc \xff b\n")
        assert main(["-model", "LDA", "-corpus", str(corpus)]) == 1
        assert f"error: invalid UTF-8 at line 2 in corpus file {corpus}" in capsys.readouterr().err
        label = tmp_path / "corpus.LABEL"
        label.write_bytes(b"X\n\xff\n")
        assert main(["-model", "Eval", "-label", str(label), "-dir", str(tmp_path),
                     "-prob", "theta"]) == 1
        assert f"error: invalid UTF-8 at line 2 in label file {label}" in capsys.readouterr().err

    def test_inference_via_cli(self, tmp_path):
        corpus = write_corpus(tmp_path)
        main(["-model", "LDA", "-corpus", str(corpus), "-name", "tLDA",
              "-ntopics", "2", "-niters", "30", "-seed", "1"])
        unseen = tmp_path / "unseen.txt"
        unseen.write_text("a b\nc c\n")
        assert main(["-model", "LDAinf", "-paras", str(tmp_path / "tLDA.paras"),
                     "-corpus", str(unseen), "-niters", "20", "-name", "tLDAinf",
                     "-seed", "2"]) == 0
        for suffix in ("theta", "phi", "topWords", "topicAssignments", "paras"):
            assert (tmp_path / f"tLDAinf.{suffix}").is_file()

    def test_inference_refuses_to_overwrite_its_model(self, tmp_path, capsys):
        # both runs default to -name model and write next to their corpus
        corpus = write_corpus(tmp_path)
        main(["-model", "LDA", "-corpus", str(corpus), "-ntopics", "2", "-niters", "5", "-seed", "1"])
        trained = {p.name: p.read_bytes() for p in tmp_path.glob("model.*")}
        assert len(trained) == 5
        unseen = tmp_path / "unseen.txt"
        unseen.write_text("a b\nc c\n")
        assert main(["-model", "LDAinf", "-paras", str(tmp_path / "model.paras"),
                     "-corpus", str(unseen), "-niters", "5"]) == 1
        err = capsys.readouterr().err
        assert "model.paras" in err and "-name" in err
        assert {p.name: p.read_bytes() for p in tmp_path.glob("model.*")} == trained

    @pytest.mark.parametrize("model", ["LDA", "DMM", "LDAinf", "DMMinf"])
    def test_corpus_path_with_line_break_refused(self, tmp_path, capsys, model):
        # .paras stores the corpus path on one line, so it could not be replayed
        args = ["-model", model, "-niters", "1", "-name", "out"]
        if model.endswith("inf"):
            assert main(["-model", model[:3], "-corpus", str(write_corpus(tmp_path)),
                         "-ntopics", "2", "-niters", "1", "-seed", "1"]) == 0
            args += ["-paras", str(tmp_path / "model.paras")]
        before = set(tmp_path.iterdir())
        corpus = tmp_path / "c\nx.txt"
        corpus.write_text("a b\nc a\n")
        capsys.readouterr()
        assert main([*args, "-corpus", str(corpus)]) == 1
        assert f"corpus path {str(corpus)!r} holds a line break" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before | {corpus}

    @pytest.mark.parametrize("model", ["LDA", "DMM", "LDAinf", "DMMinf"])
    @pytest.mark.parametrize("ntopics", [4 * 10**18, 10**11], ids=["size-past-int64", "out-of-memory"])
    def test_huge_ntopics_refused_before_any_write(self, tmp_path, capsys, monkeypatch, model,
                                                   ntopics):
        # 4e18 topics make a table too large for numpy to size. For 1e11, a
        # MemoryError stands in for numpy's: a real multi-TiB request can
        # succeed under overcommit and then exhaust the machine's memory.
        corpus = write_corpus(tmp_path)
        args = ["-model", model, "-corpus", str(corpus), "-niters", "1", "-name", "out"]
        if model.endswith("inf"):  # the ntopics of a trained model's .paras
            assert main(["-model", model[:3], "-corpus", str(corpus), "-ntopics", "2",
                         "-niters", "1", "-seed", "1"]) == 0
            paras = tmp_path / "model.paras"
            paras.write_text(paras.read_text().replace("ntopics=2\n", f"ntopics={ntopics}\n"))
            args += ["-paras", str(paras)]
        else:
            args += ["-ntopics", str(ntopics)]
        if ntopics == 10**11:
            def bincount(x, minlength=0, real=np.bincount):
                if minlength >= ntopics:
                    raise MemoryError
                return real(x, minlength=minlength)
            monkeypatch.setattr(np, "bincount", bincount)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert main(args) == 1
        # K x V: the first table every model builds (LDA's D x K only at a save)
        assert (f"error: ntopics is too large: its {ntopics} x 3 count table "
                "cannot be allocated" in capsys.readouterr().err)
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("sstep", ["0", "1"])
    def test_theta_count_table_refused_before_any_write(self, tmp_path, capsys, monkeypatch,
                                                       sstep):
        # LDA counts its D x K table from z only for theta, at each save. With
        # D=4, K=5 and V=3 the K x V table fits and the D x K one does not, so
        # the first save (iteration 1's save point with -sstep 1) refuses
        # before it writes.
        corpus = write_corpus(tmp_path)

        def bincount(x, minlength=0, real=np.bincount):
            if minlength >= 4 * 5:
                raise MemoryError
            return real(x, minlength=minlength)
        monkeypatch.setattr(np, "bincount", bincount)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert main(["-model", "LDA", "-corpus", str(corpus), "-ntopics", "5", "-niters", "2",
                     "-sstep", sstep, "-name", "out"]) == 1
        assert ("error: ntopics is too large: its 4 x 5 count table cannot be allocated"
                in capsys.readouterr().err)
        assert set(tmp_path.iterdir()) == before

    def test_inf_model_kind_mismatch(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        main(["-model", "DMM", "-corpus", str(corpus), "-name", "tDMM",
              "-ntopics", "2", "-niters", "10", "-seed", "1"])
        unseen = tmp_path / "unseen.txt"
        unseen.write_text("a b\n")
        assert main(["-model", "LDAinf", "-paras", str(tmp_path / "tDMM.paras"),
                     "-corpus", str(unseen), "-niters", "5"]) == 1
        assert "DMM" in capsys.readouterr().err

    def test_seed_flag_reproducible(self, tmp_path):
        corpus = write_corpus(tmp_path)
        blobs = []
        for _ in range(2):
            main(["-model", "LDA", "-corpus", str(corpus), "-name", "t",
                  "-ntopics", "2", "-niters", "25", "-seed", "7"])
            blobs.append((tmp_path / "t.theta").read_bytes())
        assert blobs[0] == blobs[1]


class TestExitPath:
    """`python -m gibbstopics.cli`, which runs entry_point: main, a flush of
    stdout and stderr, then os._exit. PYTHONUNBUFFERED is removed, so stdout
    is block-buffered as in a user's redirect and the flush at exit is what
    delivers it. Each exit status is the one sys.exit(main()) gave."""

    LDA = ["-model", "LDA", "-ntopics", "2", "-niters", "4", "-sstep", "2", "-name", "t",
           "-seed", "1"]

    @staticmethod
    def run(args, cwd, wrapper=(), **streams):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        return subprocess.run([*wrapper, sys.executable, "-m", "gibbstopics.cli", *args],
                              cwd=cwd, env=env, stdin=subprocess.DEVNULL, timeout=300, **streams)

    def lda_args(self, tmp_path):
        return [*self.LDA, "-corpus", str(write_corpus(tmp_path))]

    @staticmethod
    def outputs(tmp_path):
        return {p.name: p.read_bytes() for p in tmp_path.glob("t.*")}

    @pytest.mark.parametrize("to", ["pipe", "file"])
    def test_lda_run_writes_what_main_does(self, tmp_path, capsys, to):
        args = self.lda_args(tmp_path)
        assert main(args) == 0
        out, expected = capsys.readouterr().out, self.outputs(tmp_path)
        assert out.count("\n") == 2  # the -sstep save, then the final one
        for path in expected:
            (tmp_path / path).unlink()
        if to == "pipe":
            proc = self.run(args, tmp_path, capture_output=True)
            stdout = proc.stdout
        else:
            with open(tmp_path / "stdout", "wb") as f:
                proc = self.run(args, tmp_path, stdout=f, stderr=subprocess.PIPE)
            stdout = (tmp_path / "stdout").read_bytes()
        assert (proc.returncode, stdout, proc.stderr) == (0, out.encode(), b"")
        assert self.outputs(tmp_path) == expected
        assert len(expected) == 10 and not list(tmp_path.glob("*.tmp"))

    def test_tool_error_exits_1_with_one_error_line(self, tmp_path):
        proc = self.run([*self.LDA, "-corpus", "nope.txt"], tmp_path, capture_output=True)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: cannot read corpus file nope.txt")
        assert proc.stderr.count(b"\n") == 1

    def test_argparse_error_exits_2(self, tmp_path):
        proc = self.run(["-model", "LDA"], tmp_path, capture_output=True)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.endswith(b"gibbstopics: error: -corpus is required with -model LDA\n")

    def test_closed_stdout_exits_0(self, tmp_path):
        # With fd 1 closed, sys.stdout is None: print writes nothing, and the
        # flush at exit skips it.
        proc = self.run(self.lda_args(tmp_path), tmp_path, capture_output=True,
                        wrapper=("sh", "-c", 'exec "$@" >&-', "sh"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert len(self.outputs(tmp_path)) == 10

    def test_broken_pipe_exits_120(self, tmp_path):
        # The buffered lines meet a pipe with no reader only at the flush. The
        # run then leaves through sys.exit, whose own flush fails again: the
        # interpreter reports that once, as an ignored exception, and exits 120.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.run(self.lda_args(tmp_path), tmp_path, stdout=write,
                            stderr=subprocess.PIPE)
        finally:
            os.close(write)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 120
        assert len(lines) == 2 and lines[0].startswith("Exception ignored")
        assert lines[1] == "BrokenPipeError: [Errno 32] Broken pipe"
        assert len(self.outputs(tmp_path)) == 10
