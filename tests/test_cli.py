import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motionfuse import cli, synthdata, training
from motionfuse.checkpoint import load_model
from motionfuse.model import ModelConfig
from motionfuse.synthdata import load_dataset, manifest_path

MICRO_MODEL = {"ngf": 4, "latent_c": 8, "latent_m": 16, "scales": 2, "kernel_size": 3}
MICRO_CONFIG = json.dumps(
    {
        "model": MICRO_MODEL,
        "train": {"iterations": 4, "batch_size": 4},
        "optimizer": {"alpha": 1e-3, "beta1": 0.9},
    }
)
# the one key that train --classifier reads
MICRO_CLASSIFIER_MODEL = {"ngf": 4}
MICRO_MODEL_CONFIG = json.dumps({"model": MICRO_CLASSIFIER_MODEL})


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.smv"
    rc = cli.main(
        [
            "gen-data",
            "--classes",
            "2",
            "--clips-per-class",
            "4",
            "--frames",
            "5",
            "--size",
            "16",
            "--seed",
            "7",
            "--out",
            str(data),
        ]
    )
    assert rc == 0
    ckpt = root / "model.tsvc"
    rc = cli.main(
        ["train", "--data", str(data), "--seed", "3", "--config", MICRO_CONFIG, "--out", str(ckpt)]
    )
    assert rc == 0
    cls_ckpt = root / "cls.tsvc"
    rc = cli.main(
        [
            "train",
            "--data",
            str(data),
            "--classifier",
            "--iters",
            "30",
            "--seed",
            "3",
            "--config",
            MICRO_MODEL_CONFIG,
            "--out",
            str(cls_ckpt),
        ]
    )
    assert rc == 0
    return {"root": root, "data": data, "ckpt": ckpt, "cls": cls_ckpt}


class TestGenData:
    def test_writes_container_and_manifest(self, workspace):
        assert workspace["data"].exists()
        doc = json.loads(manifest_path(workspace["data"]).read_text())
        assert len(doc["clips"]) == 8

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.smv", "b.smv"):
            out = tmp_path / name
            rc = cli.main(
                [
                    "gen-data",
                    "--classes",
                    "2",
                    "--clips-per-class",
                    "2",
                    "--frames",
                    "4",
                    "--size",
                    "16",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_named_classes(self, tmp_path):
        out = tmp_path / "named.smv"
        rc = cli.main(
            [
                "gen-data",
                "--classes",
                "rotate,static",
                "--clips-per-class",
                "2",
                "--frames",
                "4",
                "--size",
                "16",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert load_dataset(out).classes == ["rotate", "static"]

    def test_missing_out_is_validation_error(self):
        assert cli.main(["gen-data", "--classes", "2"]) == 1

    @pytest.mark.parametrize(
        "classes, message",
        [
            ("", "need at least one motion class, got []"),
            (",", "need at least one motion class, got []"),
            ("rotate,rotate", "motion class 'rotate' named twice in ['rotate', 'rotate']"),
        ],
    )
    def test_empty_or_repeated_class_names_are_rejected(self, classes, message, tmp_path,
                                                         capsys):
        out = tmp_path / "d.smv"
        assert cli.main(["gen-data", "--classes", classes, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_too_many_frames_for_the_size_is_rejected_up_front(self, tmp_path, capsys):
        out = tmp_path / "d.smv"
        assert cli.main(["gen-data", "--size", "16", "--out", str(out)]) == 1
        assert "at most 6 frames fit at 16 px" in capsys.readouterr().err
        assert not out.exists()


class TestTrainRolloutEval:
    def test_checkpoint_config_written(self, workspace):
        cfg = load_model(workspace["ckpt"]).config
        assert cfg == ModelConfig(**MICRO_MODEL, classes=2, size=16, channels=1)
        assert not list(workspace["root"].glob("*.config.json"))

    def test_rollout_of_a_three_class_model_keeps_its_classes(self, tmp_path):
        data, ckpt = tmp_path / "d.smv", tmp_path / "m.tsvc"
        rc = cli.main(["gen-data", "--classes", "rotate,static,diagonal", "--clips-per-class",
                       "2", "--frames", "4", "--size", "16", "--out", str(data)])
        assert rc == 0
        train = ["train", "--config", MICRO_CONFIG, "--data", str(data), "--out"]
        assert cli.main(train + [str(ckpt)]) == 0
        # over the dataset the model learnt from: the rollout's manifest replaces its own
        rc = cli.main(["rollout", "--ckpt", str(ckpt), "--action", "2", "--count", "2",
                       "--frames", "4", "--out", str(data)])
        assert rc == 0
        ds = load_dataset(data)
        assert ds.classes == ["class-0", "class-1", "class-2"]
        assert ds.labels.tolist() == [2, 2]
        assert (ds.train_ids, ds.test_ids) == ([0, 1], [])
        assert cli.main(train + [str(tmp_path / "again.tsvc")]) == 0

    def test_stale_manifest_beside_a_rollout_is_a_one_line_error(self, workspace, tmp_path,
                                                                  capsys, monkeypatch):
        data = tmp_path / "d.smv"
        rc = cli.main(["gen-data", "--classes", "2", "--clips-per-class", "4", "--frames", "4",
                       "--size", "16", "--out", str(data)])
        assert rc == 0

        def open_but_the_manifest(path, mode="r", *args, **kwargs):
            if ".manifest.json" in str(path):
                raise OSError(28, "No space left on device")
            return open(path, mode, *args, **kwargs)

        # the rollout replaces the container, then fails to replace its manifest
        monkeypatch.setattr(synthdata, "open", open_but_the_manifest, raising=False)
        rc = cli.main(["rollout", "--ckpt", str(workspace["ckpt"]), "--count", "2",
                       "--frames", "4", "--out", str(data)])
        monkeypatch.undo()
        assert rc == 2
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data), "--config", MICRO_CONFIG,
                       "--out", str(tmp_path / "t.tsvc")])
        err = capsys.readouterr().err
        assert rc == 1
        assert_clean_failure(rc, err)
        assert str(manifest_path(data)) in err and "lists 8 clips" in err
        assert not (tmp_path / "t.tsvc").exists()

    def test_rollout_writes_clips(self, workspace):
        out = workspace["root"] / "gen.smv"
        rc = cli.main(
            [
                "rollout",
                "--ckpt",
                str(workspace["ckpt"]),
                "--count",
                "4",
                "--frames",
                "5",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        ds = load_dataset(out)
        assert ds.clips.shape == (4, 5, 1, 16, 16)

    def test_eval_reports_metrics_json(self, workspace, capsys):
        out = workspace["root"] / "report.json"
        rc = cli.main(
            [
                "eval",
                "--data",
                str(workspace["data"]),
                "--classifier-ckpt",
                str(workspace["cls"]),
                "--split",
                "all",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"K", "N", "inter_entropy", "mean_intra_entropy", "inception_score"}
        assert doc["N"] == 8

    def test_classifier_defaults_come_from_classifier_config(self, workspace, monkeypatch):
        from motionfuse import model, training
        from motionfuse.tensor import SeededRng

        seen = {}

        def fake_train(dataset, mcfg, ccfg):
            seen["ccfg"] = ccfg
            return model.build_classifier(mcfg, SeededRng(0))

        monkeypatch.setattr(training, "train_classifier", fake_train)
        out = workspace["root"] / "cls_defaults.tsvc"
        rc = cli.main(
            [
                "train",
                "--data",
                str(workspace["data"]),
                "--classifier",
                "--seed",
                "4",
                "--config",
                MICRO_MODEL_CONFIG,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        defaults = training.ClassifierConfig()
        assert seen["ccfg"].iterations == defaults.iterations
        assert seen["ccfg"].batch_size == defaults.batch_size
        assert seen["ccfg"].shift == defaults.shift
        assert seen["ccfg"].seed == 4

    def test_eval_of_every_clip_holds_one_copy_of_the_dataset(self, tmp_path, capsys):
        # the scored clips are read by index from the loaded dataset: the
        # traced peak stays near the one copy the loader holds. 400 clips,
        # as scoring one clip holds about 0.6 MB of classifier caches
        import tracemalloc

        from motionfuse import checkpoint, model
        from motionfuse.tensor import SeededRng

        data, cls = tmp_path / "d.smv", tmp_path / "cls.tsvc"
        synthdata.gen_dataset(4, 100, 11, synthdata.ClipSpec(frames=10, size=32), data)
        cfg = ModelConfig()
        checkpoint.save_classifier(cls, model.build_classifier(cfg, SeededRng(5)), cfg)
        argv = ["eval", "--data", str(data), "--classifier-ckpt", str(cls), "--split", "all"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["N"] == 400
        size = data.stat().st_size
        assert peak < 1.1 * size, (peak, size)

    def test_missing_checkpoint_is_io_or_validation_error(self, workspace):
        rc = cli.main(
            ["rollout", "--ckpt", "/nonexistent/x.tsvc", "--out", "/tmp/x.smv"]
        )
        assert rc in (1, 2)


class TestGradcheckCommand:
    def test_single_op(self, capsys):
        rc = cli.main(["gradcheck", "--op", "mask_blend", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mask_blend" in out and "PASS" in out

    def test_unknown_op(self, capsys):
        assert cli.main(["gradcheck", "--op", "bogus"]) == 1


class TestBenchCommand:
    def test_csv_rows_per_mode_and_n(self, workspace, capsys):
        out = workspace["root"] / "bench.csv"
        rc = cli.main(
            [
                "bench",
                "--modes",
                "dense,separable",
                "--n",
                "3,5",
                "--scales",
                "8",
                "--reps",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("case,n,S,mode")
        assert len(lines) == 5


class TestExportFrames:
    def test_writes_pgm_files(self, workspace):
        out_dir = workspace["root"] / "frames"
        rc = cli.main(
            [
                "export-frames",
                "--data",
                str(workspace["data"]),
                "--clips",
                "0,1",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        files = sorted(out_dir.glob("*.pgm"))
        assert len(files) == 10
        assert files[0].read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_truncated_header_is_a_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "f.smv"
        data.write_bytes(b"SMV1\x01\x00")
        rc = cli.main(["export-frames", "--data", str(data), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and str(data) in err and "6 bytes" in err

    def test_bad_index(self, workspace, tmp_path):
        rc = cli.main(
            [
                "export-frames",
                "--data",
                str(workspace["data"]),
                "--clips",
                "99",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert cli.main(["gen-data", "--bogus-flag", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: motionfuse [-h]") and "{gen-data," in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--n", "5,x"],
            ["rollout", "--ckpt", "m.tsvc", "--out", "r.smv", "--frames", "x"],
            ["gen-data", "--out", "d.smv", "--bogus-flag", "1"],
            ["train", "--data", "d.smv", "--out", "m.tsvc", "--iters"],
        ],
    )
    def test_subcommand_error_shows_the_subcommand_usage(self, argv, capsys, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: motionfuse {argv[0]} [-h]")
        assert "{gen-data," not in err
        assert_clean_failure(1, err)
        assert list(tmp_path.iterdir()) == []

    def test_io_error_exit_code(self, tmp_path):
        rc = cli.main(
            [
                "gen-data",
                "--classes",
                "2",
                "--clips-per-class",
                "1",
                "--frames",
                "4",
                "--size",
                "16",
                "--out",
                str(tmp_path / "missing_dir" / "x.smv"),
            ]
        )
        assert rc == 2


def assert_clean_failure(rc, err):
    """Exit 1 or 2 with exactly one `error:` line, the last one, and no traceback."""
    assert rc in (1, 2)
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:]


class TestInputContract:
    """Each subcommand fails with a one-line error, never a traceback, on a
    malformed train --config, a missing input file, an input of the wrong
    kind and a flag it does not read; train also on a --config part it would
    ignore."""

    # subcommand -> (flag naming its input file, or None, argv that runs it)
    def commands(self, workspace, tmp_path):
        data, ckpt, cls = str(workspace["data"]), str(workspace["ckpt"]), str(workspace["cls"])
        return {
            "gen-data": (None, ["gen-data", "--classes", "2", "--clips-per-class", "1",
                                "--frames", "4", "--size", "16", "--out", str(tmp_path / "g.smv")]),
            "train": ("--data", ["train", "--data", data, "--config", MICRO_CONFIG,
                                 "--out", str(tmp_path / "t.tsvc")]),
            "rollout": ("--ckpt", ["rollout", "--ckpt", ckpt, "--count", "1", "--frames", "2",
                                   "--out", str(tmp_path / "r.smv")]),
            "eval": ("--classifier-ckpt", ["eval", "--data", data, "--classifier-ckpt", cls]),
            "gradcheck": (None, ["gradcheck", "--op", "relu", "--seeds", "1"]),
            "bench": (None, ["bench", "--n", "3", "--scales", "8", "--reps", "3"]),
            "export-frames": ("--data", ["export-frames", "--data", data,
                                         "--out", str(tmp_path / "frames")]),
        }

    # a file each subcommand that reads one must refuse as its input;
    # gen-data, gradcheck and bench read no input file
    WRONG_KIND = {
        "train": "ckpt",
        "rollout": "data",
        "eval": "ckpt",  # a next-frame model where a classifier belongs
        "export-frames": "ckpt",
    }

    @staticmethod
    def with_input(argv, flag, value):
        argv = list(argv)
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        return argv

    def run(self, argv, capsys):
        capsys.readouterr()
        rc = cli.main(argv)
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["bench", "eval", "export-frames", "gen-data", "gradcheck", "rollout", "train"]
    )
    def test_commands_run_as_given(self, command, workspace, tmp_path, capsys):
        # so that each failure below comes from the one input it changes
        _, argv = self.commands(workspace, tmp_path)[command]
        assert self.run(argv, capsys)[0] == 0

    @pytest.mark.parametrize("bad", ['{"model": ', '{"model": {}}}'])  # cut short; trailing data
    def test_malformed_config(self, bad, workspace, tmp_path, capsys):
        _, argv = self.commands(workspace, tmp_path)["train"]
        rc, err = self.run(self.with_input(argv, "--config", bad), capsys)
        assert rc == 1
        assert_clean_failure(rc, err)

    def test_config_file_of_the_wrong_kind(self, workspace, tmp_path, capsys):
        _, argv = self.commands(workspace, tmp_path)["train"]
        rc, err = self.run(self.with_input(argv, "--config", str(workspace["data"])), capsys)
        assert rc == 1
        assert_clean_failure(rc, err)

    @pytest.mark.parametrize("command", sorted(WRONG_KIND))
    def test_missing_input_file(self, command, workspace, tmp_path, capsys):
        flag, argv = self.commands(workspace, tmp_path)[command]
        missing = str(tmp_path / "absent" / "input")
        rc, err = self.run(self.with_input(argv, flag, missing), capsys)
        assert_clean_failure(rc, err)
        assert "absent" in err

    @pytest.mark.parametrize("command", sorted(WRONG_KIND))
    def test_input_of_the_wrong_kind(self, command, workspace, tmp_path, capsys):
        flag, argv = self.commands(workspace, tmp_path)[command]
        wrong = str(workspace[self.WRONG_KIND[command]])
        rc, err = self.run(self.with_input(argv, flag, wrong), capsys)
        assert rc == 1
        assert_clean_failure(rc, err)

    # a flag the subcommand would ignore, so no longer takes
    DELETED = [
        ("gen-data", "--config", "{}"),
        ("rollout", "--config", "{}"),
        ("eval", "--seed", "4"),
        ("eval", "--config", "{}"),
        ("gradcheck", "--seed", "99"),
        ("gradcheck", "--config", "{}"),
        ("bench", "--config", "{}"),
        ("bench", "--csv", "a.csv"),
        ("export-frames", "--seed", "1"),
        ("export-frames", "--config", "{}"),
    ]

    @pytest.mark.parametrize("command, flag, value", DELETED)
    def test_deleted_flag_is_rejected(self, command, flag, value, workspace, tmp_path,
                                      capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a relative --csv path would land
        _, argv = self.commands(workspace, tmp_path)[command]
        argv = self.with_input(argv, "--out", str(tmp_path / "out")) + [flag, value]
        rc, err = self.run(argv, capsys)
        assert rc == 1
        assert_clean_failure(rc, err)
        assert flag in err.strip().splitlines()[-1]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config, flags, named",
        [
            ({"trian": {}}, [], "'trian'"),
            ({"model": {**MICRO_MODEL, "size": 64}}, [], "model.size"),
            ({"model": MICRO_MODEL, "train": {"seed": 1}}, [], "train.seed"),
            ({"model": []}, [], "'model'"),
            ([1, 2], [], "JSON object"),
            ({"model": MICRO_CLASSIFIER_MODEL, "train": {"iterations": 5}}, ["--classifier"],
             "'train'"),
            ({"model": MICRO_CLASSIFIER_MODEL}, ["--classifier", "--log-every", "5"],
             "--log-every"),
            *[({"model": {**MICRO_CLASSIFIER_MODEL, key: MICRO_MODEL[key]}}, ["--classifier"],
               f"model.{key}") for key in ("latent_c", "latent_m", "scales", "kernel_size")],
        ],
    )
    def test_train_rejects_config_it_would_ignore(self, config, flags, named, workspace,
                                                  tmp_path, capsys):
        _, argv = self.commands(workspace, tmp_path)["train"]
        argv = self.with_input(argv, "--config", json.dumps(config)) + flags
        rc, err = self.run(argv + ["--iters", "1", "--batch", "2"], capsys)
        assert rc == 1
        assert_clean_failure(rc, err)
        assert named in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag, value",
        [("export-frames", "--clips", ""), ("bench", "--n", "5,x"), ("bench", "--scales", ""),
         ("bench", "--channels", "0"), ("bench", "--channels", "-2"),
         ("bench", "--scales", "0"), ("bench", "--scales", "8,-1")],
    )
    def test_bad_flag_value_names_its_flag(self, command, flag, value, workspace, tmp_path,
                                             capsys):
        _, argv = self.commands(workspace, tmp_path)[command]
        argv = self.with_input(self.with_input(argv, flag, value), "--out", str(tmp_path / "out"))
        rc, err = self.run(argv, capsys)
        assert rc == 1
        assert_clean_failure(rc, err)
        assert flag in err.strip().splitlines()[-1]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "train_section",
        [
            {"weights": {"l1": 1}},
            {"optimizer": {"beta1": 0.9}},
            {"content_steps": 0, "motion_steps": 0},
            {"scheduled_sampling": True},
            {"batch_size": 0},
        ],
    )
    def test_train_config_it_cannot_run(self, train_section, workspace, tmp_path, capsys):
        out = tmp_path / "t.tsvc"
        config = json.dumps({"train": train_section})
        rc, err = self.run(
            ["train", "--data", str(workspace["data"]), "--config", config, "--out", str(out)],
            capsys,
        )
        assert rc == 1
        assert_clean_failure(rc, err)
        assert not out.exists()

    @pytest.mark.parametrize("model_section", [{"kernel_size": 4}, {"scales": 0}, {"ngf": 0}])
    def test_model_config_it_cannot_run_fails_before_training(
        self, model_section, workspace, tmp_path, capsys, monkeypatch
    ):
        steps = []
        monkeypatch.setattr(training.Trainer, "train_step", lambda self: steps.append(1))
        out = tmp_path / "t.tsvc"
        config = json.dumps({"model": model_section})
        rc, err = self.run(
            ["train", "--data", str(workspace["data"]), "--config", config, "--out", str(out)],
            capsys,
        )
        assert rc == 1
        assert_clean_failure(rc, err)
        assert next(iter(model_section)) in err
        assert steps == [] and not out.exists()

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"model": {"ngf": "8"}}, "model.ngf"),
            ({"model": {"ngf": True}}, "model.ngf"),
            ({"optimizer": {"alpha": "x"}}, "optimizer.alpha"),
            ({"train": {"crop_jitter": 1.5}}, "train.crop_jitter"),
            ({"train": {"content_steps": 0.5, "motion_steps": 0}}, "train.content_steps"),
            ({"optimizer": {"eps": -1}}, "'optimizer': eps"),
            ({"optimizer": {"alpha": float("nan")}}, "optimizer.alpha"),
            ({"weights": {"l1": float("inf")}}, "weights.l1"),
        ],
    )
    def test_bad_config_value_names_its_key_before_training(
        self, config, named, workspace, tmp_path, capsys, monkeypatch
    ):
        steps = []
        monkeypatch.setattr(training.Trainer, "train_step", lambda self: steps.append(1))
        out = tmp_path / "t.tsvc"
        rc, err = self.run(
            ["train", "--data", str(workspace["data"]), "--config", json.dumps(config),
             "--iters", "2", "--batch", "2", "--out", str(out)],
            capsys,
        )
        assert rc == 1
        assert_clean_failure(rc, err)
        assert named in err.strip().splitlines()[-1]
        assert steps == [] and not out.exists()

    def test_negative_log_every_is_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "t.tsvc"
        rc, err = self.run(
            ["train", "--data", str(workspace["data"]), "--config", MICRO_CONFIG,
             "--iters", "2", "--batch", "2", "--log-every", "-1", "--out", str(out)],
            capsys,
        )
        assert rc == 1
        assert_clean_failure(rc, err)
        assert "--log-every" in err.strip().splitlines()[-1]
        assert not out.exists()

    def test_process_stderr_has_no_traceback(self, workspace, tmp_path):
        config = json.dumps({"train": {"weights": {"l1": 1}}})
        argv = ["train", "--data", str(workspace["data"]), "--config", config,
                "--out", str(tmp_path / "t.tsvc")]
        proc = subprocess.run([sys.executable, "-m", "motionfuse", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert_clean_failure(proc.returncode, proc.stderr)
        assert "weights must be a LossWeights" in proc.stderr


class TestConfigSections:
    """A train --config section overrides only the keys it names; the others
    keep the desk run's TrainConfig values, not the published dataclass
    defaults of OptimizerConfig and LossWeights."""

    @pytest.mark.parametrize(
        "sections",
        [
            {"optimizer": {"alpha": 0.002}},  # keeps beta1 0.9, not the published 0.5
            {"weights": {"l1": 10000.0}},  # keeps l2 0.5 and l5 0 -> 5 after half the run
            {"optimizer": {"beta1": 0.9}, "weights": {"l5_end": 5.0}},
        ],
    )
    def test_restating_desk_values_writes_the_same_checkpoint(self, sections, workspace,
                                                              tmp_path):
        def train(out, extra):
            config = json.dumps({"model": MICRO_MODEL, **extra})
            argv = ["train", "--data", str(workspace["data"]), "--iters", "5", "--batch", "4",
                    "--seed", "3", "--config", config, "--out", str(out)]
            assert cli.main(argv) == 0
            return out.read_bytes()

        assert train(tmp_path / "restated.tsvc", sections) == train(tmp_path / "plain.tsvc", {})


class TestRangeErrors:
    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_gradcheck_without_seeds_fails(self, seeds, capsys):
        rc = cli.main(["gradcheck", "--op", "relu", "--seeds", seeds])
        out, err = capsys.readouterr()
        assert rc == 1 and "PASS" not in out
        assert_clean_failure(rc, err)
        assert "at least one seed" in err

    @pytest.mark.parametrize("frames, heatup", [("10", "-1"), ("0", "2"), ("1", "2")])
    def test_rollout_rejects_negative_heatup_and_empty_clips(
        self, frames, heatup, workspace, tmp_path, capsys
    ):
        out = tmp_path / "r.smv"
        rc = cli.main(["rollout", "--ckpt", str(workspace["ckpt"]), "--frames", frames,
                       "--heatup", heatup, "--out", str(out)])
        assert_clean_failure(rc, capsys.readouterr().err)
        assert rc == 1 and not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_rollout_rejects_empty_count_before_loading(self, count, tmp_path, capsys):
        out = tmp_path / "r.smv"
        rc = cli.main(["rollout", "--ckpt", str(tmp_path / "absent.tsvc"), "--count", count,
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert_clean_failure(rc, err)
        assert rc == 1 and not out.exists()
        assert err.strip() == f"error: --count must be at least 1, got {count}"

    @pytest.mark.parametrize("flag, value, least", [("--frames", "1", 2), ("--frames", "0", 2),
                                                    ("--heatup", "-1", 0)])
    def test_rollout_rejects_short_clips_before_loading(self, flag, value, least, tmp_path,
                                                        capsys):
        out = tmp_path / "r.smv"
        rc = cli.main(["rollout", "--ckpt", str(tmp_path / "absent.tsvc"), flag, value,
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert_clean_failure(rc, err)
        assert rc == 1 and not out.exists()
        assert err.strip() == f"error: {flag} must be at least {least}, got {value}"

    @pytest.mark.parametrize("flags, name", [(["--batch", "0"], "batch_size"),
                                             (["--iters", "-1"], "iterations")])
    def test_classifier_rejects_flags_it_cannot_run(self, flags, name, workspace, tmp_path,
                                                    capsys):
        out = tmp_path / "c.tsvc"
        rc = cli.main(["train", "--data", str(workspace["data"]), "--classifier", *flags,
                       "--config", MICRO_MODEL_CONFIG, "--out", str(out)])
        err = capsys.readouterr().err
        assert_clean_failure(rc, err)
        assert rc == 1 and name in err and not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(-(2**64))])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--out", "d.smv"],
            ["train", "--data", "d.smv", "--out", "m.tsvc"],
            ["rollout", "--ckpt", "m.tsvc", "--out", "r.smv"],
            ["bench", "--out", "b.csv"],
        ],
    )
    def test_seed_outside_64_bits_is_rejected(self, argv, seed, tmp_path, monkeypatch,
                                               capsys):
        # masked to 64 bits, 2^64 and -2^64 would write seed 0's files
        monkeypatch.chdir(tmp_path)
        rc = cli.main([*argv, "--seed", seed])
        err = capsys.readouterr().err
        assert_clean_failure(rc, err)
        assert rc == 1 and f"argument --seed: must be in [0, 2^64), got {seed}" in err
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_is_accepted(self, tmp_path):
        out = tmp_path / "d.smv"
        rc = cli.main(["gen-data", "--classes", "1", "--clips-per-class", "1", "--frames", "4",
                       "--size", "16", "--seed", str(2**64 - 1), "--out", str(out)])
        assert rc == 0 and load_dataset(out).seeds[0] == synthdata.split_seed(2**64 - 1, 0)


README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_commands(readme_text):
    """argv of each `motionfuse ...` line in the README's CLI quickstart block,
    with backslash continuations joined."""
    block = readme_text.split("## CLI quickstart", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("motionfuse ")]


class TestReadmeQuickstart:
    def test_every_quickstart_command_parses(self):
        commands = quickstart_commands(README.read_text())
        assert [argv[0] for argv in commands] == [
            "gen-data", "train", "train", "rollout", "eval", "gradcheck", "bench", "export-frames"
        ]
        assert "--out" in commands[0]  # the continuation line was joined
        for argv in commands:
            cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "stale",
        [
            "motionfuse gradcheck --op adaptive_conv_separable --seed 1",
            "motionfuse bench --modes dense,separable --n 5,17 --csv bench.csv",
        ],
    )
    def test_catches_a_flag_the_parser_lacks(self, stale):
        (argv,) = quickstart_commands(f"## CLI quickstart\n\n```sh\n{stale}\n```\n")
        with pytest.raises(cli.UsageError):
            cli.build_parser().parse_args(argv)
