"""End-to-end CLI tests, run in process through main(argv).

A module-scoped fixture trains one tiny checkpoint on synthetic pairs; the
enhance/eval/inspect tests all reuse it.  Exit-code contract: 0 ok, 2 config,
3 data, 4 numerical.
"""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from densetsnet import ModelConfig, StftConfig, TrainConfig, wav_read, wav_write
from densetsnet.cli import _build_configs, main
from densetsnet.training import ECHOED_FIELDS, config_echo, configs_from_echo

from helpers import read_report_csv


TINY_SET = ["--set", "dense_channel=2", "--set", "depth=1",
            "--set", "segment_samples=2000", "--set", "batch_size=1",
            "--set", "eval_every=2", "--set", "checkpoint_every=2"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--out", str(out), "--synthetic", "2", "--quiet",
               "--steps", "2"] + TINY_SET)
    assert rc == 0
    ckpt = out / "ckpt_step2.dtsn"
    assert ckpt.exists()
    return {"out": out, "ckpt": ckpt,
            "clean": out / "synth_data" / "clean",
            "noisy": out / "synth_data" / "noisy"}


# ---------------------------------------------------------------------------
# configuration errors
# ---------------------------------------------------------------------------

def test_unknown_set_key_is_named(capsys):
    rc = main(["inspect", "--set", "bogus_key=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err and "known keys" in err
    assert "dense_channel" in err  # the listing helps find the right key


def test_bad_value_type(capsys):
    rc = main(["inspect", "--set", "depth=abc"])
    assert rc == 2
    assert "bad value" in capsys.readouterr().err


def test_set_without_equals(capsys):
    rc = main(["inspect", "--set", "depth"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_config_file_not_found(tmp_path):
    rc = main(["inspect", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_config_file_bad_line_numbered(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("# fine\ndense_channel=4\nnot an assignment\n")
    rc = main(["inspect", "--config", str(p)])
    assert rc == 2
    assert ":3:" in capsys.readouterr().err


def test_train_needs_data_source(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path)])
    assert rc == 2
    assert "--synthetic" in capsys.readouterr().err


def test_argparse_missing_required_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["train"])
    assert ei.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    for _, key, _ in ECHOED_FIELDS:
        assert f"  {key} (default " in out


def _text(v):
    if isinstance(v, list):
        return ",".join(v)
    return str(v).lower() if isinstance(v, bool) else str(v)


def test_every_echoed_field_is_a_cli_key():
    # one non-default value per field of the three configs
    mc = ModelConfig(dense_channel=6, depth=3, lke_kernel=15, lsg_kernel=5, mask_beta=1.5,
                     variant="classic_ts", classic_channel=8, adjust_depthwise=True,
                     drop=("ca", "lke"))
    sc = StftConfig(n_fft=512, win_length=512, hop=128, sample_rate=8000, compression=0.5)
    tc = TrainConfig(batch_size=3, max_steps=7, lr=2e-4, beta1=0.85, beta2=0.95, eps=1e-7,
                     weight_decay=0.02, eval_every=3, checkpoint_every=5, seed=9,
                     lambda1=0.5, lambda2=0.05, segment_samples=4000,
                     use_consistency=False, valid_fraction=0.2)
    echo = config_echo(mc, sc, tc)
    default_echo = config_echo(ModelConfig(), StftConfig(), TrainConfig())
    keys = [key for _, key, _ in ECHOED_FIELDS]
    assert len(keys) == 29 and sorted(echo) == sorted(keys) == sorted(default_echo)
    assert "window" not in echo
    assert all(echo[k] != default_echo[k] for k in keys)

    # the echo round-trips through a checkpoint header
    assert config_echo(*configs_from_echo(json.loads(json.dumps(echo))), tc) == echo

    # every key is settable by name and lands in the right config
    args = argparse.Namespace(config=None, set=[f"{k}={_text(echo[k])}" for k in keys])
    assert config_echo(*_build_configs(args)) == echo


# ---------------------------------------------------------------------------
# config merge order
# ---------------------------------------------------------------------------

def test_config_file_applies(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("# comment line\n\ndense_channel = 8\n")
    rc = main(["inspect", "--config", str(p)])
    assert rc == 0
    assert "31458" in capsys.readouterr().out


def test_set_overrides_config_file(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("dense_channel=8\n")
    rc = main(["inspect", "--config", str(p), "--set", "dense_channel=4"])
    assert rc == 0
    assert "9910" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# synth-data
# ---------------------------------------------------------------------------

def test_synth_data_writes_pairs(tmp_path, capsys):
    rc = main(["synth-data", "--out", str(tmp_path / "d"), "--pairs", "2",
               "--duration", "0.5"])
    assert rc == 0
    assert "wrote 2 pairs" in capsys.readouterr().out
    for sub in ("clean", "noisy"):
        for i in range(2):
            assert (tmp_path / "d" / sub / f"utt{i:03d}.wav").exists()
    assert (tmp_path / "d" / "manifest.csv").exists()


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def test_inspect_default_config(capsys):
    rc = main(["inspect"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out and "9910" in out
    assert "within band" in out
    assert "within tolerance" in out


def test_inspect_classic_variant(capsys):
    rc = main(["inspect", "--set", "variant=classic_ts"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "variant: classic_ts" in out and "10828" in out


def test_inspect_checkpoint(trained, capsys):
    rc = main(["inspect", "--ckpt", str(trained["ckpt"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(step 2)" in out and "variant: dense_ts" in out and "TOTAL" in out


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------

def test_enhance_single_file(trained, tmp_path, capsys):
    src = trained["noisy"] / "utt000.wav"
    dst = tmp_path / "enh.wav"
    rc = main(["enhance", "--ckpt", str(trained["ckpt"]), "--in", str(src),
               "--out", str(dst)])
    assert rc == 0
    clip = wav_read(dst)
    assert len(clip) == len(wav_read(src))
    assert np.max(np.abs(clip.samples)) <= 1.0


def test_enhance_refuses_overwrite(trained, tmp_path, capsys):
    src = trained["noisy"] / "utt000.wav"
    dst = tmp_path / "enh.wav"
    assert main(["enhance", "--ckpt", str(trained["ckpt"]), "--in", str(src),
                 "--out", str(dst)]) == 0
    rc = main(["enhance", "--ckpt", str(trained["ckpt"]), "--in", str(src),
               "--out", str(dst)])
    assert rc == 3
    assert "--force" in capsys.readouterr().err
    assert main(["enhance", "--ckpt", str(trained["ckpt"]), "--in", str(src),
                 "--out", str(dst), "--force"]) == 0


def test_enhance_directory(trained, tmp_path, capsys):
    out_dir = tmp_path / "enh"
    rc = main(["enhance", "--ckpt", str(trained["ckpt"]),
               "--in", str(trained["noisy"]), "--out", str(out_dir)])
    assert rc == 0
    assert "enhanced 2 files" in capsys.readouterr().out
    names = sorted(p.name for p in out_dir.glob("*.wav"))
    assert names == ["utt000.wav", "utt001.wav"]


def test_enhance_directory_checks_every_target_before_writing(trained, tmp_path, capsys):
    out_dir = tmp_path / "enh"
    out_dir.mkdir()
    (out_dir / "utt001.wav").write_bytes(b"stale")
    argv = ["enhance", "--ckpt", str(trained["ckpt"]),
            "--in", str(trained["noisy"]), "--out", str(out_dir)]
    assert main(argv) == 3
    assert "utt001.wav exists" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == ["utt001.wav"]
    assert main(argv + ["--force"]) == 0
    for name in ("utt000.wav", "utt001.wav"):
        assert len(wav_read(out_dir / name)) == len(wav_read(trained["noisy"] / name))


def test_enhance_reports_precision_audio_and_rtf(trained, tmp_path, capsys):
    rc = main(["enhance", "--ckpt", str(trained["ckpt"]),
               "--in", str(trained["noisy"]), "--out", str(tmp_path / "enh")])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith(f"enhanced 2 files into {tmp_path / 'enh'} (float32, 6.00 s of audio, "
                           "CPU real-time factor "), line
    assert float(line.rsplit(" ", 1)[1].rstrip(")")) > 0


@pytest.mark.parametrize("seconds", [2.0, 8.0])
def test_float32_enhance_matches_float64_within_one_lsb(tmp_path, seconds):
    """The CLI runs the trunk in float32; every output sample stays within
    one 16-bit LSB of the float64 in-memory model, and segmental SNR within
    0.01 dB."""
    from densetsnet.checkpoint import save_checkpoint
    from densetsnet.evaluation import ssnr
    from densetsnet.model import build_model
    from densetsnet.training import enhance_waveforms, synth_dataset

    mcfg, scfg = ModelConfig(), StftConfig()
    model = build_model(mcfg, scfg, seed=7)
    ckpt = tmp_path / "m.dtsn"
    save_checkpoint(ckpt, {f"p/{k}": t.data for k, t in model.store.items()},
                    config_echo(mcfg, scfg, TrainConfig()))
    synth_dataset(1, seed=int(seconds), out_dir=tmp_path / "d", duration_s=seconds)
    noisy = wav_read(tmp_path / "d" / "noisy" / "utt000.wav").samples
    clean = wav_read(tmp_path / "d" / "clean" / "utt000.wav").samples
    assert main(["enhance", "--ckpt", str(ckpt), "--in", str(tmp_path / "d" / "noisy"),
                 "--out", str(tmp_path / "enh")]) == 0
    got = wav_read(tmp_path / "enh" / "utt000.wav").samples

    _, ref = enhance_waveforms(model, noisy, scfg)
    assert model.store.dtype == np.float64
    ref_ints = np.clip(np.round(ref * 32768), -32768, 32767)
    assert len(got) == len(ref_ints) == int(seconds * 16000)
    assert np.max(np.abs(got * 32768 - ref_ints)) <= 1
    assert abs(ssnr(clean, got) - ssnr(clean, ref)) < 0.01


def test_enhance_missing_input(trained, tmp_path):
    rc = main(["enhance", "--ckpt", str(trained["ckpt"]),
               "--in", str(tmp_path / "ghost.wav"), "--out", str(tmp_path / "o.wav")])
    assert rc == 3


def test_enhance_truncated_inputs_exit_3(trained, tmp_path):
    ckpt = tmp_path / "short.dtsn"
    ckpt.write_bytes(trained["ckpt"].read_bytes()[:10])
    wav = tmp_path / "short.wav"
    wav.write_bytes((trained["noisy"] / "utt000.wav").read_bytes()[:-1])
    for ck, src in ((ckpt, trained["noisy"] / "utt000.wav"), (trained["ckpt"], wav)):
        rc = main(["enhance", "--ckpt", str(ck), "--in", str(src),
                   "--out", str(tmp_path / "o.wav")])
        assert rc == 3, (ck.name, src.name)


def test_enhance_edited_checkpoint_header_exits_3(trained, tmp_path, capsys):
    raw = trained["ckpt"].read_bytes()
    assert raw.count(b'"mask_beta": 2.0') == 1
    ckpt = tmp_path / "edited.dtsn"
    ckpt.write_bytes(raw.replace(b'"mask_beta": 2.0', b'"mask_beta": 3.0'))
    rc = main(["enhance", "--ckpt", str(ckpt), "--in", str(trained["noisy"] / "utt000.wav"),
               "--out", str(tmp_path / "o.wav")])
    assert rc == 3
    assert "header" in capsys.readouterr().err


def test_enhance_empty_directory(trained, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["enhance", "--ckpt", str(trained["ckpt"]), "--in", str(empty),
               "--out", str(tmp_path / "out")])
    assert rc == 3


def test_enhance_silence_stays_silent(trained, tmp_path):
    # zero magnitude in, zero mask product out: the wav must be exactly zero
    src = tmp_path / "zero.wav"
    wav_write(src, np.zeros(4000))
    dst = tmp_path / "zero_out.wav"
    rc = main(["enhance", "--ckpt", str(trained["ckpt"]), "--in", str(src),
               "--out", str(dst)])
    assert rc == 0
    out = wav_read(dst).samples
    assert out.shape == (4000,)
    assert np.all(out == 0.0)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_perfect_when_est_is_clean(trained, tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    rc = main(["eval", "--clean-dir", str(trained["clean"]),
               "--enhanced-dir", str(trained["clean"]), "--out", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "evaluated 2 pairs" in out and "mean:" in out
    rows = read_report_csv(csv_path)
    mean = [r for r in rows if r["name"] == "MEAN"]
    assert len(mean) == 1
    assert float(mean[0]["error_mag"]) == 0.0
    assert float(mean[0]["quality"]) == 1.0


def test_eval_enhanced_output_scores(trained, tmp_path, capsys):
    enh_dir = tmp_path / "enh"
    assert main(["enhance", "--ckpt", str(trained["ckpt"]),
                 "--in", str(trained["noisy"]), "--out", str(enh_dir)]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "report.csv"
    rc = main(["eval", "--clean-dir", str(trained["clean"]),
               "--enhanced-dir", str(enh_dir), "--out", str(csv_path)])
    assert rc == 0
    rows = read_report_csv(csv_path)
    assert [r["name"] for r in rows[:-1]] == ["utt000.wav", "utt001.wav"]
    for r in rows:
        assert np.isfinite(float(r["error_mag"]))


def test_eval_missing_pair_exit_3_but_csv_written(trained, tmp_path, capsys):
    enh_dir = tmp_path / "partial"
    enh_dir.mkdir()
    src = wav_read(trained["clean"] / "utt000.wav")
    wav_write(enh_dir / "utt000.wav", src.samples)
    csv_path = tmp_path / "report.csv"
    rc = main(["eval", "--clean-dir", str(trained["clean"]),
               "--enhanced-dir", str(enh_dir), "--out", str(csv_path)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "excluded utt001.wav" in captured.err
    assert csv_path.exists()
    text = csv_path.read_text()
    assert "EXCLUDED:utt001.wav" in text


# ---------------------------------------------------------------------------
# train / resume through the CLI
# ---------------------------------------------------------------------------

def test_train_reports_and_resumes(trained, capsys):
    out = trained["out"]
    rc = main(["train", "--out", str(out), "--synthetic", "2", "--quiet",
               "--steps", "4", "--resume", str(trained["ckpt"])] + TINY_SET)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "trained 4 steps" in stdout
    assert "ckpt_step4.dtsn" in stdout
    assert "final validation" in stdout
    steps = [ln.split(",")[0] for ln in (out / "curves.csv").read_text().splitlines()[2:]]
    assert steps == ["1", "2", "3", "4"]


def test_resume_config_mismatch(trained, tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path), "--synthetic", "2", "--quiet",
               "--steps", "4", "--resume", str(trained["ckpt"])])
    assert rc == 2
    assert "dense_channel" in capsys.readouterr().err


def test_train_drop_and_no_consistency(tmp_path):
    rc = main(["train", "--out", str(tmp_path), "--synthetic", "1", "--quiet",
               "--steps", "1", "--drop", "LKE", "--drop", "ca",
               "--no-consistency"] + TINY_SET)
    assert rc == 0
    assert (tmp_path / "curves.csv").exists()


def test_train_classic_variant(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path), "--synthetic", "1", "--quiet",
               "--steps", "1", "--variant", "classic_ts",
               "--set", "classic_channel=2"] + TINY_SET)
    assert rc == 0
    ckpt = tmp_path / "ckpt_step1.dtsn"
    assert ckpt.exists()
    capsys.readouterr()
    assert main(["inspect", "--ckpt", str(ckpt)]) == 0
    assert "variant: classic_ts" in capsys.readouterr().out
