"""Tests for the command-line interface and netpbm I/O."""

import numpy as np
import pytest

from repro.api.executors import EXECUTOR_KINDS
from repro.cli import build_parser, main
from repro.core import P3Config
from repro.imageio import NetpbmError, read_image, write_image
from repro.jpeg.codec import decode, encode_rgb


class TestNetpbm:
    def test_gray_roundtrip(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, (13, 17)).astype(np.uint8)
        assert np.array_equal(read_image(write_image(image)), image)

    def test_rgb_roundtrip(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, (9, 11, 3)).astype(np.uint8)
        assert np.array_equal(read_image(write_image(image)), image)

    def test_float_input_clipped(self):
        image = np.array([[-5.0, 300.0]])
        decoded = read_image(write_image(image))
        assert decoded[0, 0] == 0
        assert decoded[0, 1] == 255

    def test_comments_in_header(self):
        data = b"P5\n# a comment\n2 1\n255\n\x01\x02"
        assert np.array_equal(read_image(data), np.array([[1, 2]]))

    def test_bad_magic(self):
        with pytest.raises(NetpbmError):
            read_image(b"P3\n1 1\n255\n0")

    def test_truncated_raster(self):
        with pytest.raises(NetpbmError):
            read_image(b"P5\n4 4\n255\n\x00\x00")

    def test_16bit_rejected(self):
        with pytest.raises(NetpbmError):
            read_image(b"P5\n1 1\n65535\n\x00\x00")


@pytest.fixture()
def photo_file(tmp_path, scene_corpus):
    path = tmp_path / "photo.jpg"
    path.write_bytes(encode_rgb(scene_corpus[0], quality=88))
    return path


class TestCli:
    def test_genkey(self, tmp_path):
        key_path = tmp_path / "album.key"
        assert main(["genkey", "--output", str(key_path)]) == 0
        assert len(key_path.read_bytes()) == 16

    def test_encrypt_decrypt_roundtrip(self, tmp_path, photo_file):
        key_path = tmp_path / "k.key"
        main(["genkey", "--output", str(key_path)])
        public = tmp_path / "pub.jpg"
        secret = tmp_path / "photo.p3s"
        assert main(
            [
                "encrypt", str(photo_file),
                "--key", str(key_path),
                "--public", str(public),
                "--secret", str(secret),
                "--threshold", "15",
            ]
        ) == 0
        assert public.read_bytes()[:2] == b"\xff\xd8"
        assert secret.read_bytes()[:4] == b"P3E1"

        output = tmp_path / "recon.ppm"
        assert main(
            [
                "decrypt", str(public), str(secret),
                "--key", str(key_path),
                "--output", str(output),
            ]
        ) == 0
        reconstructed = read_image(output.read_bytes())
        reference = decode(photo_file.read_bytes())
        assert np.array_equal(reconstructed, reference)

    def test_encrypt_from_netpbm(self, tmp_path, scene_corpus):
        ppm = tmp_path / "photo.ppm"
        ppm.write_bytes(write_image(scene_corpus[0]))
        key_path = tmp_path / "k.key"
        main(["genkey", "--output", str(key_path)])
        assert main(
            [
                "encrypt", str(ppm),
                "--key", str(key_path),
                "--public", str(tmp_path / "p.jpg"),
                "--secret", str(tmp_path / "s.p3s"),
            ]
        ) == 0

    def test_inspect(self, photo_file, capsys):
        assert main(["inspect", str(photo_file)]) == 0
        captured = capsys.readouterr()
        assert "dimensions" in captured.out
        assert "progressive" in captured.out

    def test_public_part_degraded(self, tmp_path, photo_file):
        from repro.vision.kernels import to_luma
        from repro.vision.metrics import psnr

        key_path = tmp_path / "k.key"
        main(["genkey", "--output", str(key_path)])
        public = tmp_path / "pub.jpg"
        main(
            [
                "encrypt", str(photo_file),
                "--key", str(key_path),
                "--public", str(public),
                "--secret", str(tmp_path / "s.p3s"),
            ]
        )
        reference = decode(photo_file.read_bytes())
        public_pixels = decode(public.read_bytes())
        assert psnr(to_luma(reference), to_luma(public_pixels)) < 25.0

    def test_defaults_match_library_config(self):
        """The CLI must not drift from P3Config's defaults."""
        config = P3Config()
        args = build_parser().parse_args(
            ["encrypt", "in.jpg", "--key", "k", "--public", "p",
             "--secret", "s"]
        )
        assert args.quality == config.quality
        assert args.threshold == config.threshold
        batch = build_parser().parse_args(
            ["batch-encrypt", "in.jpg", "--key", "k", "--output-dir", "o"]
        )
        assert batch.quality == config.quality
        assert batch.threshold == config.threshold


class TestBatchCli:
    @pytest.fixture()
    def photo_files(self, tmp_path, scene_corpus):
        paths = []
        for index, image in enumerate(scene_corpus[:2]):
            path = tmp_path / f"photo{index}.jpg"
            path.write_bytes(encode_rgb(image, quality=85))
            paths.append(path)
        return paths

    def test_batch_roundtrip(self, tmp_path, photo_files):
        key_path = tmp_path / "k.key"
        main(["genkey", "--output", str(key_path)])
        out_dir = tmp_path / "out"
        assert main(
            ["batch-encrypt", *map(str, photo_files),
             "--key", str(key_path),
             "--output-dir", str(out_dir),
             "--executor", "serial"]
        ) == 0
        publics = sorted(out_dir.glob("*.public.jpg"))
        assert len(publics) == len(photo_files)
        assert all(
            p.with_name(p.name.replace(".public.jpg", ".secret.p3s")).exists()
            for p in publics
        )

        recon_dir = tmp_path / "recon"
        assert main(
            ["batch-decrypt", *map(str, publics),
             "--key", str(key_path),
             "--output-dir", str(recon_dir),
             "--executor", "serial"]
        ) == 0
        for index, original in enumerate(photo_files):
            recon = read_image(
                (recon_dir / f"photo{index}.ppm").read_bytes()
            )
            assert np.array_equal(recon, decode(original.read_bytes()))

    def test_every_executor_kind_writes_identical_outputs(
        self, tmp_path, photo_files
    ):
        """batch-encrypt then batch-decrypt under each kind: public
        parts and reconstructions match the serial run byte for byte.
        (Secret envelopes differ by their random nonces; decrypting
        them is what produces the compared reconstructions.)"""
        key_path = tmp_path / "k.key"
        main(["genkey", "--output", str(key_path)])
        outputs = {}
        for kind in EXECUTOR_KINDS:
            out_dir = tmp_path / kind / "out"
            recon_dir = tmp_path / kind / "recon"
            options = ["--key", str(key_path), "--executor", kind,
                       "--workers", "2"]
            assert main(
                ["batch-encrypt", *map(str, photo_files),
                 "--output-dir", str(out_dir), *options]
            ) == 0
            publics = sorted(out_dir.glob("*.public.jpg"))
            assert main(
                ["batch-decrypt", *map(str, publics),
                 "--output-dir", str(recon_dir), *options]
            ) == 0
            outputs[kind] = {
                path.name: path.read_bytes()
                for path in [*publics, *sorted(recon_dir.iterdir())]
            }
        assert len(outputs["serial"]) == 2 * len(photo_files)
        assert outputs["thread"] == outputs["serial"]
        assert outputs["process"] == outputs["serial"]

    def test_duplicate_basenames_do_not_overwrite(self, tmp_path, scene_corpus):
        """Same filename from two directories must yield two outputs."""
        for sub in ("a", "b"):
            directory = tmp_path / sub
            directory.mkdir()
            (directory / "photo.jpg").write_bytes(
                encode_rgb(scene_corpus[0 if sub == "a" else 1], quality=85)
            )
        key_path = tmp_path / "k.key"
        main(["genkey", "--output", str(key_path)])
        out_dir = tmp_path / "out"
        assert main(
            ["batch-encrypt",
             str(tmp_path / "a" / "photo.jpg"),
             str(tmp_path / "b" / "photo.jpg"),
             "--key", str(key_path),
             "--output-dir", str(out_dir),
             "--executor", "serial"]
        ) == 0
        assert (out_dir / "photo.public.jpg").exists()
        assert (out_dir / "photo-1.public.jpg").exists()
        assert (
            (out_dir / "photo.public.jpg").read_bytes()
            != (out_dir / "photo-1.public.jpg").read_bytes()
        )

    def test_batch_encrypt_continues_past_bad_input(
        self, tmp_path, photo_files, capsys
    ):
        bad = tmp_path / "broken.jpg"
        bad.write_bytes(b"\xff\xd8 truncated nonsense")
        key_path = tmp_path / "k.key"
        main(["genkey", "--output", str(key_path)])
        out_dir = tmp_path / "out"
        # Non-zero exit because one file failed...
        assert main(
            ["batch-encrypt", str(photo_files[0]), str(bad),
             "--key", str(key_path),
             "--output-dir", str(out_dir),
             "--executor", "serial"]
        ) == 1
        # ...but the good file was still processed.
        assert (out_dir / "photo0.public.jpg").exists()
        assert "FAILED" in capsys.readouterr().err

    def test_batch_decrypt_missing_secret(self, tmp_path, photo_files, capsys):
        key_path = tmp_path / "k.key"
        main(["genkey", "--output", str(key_path)])
        out_dir = tmp_path / "out"
        main(
            ["batch-encrypt", str(photo_files[0]),
             "--key", str(key_path),
             "--output-dir", str(out_dir),
             "--executor", "serial"]
        )
        (out_dir / "photo0.secret.p3s").unlink()
        assert main(
            ["batch-decrypt", str(out_dir / "photo0.public.jpg"),
             "--key", str(key_path),
             "--output-dir", str(tmp_path / "recon"),
             "--executor", "serial"]
        ) == 1
        assert "FAILED" in capsys.readouterr().err


class TestPublishCommand:
    @pytest.fixture()
    def photo_files(self, tmp_path, scene_corpus):
        paths = []
        for index, image in enumerate(scene_corpus[:2]):
            path = tmp_path / f"photo{index}.jpg"
            path.write_bytes(encode_rgb(image, quality=85))
            paths.append(path)
        return paths

    def test_async_executor_is_not_a_choice(self, capsys):
        parser = build_parser()
        args = parser.parse_args(
            ["publish", "x.jpg", "--ingest-executor", "thread"]
        )
        assert args.ingest_executor == "thread"
        for argv in (
            ["publish", "x.jpg", "--ingest-executor", "async"],
            ["batch-encrypt", "x.jpg", "--key", "k", "--output-dir", "o",
             "--executor", "async"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        assert "invalid choice: 'async'" in capsys.readouterr().err

    def test_single_provider_publish(self, photo_files, capsys):
        assert main(
            ["publish", str(photo_files[0]), "--executor", "serial"]
        ) == 0
        out = capsys.readouterr().out
        assert "facebook" in out
        assert "verified 1 provider reconstruction(s), 0 failed" in out

    def test_multi_provider_fanout_with_replication(self, photo_files, capsys):
        assert main(
            ["publish", *map(str, photo_files),
             "--psp", "facebook,flickr,photobucket",
             "--shards", "3",
             "--replicas", "2",
             "--executor", "serial"]
        ) == 0
        out = capsys.readouterr().out
        assert "fanout(facebook,flickr,photobucket)" in out
        # 2 photos x 3 providers each independently reconstructed.
        assert "verified 6 provider reconstruction(s), 0 failed" in out

    def test_unreadable_input_fails_the_run(self, photo_files, tmp_path, capsys):
        missing = tmp_path / "nope.jpg"
        assert main(
            ["publish", str(photo_files[0]), str(missing),
             "--executor", "serial"]
        ) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        # The readable photo was still published and verified.
        assert "verified 1 provider reconstruction(s), 0 failed" in captured.out
