"""Tests for the command-line interface."""

import json
import os
import re

import pytest

from repro.cli import main


@pytest.fixture
def workspace(tmp_path, rng):
    src = tmp_path / "video.bin"
    src.write_bytes(rng.bytes(3000))
    out = tmp_path / "encoded"
    return tmp_path, src, out


def encode(src, out, peers=3, chunk=1024, secret="s3cret"):
    return main(
        [
            "encode",
            str(src),
            "--out",
            str(out),
            "--secret",
            secret,
            "--peers",
            str(peers),
            "--p",
            "16",
            "--m",
            "64",
            "--chunk-bytes",
            str(chunk),
        ]
    )


class TestEncode:
    def test_creates_bundles_manifest_digests(self, workspace, capsys):
        tmp, src, out = workspace
        assert encode(src, out) == 0
        assert (out / "manifest.json").exists()
        assert (out / "digests.json").exists()
        for peer in range(3):
            dats = list((out / f"peer{peer}").glob("*.dat"))
            assert len(dats) == 3  # one per chunk
        stdout = capsys.readouterr().out
        assert "3 chunk(s)" in stdout

    def test_manifest_contents(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["total_length"] == 3000
        assert manifest["p"] == 16
        assert manifest["version"] == 0
        assert len(manifest["chunk_versions"]) == 3
        assert len(manifest["chunk_hashes"]) == 3


class TestDecode:
    def test_roundtrip_all_peers(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        dest = tmp / "restored.bin"
        code = main(
            [
                "decode",
                str(out / "peer0"),
                str(out / "peer1"),
                "--manifest",
                str(out / "manifest.json"),
                "--secret",
                "s3cret",
                "--digests",
                str(out / "digests.json"),
                "--out",
                str(dest),
            ]
        )
        assert code == 0
        assert dest.read_bytes() == src.read_bytes()

    def test_single_peer_suffices(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        dest = tmp / "restored.bin"
        code = main(
            [
                "decode",
                str(out / "peer2"),
                "--manifest",
                str(out / "manifest.json"),
                "--secret",
                "s3cret",
                "--out",
                str(dest),
            ]
        )
        assert code == 0
        assert dest.read_bytes() == src.read_bytes()

    def test_wrong_secret_fails_with_digests(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        dest = tmp / "restored.bin"
        code = main(
            [
                "decode",
                str(out / "peer0"),
                "--manifest",
                str(out / "manifest.json"),
                "--secret",
                "WRONG",
                "--digests",
                str(out / "digests.json"),
                "--out",
                str(dest),
            ]
        )
        # Wrong secret -> coefficients differ; with digest auth present
        # the payloads still verify, but the decoded bytes would be
        # garbage ... except digests only authenticate payloads, not the
        # secret. The decode "succeeds" mechanically but outputs garbage:
        # verify it does NOT match the source.
        if code == 0:
            assert dest.read_bytes() != src.read_bytes()

    def test_missing_data_fails_cleanly(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        # Remove most .dat files from peer0 and decode only from it.
        dats = sorted((out / "peer0").glob("*.dat"))
        for dat in dats[1:]:
            os.unlink(dat)
        dest = tmp / "restored.bin"
        code = main(
            [
                "decode",
                str(out / "peer0"),
                "--manifest",
                str(out / "manifest.json"),
                "--secret",
                "s3cret",
                "--out",
                str(dest),
            ]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().err
        assert not dest.exists()


class TestUpdate:
    def _decode(self, out, dest, *sources):
        return main(
            [
                "decode",
                *[str(s) for s in sources],
                "--manifest",
                str(out / "manifest.json"),
                "--secret",
                "s3cret",
                "--digests",
                str(out / "digests.json"),
                "--out",
                str(dest),
            ]
        )

    def test_update_roundtrip(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        original = src.read_bytes()
        edited = bytearray(original)
        edited[1500] ^= 0xFF  # chunk 1 of 3
        src.write_bytes(bytes(edited))
        code = main(
            [
                "update",
                str(src),
                "--out",
                str(out),
                "--manifest",
                str(out / "manifest.json"),
                "--secret",
                "s3cret",
                "--peers",
                "3",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "1 of 3 chunk(s)" in stdout

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == 1
        assert manifest["chunk_versions"] == [0, 1, 0]

        dest = tmp / "restored.bin"
        assert self._decode(out, dest, out / "peer0", out / "peer1") == 0
        assert dest.read_bytes() == bytes(edited)

    def test_update_rejects_legacy_manifest(self, workspace, tmp_path):
        tmp, src, out = workspace
        encode(src, out)
        # Strip the version fields to fake a legacy manifest.
        blob = json.loads((out / "manifest.json").read_text())
        del blob["version"]
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(blob))
        with pytest.raises(SystemExit):
            main(
                [
                    "update",
                    str(src),
                    "--out",
                    str(out),
                    "--manifest",
                    str(legacy),
                    "--secret",
                    "s3cret",
                    "--peers",
                    "3",
                ]
            )

    def test_update_wrong_peer_count(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        with pytest.raises(SystemExit):
            main(
                [
                    "update",
                    str(src),
                    "--out",
                    str(out),
                    "--manifest",
                    str(out / "manifest.json"),
                    "--secret",
                    "s3cret",
                    "--peers",
                    "7",
                ]
            )


class TestBadMetadata:
    """The one manifest loader and the one digest loader turn every bad
    input into ``SystemExit("cannot read <what> <path>: <reason>")``."""

    def _decode(self, out, manifest, digests=None):
        argv = [
            "decode",
            str(out / "peer0"),
            "--manifest",
            str(manifest),
            "--secret",
            "s3cret",
            "--out",
            str(out / "restored.bin"),
        ]
        if digests is not None:
            argv += ["--digests", str(digests)]
        return main(argv)

    def _blob(self, out):
        return json.loads((out / "manifest.json").read_text())

    def _expect(self, what, path):
        return pytest.raises(
            SystemExit, match=f"cannot read {what} {re.escape(str(path))}: "
        )

    def test_missing_manifest_file(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        with self._expect("manifest", tmp / "nope.json"):
            self._decode(out, tmp / "nope.json")

    def test_manifest_not_json(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        bad = tmp / "bad.json"
        bad.write_text("{not json")
        with self._expect("manifest", bad):
            self._decode(out, bad)

    @pytest.mark.parametrize(
        "text", ['{"version": 0}', "[1, 2, 3]"], ids=["missing-keys", "not-an-object"]
    )
    def test_manifest_missing_keys(self, workspace, text):
        tmp, src, out = workspace
        encode(src, out)
        bad = tmp / "bad.json"
        bad.write_text(text)
        with self._expect("manifest", bad):
            self._decode(out, bad)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b["chunk_lengths"].pop(),
            lambda b: b["chunk_hashes"].pop(),
            lambda b: b.update(total_length=b["total_length"] + 1),
            lambda b: b["chunk_hashes"].__setitem__(0, "zz"),
            lambda b: b["chunk_hashes"].__setitem__(0, 7),
            lambda b: b.update(chunk_ids=[1, 2, 3]),
            lambda b: b.pop("chunk_versions"),
        ],
        ids=[
            "misaligned-lengths",
            "misaligned-hashes",
            "lengths-do-not-sum",
            "non-hex-hash",
            "non-string-hash",
            "ids-disagree-with-versions",
            "version-without-chunk-versions",
        ],
    )
    def test_malformed_manifest(self, workspace, mutate):
        tmp, src, out = workspace
        encode(src, out)
        blob = self._blob(out)
        mutate(blob)
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(blob))
        with self._expect("manifest", bad):
            self._decode(out, bad)

    def test_manifest_with_agreeing_chunk_ids_loads(self, workspace):
        from repro.rlnc import derive_chunk_id

        tmp, src, out = workspace
        encode(src, out)
        blob = self._blob(out)
        blob["chunk_ids"] = [
            derive_chunk_id(blob["base_file_id"], i, v)
            for i, v in enumerate(blob["chunk_versions"])
        ]
        both = tmp / "both.json"
        both.write_text(json.dumps(blob))
        assert self._decode(out, both) == 0

    def test_plain_shape_manifest_decodes_and_refuses_update(self, workspace):
        """The shape that lists ``chunk_ids`` and knows no versions still
        decodes; without content hashes there is nothing to diff."""
        from repro.rlnc import FileManifest

        tmp, src, out = workspace
        encode(src, out)
        blob = self._blob(out)
        plain = {
            key: blob[key]
            for key in ("base_file_id", "total_length", "chunk_bytes", "p", "m")
        }
        plain["chunk_ids"] = list(FileManifest.from_dict(blob).chunk_ids)
        plain["chunk_lengths"] = blob["chunk_lengths"]
        path = tmp / "plain.json"
        path.write_text(json.dumps(plain))
        assert self._decode(out, path) == 0
        assert (out / "restored.bin").read_bytes() == src.read_bytes()
        with pytest.raises(SystemExit, match="manifest is not versioned"):
            main(
                [
                    "update",
                    str(src),
                    "--out",
                    str(out),
                    "--manifest",
                    str(path),
                    "--secret",
                    "s3cret",
                    "--peers",
                    "3",
                ]
            )

    def test_missing_digests_file(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        with self._expect("digests", tmp / "nope.json"):
            self._decode(out, out / "manifest.json", tmp / "nope.json")

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[1]", '{"1": [2]}', '{"x": {}}', '{"1": {"2": "zz"}}',
         '{"1": {"2": 5}}'],
        ids=["not-json", "not-an-object", "entries-not-an-object",
             "non-integer-id", "non-hex-digest", "non-string-digest"],
    )
    def test_malformed_digests(self, workspace, text):
        tmp, src, out = workspace
        encode(src, out)
        bad = tmp / "bad-digests.json"
        bad.write_text(text)
        with self._expect("digests", bad):
            self._decode(out, out / "manifest.json", bad)


class TestRepair:
    def test_repaired_store_downloads_through_the_repair_records(
        self, workspace, capsys
    ):
        """``repro repair`` mints from two survivors; ``download`` and
        ``decode`` resolve the fresh ids through ``--repairs``."""
        tmp, src, out = workspace
        encode(src, out)
        code = main(
            [
                "repair",
                str(out / "peer0"),
                str(out / "peer1"),
                "--manifest",
                str(out / "manifest.json"),
                "--out",
                str(out / "peer3"),
                "--count",
                "4",
                "--digests",
                str(out / "digests.json"),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "repaired 12 message(s)" in stdout
        # 3 chunks x (3 peers x k + 4 fresh) digests, rewritten in place.
        manifest = json.loads((out / "manifest.json").read_text())
        k = -(-manifest["chunk_bytes"] * 8 // (manifest["p"] * manifest["m"]))
        assert f"digests now hold {3 * (3 * k + 4)} MD5 entries" in stdout
        common = [
            "--manifest",
            str(out / "manifest.json"),
            "--secret",
            "s3cret",
            "--digests",
            str(out / "digests.json"),
            "--repairs",
            str(out / "peer3" / "repairs.json"),
        ]
        for command in ("download", "decode"):
            dest = tmp / f"{command}.bin"
            # The repaired store first, so its repair-range ids are used.
            assert main(
                [command, str(out / "peer3"), str(out / "peer2"), *common,
                 "--out", str(dest)]
            ) == 0
            assert dest.read_bytes() == src.read_bytes()
        # Without the records the fresh ids are undecodable.
        assert main(
            ["decode", str(out / "peer3"), "--manifest", str(out / "manifest.json"),
             "--secret", "s3cret", "--out", str(tmp / "x.bin")]
        ) == 1

    def test_mid_download_repair_screens_helpers_against_digests(
        self, tmp_path, rng
    ):
        """A corrupted helper payload must not be laundered into fresh
        messages whose digests the repair then mints itself.

        One k = 8 chunk: store A holds 4 clean messages, store B one
        payload with a flipped symbol followed by 4 clean ones.  The
        repair threshold fires at once; the fresh messages may only mix
        the 8 clean rows, so the download still yields the original.
        """
        from repro.rlnc import EncodedMessage
        from repro.storage import MessageStore

        src = tmp_path / "video.bin"
        src.write_bytes(rng.bytes(1000))
        out = tmp_path / "encoded"
        assert encode(src, out, peers=2) == 0
        stored = []
        for peer in ("peer0", "peer1"):
            store = MessageStore()
            [dat] = (out / peer).glob("*.dat")
            store.load_dat(str(dat), p=16, m=64)
            [chunk_id] = store.files()
            stored.append(store.messages(chunk_id))
        bad = stored[1][0]
        flipped = bad.payload.copy()
        flipped[5] ^= 1
        corrupt = EncodedMessage(bad.file_id, bad.message_id, flipped, bad.p)
        for name, messages in (
            ("A", stored[0][:4]),
            ("B", [corrupt, *stored[1][1:5]]),
        ):
            store = MessageStore()
            store.add_messages(messages)
            store.save_dat(str(tmp_path / name))

        dest = tmp_path / "got.bin"
        code = main(
            [
                "download", str(tmp_path / "A"), str(tmp_path / "B"),
                "--manifest", str(out / "manifest.json"),
                "--secret", "s3cret",
                "--digests", str(out / "digests.json"),
                "--repair-threshold", "4",
                "--out", str(dest),
            ]
        )
        assert code == 0
        assert dest.read_bytes() == src.read_bytes()


class TestDownload:
    def _download(self, out, dest, *sources, extra=()):
        return main(
            [
                "download",
                *[str(s) for s in sources],
                "--manifest",
                str(out / "manifest.json"),
                "--secret",
                "s3cret",
                "--digests",
                str(out / "digests.json"),
                "--out",
                str(dest),
                *extra,
            ]
        )

    def test_roundtrip_without_faults(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        dest = tmp / "restored.bin"
        code = self._download(out, dest, out / "peer0", out / "peer1")
        assert code == 0
        assert dest.read_bytes() == src.read_bytes()
        stdout = capsys.readouterr().out
        assert "0 faulty peer(s)" in stdout

    def test_faulty_peers_survived_and_named(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        dest = tmp / "restored.bin"
        code = self._download(
            out,
            dest,
            out / "peer0",
            out / "peer1",
            out / "peer2",
            extra=["--rate", "4", "--faults", "seed=7;1:pollute;2:crash@900"],
        )
        assert code == 0
        assert dest.read_bytes() == src.read_bytes()
        stdout = capsys.readouterr().out
        assert "peer 1" in stdout and "polluted" in stdout
        assert "peer 2" in stdout and "crashed" in stdout

    def test_all_peers_refuse_fails_cleanly(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        dest = tmp / "restored.bin"
        code = self._download(
            out,
            dest,
            out / "peer0",
            extra=["--faults", "0:refuse", "--max-slots", "50"],
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().err
        assert not dest.exists()

    def test_fault_peer_out_of_range_rejected(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        with pytest.raises(SystemExit, match="peer 5"):
            self._download(
                out, tmp / "x.bin", out / "peer0", extra=["--faults", "5:refuse"]
            )

    def test_bad_fault_spec_rejected(self, workspace):
        tmp, src, out = workspace
        encode(src, out)
        with pytest.raises(SystemExit, match="bad --faults"):
            self._download(
                out, tmp / "x.bin", out / "peer0", extra=["--faults", "0:meltdown"]
            )

    def test_trace_records_fault_events(self, workspace, tmp_path):
        tmp, src, out = workspace
        encode(src, out)
        trace = tmp_path / "trace.jsonl"
        dest = tmp / "restored.bin"
        code = self._download(
            out,
            dest,
            out / "peer0",
            out / "peer1",
            extra=["--rate", "4", "--faults", "1:pollute", "--trace", str(trace)],
        )
        assert code == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {e["name"] for e in events}
        assert "transfer.discard" in names
        assert "transfer.fault" in names


class TestInspect:
    def test_lists_stores(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        code = main(["inspect", str(out / "peer0"), "--p", "16", "--m", "64"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "message(s)" in stdout
        assert stdout.count("file 0x") == 3


class TestSimulate:
    def test_fig5b_summary(self, capsys):
        code = main(["simulate", "fig5b"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "3 peers" in stdout
        assert "1024" in stdout

    def test_faults_scenario_default_plan(self, capsys):
        code = main(["simulate", "faults"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "6 peers" in stdout
        assert "faulty: crash" in stdout
        assert "faulty: refuse" in stdout

    def test_faults_scenario_custom_plan(self, capsys):
        code = main(["simulate", "faults", "--faults", "0:stall@100+200"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "faulty: stall" in stdout
        assert "faulty: crash" not in stdout  # default plan replaced

    def test_scale_summary(self, capsys):
        assert main(["simulate", "scale", "--engine", "sparse"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            "scenario scale: 64 slots x 20000 peers "
            "(16 givers, 32 request cohorts, backend sparse"
        )
        assert re.fullmatch(r"engine state: [\d.]+ bytes/peer", lines[1])
        assert lines[2].startswith("served 1048576 kbps-slots over ")

    def test_churn_scale_summary(self, capsys):
        assert main(["simulate", "churn-scale", "--engine", "sparse"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            "scenario churn-scale: 128 slots x 20000 peers "
            "(4 giver generations x 16, 32 request cohorts, backend sparse"
        )
        assert re.fullmatch(r"engine state: [\d.]+ bytes/peer", lines[1])
        assert lines[2].startswith("served 2097152 kbps-slots over ")

    def test_faults_flag_requires_faults_scenario(self):
        with pytest.raises(SystemExit, match="faults"):
            main(["simulate", "fig5b", "--faults", "0:refuse"])

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(SystemExit, match="bad --faults"):
            main(["simulate", "faults", "--faults", "0:meltdown"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["scale", "--workers", "2"],  # auto never shards over processes
            ["scale", "--engine", "sparse", "--workers", "2"],
            ["fig5b", "--engine", "procs", "--workers", "2"],
        ],
    )
    def test_workers_flag_requires_the_procs_engine(self, argv):
        with pytest.raises(SystemExit, match="--workers only applies to --engine procs"):
            main(["simulate", *argv])


class TestChannel:
    def test_table(self, capsys):
        code = main(["channel", "--size", str(1 << 30)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "cable modem" in stdout
        assert "upload" in stdout and "download" in stdout


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_empty_secret_rejected(self, workspace):
        tmp, src, out = workspace
        with pytest.raises(SystemExit):
            main(["encode", str(src), "--out", str(out), "--secret", ""])

    def test_bad_source_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "decode",
                    str(tmp_path / "nope.txt"),
                    "--manifest",
                    "x",
                    "--secret",
                    "s",
                    "--out",
                    "y",
                ]
            )


class TestObservabilityFlags:
    def _decode_args(self, out, dest):
        return [
            "decode",
            str(out / "peer0"),
            str(out / "peer1"),
            str(out / "peer2"),
            "--manifest",
            str(out / "manifest.json"),
            "--secret",
            "s3cret",
            "--digests",
            str(out / "digests.json"),
            "--out",
            str(dest),
        ]

    def test_simulate_metrics_prints_snapshot(self, capsys):
        code = main(["simulate", "fig5b", "--metrics"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "repro.sim.slots" in stdout
        # Every registered metric appears, even ones this run never hit.
        assert "repro.rlnc.decode.innovative" in stdout
        assert "repro.gf.mul.ns" in stdout

    def test_simulate_trace_writes_monotonic_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(["simulate", "fig5b", "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        stamps = [e["mono_ns"] for e in events]
        assert stamps == sorted(stamps)
        assert any(e["name"] == "sim.slot" for e in events)

    def test_simulate_metrics_out_readable_by_stats(self, tmp_path, capsys):
        snap_file = tmp_path / "metrics.json"
        code = main(["simulate", "fig5b", "--metrics-out", str(snap_file)])
        assert code == 0
        snap = json.loads(snap_file.read_text())
        assert snap["repro.sim.slots"]["value"] > 0
        capsys.readouterr()
        assert main(["stats", str(snap_file)]) == 0
        assert "repro.sim.slots" in capsys.readouterr().out

    def test_simulate_json_round_trips(self, tmp_path, capsys):
        from repro.sim import SimulationResult

        out = tmp_path / "result.json"
        code = main(["simulate", "fig5b", "--json", str(out)])
        assert code == 0
        result = SimulationResult.from_dict(json.loads(out.read_text()))
        assert result.slots > 0 and result.n == 3

    def test_decode_metrics_counts_gf_work(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        dest = tmp / "restored.bin"
        code = main(self._decode_args(out, dest) + ["--metrics"])
        assert code == 0
        assert dest.read_bytes() == src.read_bytes()
        stdout = capsys.readouterr().out
        assert "repro.gf.mul.calls" in stdout
        assert "repro.rlnc.decode.innovative" in stdout

    def test_flags_leave_observability_disabled_afterwards(self, capsys):
        from repro.obs import REGISTRY, TRACER

        assert main(["simulate", "fig5b", "--metrics"]) == 0
        assert not REGISTRY.enabled
        assert not TRACER.enabled


class TestStats:
    def test_catalog_lists_metrics_and_events(self, capsys):
        code = main(["stats"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "repro.gf.mul.calls" in stdout
        assert "repro.sim.alloc_ns" in stdout
        assert "rlnc.offer" in stdout
        assert "transfer.stop" in stdout

    def test_missing_snapshot_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "nope.json")])

    def test_non_snapshot_json_rejected(self, tmp_path):
        odd = tmp_path / "odd.json"
        odd.write_text('{"weird": 1}')
        with pytest.raises(SystemExit, match="not a metrics snapshot"):
            main(["stats", str(odd)])

    def test_format_json_round_trips(self, capsys):
        code = main(["stats", "--format", "json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["repro.sim.slots"]["kind"] == "counter"

    def test_format_openmetrics_validates(self, capsys):
        from repro.obs import validate_openmetrics

        code = main(["stats", "--format", "openmetrics"])
        assert code == 0
        text = capsys.readouterr().out
        validate_openmetrics(text)
        assert "repro_sim_slots_total" in text

    def test_snapshot_file_honors_format(self, tmp_path, capsys):
        from repro.obs import validate_openmetrics

        snap_file = tmp_path / "metrics.json"
        assert main(["simulate", "fig5b", "--metrics-out", str(snap_file)]) == 0
        capsys.readouterr()
        code = main(["stats", str(snap_file), "--format", "openmetrics"])
        assert code == 0
        text = capsys.readouterr().out
        validate_openmetrics(text)
        assert "repro_sim_slots_total" in text


class TestRunReports:
    def test_simulate_report_matches_result_fairness(self, tmp_path, capsys):
        rep_file = tmp_path / "report.json"
        code = main(
            ["simulate", "fig5b", "--report", "--report-json", str(rep_file)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "simulation report" in stdout
        assert "Jain" in stdout
        rep = json.loads(rep_file.read_text())
        assert rep["kind"] == "simulation"
        # The report's trajectory must reproduce the engine's per-slot
        # Jain values, which --report recomputes from the result arrays.
        from repro.obs.report import jain_trajectory
        from repro.sim.scenarios import figure_5b

        expected = jain_trajectory(figure_5b())
        assert rep["fairness"]["trajectory"] == expected
        assert rep["slots"] == len(expected)
        assert rep["trace"]["sim_slots"] == rep["slots"]

    def test_simulate_report_json_only_is_quiet(self, tmp_path, capsys):
        rep_file = tmp_path / "report.json"
        code = main(["simulate", "fig5b", "--report-json", str(rep_file)])
        assert code == 0
        assert "simulation report" not in capsys.readouterr().out
        assert json.loads(rep_file.read_text())["kind"] == "simulation"

    def test_download_report_aggregates_chunks(self, workspace, capsys):
        tmp, src, out = workspace
        encode(src, out)
        rep_file = tmp / "report.json"
        dest = tmp / "restored.bin"
        code = main(
            [
                "download",
                str(out / "peer0"),
                str(out / "peer1"),
                "--manifest", str(out / "manifest.json"),
                "--secret", "s3cret",
                "--digests", str(out / "digests.json"),
                "--out", str(dest),
                "--rate", "4",
                "--faults", "1:pollute",
                "--report",
                "--report-json", str(rep_file),
            ]
        )
        assert code == 0
        assert dest.read_bytes() == src.read_bytes()
        stdout = capsys.readouterr().out
        assert "download report" in stdout
        assert "critical path" in stdout
        rep = json.loads(rep_file.read_text())
        assert rep["kind"] == "download"
        assert rep["chunks"] == 3
        assert rep["complete"] is True
        assert any(f["kind"] == "polluted" for f in rep["failures"])
        assert rep["critical_path"][0]["op"] == "transfer.download"
        assert rep["time_in_state"]["1"]["fault"] == "polluted"

    def _sparse_holders(self, tmp_path, rng):
        """Three sources of a 4-chunk file; peer1 lacks chunk 2."""
        from repro.cli import _load_manifest

        src = tmp_path / "video.bin"
        src.write_bytes(rng.bytes(200_000))
        out = tmp_path / "encoded"
        assert main(
            [
                "encode", str(src), "--out", str(out), "--secret", "s3cret",
                "--peers", "3", "--p", "16", "--m", "2048",
                "--chunk-bytes", "65536",
            ]
        ) == 0
        manifest = _load_manifest(str(out / "manifest.json"))
        assert manifest.n_chunks == 4
        (out / "peer1" / f"{manifest.chunk_ids[2]:016x}.dat").unlink()
        return src, out

    def _download_sparse(self, tmp_path, rng, *extra):
        src, out = self._sparse_holders(tmp_path, rng)
        rep_file = tmp_path / "r.json"
        dest = tmp_path / "got.bin"
        code = main(
            [
                "download",
                *(str(out / f"peer{i}") for i in range(3)),
                "--manifest", str(out / "manifest.json"),
                "--secret", "s3cret",
                "--digests", str(out / "digests.json"),
                "--out", str(dest),
                "--rate", "40",
                "--report-json", str(rep_file),
                *extra,
            ]
        )
        assert code == 0
        assert dest.read_bytes() == src.read_bytes()
        return json.loads(rep_file.read_text())

    def test_download_report_credits_sources_not_positions(self, tmp_path, rng):
        # Chunk 2 is fetched from peer0 and peer2 only: its session
        # positions 0 and 1 are sources 0 and 2.
        rep = self._download_sparse(tmp_path, rng)
        assert rep["per_peer_bytes"] == [110000, 75000, 110000]

    def test_download_report_failures_name_sources(self, tmp_path, rng):
        rep = self._download_sparse(tmp_path, rng, "--faults", "2:pollute")
        assert {f["chunk"] for f in rep["failures"]} == {0, 1, 2, 3}
        assert {f["peer"] for f in rep["failures"]} == {2}


class TestTraceAnalyze:
    def test_reconstructs_download_span_tree(self, workspace, tmp_path, capsys):
        tmp, src, out = workspace
        encode(src, out)
        trace = tmp_path / "trace.jsonl"
        dest = tmp / "restored.bin"
        code = main(
            [
                "download",
                str(out / "peer0"),
                str(out / "peer1"),
                "--manifest", str(out / "manifest.json"),
                "--secret", "s3cret",
                "--digests", str(out / "digests.json"),
                "--out", str(dest),
                "--rate", "4",
                "--faults", "1:pollute",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "analyze", str(trace)]) == 0
        stdout = capsys.readouterr().out
        assert "transfer.download" in stdout
        assert "transfer.peer" in stdout
        assert "transfer.quarantine" in stdout
        assert "polluted" in stdout
        assert "critical path:" in stdout
        assert "time in state:" in stdout

    def test_simulation_trace_fairness_summary(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "fig5b", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "analyze", str(trace)]) == 0
        stdout = capsys.readouterr().out
        assert "sim.run" in stdout
        assert "fairness timeline:" in stdout

    def test_unreadable_trace_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["trace", "analyze", str(tmp_path / "nope.jsonl")])


def _block(text, heading):
    """``heading``'s line plus the indented lines under it."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    block = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        block.append(line)
    return block


class TestTraceAnalyzeMatchesReports:
    """``trace analyze`` and ``--report`` print one ``obs.report`` rendering."""

    def test_download_critical_path_and_time_in_state(
        self, workspace, tmp_path, capsys
    ):
        tmp, src, out = workspace
        encode(src, out)
        trace = tmp_path / "t.jsonl"
        code = main(
            [
                "download",
                str(out / "peer0"),
                str(out / "peer1"),
                str(out / "peer2"),
                "--manifest", str(out / "manifest.json"),
                "--secret", "s3cret",
                "--digests", str(out / "digests.json"),
                "--out", str(tmp / "got.bin"),
                "--rate", "4",
                "--faults", "seed=7;0:pollute;1:crash@300",
                "--trace", str(trace),
                "--report",
            ]
        )
        assert code == 0
        reported = capsys.readouterr().out
        assert main(["trace", "analyze", str(trace)]) == 0
        analyzed = capsys.readouterr().out
        for heading in ("critical path:", "time in state:"):
            assert _block(reported, heading) == _block(analyzed, heading)
        assert len(_block(analyzed, "time in state:")) == 2 + 3  # 3 peers

    def test_simulation_fairness_summary(self, tmp_path, capsys):
        from repro.obs import read_jsonl, report

        trace = tmp_path / "t.jsonl"
        rep_file = tmp_path / "r.json"
        code = main(
            [
                "simulate", "fig5b", "--trace", str(trace),
                "--report", "--report-json", str(rep_file),
            ]
        )
        assert code == 0
        reported = capsys.readouterr().out
        assert main(["trace", "analyze", str(trace)]) == 0
        analyzed = capsys.readouterr().out
        assert (
            _block(reported, "fairness (Jain")[1:]
            == _block(analyzed, "fairness timeline:")[1:]
        )
        sim = json.loads(rep_file.read_text())["fairness"]
        fair = report.trace_report(read_jsonl(trace, meta=True))["fairness"]
        for key in ("final", "mean", "min", "min_slot"):
            assert fair[key] == sim[key]

    def test_ring_drops_warn_exactly_once(self, tmp_path, capsys):
        from repro.obs import TraceBuffer

        ring = TraceBuffer(capacity=4)
        ring.enabled = True
        for t in range(10):
            ring.emit(
                "sim.slot", t=t, jain=1.0, requesting=1, allocated_kbps=1.0
            )
        trace = tmp_path / "t.jsonl"
        ring.write_jsonl(trace)
        assert main(["trace", "analyze", str(trace)]) == 0
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert text.count("trace ring dropped") == 1
        assert "trace ring dropped 6 events" in text

    @pytest.mark.parametrize("report", [[], ["--report"]])
    def test_run_that_drops_warns_once(self, tmp_path, capsys, monkeypatch, report):
        from collections import deque

        from repro.obs import TRACER

        monkeypatch.setattr(TRACER, "capacity", 64)
        monkeypatch.setattr(TRACER, "_events", deque(maxlen=64))
        trace = tmp_path / "t.jsonl"
        assert main(["simulate", "fig5b", "--trace", str(trace), *report]) == 0
        captured = capsys.readouterr()
        assert (captured.out + captured.err).count("trace ring dropped") == 1
